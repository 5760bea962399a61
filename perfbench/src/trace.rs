//! The traced run: per-layer time and counts.
//!
//! The run is rebuilt by hand from the crates' public constructors so that
//! every actor can be wrapped in a timing decorator ([`Timed`]) and every
//! replica's total-order broadcast in a timing wrapper ([`TimedTob`]).
//! `Deployment::build` and `ava_broker::attach` build the same nodes in the
//! same order; the traced run's output fingerprint must equal the checked
//! run's, which `run.py` verifies, so a drift between this mirror and the
//! harness fails the benchmark instead of skewing it.
//!
//! Layer self times: the simulator core is the time inside
//! `Simulation::run_until` not spent in actor handlers; a replica handler's
//! self time excludes the TOB calls it makes. The decorators' own
//! bookkeeping is measured on empty handlers ([`TracerCost`]) and taken out
//! of the layer it would otherwise inflate. The crypto, state and store
//! kernels run inside those handlers, so they are timed separately through
//! their public functions at the sizes this run uses.

use crate::observe::quantile;
use crate::workload::Workload;
use crate::{HostClock, Json};
use ava_broker::{
    aggregate_node_id, broker_node_id, stream_seed, AggregateClients, AggregateStream, Broker,
    BrokerConfig, Route,
};
use ava_consensus::{
    Block, CommittedBlock, FaultMode, TobAction, TobConfig, TotalOrderBroadcast, WireSize,
};
use ava_crypto::{hmac_sha256, sha256, Digest, KeyRegistry, QuorumCert, SigSet};
use ava_fuzz::fingerprint_outputs;
use ava_hamava::harness::{bftsmart_factory, hotstuff_factory, TobFactory};
use ava_hamava::{
    AvaMsg, Client, ClientConfig, ControlCmd, CorruptReplica, Replica, ReplicaConfig, RoundPackage,
    RoundRecord,
};
use ava_scenario::{
    BrokerStatsObserver, Protocol, ReconfigTraceObserver, RecoveryObserver, RunObserver,
    ScenarioEvent, StageBreakdownObserver,
};
use ava_simnet::{client_node_id, Actor, Context, SimMessage, Simulation};
use ava_state::{machine_for, StateMachine, StateMachineKind};
use ava_store::{Checkpoint, ReplicaStore, StoreConfig};
use ava_types::{
    ClientId, ClusterId, Operation, Output, Region, ReplicaId, Round, Time, Timestamp, Transaction,
};
use ava_workload::{virtual_client_base, ClientWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The message kinds a replica handles, plus its start, timer and restart
/// hooks: the `hamava.handler_*.<kind>` metric names.
const REPLICA_KINDS: [&str; 19] = [
    "Tob",
    "Brd",
    "Election",
    "RemoteLeader",
    "Inter",
    "LocalShare",
    "RequestJoin",
    "RequestLeave",
    "Ack",
    "CurrState",
    "CatchUpRequest",
    "CatchUpReply",
    "ClientRequest",
    "BrokerSubmit",
    "BatchSubmit",
    "Control",
    "start",
    "timer",
    "restart",
];

fn kind<TM>(msg: &AvaMsg<TM>) -> &'static str {
    #[allow(unreachable_patterns)]
    match msg {
        AvaMsg::Tob(_) => "Tob",
        AvaMsg::Brd(_) => "Brd",
        AvaMsg::Election(_) => "Election",
        AvaMsg::RemoteLeader(_) => "RemoteLeader",
        AvaMsg::Inter(_) => "Inter",
        AvaMsg::LocalShare(_) => "LocalShare",
        AvaMsg::RequestJoin { .. } => "RequestJoin",
        AvaMsg::RequestLeave { .. } => "RequestLeave",
        AvaMsg::Ack { .. } => "Ack",
        AvaMsg::CurrState { .. } => "CurrState",
        AvaMsg::CatchUpRequest { .. } => "CatchUpRequest",
        AvaMsg::CatchUpReply { .. } => "CatchUpReply",
        AvaMsg::ClientRequest { .. } => "ClientRequest",
        AvaMsg::BrokerSubmit { .. } => "BrokerSubmit",
        AvaMsg::BatchSubmit(_) => "BatchSubmit",
        AvaMsg::Control(_) => "Control",
        _ => "other",
    }
}

/// TOB entry points timed separately; `other` covers leader changes.
const TOB_CALLS: [&str; 4] = ["broadcast", "on_message", "on_tick", "other"];

/// Time and counts accumulated by the decorators of the (single-threaded) run.
#[derive(Default)]
struct Spans {
    /// Per actor layer and handler kind: (self ns, calls, TOB calls made).
    handlers: BTreeMap<(&'static str, &'static str), (u64, u64, u64)>,
    /// Wall time of every actor handler, TOB calls included.
    actor_ns: u64,
    tob_ns: [u64; 4],
    tob_calls: [u64; 4],
    blocks_delivered: u64,
    block_ops: u64,
}

impl Spans {
    /// TOB nanoseconds and calls so far, over every entry point.
    fn tob_totals(&self) -> (u64, u64) {
        (self.tob_ns.iter().sum(), self.tob_calls.iter().sum())
    }
}

thread_local! {
    static SPANS: RefCell<Spans> = RefCell::new(Spans::default());
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// A [`TotalOrderBroadcast`] that times every call into the wrapped backend.
struct TimedTob<T>(T);

/// Times one TOB call `f` as entry point `call` of [`TOB_CALLS`].
fn timed_tob<M>(call: usize, f: impl FnOnce() -> Vec<TobAction<M>>) -> Vec<TobAction<M>> {
    let t0 = Instant::now();
    let actions = f();
    let ns = elapsed_ns(t0);
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.tob_ns[call] += ns;
        s.tob_calls[call] += 1;
        for action in &actions {
            if let TobAction::Deliver(block) = action {
                s.blocks_delivered += 1;
                s.block_ops += block.block.ops.len() as u64;
            }
        }
    });
    actions
}

impl<T: TotalOrderBroadcast> TotalOrderBroadcast for TimedTob<T> {
    type Msg = T::Msg;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn broadcast(&mut self, op: Operation, now: Time) -> Vec<TobAction<T::Msg>> {
        timed_tob(0, || self.0.broadcast(op, now))
    }

    fn on_message(&mut self, from: ReplicaId, msg: T::Msg, now: Time) -> Vec<TobAction<T::Msg>> {
        timed_tob(1, || self.0.on_message(from, msg, now))
    }

    fn on_tick(&mut self, now: Time) -> Vec<TobAction<T::Msg>> {
        timed_tob(2, || self.0.on_tick(now))
    }

    fn new_leader(
        &mut self,
        leader: ReplicaId,
        ts: Timestamp,
        now: Time,
    ) -> Vec<TobAction<T::Msg>> {
        timed_tob(3, || self.0.new_leader(leader, ts, now))
    }

    fn set_membership(&mut self, members: Vec<ReplicaId>) {
        self.0.set_membership(members);
    }

    fn leader(&self) -> ReplicaId {
        self.0.leader()
    }

    fn set_fault_mode(&mut self, mode: FaultMode) {
        self.0.set_fault_mode(mode);
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// An [`Actor`] decorator timing every handler of the wrapped actor under
/// `layer`, net of the TOB time spent inside it.
struct Timed<A> {
    layer: &'static str,
    inner: A,
}

impl<A> Timed<A> {
    fn time(&mut self, kind: &'static str, f: impl FnOnce(&mut A)) {
        let (tob_ns, tob_calls) = SPANS.with(|s| s.borrow().tob_totals());
        let t0 = Instant::now();
        f(&mut self.inner);
        let ns = elapsed_ns(t0);
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let (tob_ns_after, tob_calls_after) = s.tob_totals();
            s.actor_ns += ns;
            let entry = s.handlers.entry((self.layer, kind)).or_default();
            entry.0 += ns.saturating_sub(tob_ns_after - tob_ns);
            entry.1 += 1;
            entry.2 += tob_calls_after - tob_calls;
        });
    }
}

impl<TM, A> Actor<AvaMsg<TM>> for Timed<A>
where
    A: Actor<AvaMsg<TM>>,
    AvaMsg<TM>: SimMessage,
{
    fn on_start(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        self.time("start", |a| a.on_start(ctx));
    }

    fn on_message(&mut self, from: ReplicaId, msg: AvaMsg<TM>, ctx: &mut Context<'_, AvaMsg<TM>>) {
        self.time(kind(&msg), |a| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<'_, AvaMsg<TM>>) {
        self.time("timer", |a| a.on_timer(timer, ctx));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, AvaMsg<TM>>) {
        self.time("restart", |a| a.on_restart(ctx));
    }

    fn on_corrupt(&mut self, tag: u64) {
        self.inner.on_corrupt(tag);
    }
}

/// Per-call host cost of the decorators' own bookkeeping, measured on empty
/// handlers. The part inside a timed window is charged to the handler or TOB
/// call it wraps; the part outside is charged to what encloses it: the
/// simulator core for an actor handler, the replica for a TOB call. An
/// estimate: the real handlers run with colder caches.
struct TracerCost {
    handler_in: f64,
    handler_out: f64,
    tob_in: f64,
    tob_out: f64,
}

impl TracerCost {
    fn measure() -> Self {
        const N: usize = 200_000;
        let mut spans = Spans::default();
        for kind in REPLICA_KINDS {
            spans.handlers.insert(("hamava", kind), Default::default());
        }
        SPANS.with(|s| *s.borrow_mut() = spans);
        let mut timed = Timed { layer: "hamava", inner: () };
        let t0 = Instant::now();
        for i in 0..N {
            timed.time(REPLICA_KINDS[i % REPLICA_KINDS.len()], |_| {});
        }
        let handler_ns = elapsed_ns(t0);
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(timed_tob::<()>(0, Vec::new));
        }
        let tob_ns = elapsed_ns(t0);
        let spans = SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()));
        let per_call = |ns: u64| ns as f64 / N as f64;
        TracerCost {
            handler_in: per_call(spans.actor_ns),
            handler_out: per_call(handler_ns.saturating_sub(spans.actor_ns)),
            tob_in: per_call(spans.tob_ns[0]),
            tob_out: per_call(tob_ns.saturating_sub(spans.tob_ns[0])),
        }
    }
}

/// The hand-built mirror of `Deployment` with every node decorated.
struct TracedDeployment<'w, T: TotalOrderBroadcast + 'static> {
    w: &'w Workload,
    sim: Simulation<AvaMsg<T::Msg>>,
    registry: KeyRegistry,
    factory: TobFactory<T>,
    next_replica_id: u32,
}

impl<'w, T> TracedDeployment<'w, T>
where
    T: TotalOrderBroadcast + 'static,
    T::Msg: Clone + WireSize + 'static,
    AvaMsg<T::Msg>: SimMessage,
{
    /// Mirrors `Deployment::build`, then `ava_broker::attach` when the
    /// workload has a broker tier.
    fn build(w: &'w Workload, factory: TobFactory<T>) -> Self {
        let (config, opts) = (&w.config, &w.opts);
        let mut dep = TracedDeployment {
            w,
            sim: Simulation::new(opts.seed, opts.latency.clone(), opts.costs),
            registry: KeyRegistry::new(),
            factory,
            next_replica_id: config.max_replica_id() + 1,
        };
        for spec in &config.clusters {
            let members: Vec<ReplicaId> = spec.replicas.iter().map(|(id, _)| *id).collect();
            for &(id, region) in &spec.replicas {
                dep.add_replica(id, region, spec.id, members.clone(), members[0], false);
            }
        }
        let mut next_client = 0;
        for spec in &config.clusters {
            for _ in 0..opts.clients_per_cluster {
                let id = ClientId(next_client);
                next_client += 1;
                let targets: Vec<ReplicaId> = spec.replicas.iter().map(|(r, _)| *r).collect();
                let region = spec.replicas.first().map(|(_, reg)| *reg).unwrap_or_default();
                let mut ccfg = ClientConfig::new(id, spec.id, targets);
                ccfg.concurrency = opts.client_concurrency;
                let client: Client<T::Msg> =
                    Client::new(ccfg, ClientWorkload::new(opts.workload.clone(), id));
                dep.add_node(client_node_id(id), region, spec.id, "client", client);
            }
        }
        if let Some(tier) = &w.brokers {
            let mut broker_idx = 0;
            for (agg_idx, spec) in config.clusters.iter().enumerate() {
                let agg_idx = agg_idx as u32;
                let targets: Vec<ReplicaId> = spec.replicas.iter().map(|(id, _)| *id).collect();
                let region = spec.replicas.first().map(|(_, reg)| *reg).unwrap_or_default();
                let mut brokers = Vec::new();
                for _ in 0..tier.brokers_per_cluster {
                    let node = broker_node_id(broker_idx);
                    broker_idx += 1;
                    let keypair = dep.registry.register(node);
                    let cfg = BrokerConfig {
                        node,
                        cluster: spec.id,
                        aggregate: aggregate_node_id(agg_idx),
                        targets: targets.clone(),
                        max_batch_ops: tier.max_batch_ops,
                        flush_interval: tier.flush_interval,
                        max_inflight: tier.max_inflight,
                        queue_cap: tier.queue_cap,
                        retry_timeout: tier.retry_timeout,
                    };
                    let broker: Broker<T::Msg> = Broker::new(cfg, keypair);
                    dep.add_node(node, region, spec.id, "broker", broker);
                    brokers.push(node);
                }
                let route = if brokers.is_empty() {
                    Route::Direct(targets)
                } else {
                    Route::Brokers(brokers)
                };
                let stream = AggregateStream::new(
                    tier.load.clone(),
                    virtual_client_base(agg_idx),
                    stream_seed(opts.seed, agg_idx),
                );
                let node = aggregate_node_id(agg_idx);
                let agg: AggregateClients<T::Msg> =
                    AggregateClients::new(node, spec.id, stream, route);
                dep.add_node(node, region, spec.id, "broker", agg);
            }
        }
        dep
    }

    fn add_node<A>(
        &mut self,
        id: ReplicaId,
        region: Region,
        cluster: ClusterId,
        layer: &'static str,
        actor: A,
    ) where
        A: Actor<AvaMsg<T::Msg>> + Send + 'static,
    {
        self.sim.add_node(id, region, cluster.0, Box::new(Timed { layer, inner: actor }));
    }

    fn add_replica(
        &mut self,
        id: ReplicaId,
        region: Region,
        cluster: ClusterId,
        members: Vec<ReplicaId>,
        leader: ReplicaId,
        joining: bool,
    ) {
        let (config, opts) = (&self.w.config, &self.w.opts);
        let keypair = self.registry.register(id);
        let mut tob_cfg = TobConfig::new(cluster, id, members);
        tob_cfg.max_block_size = config.params.batch_size;
        tob_cfg.timeout = config.params.local_timeout;
        let tob = TimedTob((self.factory)(tob_cfg, keypair.clone(), self.registry.clone(), leader));
        let mut rcfg = ReplicaConfig::new(id, region, cluster, config.params, config.membership());
        rcfg.joining = joining;
        rcfg.store = opts.store;
        rcfg.machine = opts.state_machine;
        let replica = Replica::new(rcfg, keypair, self.registry.clone(), tob);
        self.add_node(id, region, cluster, "hamava", CorruptReplica::new(replica));
    }

    /// Mirrors the scenario runner's event application for the events the
    /// workloads schedule.
    fn apply(&mut self, event: &ScenarioEvent) {
        let now = self.sim.now();
        match event {
            ScenarioEvent::Crash { replica } => self.sim.crash_at(*replica, now),
            ScenarioEvent::Restart { replica } => self.sim.restart_at(*replica, now),
            ScenarioEvent::Leave { replica } => {
                let msg = AvaMsg::Control(ControlCmd::RequestLeave);
                self.sim.external_send(*replica, *replica, msg, now);
            }
            ScenarioEvent::Join { cluster, region } => {
                let id = ReplicaId(self.next_replica_id);
                self.next_replica_id += 1;
                let members = self.w.config.membership().member_ids(*cluster);
                let leader = members.first().copied().unwrap_or(id);
                self.add_replica(id, *region, *cluster, members, leader, true);
            }
            other => panic!("the traced run does not mirror {other:?}"),
        }
    }

    /// Mirrors `Scenario::run_observed` without ticks: run to each event
    /// time, feed the new outputs to `observers`, apply the events. Returns
    /// the nanoseconds spent inside `run_until`.
    fn run(&mut self, observers: &mut [&mut dyn RunObserver]) -> u64 {
        let events = self.w.scenario().schedule().sorted();
        let mut boundaries: Vec<Time> = events.iter().map(|(at, _)| *at).collect();
        boundaries.dedup();
        let (mut stepping_ns, mut cursor) = (0, 0);
        let mut next_event = 0;
        for t in boundaries.into_iter().chain([Time::ZERO + self.w.run]) {
            let t0 = Instant::now();
            self.sim.run_until(t);
            stepping_ns += elapsed_ns(t0);
            for output in &self.sim.outputs()[cursor..] {
                for obs in observers.iter_mut() {
                    obs.on_output(output);
                }
            }
            cursor = self.sim.outputs().len();
            while let Some((at, event)) = events.get(next_event).filter(|(at, _)| *at == t) {
                for obs in observers.iter_mut() {
                    obs.on_event(*at, event);
                }
                self.apply(event);
                next_event += 1;
            }
        }
        stepping_ns
    }
}

/// Counts the traced run needs beyond the built-in observers.
#[derive(Default)]
struct LayerCounts {
    writes: u64,
    checkpoints: u64,
    flushes: u64,
    queued_at_flush: u64,
    kv_entries: u64,
}

impl RunObserver for LayerCounts {
    fn on_output(&mut self, output: &Output) {
        match output {
            Output::TxCompleted { is_write: true, .. } => self.writes += 1,
            Output::CheckpointInstalled { .. } => self.checkpoints += 1,
            Output::BrokerFlushed { queue, .. } => {
                self.flushes += 1;
                self.queued_at_flush += *queue as u64;
            }
            Output::StateDigest { entries, .. } => self.kv_entries = self.kv_entries.max(*entries),
            _ => {}
        }
    }
}

/// Per-layer metrics, with a reason for each one that does not apply.
#[derive(Default)]
struct Layers {
    values: Json,
    na: Json,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        self.values.num(name, value);
    }

    fn na(&mut self, name: &str, reason: &str) {
        self.values.num(name, 0.0);
        self.na.str(name, reason);
    }
}

/// After one untimed warm-up run (the first run in a process also pays for
/// faulting in its heap), untraced and traced runs alternate twice, so the
/// overhead compares like with like on a host whose speed drifts; the layer
/// metrics are the second traced run's.
pub fn trace(w: &Workload) -> Json {
    let (mut untraced_s, mut traced_s, mut prints) = (0.0, 0.0, Vec::new());
    let mut layers = Layers::default();
    let mut sizes = RunSizes::default();
    for pass in 0..3 {
        let mut clock = HostClock::default();
        let run = w.scenario().run_observed(&mut [&mut clock]);
        prints.push(fingerprint_outputs(&run.outputs, &run.stats));
        drop(run);
        if pass == 0 {
            continue;
        }
        untraced_s += clock.wall_s();

        layers = Layers::default();
        let (print, secs, run_sizes) = match w.protocol {
            Protocol::AvaHotStuff => traced_run(w, hotstuff_factory(), &mut layers),
            Protocol::AvaBftSmart => traced_run(w, bftsmart_factory(), &mut layers),
            Protocol::GeoBft => unreachable!("no workload runs the GeoBFT baseline"),
        };
        traced_s += secs;
        prints.push(print);
        sizes = run_sizes;
    }
    layers.put("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    kernels(w, sizes, &mut layers);
    let mut out = Json::default();
    out.strs("fingerprints", &prints).obj("metrics", &layers.values).obj("na", &layers.na);
    out
}

/// Sizes of the traced run that the layer kernels reproduce.
#[derive(Default, Clone, Copy)]
struct RunSizes {
    ops_per_block: usize,
    kv_entries: u64,
}

fn traced_run<T>(
    w: &Workload,
    factory: TobFactory<T>,
    layers: &mut Layers,
) -> (String, f64, RunSizes)
where
    T: TotalOrderBroadcast + 'static,
    T::Msg: Clone + WireSize + 'static,
    AvaMsg<T::Msg>: SimMessage,
{
    let cost = TracerCost::measure();
    SPANS.with(|s| *s.borrow_mut() = Spans::default());
    let mut dep = TracedDeployment::build(w, factory);
    let (mut stages, mut brokers, mut recovery, mut rounds, mut counts) = (
        StageBreakdownObserver::new(),
        BrokerStatsObserver::new(),
        RecoveryObserver::new(),
        ReconfigTraceObserver::new(),
        LayerCounts::default(),
    );
    let t1 = Instant::now();
    let stepping_ns =
        dep.run(&mut [&mut stages, &mut brokers, &mut recovery, &mut rounds, &mut counts]);
    let traced_ns = elapsed_ns(t1);
    let print = fingerprint_outputs(dep.sim.outputs(), dep.sim.stats());
    let spans = SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let stats = dep.sim.stats().clone();
    drop(dep);

    let writes = counts.writes.max(1) as f64;
    // Self time net of the tracer: the handler's own window, and the outer
    // part of every TOB call it made.
    let self_ns = |&(ns, calls, tob_calls): &(u64, u64, u64)| -> f64 {
        (ns as f64 - calls as f64 * cost.handler_in - tob_calls as f64 * cost.tob_out).max(0.0)
    };
    let layer_ns = |layer: &str| -> f64 {
        spans.handlers.iter().filter(|((l, _), _)| *l == layer).map(|(_, h)| self_ns(h)).sum()
    };
    let handler_calls: u64 = spans.handlers.values().map(|h| h.1).sum();
    let (tob_ns, tob_calls) = spans.tob_totals();
    let tracer_ns = handler_calls as f64 * (cost.handler_in + cost.handler_out)
        + tob_calls as f64 * (cost.tob_in + cost.tob_out);
    let tob_self_ns = (tob_ns as f64 - tob_calls as f64 * cost.tob_in).max(0.0);
    let core_ns = (stepping_ns.saturating_sub(spans.actor_ns) as f64
        - handler_calls as f64 * cost.handler_out)
        .max(0.0);
    let pct = |ns: f64| 100.0 * ns / traced_ns as f64;

    layers.put("trace.tracer_ns_per_handler", cost.handler_in + cost.handler_out);
    layers.put("trace.tracer_ns_per_tob_call", cost.tob_in + cost.tob_out);
    layers.put("share.simnet_core_pct", pct(core_ns));
    layers.put("share.hamava_pct", pct(layer_ns("hamava")));
    layers.put("share.tob_pct", pct(tob_self_ns));
    layers.put("share.client_pct", pct(layer_ns("client")));
    layers.put("share.broker_pct", pct(layer_ns("broker")));
    layers.put("share.tracer_pct", pct(tracer_ns));
    layers.put("share.unattributed_pct", pct(traced_ns.saturating_sub(stepping_ns) as f64));

    layers.put("simnet.events", stats.events_processed as f64);
    layers.put("simnet.core_ns_per_event", core_ns / stats.events_processed.max(1) as f64);
    layers.put("simnet.msgs_per_write", stats.total_messages() as f64 / writes);
    layers.put("simnet.bytes_per_write", stats.bytes_sent as f64 / writes);
    layers.put("simnet.global_msgs_per_write", stats.global_messages as f64 / writes);
    layers.put("simnet.dropped_msgs", stats.dropped_messages as f64);

    for (i, call) in TOB_CALLS.iter().take(3).enumerate() {
        let calls = spans.tob_calls[i];
        let ns = (spans.tob_ns[i] as f64 - calls as f64 * cost.tob_in).max(0.0);
        layers.put(&format!("tob.ns.{call}"), ns / calls.max(1) as f64);
        layers.put(&format!("tob.calls.{call}"), calls as f64);
    }
    layers.put("tob.ops_per_block", spans.block_ops as f64 / spans.blocks_delivered.max(1) as f64);
    layers.put("tob.leader_changes", rounds.leader_changes().len() as f64);

    for kind in REPLICA_KINDS {
        let handler = spans.handlers.get(&("hamava", kind)).copied().unwrap_or_default();
        let calls = handler.1;
        layers.put(&format!("hamava.handler_ns.{kind}"), self_ns(&handler) / calls.max(1) as f64);
        layers.put(&format!("hamava.handler_calls.{kind}"), calls as f64);
    }
    let executed = rounds.rounds().values().filter(|r| r.executions > 0).count();
    layers.put("hamava.rounds", executed as f64);
    let [intra, inter, execution] = stages.breakdown();
    layers.put("hamava.stage_ms.intra_cluster", intra);
    layers.put("hamava.stage_ms.inter_cluster", inter);
    layers.put("hamava.stage_ms.execution", execution);

    if w.opts.store.is_some() {
        layers.put("store.checkpoints", counts.checkpoints as f64);
    } else {
        layers.na("store.checkpoints", "the store is off");
    }

    if w.brokers.is_some() {
        layers.put("broker.ops_per_batch", brokers.mean_occupancy());
        layers.put("broker.shed_ops", brokers.total_shed() as f64);
        layers.put(
            "broker.mean_occupancy",
            counts.queued_at_flush as f64 / counts.flushes.max(1) as f64,
        );
    } else {
        for name in ["broker.ops_per_batch", "broker.shed_ops", "broker.mean_occupancy"] {
            layers.na(name, "closed-loop clients, no broker tier");
        }
    }
    let restarts = w.events.iter().any(|(_, e)| matches!(e, ScenarioEvent::Restart { .. }));
    match recovery.max_time_to_caught_up() {
        Some(d) => {
            layers.put("recovery.time_to_caught_up_ms", d.as_millis_f64());
            layers.put("recovery.bytes_transferred", recovery.total_bytes_transferred() as f64);
        }
        None => {
            let why = if restarts {
                "a restarted replica had not caught up by the run's end"
            } else {
                "no replica restarts"
            };
            layers.na("recovery.time_to_caught_up_ms", why);
            layers.na("recovery.bytes_transferred", why);
        }
    }
    // Distinct (replica, joined) pairs: a reconfiguration shows in the rounds
    // of every cluster that applies it.
    let applied: BTreeSet<_> = rounds.rounds().values().flat_map(|r| &r.reconfigs).collect();
    if w.events.iter().any(|(_, e)| e.is_reconfig()) {
        layers.put("reconfig.applied", applied.len() as f64);
    } else {
        layers.na("reconfig.applied", "no joins or leaves scheduled");
    }
    let sizes = RunSizes {
        ops_per_block: (spans.block_ops / spans.blocks_delivered.max(1)).max(1) as usize,
        kv_entries: counts.kv_entries,
    };
    (print, traced_ns as f64 / 1e9, sizes)
}

/// Median nanoseconds per call of `f` over `reps` batches of `n` calls each,
/// `f(i)` being call `i` of the batch.
fn ns_per_call(n: usize, reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..n {
                f(i);
            }
            elapsed_ns(t0) / n as u64
        })
        .collect();
    samples.sort_unstable();
    quantile(&samples, 0.5) as f64
}

/// Times the crypto, state and store kernels through their public functions
/// at this workload's sizes: 1 KiB payloads, its clusters' quorum, its
/// ops per block and the key count its KV state reached.
fn kernels(w: &Workload, sizes: RunSizes, layers: &mut Layers) {
    const N: usize = 2_000;
    const REPS: usize = 7;
    let RunSizes { ops_per_block, kv_entries } = sizes;
    let payload = vec![0xa5u8; w.opts.workload.payload_size as usize];
    let small = [0x5au8; 64];
    layers.put("crypto.sha256_ns_per_kib", {
        let kib = payload.len() as f64 / 1024.0;
        ns_per_call(N, REPS, |_| {
            black_box(sha256(black_box(&payload)));
        }) / kib
    });
    layers.put(
        "crypto.sha256_ns_64b",
        ns_per_call(N, REPS, |_| {
            black_box(sha256(black_box(&small)));
        }),
    );
    let key = [7u8; 32];
    layers.put(
        "crypto.hmac_ns",
        ns_per_call(N, REPS, |i| {
            black_box(hmac_sha256(&key, &(i as u64).to_le_bytes()));
        }),
    );

    // Fresh digests throughout: the registry and certificates memoise
    // verdicts per digest, and the run pays the first, uncached check.
    let n = w.config.clusters[0].replicas.len();
    let quorum = 2 * ((n - 1) / 3) + 1;
    let registry = KeyRegistry::new();
    let keys: Vec<_> = (0..n as u32).map(|i| registry.register(ReplicaId(i))).collect();
    let members: Vec<ReplicaId> = (0..n as u32).map(ReplicaId).collect();
    let mut fresh = 0u64;
    let mut digests = |count: usize| -> Vec<Digest> {
        (0..count)
            .map(|_| {
                fresh += 1;
                Digest::of_bytes(&fresh.to_le_bytes())
            })
            .collect()
    };
    let ds = digests(N);
    layers.put(
        "crypto.sign_ns",
        ns_per_call(N, 1, |i| {
            black_box(keys[0].sign(&ds[i]));
        }),
    );
    let sigs: Vec<_> = ds.iter().map(|d| keys[1].sign(d)).collect();
    layers.put(
        "crypto.verify_ns",
        ns_per_call(N, 1, |i| {
            black_box(registry.verify(&ds[i], &sigs[i]));
        }),
    );
    let mut cert_ns = Vec::new();
    for _ in 0..REPS {
        let ds = digests(N / 4);
        let certs: Vec<QuorumCert> = ds
            .iter()
            .map(|d| {
                let sigs: SigSet = keys[..quorum].iter().map(|k| k.sign(d)).collect();
                QuorumCert::new(ClusterId(0), *d, sigs)
            })
            .collect();
        cert_ns.push(ns_per_call(certs.len(), 1, |i| {
            assert!(certs[i].is_valid(&registry, &ds[i], &members, quorum));
        }) as u64);
    }
    cert_ns.sort_unstable();
    layers.put("crypto.cert_verify_ns", quantile(&cert_ns, 0.5) as f64);

    let mut rng = StdRng::seed_from_u64(w.opts.seed);
    let spec = &w.opts.workload;
    let (write_spec, sampler) = (spec.clone().write_only(), spec.sampler());
    let writes: Vec<Transaction> = (0..N as u64)
        .map(|seq| write_spec.next_transaction(ClientId(0), seq, &sampler, &mut rng))
        .collect();
    match w.opts.state_machine {
        StateMachineKind::Kv => {
            // Grow the state to the size the run reached before timing on it.
            let mut kv = machine_for(StateMachineKind::Kv);
            let mut seq = 0;
            while kv.entries() < kv_entries {
                let key = seq % spec.key_space;
                let tx = Transaction::write(ClientId(1), seq, key, spec.payload_size);
                kv.apply(Round(0), &tx);
                seq += 1;
            }
            let mut round = 0;
            layers.put(
                "state.kv_write_ns",
                ns_per_call(N, REPS, |i| {
                    round += 1;
                    black_box(kv.apply(Round(round), &writes[i]));
                }),
            );
            layers.put(
                "state.kv_read_ns",
                ns_per_call(N, REPS, |i| {
                    black_box(kv.read_len(writes[i].kind.key()));
                }),
            );
            layers.put(
                "state.digest_ns",
                ns_per_call(N, REPS, |_| {
                    black_box(kv.digest());
                }),
            );
            layers.na("state.counter_write_ns", "the workload runs the KV machine");
            store_kernels(w, ops_per_block, &*kv, &keys[..quorum], layers);
        }
        StateMachineKind::Counter => {
            let mut counter = machine_for(StateMachineKind::Counter);
            layers.put(
                "state.counter_write_ns",
                ns_per_call(N, REPS, |i| {
                    black_box(counter.apply(Round(1), &writes[i]));
                }),
            );
            for name in ["state.kv_write_ns", "state.kv_read_ns", "state.digest_ns"] {
                layers.na(name, "the workload runs the counter machine");
            }
            for name in ["store.append_ns", "store.checkpoint_ns"] {
                layers.na(name, "the store is off");
            }
        }
    }
}

/// `append_round` of a round record shaped like this run's (one block of
/// `ops_per_block` ops per cluster, quorum-certified), and a checkpoint of
/// `machine`'s state as the replica takes it.
fn store_kernels(
    w: &Workload,
    ops_per_block: usize,
    machine: &dyn StateMachine,
    signers: &[ava_crypto::Keypair],
    layers: &mut Layers,
) {
    const ROUNDS: usize = 500;
    let mut rng = StdRng::seed_from_u64(w.opts.seed ^ 1);
    let spec = &w.opts.workload;
    let sampler = spec.sampler();
    let mut seq = 0;
    let mut record = |round: u64| -> Arc<RoundRecord> {
        let packages = w
            .config
            .clusters
            .iter()
            .map(|c| {
                let ops = (0..ops_per_block)
                    .map(|_| {
                        seq += 1;
                        Operation::Trans(spec.next_transaction(
                            ClientId(0),
                            seq,
                            &sampler,
                            &mut rng,
                        ))
                    })
                    .collect();
                let block = Arc::new(Block::new(c.id, round, c.replicas[0].0, ops));
                let digest = block.digest();
                let sigs: SigSet = signers.iter().map(|k| k.sign(&digest)).collect();
                let cert = QuorumCert::new(c.id, digest, sigs);
                Arc::new(RoundPackage::new(
                    c.id,
                    Round(round),
                    vec![CommittedBlock { block, cert }],
                    Vec::new(),
                    None,
                ))
            })
            .collect();
        Arc::new(RoundRecord::new(Round(round), packages))
    };
    let mut samples = Vec::new();
    for _ in 0..5 {
        let records: Vec<_> = (1..=ROUNDS as u64).map(&mut record).collect();
        let mut store = ReplicaStore::new(StoreConfig::every(8));
        let mut records = records.into_iter();
        samples.push(ns_per_call(ROUNDS, 1, |_| {
            black_box(store.append_round(records.next().expect("one record per call")));
        }) as u64);
    }
    samples.sort_unstable();
    layers.put("store.append_ns", quantile(&samples, 0.5) as f64);

    let membership = w.config.membership();
    let mut store: ReplicaStore<Arc<RoundRecord>> = ReplicaStore::new(StoreConfig::every(8));
    layers.put(
        "store.checkpoint_ns",
        ns_per_call(1, 7, |_| {
            let round = Round(store.stats().checkpoints * 8 + 8);
            let cp = Checkpoint::new(round, machine.snapshot(), membership.clone(), 0, 0);
            black_box(store.install_checkpoint(Arc::new(cp)));
        }),
    );
}
