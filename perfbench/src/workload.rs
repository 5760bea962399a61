//! The three benchmark workloads, built from the seed alone.
//!
//! * `e0-hotstuff-4x7` — protocol core: HotStuff ordering, inter-cluster
//!   exchange and the simulator, with the counter state machine and no store.
//! * `kv-write-1kib` — state and store: 90% 1 KiB writes into `KvMachine` with
//!   the durable store checkpointing every 8 rounds; the protocol core is small.
//! * `geo-churn-broker` — reconfiguration, catch-up, the broker tier and
//!   BFT-SMaRt on a heterogeneous geo deployment under an open-loop load.

use ava_broker::{stream_seed, AggregateLoad, AggregateStream, BrokerTier};
use ava_hamava::harness::DeploymentOptions;
use ava_hamava::StateMachineKind;
use ava_scenario::{Protocol, Scenario, ScenarioBuilder, ScenarioEvent};
use ava_store::StoreConfig;
use ava_types::{ClusterId, Duration, Region, ReplicaId, SystemConfig, Time};
use ava_workload::{virtual_client_base, WorkloadSpec};

/// Every workload name, in the order the whole-suite command runs them.
pub const NAMES: [&str; 3] = ["e0-hotstuff-4x7", "kv-write-1kib", "geo-churn-broker"];

/// One fully specified run: what the scenario builder gets, plus what the
/// metrics need to know about the load (when issuance stops, how it is offered).
pub struct Workload {
    pub protocol: Protocol,
    pub config: SystemConfig,
    pub opts: DeploymentOptions,
    pub run: Duration,
    pub events: Vec<(Time, ScenarioEvent)>,
    pub brokers: Option<BrokerTier>,
    /// Runs per benchmark seed, each on its own sub-seed (see [`sub_seed`]):
    /// the virtual-time metrics pool them, so one seed's figures do not hang
    /// on one random schedule.
    pub runs: usize,
}

/// The simulation seed of run `i` of benchmark seed `seed`; run 0 uses the
/// seed itself.
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Workload {
    /// The workload called `name`, seeded with `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "e0-hotstuff-4x7" => Some(e0(seed)),
            "kv-write-1kib" => Some(kv_write(seed)),
            "geo-churn-broker" => Some(geo_churn(seed)),
            _ => None,
        }
    }

    pub fn scenario(&self) -> Scenario {
        self.builder().build()
    }

    pub fn builder(&self) -> ScenarioBuilder {
        let mut builder = Scenario::builder(self.protocol, self.config.clone())
            .options(self.opts.clone())
            .run_for(self.run);
        for (at, event) in &self.events {
            builder = builder.at(*at, event.clone());
        }
        if let Some(tier) = &self.brokers {
            builder = builder.brokers(tier.clone());
        }
        builder
    }

    /// When the load stops offering new operations: the run's end for the
    /// closed-loop clients, `issue_for` for the open-loop generators.
    pub fn issue_end(&self) -> Time {
        Time::ZERO + self.brokers.as_ref().map_or(self.run, |tier| tier.load.issue_for)
    }

    /// Operations the open-loop generators offer over the whole run, counted by
    /// replaying their seeded arrival streams; `None` for closed-loop clients.
    pub fn open_loop_offered(&self) -> Option<u64> {
        let tier = self.brokers.as_ref()?;
        let end = self.issue_end() + Duration::from_secs(1);
        let mut offered = 0;
        for idx in 0..self.config.clusters.len() as u32 {
            let mut stream = AggregateStream::new(
                tier.load.clone(),
                virtual_client_base(idx),
                stream_seed(self.opts.seed, idx),
            );
            // Drain in slices so the replay never holds more than 100 ms of ops.
            let mut at = Time::ZERO;
            while !stream.exhausted() && at <= end {
                at += Duration::from_millis(100);
                stream.drain_until(at);
            }
            offered += stream.issued();
        }
        Some(offered)
    }
}

fn opts(seed: u64) -> DeploymentOptions {
    DeploymentOptions { seed, client_concurrency: 32, ..DeploymentOptions::default() }
}

/// Scaled-down paper E0: 4 clusters × 7 replicas in one region (Table II
/// latency), 1 closed-loop client per cluster with 32 outstanding requests on
/// the default mix (85% reads, 1 KiB payload), batch 20.
fn e0(seed: u64) -> Workload {
    let mut config = SystemConfig::even_split_single_region(28, 4, Region::UsWest);
    config.params.batch_size = 20;
    Workload {
        protocol: Protocol::AvaHotStuff,
        config,
        opts: opts(seed),
        run: Duration::from_secs(10),
        events: Vec::new(),
        brokers: None,
        runs: 4,
    }
}

/// 2 × 4 replicas, `KvMachine`, 90% writes of 1 KiB values, store checkpointing
/// every 8 rounds, the same closed loop as E0.
fn kv_write(seed: u64) -> Workload {
    let mut config = SystemConfig::even_split_single_region(8, 2, Region::UsWest);
    config.params.batch_size = 20;
    Workload {
        protocol: Protocol::AvaHotStuff,
        config,
        opts: DeploymentOptions {
            workload: WorkloadSpec::default().with_read_ratio(0.1),
            store: Some(StoreConfig::every(8)),
            state_machine: StateMachineKind::Kv,
            ..opts(seed)
        },
        run: Duration::from_secs(2),
        events: Vec::new(),
        brokers: None,
        runs: 4,
    }
}

/// Ava-BFT-SMaRt on 7 × asia-south + 4 × europe, YCSB-B into `KvMachine` with
/// the store on, offered open loop by one broker per cluster at 4 000 tps per
/// cluster until 2 s before the end. At ¼ of the run a replica joins europe and
/// one leaves asia; at ½ a europe replica crashes and restarts 2 s later.
fn geo_churn(seed: u64) -> Workload {
    let run = Duration::from_secs(20);
    let config =
        SystemConfig::heterogeneous(&[vec![Region::AsiaSouth; 7], vec![Region::Europe; 4]]);
    let at = |secs: f64| Time::ZERO + Duration::from_micros((secs * 1e6) as u64);
    let quarter = run.as_secs_f64() / 4.0;
    let (asia_leaver, europe_crasher) = (ReplicaId(6), ReplicaId(10));
    let events = vec![
        (at(quarter), ScenarioEvent::Join { cluster: ClusterId(1), region: Region::Europe }),
        (at(quarter), ScenarioEvent::Leave { replica: asia_leaver }),
        (at(2.0 * quarter), ScenarioEvent::Crash { replica: europe_crasher }),
        (at(2.0 * quarter + 2.0), ScenarioEvent::Restart { replica: europe_crasher }),
    ];
    let ycsb_b = WorkloadSpec::ycsb_b();
    let tier = BrokerTier {
        brokers_per_cluster: 1,
        load: AggregateLoad {
            offered_tps: 4_000,
            issue_for: Duration::from_micros(run.as_micros() - 2_000_000),
            workload: ycsb_b.clone(),
            ..AggregateLoad::default()
        },
        ..BrokerTier::default()
    };
    Workload {
        protocol: Protocol::AvaBftSmart,
        config,
        opts: DeploymentOptions {
            clients_per_cluster: 0,
            workload: ycsb_b,
            store: Some(StoreConfig::every(8)),
            state_machine: StateMachineKind::Kv,
            ..opts(seed)
        },
        run,
        events,
        brokers: Some(tier),
        runs: 12,
    }
}
