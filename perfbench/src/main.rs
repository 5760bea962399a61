//! The repository benchmark's measuring program. `run.py` drives it: one
//! process per phase, so the timed phase's peak RSS holds only the program.
//!
//! ```text
//! perfbench check --workload <name> --seed <n>
//! perfbench time  --workload <name> --seed <n> --seconds <s> --part <i>
//! perfbench trace --workload <name> --seed <n>
//! ```
//!
//! * `check` runs each of the seed's sub-seed runs under
//!   `CheckerSet::standard()` and reports the violations, each run's output
//!   fingerprint and deterministic counters, and the pooled virtual-time
//!   metrics.
//! * `time` times set-up, then repeats the untraced run of sub-seed 0 for
//!   `--seconds` seconds and reports each repeat's host wall and CPU time at
//!   the reference speed of [`speed`], its counters and fingerprint, and the
//!   process's peak RSS.
//! * `trace` runs once untraced and once through timing decorators, and
//!   reports the per-layer metrics with the tracing overhead.
//!
//! Each phase prints one JSON object on its last stdout line.

mod observe;
mod speed;
mod trace;
mod workload;

use ava_fuzz::{fingerprint_outputs, CheckerSet};
use ava_scenario::{DynDeployment, RunObserver, RunPool};
use ava_types::{Duration, Output, Time};
use observe::{quantile, SimMetrics};
use speed::{RefKernel, REF_SAMPLE_S};
use std::time::Instant;
use workload::{sub_seed, Workload};

/// Deployments timed before each timed repeat for `setup_s`.
const SETUP_PER_REPEAT: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let phase = args.get(1).map(String::as_str).unwrap_or("");
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
    let seconds: f64 = arg("--seconds").and_then(|s| s.parse().ok()).unwrap_or(10.0);
    let part: usize = arg("--part").and_then(|s| s.parse().ok()).unwrap_or(0);
    let name = arg("--workload").unwrap_or_else(|| usage());
    let out = match phase {
        "check" => check(name, seed),
        "time" => time(name, seed, seconds, part),
        "trace" => trace::trace(&workload_of(name, seed)),
        _ => usage(),
    };
    println!("{}", out.finish());
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <check|time|trace> --workload <{}> --seed <n> [--seconds <s>] [--part <i>]",
        workload::NAMES.join("|")
    );
    std::process::exit(2);
}

/// What one checked run contributes to the pooled metrics.
struct CheckedRun {
    violations: usize,
    fingerprint: String,
    events: u64,
    completed: u64,
    attempted: u64,
    failed: u64,
    max_gap_us: u64,
    issue_secs: f64,
    write_us: Vec<u64>,
    read_us: Vec<u64>,
}

fn check_run(w: &Workload) -> CheckedRun {
    let mut checkers = CheckerSet::standard();
    let mut sim = SimMetrics::new(w.config.clusters.iter().map(|c| c.id), w.issue_end());
    let run = w.scenario().run_observed(&mut [&mut checkers, &mut sim]);
    let violations = checkers.violations();
    for v in &violations {
        eprintln!("seed {}: violation: {v:?}", w.opts.seed);
    }
    let concurrency = w.opts.client_concurrency as u64;
    let (attempted, failed) = match w.open_loop_offered() {
        // Issuance stops 2 s before the end: an offered op not completed by
        // then has failed.
        Some(offered) => (offered, offered.saturating_sub(sim.completed())),
        // A closed-loop run stops with `concurrency` requests per client in
        // flight; only requests the clients abandoned have failed.
        None => (sim.closed_loop_attempted(concurrency), sim.closed_loop_abandoned(concurrency)),
    };
    let (completed, max_gap_us) = (sim.completed(), sim.max_gap_us());
    let (write_us, read_us) = sim.into_latencies();
    CheckedRun {
        violations: violations.len(),
        fingerprint: fingerprint_outputs(&run.outputs, &run.stats),
        events: run.stats.events_processed,
        completed,
        attempted,
        failed,
        max_gap_us,
        issue_secs: w.issue_end().as_secs_f64(),
        write_us,
        read_us,
    }
}

/// Checks every sub-seed run of `seed`, two at a time: the phase measures
/// no host time, so it may use both cores.
fn check(name: &str, seed: u64) -> Json {
    let runs = workload_of(name, seed).runs;
    let checked: Vec<CheckedRun> = RunPool::new(2)
        .map((0..runs).collect(), |_, i| check_run(&workload_of(name, sub_seed(seed, i))));

    let sum = |f: fn(&CheckedRun) -> u64| checked.iter().map(f).sum::<u64>();
    let (completed, attempted) = (sum(|r| r.completed), sum(|r| r.attempted));
    let mut write_us: Vec<u64> = checked.iter().flat_map(|r| r.write_us.iter().copied()).collect();
    let mut read_us: Vec<u64> = checked.iter().flat_map(|r| r.read_us.iter().copied()).collect();
    write_us.sort_unstable();
    read_us.sort_unstable();
    let secs: f64 = checked.iter().map(|r| r.issue_secs).sum();
    let ms = |us: u64| us as f64 / 1e3;
    let prints: Vec<String> = checked.iter().map(|r| r.fingerprint.clone()).collect();
    let run_events: Vec<f64> = checked.iter().map(|r| r.events as f64).collect();
    let run_completed: Vec<f64> = checked.iter().map(|r| r.completed as f64).collect();
    let mut out = Json::default();
    out.str("workload", name)
        .num("violations", checked.iter().map(|r| r.violations).sum::<usize>() as f64)
        .strs("fingerprints", &prints)
        .list("run_events", &run_events)
        .list("run_completed", &run_completed)
        .num("completed", completed as f64)
        .num("attempted", attempted as f64)
        .num("failed", sum(|r| r.failed) as f64)
        .num("writes", write_us.len() as f64)
        .num("reads", read_us.len() as f64)
        .num("sim_write_tps", write_us.len() as f64 / secs)
        .num("sim_write_p50_ms", ms(quantile(&write_us, 0.50)))
        .num("sim_write_p99_ms", ms(quantile(&write_us, 0.99)))
        .num("sim_read_p99_ms", ms(quantile(&read_us, 0.99)))
        .num("sim_max_gap_ms", ms(checked.iter().map(|r| r.max_gap_us).max().unwrap_or(0)))
        .num("failed_frac", attempted.saturating_sub(completed) as f64 / attempted.max(1) as f64);
    out
}

fn workload_of(name: &str, seed: u64) -> Workload {
    Workload::new(name, seed).unwrap_or_else(|| usage())
}

/// Records host wall and thread CPU time of the simulation proper (after
/// deployment, up to the run's end), in slices cut at every observer tick.
/// With a reference kernel it also samples the host's speed after every
/// slice (outside the slices' time).
#[derive(Default)]
pub struct HostClock {
    open: Option<(Instant, u64)>,
    /// (wall, CPU) seconds of each slice.
    slices: Vec<(f64, f64)>,
    kernel: Option<RefKernel>,
    /// The kernel's sample time after each slice.
    samples: Vec<f64>,
}

impl HostClock {
    fn with_kernel(kernel: RefKernel) -> Self {
        HostClock { kernel: Some(kernel), ..HostClock::default() }
    }

    fn open_slice(&mut self) {
        self.open = Some((Instant::now(), thread_cpu_ns()));
    }

    fn close_slice(&mut self) {
        if let Some((wall, cpu)) = self.open.take() {
            let cpu_s = thread_cpu_ns().saturating_sub(cpu) as f64 / 1e9;
            self.slices.push((wall.elapsed().as_secs_f64(), cpu_s));
            if let Some(kernel) = &mut self.kernel {
                self.samples.push(kernel.sample());
            }
        }
    }

    /// Host wall seconds between the run's start and end.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|(wall, _)| wall).sum()
    }

    /// How much slower than the reference speed the host ran the run: the
    /// kernel's median sample time over [`REF_SAMPLE_S`]. The median, not
    /// the mean, because a sample that an interrupt lands in reads several
    /// times too long.
    fn slowdown(&mut self) -> f64 {
        median(&mut self.samples) / REF_SAMPLE_S
    }
}

impl RunObserver for HostClock {
    fn on_start(&mut self, _: &dyn DynDeployment) {
        self.open_slice();
    }

    fn on_tick(&mut self, _: Time, _: &dyn DynDeployment) {
        self.close_slice();
        self.open_slice();
    }

    fn on_end(&mut self, _: &dyn DynDeployment) {
        self.close_slice();
    }
}

/// Virtual-time slices a timed repeat is cut into, one speed sample after
/// each (see [`time`]).
const SLICES: u64 = 500;

/// Times set-up, then repeats the untraced run of sub-seed 0 for `seconds`.
///
/// Host times are stated at the reference speed of [`speed`]: each timed
/// repeat's wall and CPU time is divided by the host's slowdown over that
/// repeat, measured by a kernel sample after each of its [`SLICES`] equal
/// slices of virtual time, and the phase reports every repeat. Set-up is
/// timed in bursts of [`SETUP_PER_REPEAT`] deployments before every repeat,
/// and each burst's median deployment is divided by the slowdown of the
/// repeat that follows it. (Kernel samples between deployments would read
/// fast: a deployment leaves more of the kernel's state in cache than a
/// slice of simulation does.) No repeat starts that would, at the mean pace
/// so far, end after `seconds`.
///
/// An untimed run of sub-seed `part + 1` goes first: it warms the process
/// up, and the reported peak RSS is read after it, before the kernel's state
/// is built, so it holds only the program. `run.py` runs the phase as
/// several parts, each its own process, because the repeats of one process
/// agree more closely with each other than with another process's.
fn time(name: &str, seed: u64, seconds: f64, part: usize) -> Json {
    let w = workload_of(name, seed);
    let deploy = || {
        let mut dep = w.protocol.deploy(w.config.clone(), w.opts.clone());
        if let Some(tier) = &w.brokers {
            dep.attach_brokers(tier);
        }
        dep
    };
    drop(deploy());
    drop(workload_of(name, sub_seed(seed, part + 1)).scenario().run());
    let peak_rss_mb = peak_rss_kib() as f64 / 1024.0;
    let mut kernel = RefKernel::new();
    let tick = Duration::from_micros(w.run.as_micros() / SLICES);
    let (mut setup, mut wall, mut cpu, mut raw_wall, mut slowdown) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut txns, mut events, mut prints) = (Vec::new(), Vec::new(), Vec::new());
    let began = Instant::now();
    let pace = |done: usize| began.elapsed().as_secs_f64() * (done + 1) as f64 / done as f64;
    while wall.is_empty() || pace(wall.len()) <= seconds {
        let mut deploys = Vec::new();
        for _ in 0..SETUP_PER_REPEAT {
            let t0 = Instant::now();
            let dep = deploy();
            deploys.push(t0.elapsed().as_secs_f64());
            drop(dep);
        }
        let mut clock = HostClock::with_kernel(kernel);
        let run = w.builder().tick_every(tick).build().run_observed(&mut [&mut clock]);
        let factor = clock.slowdown();
        setup.push(median(&mut deploys) / factor);
        let cpu_s: f64 = clock.slices.iter().map(|s| s.1).sum();
        raw_wall.push(clock.wall_s());
        wall.push(clock.wall_s() / factor);
        cpu.push(cpu_s / factor);
        slowdown.push(factor);
        kernel = clock.kernel.take().expect("the clock hands its kernel back");
        txns.push(completed(&run.outputs) as f64);
        events.push(run.stats.events_processed as f64);
        prints.push(fingerprint_outputs(&run.outputs, &run.stats));
    }
    let mut out = Json::default();
    out.str("workload", name)
        .list("setup_s", &setup)
        .list("wall_s", &wall)
        .list("cpu_s", &cpu)
        .list("raw_wall_s", &raw_wall)
        .list("slowdown", &slowdown)
        .list("completed", &txns)
        .list("events", &events)
        .strs("fingerprints", &prints)
        .num("peak_rss_mb", peak_rss_mb);
    out
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn completed(outputs: &[Output]) -> usize {
    outputs.iter().filter(|o| matches!(o, Output::TxCompleted { .. })).count()
}

/// CPU time of the calling thread in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike `/proc/thread-self/schedstat`, which
/// the kernel brings up to date only at scheduler ticks (every 4 ms at
/// 250 Hz), this clock adds the running stretch, so it is exact to the
/// nanosecond even over the few milliseconds of one slice.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The process's peak resident set (`VmHWM`) in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// A flat JSON object built field by field (the benchmark has no serde).
#[derive(Default)]
pub struct Json(Vec<String>);

impl Json {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "{key} = {value} is not a JSON number");
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.0.push(format!("\"{key}\": \"{}\"", value.replace('\\', "\\\\").replace('"', "\\\"")));
        self
    }

    pub fn list(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.0.push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }

    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
        self.0.push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }

    pub fn obj(&mut self, key: &str, value: &Json) -> &mut Self {
        self.0.push(format!("\"{key}\": {}", value.finish()));
        self
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}
