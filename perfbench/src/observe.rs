//! Streaming end-to-end metrics: a [`RunObserver`] that folds every output into
//! counters and latency samples as the run emits it, so the benchmark never
//! holds a second copy of the output stream.

use ava_scenario::RunObserver;
use ava_types::{ClientId, ClusterId, Output, Time};
use std::collections::BTreeMap;

/// Virtual-time metrics of one run.
pub struct SimMetrics {
    issue_end: Time,
    /// Write and read latencies in virtual microseconds.
    write_us: Vec<u64>,
    read_us: Vec<u64>,
    /// Per cluster, the latest write commit and the longest gap between two.
    last_write: BTreeMap<ClusterId, (Time, u64)>,
    /// Per closed-loop client: (highest completed seq + 1, completions).
    clients: BTreeMap<ClientId, (u64, u64)>,
}

impl SimMetrics {
    /// `clusters` are the clusters whose write service is watched; the gap
    /// before a cluster's first and after its last write counts too, up to
    /// `issue_end`, so a cluster that stalls for good still shows the stall.
    pub fn new(clusters: impl IntoIterator<Item = ClusterId>, issue_end: Time) -> Self {
        SimMetrics {
            issue_end,
            write_us: Vec::new(),
            read_us: Vec::new(),
            last_write: clusters.into_iter().map(|c| (c, (Time::ZERO, 0))).collect(),
            clients: BTreeMap::new(),
        }
    }

    pub fn completed(&self) -> u64 {
        (self.write_us.len() + self.read_us.len()) as u64
    }

    /// Operations the closed-loop clients issued. A client numbers its requests
    /// 0, 1, 2, … and always keeps `concurrency` of them outstanding, so it
    /// issued at least max(highest completed seq + 1, completed + concurrency);
    /// this is exact unless it abandoned requests numbered above its highest
    /// completed one.
    pub fn closed_loop_attempted(&self, concurrency: u64) -> u64 {
        self.clients.values().map(|&(next, done)| next.max(done + concurrency)).sum()
    }

    /// Closed-loop requests that did not complete and were not among the
    /// `concurrency` still in flight when the run stopped (requests the
    /// client abandoned after its retry timeout), by the same counting.
    pub fn closed_loop_abandoned(&self, concurrency: u64) -> u64 {
        self.clients.values().map(|&(next, done)| next.saturating_sub(done + concurrency)).sum()
    }

    /// The longest virtual time any watched cluster went without a write commit.
    pub fn max_gap_us(&self) -> u64 {
        self.last_write
            .values()
            .map(|&(last, gap)| {
                gap.max(self.issue_end.as_micros().saturating_sub(last.as_micros()))
            })
            .max()
            .unwrap_or(0)
    }

    /// Sorted write and read latency samples (µs), consumed.
    pub fn into_latencies(mut self) -> (Vec<u64>, Vec<u64>) {
        self.write_us.sort_unstable();
        self.read_us.sort_unstable();
        (self.write_us, self.read_us)
    }
}

impl RunObserver for SimMetrics {
    fn on_output(&mut self, output: &Output) {
        let Output::TxCompleted { tx, client, cluster, issued_at, completed_at, is_write } = output
        else {
            return;
        };
        let latency = completed_at.as_micros().saturating_sub(issued_at.as_micros());
        if *is_write {
            self.write_us.push(latency);
            let (last, gap) = self.last_write.entry(*cluster).or_insert((Time::ZERO, 0));
            *gap = (*gap).max(completed_at.as_micros().saturating_sub(last.as_micros()));
            *last = (*last).max(*completed_at);
        } else {
            self.read_us.push(latency);
        }
        let (next, done) = self.clients.entry(*client).or_insert((0, 0));
        *next = (*next).max(tx.seq + 1);
        *done += 1;
    }
}

/// The `q`-quantile of sorted samples (nearest rank), or 0 for no samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
