//! Measurement helpers: latency samples, per-layer counters read from
//! the engine's own stats, and the result line.

use eclipse_core::net::{NetSnapshot, RpcKind};
use eclipse_core::LiveStats;
use std::fmt::Write as _;

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A p90 needs at least this many samples in one run.
pub const MIN_P90_SAMPLES: usize = 100;

/// `(p50, p90)` of latency samples in milliseconds. Panics when the run
/// was sized too small to support a p90.
pub fn p50_p90(samples_ms: &[f64]) -> (f64, f64) {
    assert!(
        samples_ms.len() >= MIN_P90_SAMPLES,
        "{} latency samples; a p90 needs {MIN_P90_SAMPLES}",
        samples_ms.len()
    );
    let mut v = samples_ms.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), quantile(&v, 0.9))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process peak resident set (`ru_maxrss`, the figure `/proc` shows as
/// `VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` laid out as on
    // 64-bit Linux, and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u.maxrss as f64 / 1024.0
}

/// Request bytes per transport plane: shuffle, block, cache, control.
pub fn plane_bytes(net: &NetSnapshot) -> [u64; 4] {
    let b = |k: RpcKind| net.kind(k).1;
    [
        b(RpcKind::ShuffleBatch),
        b(RpcKind::GetBlock)
            + b(RpcKind::PutBlock)
            + b(RpcKind::ReplicaSync)
            + b(RpcKind::BlockPull),
        b(RpcKind::CacheGet) + b(RpcKind::CachePut) + b(RpcKind::RangeHandoff),
        b(RpcKind::Heartbeat) + b(RpcKind::TaskAssign),
    ]
}

/// Add the counters of `d` (a [`NetSnapshot::since`] delta) to `acc`.
pub fn add_net(acc: &mut NetSnapshot, d: &NetSnapshot) {
    acc.bytes_sent += d.bytes_sent;
    acc.rpcs += d.rpcs;
    acc.rpc_retries += d.rpc_retries;
    acc.timeouts += d.timeouts;
    acc.retrans_bytes += d.retrans_bytes;
    for i in 0..acc.kind_bytes.len() {
        acc.kind_rpcs[i] += d.kind_rpcs[i];
        acc.kind_bytes[i] += d.kind_bytes[i];
        acc.kind_retrans_bytes[i] += d.kind_retrans_bytes[i];
    }
}

/// Executor counters summed over the jobs whose [`LiveStats`] the
/// public entry points hand back.
#[derive(Clone, Debug, Default)]
pub struct JobCounters {
    pub jobs: u64,
    pub map_tasks: u64,
    pub attempts: u64,
    pub steals: u64,
    pub remote_reads: u64,
    pub spills: u64,
    pub local_shuffle_records: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub tasks_per_node: Vec<u64>,
}

impl JobCounters {
    pub fn add(&mut self, s: &LiveStats) {
        self.jobs += 1;
        self.map_tasks += s.map_tasks;
        self.attempts += s.attempts;
        self.steals += s.steals;
        self.remote_reads += s.remote_reads;
        self.spills += s.spills;
        self.local_shuffle_records += s.local_shuffle_records;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        if self.tasks_per_node.len() < s.tasks_per_node.len() {
            self.tasks_per_node.resize(s.tasks_per_node.len(), 0);
        }
        for (a, b) in self.tasks_per_node.iter_mut().zip(&s.tasks_per_node) {
            *a += b;
        }
    }

    fn per_job(&self, v: u64) -> f64 {
        v as f64 / self.jobs.max(1) as f64
    }

    /// The executor-layer metrics these counters give.
    pub fn push_metrics(&self, m: &mut Metrics) {
        m.push(
            "live.attempts_per_task",
            self.attempts as f64 / self.map_tasks.max(1) as f64,
            "ratio",
        );
        m.push("live.steals_per_job", self.per_job(self.steals), "count");
        m.push(
            "live.remote_reads_per_job",
            self.per_job(self.remote_reads),
            "count",
        );
        m.push("live.spills_per_job", self.per_job(self.spills), "count");
        m.push(
            "live.local_shuffle_records_per_job",
            self.per_job(self.local_shuffle_records),
            "count",
        );
        let looks = (self.cache_hits + self.cache_misses).max(1);
        m.push(
            "cache.icache_hit_ratio",
            self.cache_hits as f64 / looks as f64,
            "ratio",
        );
        let t = &self.tasks_per_node;
        let cv = if t.is_empty() {
            0.0
        } else {
            let mean = t.iter().sum::<u64>() as f64 / t.len() as f64;
            let var = t.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / t.len() as f64;
            if mean > 0.0 {
                var.sqrt() / mean
            } else {
                0.0
            }
        };
        m.push("live.tasks_per_node_cv", cv, "ratio");
    }
}

/// Transport metrics over one measured phase of `records` input
/// records and `jobs` jobs.
pub fn push_net_metrics(m: &mut Metrics, net: &NetSnapshot, records: u64, jobs: u64) {
    let per_rec = |b: u64| b as f64 / records.max(1) as f64;
    let planes = plane_bytes(net);
    for (name, b) in ["shuffle", "block", "cache", "control"].iter().zip(planes) {
        m.push_owned(format!("net.{name}_bytes_per_record"), per_rec(b), "B/rec");
    }
    m.push(
        "net.rpcs_per_job",
        net.rpcs as f64 / jobs.max(1) as f64,
        "count",
    );
    m.push("net.retrans_bytes", net.retrans_bytes as f64, "B");
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_owned(name.to_string(), value, unit);
    }

    pub fn push_owned(&mut self, name: String, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name, value, unit));
    }
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
