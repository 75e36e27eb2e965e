//! End-to-end and per-layer benchmark of the live EclipseMR engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <app-suite|tenant-mix|epoch-stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its workload's inputs from the seed, sets the cluster
//! up several times (the median is `setup_s`), runs a fixed number of
//! rounds (`--seconds` times the workload's calibrated round rate),
//! checks every output against an independent sequential computation,
//! and prints its report followed by one JSON result line. `--trace 1`
//! repeats the timed phase with spans on a fresh set-up, runs the
//! per-layer micro-timings, writes a Chrome trace and a self-time table
//! under `.bench_out/`, and prints the per-layer metrics instead.

mod app_suite;
mod epoch_stream;
mod gen;
mod metrics;
mod micro;
mod reference;
mod tenant_mix;
mod trace;

use eclipse_core::net::NetSnapshot;
use eclipse_core::LiveCluster;
use metrics::{median, p50_p90, peak_rss_mb, JobCounters, Metrics};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. The first is kept for
/// the timed phase, the others are timed after it and dropped.
const SETUPS: usize = 7;

/// Every per-layer metric, with its unit, in print order. A workload
/// that does not exercise a layer reports it as 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("apps.map_ns_per_record", "ns/rec"),
    ("apps.reduce_ns_per_key", "ns/key"),
    ("shuffle.push_ns_per_record", "ns/rec"),
    ("live.spills_per_job", "count"),
    ("live.attempts_per_task", "ratio"),
    ("live.steals_per_job", "count"),
    ("live.remote_reads_per_job", "count"),
    ("live.local_shuffle_records_per_job", "count"),
    ("live.tasks_per_node_cv", "ratio"),
    ("net.encode_ns_per_record", "ns/rec"),
    ("net.decode_ns_per_record", "ns/rec"),
    ("net.rtt_us", "us"),
    ("net.shuffle_bytes_per_record", "B/rec"),
    ("net.block_bytes_per_record", "B/rec"),
    ("net.cache_bytes_per_record", "B/rec"),
    ("net.control_bytes_per_record", "B/rec"),
    ("net.rpcs_per_job", "count"),
    ("net.retrans_bytes", "B"),
    ("cache.icache_hit_ratio", "ratio"),
    ("cache.lru_hit_ns", "ns"),
    ("cache.lru_insert_ns", "ns"),
    ("cache.ocache_get_us", "us"),
    ("cache.ocache_put_us", "us"),
    ("cache.scan_tenant_bytes", "B"),
    ("dhtfs.upload_mb_per_s", "MB/s"),
    ("dhtfs.block_get_ns", "ns"),
    ("sched.laf_assign_ns", "ns"),
    ("ring.owner_of_ns", "ns"),
    ("util.sha1_ns_per_kb", "ns/KiB"),
    ("util.hashkey_ns", "ns"),
    ("server.queue_depth", "count"),
    ("server.submit_block_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("epoch.records_folded", "count"),
    ("epoch.snapshot_read_us", "us"),
    ("epoch.cached_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 600)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// Operations attempted (jobs or commits).
    pub ops: u64,
    /// Per-operation latency, submit to result (or delta to published
    /// snapshot).
    pub latencies_ms: Vec<f64>,
    /// Input records the operations processed.
    pub records: u64,
    /// Operation time: the sum of latencies, or wall time where two
    /// clients overlap (tenant-mix).
    pub busy_s: f64,
    /// `(busy_s, records)` so far, at the end of every round.
    pub checkpoints: Vec<(f64, u64)>,
    /// Transport counters over the phase.
    pub net: NetSnapshot,
    pub counters: JobCounters,
    /// Layer metrics only this workload's entry points give.
    pub layer: Metrics,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

/// `records_per_s` is the median rate over this many consecutive
/// chunks of rounds: a burst of host contention slows a few chunks, not
/// the median.
const RATE_CHUNKS: usize = 10;

impl Phase {
    pub fn checkpoint(&mut self) {
        self.checkpoints.push((self.busy_s, self.records));
    }

    fn records_per_s(&self) -> f64 {
        let n = self.checkpoints.len();
        let chunks = RATE_CHUNKS.min(n).max(1);
        let mut prev = (0.0, 0);
        let rates: Vec<f64> = (1..=chunks)
            .map(|c| {
                let end = self.checkpoints[c * n / chunks - 1];
                let rate = (end.1 - prev.1) as f64 / (end.0 - prev.0);
                prev = end;
                rate
            })
            .collect();
        median(&rates)
    }
}

/// Bytes uploaded at set-up and the seconds the uploads took.
#[derive(Clone, Copy, Default)]
pub struct Uploads {
    bytes: u64,
    secs: f64,
}

impl Uploads {
    /// Upload one file through the public entry point, timed and traced.
    pub fn upload(&mut self, c: &LiveCluster, name: &str, owner: &str, data: &[u8]) {
        let _s = trace::span("LiveCluster::upload", "dhtfs", 0);
        let t0 = Instant::now();
        c.upload(name, owner, data);
        self.secs += t0.elapsed().as_secs_f64();
        self.bytes += data.len() as u64;
    }
}

/// Result of the fault probes that run after the timed phase.
#[derive(Default)]
pub struct Probes {
    pub attempted: u64,
    /// Probe names that failed their check.
    pub failed: Vec<String>,
    /// Checks inside a probe that must pass but did not.
    pub errors: Vec<String>,
}

pub trait Workload {
    type Inputs;
    type Env;
    const NAME: &'static str;
    /// What one latency sample times.
    const OP: &'static str;
    /// Rounds per `--seconds`, calibrated so a run measures for about
    /// that long on a 2-core host.
    const ROUNDS_PER_SECOND: f64;
    fn inputs(seed: u64) -> Self::Inputs;
    /// Cluster build, input upload and warm-up.
    fn setup(inputs: &Self::Inputs) -> Self::Env;
    fn phase(env: &Self::Env, inputs: &Self::Inputs, rounds: u64) -> Phase;
    fn probes(_env: &Self::Env, _inputs: &Self::Inputs) -> Probes {
        Probes::default()
    }
    fn micro<'a>(env: &'a Self::Env, inputs: &'a Self::Inputs) -> micro::Input<'a>;
    fn uploads(env: &Self::Env) -> Uploads;
}

struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Metrics,
}

fn drive<W: Workload>(opts: &Opts) -> Outcome {
    let inputs = W::inputs(opts.seed);
    let timed_setup = || {
        let t0 = Instant::now();
        let env = W::setup(&inputs);
        (env, t0.elapsed().as_secs_f64())
    };
    let (env, first) = timed_setup();
    let rounds = ((opts.seconds as f64 * W::ROUNDS_PER_SECOND).ceil() as u64).max(1);
    let phase = W::phase(&env, &inputs, rounds);
    let probes = W::probes(&env, &inputs);
    // Read before the extra set-ups, which would only add allocator
    // garbage of discarded clusters.
    let peak_rss = peak_rss_mb();
    let uploads = W::uploads(&env);
    drop(env);
    let mut setups = vec![first];
    setups.extend((1..SETUPS).map(|_| timed_setup().1));
    let mut errors = phase.errors.clone();
    errors.extend(probes.errors.iter().cloned());

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} rounds={rounds}",
        W::NAME,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "# samples: latency={} ({}), setup={}",
        phase.latencies_ms.len(),
        W::OP,
        setups.len()
    );
    let attempted = phase.ops + probes.attempted;
    let failed = probes.failed.len() as u64;
    println!(
        "# attempted={attempted} failed={failed} failed_probes={:?}",
        probes.failed
    );

    let mut metrics = Metrics::default();
    if !opts.trace {
        let (p50, p90) = p50_p90(&phase.latencies_ms);
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("records_per_s", phase.records_per_s(), "rec/s");
        metrics.push("latency_p50_ms", p50, "ms");
        metrics.push("latency_p90_ms", p90, "ms");
        let wire = phase.net.bytes_sent as f64 / phase.records.max(1) as f64;
        metrics.push("wire_bytes_per_record", wire, "B/rec");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
    } else {
        let mut layer = Metrics::default();
        let upload_rate = uploads.bytes as f64 / 1e6 / uploads.secs;
        layer.push("dhtfs.upload_mb_per_s", upload_rate, "MB/s");
        // The traced repeat runs on a fresh set-up, so cluster state
        // matches the untraced phase's.
        trace::set_enabled(true);
        let env = W::setup(&inputs);
        let traced = W::phase(&env, &inputs, rounds);
        micro::run(&W::micro(&env, &inputs), &mut layer);
        trace::set_enabled(false);
        errors.extend(traced.errors);
        phase.counters.push_metrics(&mut layer);
        metrics::push_net_metrics(&mut layer, &phase.net, phase.records, phase.ops);
        layer.0.extend(phase.layer.0);
        let overhead = 100.0 * (traced.busy_s / phase.busy_s - 1.0);
        layer.push("trace.overhead_pct", overhead, "%");
        metrics = canonical_layer_metrics(layer);
        write_trace(W::NAME, opts.seed);
    }
    Outcome {
        attempted,
        failed,
        errors,
        metrics,
    }
}

/// Order the per-layer metrics as listed, 0 for a layer the workload
/// does not exercise.
fn canonical_layer_metrics(got: Metrics) -> Metrics {
    for (name, ..) in &got.0 {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "unlisted layer metric {name}"
        );
    }
    let mut out = Metrics::default();
    for &(name, unit) in LAYER_METRICS {
        let v = got.0.iter().find(|(n, ..)| n == name).map_or(0.0, |m| m.1);
        out.push(name, v, unit);
    }
    out
}

fn write_trace(workload: &str, seed: u64) {
    let spans = trace::drain();
    let table = trace::self_time_table(&spans);
    eprintln!("per-layer self time over {} spans:\n{table}", spans.len());
    let dir = std::path::Path::new(".bench_out");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("trace-{workload}-seed{seed}.json")),
                trace::chrome_json(&spans),
            )
        })
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("selftime-{workload}-seed{seed}.txt")),
                &table,
            )
        });
    if let Err(e) = written {
        eprintln!("could not write the trace under {}: {e}", dir.display());
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "app-suite" => drive::<app_suite::AppSuite>(&opts),
        "tenant-mix" => drive::<tenant_mix::TenantMix>(&opts),
        "epoch-stream" => drive::<epoch_stream::EpochStream>(&opts),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    for e in &outcome.errors {
        println!("# CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
