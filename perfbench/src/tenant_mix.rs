//! `tenant-mix`: two closed-loop clients on a [`JobServer`] pool with
//! weighted-fair admission over the memory transport. One client
//! submits small interactive jobs for three weighted tenants; the other
//! submits scans for a low-weight tenant whose dataset is four times
//! its cache quota. Admission, pool dispatch and cache residency under
//! quota eviction do most of the work; the wire does only codec work.

use crate::gen::{self, Rng, Vocab};
use crate::metrics::JobCounters;
use crate::reference as r;
use crate::{micro, trace, Phase, Uploads, Workload};
use eclipse_apps::{InvertedIndex, WordCount};
use eclipse_core::{
    AdmissionPolicy, JobServer, JobServerConfig, LiveCluster, LiveConfig, MapReduce, PoolJobSpec,
    ReusePolicy,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NODES: usize = 8;
/// Small blocks so a small dataset still spreads over several tasks.
const BLOCK: u64 = 4 * 1024;
const REDUCERS: usize = 2;
const INTERACTIVE_LINES: usize = 1024;
const SCAN_LINES: usize = 16384;
/// Per-node cache quota of the scan tenant: 8 nodes × 32 KiB is a
/// quarter of its 1 MiB dataset.
const SCAN_QUOTA: u64 = 32 * 1024;
const SCAN_USER: &str = "scan";
const SCAN_WEIGHT: u32 = 1;

/// One tenant's standing job: app, input file, reference output.
struct Tenant {
    user: &'static str,
    weight: u32,
    app: Arc<dyn MapReduce>,
    data: String,
    want: BTreeMap<String, String>,
}

pub struct Inputs {
    interactive: Vec<Tenant>,
    scan: Tenant,
}

impl Tenant {
    fn file(&self) -> String {
        format!("in-{}", self.user)
    }

    fn lines(&self) -> u64 {
        self.data.lines().count() as u64
    }
}

fn spec(t: &Tenant) -> PoolJobSpec {
    PoolJobSpec {
        app: Arc::clone(&t.app),
        inputs: vec![t.file()],
        user: t.user.to_string(),
        reducers: REDUCERS,
        reuse: ReusePolicy::default(),
        weight: t.weight,
    }
}

pub struct Env {
    cluster: Arc<LiveCluster>,
    server: JobServer,
    uploads: Uploads,
}

/// Latency breakdown of one interactive job.
struct Timed {
    total_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
}

/// Submit one job and wait for it; `Err` on a job error or a wrong
/// output.
fn run_job(
    env: &Env,
    t: &Tenant,
    job: u64,
    counters: &Mutex<JobCounters>,
) -> (Timed, Result<(), String>) {
    let t0 = Instant::now();
    let handle = {
        let _s = trace::span("JobServer::submit", "core::server", job);
        env.server.submit(spec(t))
    };
    let t1 = Instant::now();
    let res = {
        let _s = trace::span("JobHandle::wait", "core::server", job);
        handle.wait()
    };
    let t2 = Instant::now();
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let timed = Timed {
        total_ms: ms(t2 - t0),
        submit_ms: ms(t1 - t0),
        wait_ms: ms(t2 - t1),
    };
    let check = match res {
        Ok((out, stats)) => {
            counters.lock().expect("counters lock").add(&stats);
            r::check_map(t.user, &out, &t.want)
        }
        Err(e) => Err(format!("{} job: {e}", t.user)),
    };
    (timed, check)
}

pub struct TenantMix;

impl Workload for TenantMix {
    type Inputs = Inputs;
    type Env = Env;
    const NAME: &'static str = "tenant-mix";
    const OP: &'static str = "interactive job";
    const ROUNDS_PER_SECOND: f64 = 60.0;

    fn inputs(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let vocab = Vocab::new(&mut rng, 2000);
        let text = |rng: &mut Rng, n| gen::text(&vocab, rng, n);
        let t0 = text(&mut rng, INTERACTIVE_LINES);
        let t1 = text(&mut rng, INTERACTIVE_LINES);
        let t2 = gen::documents(&vocab, &mut rng, INTERACTIVE_LINES);
        let scan = text(&mut rng, SCAN_LINES);
        Inputs {
            interactive: vec![
                Tenant {
                    user: "count-a",
                    weight: 8,
                    app: Arc::new(WordCount),
                    want: r::word_count(&t0),
                    data: t0,
                },
                Tenant {
                    user: "count-b",
                    weight: 4,
                    app: Arc::new(WordCount),
                    want: r::word_count(&t1),
                    data: t1,
                },
                Tenant {
                    user: "index",
                    weight: 2,
                    app: Arc::new(InvertedIndex),
                    want: r::inverted_index(&t2),
                    data: t2,
                },
            ],
            scan: Tenant {
                user: SCAN_USER,
                weight: SCAN_WEIGHT,
                app: Arc::new(WordCount),
                want: r::word_count(&scan),
                data: scan,
            },
        }
    }

    fn setup(inp: &Inputs) -> Env {
        let cluster = Arc::new(LiveCluster::new(
            LiveConfig::small().with_nodes(NODES).with_block_size(BLOCK),
        ));
        cluster.set_tenant_quota(SCAN_USER, SCAN_QUOTA);
        let mut uploads = Uploads::default();
        for t in inp.interactive.iter().chain([&inp.scan]) {
            uploads.upload(&cluster, &t.file(), t.user, t.data.as_bytes());
        }
        let server = JobServer::new(
            Arc::clone(&cluster),
            JobServerConfig {
                queue_depth: 8,
                concurrency: 2,
                workers: 0,
                policy: AdmissionPolicy::WeightedFair,
            },
        );
        let env = Env {
            cluster,
            server,
            uploads,
        };
        // Warm-up: one job per tenant fills the interactive tenants'
        // iCache. Outputs are checked.
        let counters = Mutex::new(JobCounters::default());
        for t in inp.interactive.iter().chain([&inp.scan]) {
            if let (_, Err(e)) = run_job(&env, t, 0, &counters) {
                panic!("warm-up check failed: {e}");
            }
        }
        env
    }

    fn phase(env: &Env, inp: &Inputs, rounds: u64) -> Phase {
        let counters = Mutex::new(JobCounters::default());
        let done = AtomicBool::new(false);
        let scan_records = AtomicU64::new(0);
        let before = env.cluster.transport().stats();
        let scan_lines = inp.scan.lines();
        let lines: Vec<u64> = inp.interactive.iter().map(Tenant::lines).collect();
        let t0 = Instant::now();
        let (mut ph, scan) = std::thread::scope(|s| {
            let scan_client = s.spawn(|| {
                let (mut jobs, mut errors) = (0u64, Vec::new());
                while !done.load(Ordering::Acquire) {
                    jobs += 1;
                    let (_, check) = run_job(env, &inp.scan, 1 << 32 | jobs, &counters);
                    scan_records.fetch_add(scan_lines, Ordering::Relaxed);
                    errors.extend(check.err());
                }
                (jobs, errors)
            });
            let mut ph = Phase::default();
            let (mut depth, mut submit, mut wait) = (0.0, 0.0, 0.0);
            for job in 0..rounds * inp.interactive.len() as u64 {
                let i = (job % inp.interactive.len() as u64) as usize;
                let t = &inp.interactive[i];
                depth += env.server.queued() as f64;
                let (timed, check) = run_job(env, t, job, &counters);
                ph.ops += 1;
                ph.latencies_ms.push(timed.total_ms);
                ph.records += lines[i];
                submit += timed.submit_ms;
                wait += timed.wait_ms;
                ph.errors.extend(check.err());
                if (job + 1) % inp.interactive.len() as u64 == 0 {
                    let records = ph.records + scan_records.load(Ordering::Relaxed);
                    ph.checkpoints.push((t0.elapsed().as_secs_f64(), records));
                }
            }
            done.store(true, Ordering::Release);
            let n = ph.ops.max(1) as f64;
            ph.layer.push("server.queue_depth", depth / n, "count");
            ph.layer.push("server.submit_block_ms", submit / n, "ms");
            ph.layer.push("server.wait_ms", wait / n, "ms");
            (ph, scan_client.join().expect("scan client panicked"))
        });
        ph.busy_s = t0.elapsed().as_secs_f64();
        ph.net = env.cluster.transport().stats().since(before);
        let (jobs, errors) = scan;
        ph.ops += jobs;
        ph.records += scan_records.into_inner();
        ph.errors.extend(errors);
        ph.counters = counters.into_inner().expect("counters lock");
        let scan_bytes = env.cluster.tenant_cache_used(SCAN_USER) as f64;
        ph.layer.push("cache.scan_tenant_bytes", scan_bytes, "B");
        ph
    }

    fn micro<'a>(env: &'a Env, inp: &'a Inputs) -> micro::Input<'a> {
        micro::Input {
            cluster: &env.cluster,
            apps: vec![(Box::new(WordCount), inp.scan.data.as_bytes())],
            files: inp
                .interactive
                .iter()
                .chain([&inp.scan])
                .map(|t| (t.file(), (t.data.len() as u64).div_ceil(BLOCK)))
                .collect(),
        }
    }

    fn uploads(env: &Env) -> Uploads {
        env.uploads
    }
}
