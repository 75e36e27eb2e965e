//! `epoch-stream`: one client commits ~1% deltas to standing word
//! counts opened through [`JobServer::open_stream`]. The write path
//! (delta uploads with their replication, the pinned oCache publish)
//! and the fold of the whole materialized state do most of the work;
//! map compute and reads do little.
//!
//! A round is one stream: open it, load its base epoch, commit a fixed
//! number of deltas, close it. Every commit re-reduces the whole
//! materialized state, so commits slow down as a stream grows; bounding
//! the stream length keeps the latency distribution of a run the same
//! however fast the engine is.

use crate::gen::{self, Rng, Vocab};
use crate::metrics::{add_net, median};
use crate::reference as r;
use crate::{micro, trace, Phase, Uploads, Workload};
use eclipse_apps::WordCount;
use eclipse_core::{JobServer, JobServerConfig, LiveCluster, LiveConfig, StreamHandle, StreamSpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const BASE_LINES: usize = 4096;
/// About 1% of the base per delta.
const DELTA_LINES: usize = 41;
const COMMITS_PER_STREAM: u64 = 100;
/// Deltas the set-up's warm-up stream commits.
const WARMUP_COMMITS: u64 = 30;
const REDUCERS: usize = 4;
const USER: &str = "stream";
const BASE_FILE: &str = "base";

pub struct Inputs {
    seed: u64,
    vocab: Vocab,
    base: String,
    base_counts: HashMap<String, u64>,
}

impl Inputs {
    fn delta(&self, stream: u64, k: u64) -> String {
        let mut rng = Rng::new(self.seed ^ (stream << 32 | k).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        gen::text(&self.vocab, &mut rng, DELTA_LINES)
    }
}

pub struct Env {
    cluster: Arc<LiveCluster>,
    server: JobServer,
    uploads: Uploads,
}

fn flatten(snapshot: &[Vec<(String, String)>]) -> Vec<(String, String)> {
    snapshot.iter().flatten().cloned().collect()
}

/// What a stream's timed commits measured.
#[derive(Default)]
struct StreamTally {
    folded: u64,
    cached: u64,
    reads_us: Vec<f64>,
}

/// Open stream `id`, load its base epoch, then commit `deltas` one by
/// one, checking every published epoch against the running count.
/// Commit latencies, the commits' transport traffic and layer counters
/// land in `ph` and `tally`.
fn run_stream(
    env: &Env,
    inp: &Inputs,
    id: u64,
    deltas: &[String],
    ph: &mut Phase,
    tally: &mut StreamTally,
) {
    let stream: StreamHandle = env.server.open_stream(StreamSpec {
        app: Arc::new(WordCount),
        name: format!("wc{id}"),
        user: USER.into(),
        reducers: REDUCERS,
    });
    let base = {
        let _s = trace::span("StreamHandle::commit_epoch", "core::epoch", id << 32);
        stream.commit_epoch(inp.base.as_bytes())
    };
    let mut running = inp.base_counts.clone();
    match base {
        Ok(rep) => ph
            .errors
            .extend(r::check_counts("base epoch", &flatten(&rep.snapshot), &running).err()),
        Err(e) => {
            ph.errors.push(format!("stream {id} base epoch: {e}"));
            return;
        }
    }
    let before = env.cluster.transport().stats();
    for (k, delta) in deltas.iter().enumerate() {
        let job = id << 32 | (k as u64 + 1);
        let t0 = Instant::now();
        let report = {
            let _s = trace::span("StreamHandle::commit_epoch", "core::epoch", job);
            stream.commit_epoch(delta.as_bytes())
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ph.ops += 1;
        r::add_word_counts(&mut running, delta);
        let report = match report {
            Ok(rep) => rep,
            Err(e) => {
                ph.errors.push(format!("stream {id} epoch {}: {e}", k + 2));
                return;
            }
        };
        ph.latencies_ms.push(ms);
        ph.busy_s += ms / 1e3;
        ph.records += DELTA_LINES as u64;
        tally.folded += report.records_folded;
        tally.cached += u64::from(report.cached);
        ph.counters.add(&report.stats);
        let t1 = Instant::now();
        let snap = {
            let _s = trace::span("StreamHandle::snapshot", "core::epoch", job);
            stream.snapshot(report.epoch)
        };
        tally.reads_us.push(t1.elapsed().as_secs_f64() * 1e6);
        let what = format!("stream {id} epoch {}", report.epoch);
        let check = match snap {
            Some(s) if s == report.snapshot => r::check_counts(&what, &flatten(&s), &running),
            Some(_) => Err(format!("{what}: snapshot read differs from the commit's")),
            None => Err(format!("{what}: published epoch not readable")),
        };
        ph.errors.extend(check.err());
    }
    add_net(&mut ph.net, &env.cluster.transport().stats().since(before));
}

pub struct EpochStream;

impl Workload for EpochStream {
    type Inputs = Inputs;
    type Env = Env;
    const NAME: &'static str = "epoch-stream";
    const OP: &'static str = "commit";
    const ROUNDS_PER_SECOND: f64 = 3.0;

    fn inputs(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let vocab = Vocab::new(&mut rng, 4000);
        let base = gen::text(&vocab, &mut rng, BASE_LINES);
        let mut base_counts = HashMap::new();
        r::add_word_counts(&mut base_counts, &base);
        Inputs {
            seed,
            vocab,
            base,
            base_counts,
        }
    }

    fn setup(inp: &Inputs) -> Env {
        let cluster = Arc::new(LiveCluster::new(LiveConfig::small()));
        let server = JobServer::new(Arc::clone(&cluster), JobServerConfig::default());
        // The base also goes in as a plain file: it times the upload
        // path alone and gives the block-read timings their blocks.
        let mut uploads = Uploads::default();
        uploads.upload(&cluster, BASE_FILE, USER, inp.base.as_bytes());
        let env = Env {
            cluster,
            server,
            uploads,
        };
        // Warm-up: a short stream, checked like the timed ones.
        let deltas: Vec<String> = (1..=WARMUP_COMMITS).map(|k| inp.delta(0, k)).collect();
        let mut ph = Phase::default();
        run_stream(&env, inp, 0, &deltas, &mut ph, &mut StreamTally::default());
        if let Some(e) = ph.errors.first() {
            panic!("warm-up check failed: {e}");
        }
        env
    }

    fn phase(env: &Env, inp: &Inputs, rounds: u64) -> Phase {
        let mut ph = Phase::default();
        let mut tally = StreamTally::default();
        for id in 1..=rounds {
            let deltas: Vec<String> = (1..=COMMITS_PER_STREAM).map(|k| inp.delta(id, k)).collect();
            run_stream(env, inp, id, &deltas, &mut ph, &mut tally);
            ph.checkpoint();
        }
        ph.layer
            .push("epoch.records_folded", tally.folded as f64, "count");
        ph.layer.push(
            "epoch.cached_share",
            tally.cached as f64 / ph.ops.max(1) as f64,
            "ratio",
        );
        ph.layer
            .push("epoch.snapshot_read_us", median(&tally.reads_us), "us");
        ph
    }

    fn micro<'a>(env: &'a Env, inp: &'a Inputs) -> micro::Input<'a> {
        micro::Input {
            cluster: &env.cluster,
            apps: vec![(Box::new(WordCount), inp.base.as_bytes())],
            files: vec![(
                BASE_FILE.to_string(),
                (inp.base.len() as u64).div_ceil(LiveConfig::small().block_size),
            )],
        }
    }

    fn uploads(env: &Env) -> Uploads {
        env.uploads
    }
}
