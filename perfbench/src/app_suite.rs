//! `app-suite`: the paper's application suite back to back from one
//! closed-loop client, on 8 virtual nodes over loopback TCP. Map
//! compute, shuffle/combine, the real wire and placement do most of the
//! work; the server and epoch layers do none.

use crate::gen::{self, Point, Rng, Vocab};
use crate::metrics::JobCounters;
use crate::reference as r;
use crate::{micro, trace, Phase, Probes, Uploads, Workload};
use eclipse_apps::{
    run_equijoin, run_kmeans, run_pagerank, run_terasort, Grep, InvertedIndex, KMeansRound,
    WordCount, DAMPING,
};
use eclipse_core::{LiveCluster, LiveConfig, LiveStats, MapReduce, ReusePolicy, TransportKind};
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: usize = 8;
/// A multiple of every record width (64, 32 and 16 bytes).
const BLOCK: u64 = 64 * 1024;
const REDUCERS: usize = 4;
const USER: &str = "suite";
const K: usize = 4;
const PAGERANK_ITERS: u32 = 5;
const TERASORT_SAMPLE_RATE: usize = 16;
/// Seed of the fault-probe inputs: fixed, so each probe fails the same
/// way on every run whatever `--seed` is.
const PROBE_SEED: u64 = 0x0BAD_5EED;
const KMEANS_PROBE_ITERS: u32 = 3;
const KMEANS_PROBE_TOL: f64 = 1e-3;

#[derive(Clone, Copy, Debug)]
enum Op {
    WordCount,
    Grep,
    InvertedIndex,
    TeraSort,
    Join,
    KMeansRound,
    PageRank,
}

const SUITE: [Op; 7] = [
    Op::WordCount,
    Op::Grep,
    Op::InvertedIndex,
    Op::TeraSort,
    Op::Join,
    Op::KMeansRound,
    Op::PageRank,
];

pub struct Inputs {
    seed: u64,
    files: Vec<(&'static str, String)>,
    pattern: String,
    centres: Vec<Point>,
    points: Vec<Point>,
    vertices: u32,
    want_wc: BTreeMap<String, String>,
    want_grep: BTreeMap<String, String>,
    want_ii: BTreeMap<String, String>,
    want_sorted: Vec<String>,
    want_join: Vec<(String, String)>,
    want_pagerank: Vec<f64>,
}

impl Inputs {
    fn file(&self, name: &str) -> &str {
        &self
            .files
            .iter()
            .find(|(n, _)| *n == name)
            .expect("known input")
            .1
    }

    /// Input records an operation reads (one per line; TeraSort and the
    /// join count every input they take).
    fn records(&self, op: Op) -> u64 {
        let lines = |f: &str| self.file(f).lines().count() as u64;
        match op {
            Op::WordCount | Op::Grep => lines("text"),
            Op::InvertedIndex => lines("docs"),
            Op::TeraSort => lines("sort"),
            Op::Join => lines("left") + lines("right"),
            Op::KMeansRound => lines("points"),
            Op::PageRank => lines("graph"),
        }
    }

    /// The k-means round's centroids for pass `pass`: the true centres
    /// shifted along one axis, a different shift every pass.
    fn round_centroids(&self, pass: u64) -> Vec<Point> {
        let mut rng = Rng::new(self.seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407));
        self.centres
            .iter()
            .map(|c| {
                let mut p = *c;
                p[rng.below(8) as usize] += 6.0 * (rng.unit() - 0.5);
                p
            })
            .collect()
    }
}

pub struct Env {
    cluster: LiveCluster,
    uploads: Uploads,
}

/// Run one suite operation; returns its latency and its output check.
fn run_op(
    c: &LiveCluster,
    inp: &Inputs,
    op: Op,
    pass: u64,
    job: u64,
    counters: &mut JobCounters,
) -> (f64, Result<(), String>) {
    let t0 = Instant::now();
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let job_on =
        |app: &dyn MapReduce, input: &str| -> Result<(Vec<(String, String)>, LiveStats), String> {
            let _s = trace::span("LiveCluster::try_run_job", "core::live", job);
            c.try_run_job(app, input, USER, REDUCERS, ReusePolicy::default())
                .map_err(|e| format!("{op:?}: {e}"))
        };
    let mut count = |res: Result<(Vec<(String, String)>, LiveStats), String>| {
        res.map(|(out, st)| {
            counters.add(&st);
            out
        })
    };
    match op {
        Op::WordCount => {
            let out = count(job_on(&WordCount, "text"));
            (
                ms(t0),
                out.and_then(|o| r::check_map("word count", &o, &inp.want_wc)),
            )
        }
        Op::Grep => {
            let out = count(job_on(&Grep::new(inp.pattern.clone()), "text"));
            (
                ms(t0),
                out.and_then(|o| r::check_map("grep", &o, &inp.want_grep)),
            )
        }
        Op::InvertedIndex => {
            let out = count(job_on(&InvertedIndex, "docs"));
            (
                ms(t0),
                out.and_then(|o| r::check_map("inverted index", &o, &inp.want_ii)),
            )
        }
        Op::KMeansRound => {
            let centroids = inp.round_centroids(pass);
            let app = KMeansRound {
                centroids: centroids.clone(),
            };
            let t0 = Instant::now();
            let out = count(job_on(&app, "points"));
            let ms = ms(t0);
            let want = r::kmeans_round(&inp.points, &centroids);
            (ms, out.and_then(|o| r::check_kmeans_round(&o, &want)))
        }
        Op::TeraSort => {
            let res = {
                let _s = trace::span("run_terasort", "apps", job);
                run_terasort(c, "sort", USER, REDUCERS, TERASORT_SAMPLE_RATE)
            };
            (ms(t0), r::check_sorted(&res.records, &inp.want_sorted))
        }
        Op::Join => {
            let out = {
                let _s = trace::span("run_equijoin", "apps", job);
                run_equijoin(c, "left", "right", USER, REDUCERS)
            };
            (ms(t0), r::check_join(&out, &inp.want_join))
        }
        Op::PageRank => {
            let res = {
                let _s = trace::span("run_pagerank", "apps", job);
                run_pagerank(c, "graph", USER, inp.vertices, PAGERANK_ITERS, REDUCERS)
            };
            (ms(t0), r::check_pagerank(&res.ranks, &inp.want_pagerank))
        }
    }
}

pub struct AppSuite;

impl Workload for AppSuite {
    type Inputs = Inputs;
    type Env = Env;
    const NAME: &'static str = "app-suite";
    const OP: &'static str = "job";
    const ROUNDS_PER_SECOND: f64 = 6.0;

    fn inputs(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let vocab = Vocab::new(&mut rng, 4000);
        let text = gen::text(&vocab, &mut rng, 16384);
        let docs = gen::documents(&vocab, &mut rng, 8192);
        let sort = gen::sort_records(&mut rng, 16384);
        let left = gen::join_table(&mut rng, 8192, 16384);
        let right = gen::join_table(&mut rng, 8192, 16384);
        let centres = gen::centres(&mut rng, K);
        let points_csv = gen::points_csv(&mut rng, &centres, 16384);
        let vertices = 8000;
        let graph = gen::graph_edges(&mut rng, vertices);
        // A mid-frequency word: matches a few percent of the lines.
        let pattern = vocab.words[40].clone();
        Inputs {
            seed,
            pattern: pattern.clone(),
            points: r::parse_points(&points_csv),
            centres,
            vertices,
            want_wc: r::word_count(&text),
            want_grep: r::grep(&text, &pattern),
            want_ii: r::inverted_index(&docs),
            want_sorted: r::sorted_lines(&sort),
            want_join: r::join(&left, &right),
            want_pagerank: r::pagerank(&graph, vertices, PAGERANK_ITERS, DAMPING),
            files: vec![
                ("text", text),
                ("docs", docs),
                ("sort", sort),
                ("left", left),
                ("right", right),
                ("points", points_csv),
                ("graph", graph),
            ],
        }
    }

    fn setup(inp: &Inputs) -> Env {
        let cluster = LiveCluster::new(
            LiveConfig::small()
                .with_nodes(NODES)
                .with_block_size(BLOCK)
                .with_transport(TransportKind::Tcp),
        );
        let mut uploads = Uploads::default();
        for (name, data) in &inp.files {
            uploads.upload(&cluster, name, USER, data.as_bytes());
        }
        // Warm-up: one pass fills iCache and caches PageRank's
        // iterations in oCache. Its outputs are checked too.
        let mut counters = JobCounters::default();
        for op in SUITE {
            if let (_, Err(e)) = run_op(&cluster, inp, op, 0, 0, &mut counters) {
                panic!("warm-up check failed: {e}");
            }
        }
        Env { cluster, uploads }
    }

    fn phase(env: &Env, inp: &Inputs, rounds: u64) -> Phase {
        let c = &env.cluster;
        let mut ph = Phase::default();
        let before = c.transport().stats();
        let records = SUITE.map(|op| inp.records(op));
        let mut job = 0;
        for pass in 1..=rounds {
            let _s = trace::span("suite pass", "bench", pass);
            for (op, records) in SUITE.into_iter().zip(records) {
                job += 1;
                let (ms, check) = run_op(c, inp, op, pass, job, &mut ph.counters);
                ph.ops += 1;
                ph.latencies_ms.push(ms);
                ph.busy_s += ms / 1e3;
                ph.records += records;
                if let Err(e) = check {
                    ph.errors.push(e);
                }
            }
            ph.checkpoint();
        }
        ph.net = c.transport().stats().since(before);
        ph
    }

    /// Two probes of known faults, each failing on every run today:
    /// blocks cut mid-record (variable-width text), and iterative
    /// drivers reusing oCache entries tagged by app and iteration only
    /// (a second `run_kmeans` over other points gets the first's
    /// centroids).
    fn probes(env: &Env, _inp: &Inputs) -> Probes {
        let c = &env.cluster;
        let mut rng = Rng::new(PROBE_SEED);
        let vocab = Vocab::new(&mut rng, 500);
        let mut probes = Probes {
            attempted: 2,
            ..Default::default()
        };

        let ragged = gen::ragged_text(&vocab, &mut rng, 3 * BLOCK as usize + 1000);
        c.upload("probe-ragged", USER, ragged.as_bytes());
        let torn = c
            .try_run_job(
                &WordCount,
                "probe-ragged",
                USER,
                REDUCERS,
                ReusePolicy::default(),
            )
            .map_err(|e| e.to_string())
            .and_then(|(out, _)| r::check_map("ragged word count", &out, &r::word_count(&ragged)));
        if let Err(e) = torn {
            println!("# probe torn-records failed: {e}");
            probes.failed.push("torn-records".into());
        }

        let kmeans_input = |name: &str, rng: &mut Rng| {
            let centres = gen::centres(rng, 2);
            let csv = gen::points_csv(rng, &centres, 1024);
            c.upload(name, USER, csv.as_bytes());
            (r::parse_points(&csv), centres)
        };
        let (pa, ca) = kmeans_input("probe-kmeans-a", &mut rng);
        let (pb, cb) = kmeans_input("probe-kmeans-b", &mut rng);
        let ra = run_kmeans(
            c,
            "probe-kmeans-a",
            USER,
            ca.clone(),
            KMEANS_PROBE_ITERS,
            REDUCERS,
        );
        let want_a = r::kmeans(&pa, &ca, KMEANS_PROBE_ITERS);
        if let Err(e) = r::check_points("k-means a", &ra.centroids, &want_a, KMEANS_PROBE_TOL) {
            probes.errors.push(e);
        }
        let rb = run_kmeans(
            c,
            "probe-kmeans-b",
            USER,
            cb.clone(),
            KMEANS_PROBE_ITERS,
            REDUCERS,
        );
        let want_b = r::kmeans(&pb, &cb, KMEANS_PROBE_ITERS);
        if let Err(e) = r::check_points("k-means b", &rb.centroids, &want_b, KMEANS_PROBE_TOL) {
            println!("# probe stale-ocache failed: {e}");
            probes.failed.push("stale-ocache".into());
        }
        probes
    }

    fn micro<'a>(env: &'a Env, inp: &'a Inputs) -> micro::Input<'a> {
        let block = |f: &str| &inp.file(f).as_bytes()[..BLOCK as usize];
        let kmeans = KMeansRound {
            centroids: inp.centres.clone(),
        };
        micro::Input {
            cluster: &env.cluster,
            apps: vec![
                (Box::new(WordCount), block("text")),
                (Box::new(InvertedIndex), block("docs")),
                (Box::new(kmeans), block("points")),
            ],
            files: inp
                .files
                .iter()
                .map(|(n, d)| (n.to_string(), (d.len() as u64).div_ceil(BLOCK)))
                .collect(),
        }
    }

    fn uploads(env: &Env) -> Uploads {
        env.uploads
    }
}
