//! Per-layer micro-timings, run after the timed phase on the workload's
//! own inputs: each times one layer's public functions from outside.

use crate::metrics::{median, Metrics};
use crate::trace;
use bytes::Bytes;
use eclipse_cache::LruCache;
use eclipse_core::net::{wire, Rpc, CLIENT};
use eclipse_core::{LiveCluster, MapReduce, SpillBuffer};
use eclipse_dhtfs::BlockId;
use eclipse_sched::{LafConfig, LafScheduler};
use eclipse_util::{sha1, HashKey};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each timing repeats its body until at least this long has passed.
const MIN_TIME: Duration = Duration::from_millis(25);
/// Records per `ShuffleBatch` frame in the codec timings.
const BATCH_RECORDS: usize = 256;

/// Repeat `body` (which returns the units of work it did) until
/// [`MIN_TIME`] has passed; nanoseconds per unit (0 when there is no
/// work). One span covers the whole repetition.
fn ns_per_unit(name: &'static str, layer: &'static str, mut body: impl FnMut() -> u64) -> f64 {
    let _s = trace::span(name, layer, 0);
    let t0 = Instant::now();
    let mut units = 0u64;
    while t0.elapsed() < MIN_TIME {
        match body() {
            0 => return 0.0,
            n => units += n,
        }
    }
    t0.elapsed().as_nanos() as f64 / units as f64
}

/// What the micro-timings run on.
pub struct Input<'a> {
    pub cluster: &'a LiveCluster,
    /// Each app with one block of its own input.
    pub apps: Vec<(Box<dyn MapReduce>, &'a [u8])>,
    /// Uploaded files and their block counts.
    pub files: Vec<(String, u64)>,
}

pub fn run(inp: &Input, m: &mut Metrics) {
    // apps: map every sample block, then reduce its grouped output.
    let mut records = Vec::new();
    let mut map_ns = 0.0;
    let mut lines = 0u64;
    let mut grouped: Vec<BTreeMap<String, Vec<String>>> = Vec::new();
    for (app, block) in &inp.apps {
        let n = block.iter().filter(|&&b| b == b'\n').count().max(1) as u64;
        let per = ns_per_unit("MapReduce::map", "apps", || {
            app.map(black_box(block), &mut |k, v| {
                black_box((k, v));
            });
            n
        });
        map_ns += per * n as f64;
        lines += n;
        let mut g: BTreeMap<String, Vec<String>> = BTreeMap::new();
        app.map(block, &mut |k, v| {
            records.push((k.clone(), v.clone()));
            g.entry(k).or_default().push(v);
        });
        grouped.push(g);
    }
    m.push(
        "apps.map_ns_per_record",
        map_ns / lines.max(1) as f64,
        "ns/rec",
    );
    let keys: u64 = grouped.iter().map(|g| g.len() as u64).sum();
    let reduce_ns = ns_per_unit("MapReduce::reduce", "apps", || {
        for ((app, _), g) in inp.apps.iter().zip(&grouped) {
            for (k, vs) in g {
                app.reduce(k, vs, &mut |a, b| {
                    black_box((a, b));
                });
            }
        }
        keys
    });
    m.push("apps.reduce_ns_per_key", reduce_ns, "ns/key");

    // core::shuffle: spill-buffer pushes of the map output.
    let hashed: Vec<(HashKey, u64, (String, String))> = records
        .iter()
        .map(|(k, v)| {
            (
                HashKey::of_name(k),
                (k.len() + v.len()) as u64,
                (k.clone(), v.clone()),
            )
        })
        .collect();
    let push_ns = {
        let _s = trace::span("SpillBuffer::push", "core::shuffle", 0);
        let mut total = Duration::ZERO;
        let mut n = 0u64;
        while total < MIN_TIME {
            let batch = hashed.clone();
            let mut buf = SpillBuffer::new(8, 256 * 1024);
            let t0 = Instant::now();
            for (hk, bytes, rec) in batch {
                black_box(buf.push(hk, bytes, Some(rec)));
            }
            total += t0.elapsed();
            n += hashed.len() as u64;
        }
        total.as_nanos() as f64 / n.max(1) as f64
    };
    m.push("shuffle.push_ns_per_record", push_ns, "ns/rec");

    // net: the wire codec on ShuffleBatch frames of the map output.
    let batches: Vec<Rpc> = records
        .chunks(BATCH_RECORDS)
        .enumerate()
        .map(|(i, c)| Rpc::ShuffleBatch {
            task: i as u32,
            attempt: 0,
            seq: i as u32,
            epoch: 0,
            partition: (i % 8) as u32,
            records: c.to_vec(),
        })
        .collect();
    let nrec = records.len().max(1) as u64;
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); batches.len()];
    let enc = ns_per_unit("Rpc::encode_into", "net", || {
        for (rpc, buf) in batches.iter().zip(frames.iter_mut()) {
            buf.clear();
            rpc.encode_into(7, buf);
        }
        nrec
    });
    m.push("net.encode_ns_per_record", enc, "ns/rec");
    let dec = ns_per_unit("Rpc::decode", "net", || {
        for f in &frames {
            let frame = wire::decode_frame(f).expect("a frame the codec just wrote");
            black_box(Rpc::decode(&frame).expect("a frame the codec just wrote"));
        }
        nrec
    });
    m.push("net.decode_ns_per_record", dec, "ns/rec");
    let nodes = inp.cluster.ring().node_ids();
    let rtts: Vec<f64> = {
        let _s = trace::span("Transport::call", "net", 0);
        (0..400)
            .map(|i| {
                let ping = Rpc::Heartbeat {
                    from: CLIENT,
                    clock: 0,
                    task: u32::MAX,
                    progress: 0,
                };
                let t0 = Instant::now();
                let ok = inp
                    .cluster
                    .transport()
                    .call(CLIENT, nodes[i % nodes.len()], ping)
                    .is_ok();
                assert!(ok, "heartbeat ping failed on a healthy cluster");
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect()
    };
    m.push("net.rtt_us", median(&rtts), "us");

    // cache: the LRU alone, then oCache through the cluster.
    let words: Vec<&String> = grouped.iter().flat_map(|g| g.keys()).collect();
    let mut lru: LruCache<String> = LruCache::new(u64::MAX / 2);
    let insert = ns_per_unit("LruCache::put", "cache", || {
        lru.clear();
        for w in &words {
            lru.put((*w).clone(), 64, 0.0, None);
        }
        words.len() as u64
    });
    m.push("cache.lru_insert_ns", insert, "ns");
    let hit = ns_per_unit("LruCache::get", "cache", || {
        for w in &words {
            black_box(lru.get(w, 0.0));
        }
        words.len() as u64
    });
    m.push("cache.lru_hit_ns", hit, "ns");
    let payload = Bytes::copy_from_slice(&inp.apps[0].1[..inp.apps[0].1.len().min(4096)]);
    let tags: Vec<String> = (0..200).map(|i| format!("micro/{i}")).collect();
    let put = ns_per_unit("LiveCluster::ocache_put", "cache", || {
        for t in &tags {
            inp.cluster
                .ocache_put("perfbench", t, payload.clone(), None);
        }
        tags.len() as u64
    });
    m.push("cache.ocache_put_us", put / 1e3, "us");
    let get = ns_per_unit("LiveCluster::ocache_get", "cache", || {
        for t in &tags {
            black_box(inp.cluster.ocache_get("perfbench", t));
        }
        tags.len() as u64
    });
    m.push("cache.ocache_get_us", get / 1e3, "us");

    // dhtfs: local block reads on every holder.
    let store = inp.cluster.store();
    let held: Vec<_> = inp
        .files
        .iter()
        .flat_map(|(f, n)| {
            (0..*n).map(move |index| BlockId {
                file: HashKey::of_name(f),
                index,
            })
        })
        .flat_map(|id| {
            nodes
                .iter()
                .filter(move |&&nd| store.holds(nd, id))
                .map(move |&nd| (nd, id))
        })
        .collect();
    let get_ns = ns_per_unit("BlockStore::get", "dhtfs", || {
        for &(nd, id) in &held {
            black_box(store.get(nd, id));
        }
        held.len() as u64
    });
    m.push("dhtfs.block_get_ns", get_ns, "ns");

    // sched, ring, util: placement and hashing of the run's own keys.
    let block_keys: Vec<HashKey> = inp
        .files
        .iter()
        .flat_map(|(f, n)| (0..*n).map(move |i| HashKey::of_block(f, i)))
        .collect();
    let ring = inp.cluster.ring();
    let mut laf = LafScheduler::new(&ring, LafConfig::default());
    let assign = ns_per_unit("LafScheduler::assign", "sched", || {
        for &k in &block_keys {
            black_box(laf.assign(k));
        }
        block_keys.len() as u64
    });
    m.push("sched.laf_assign_ns", assign, "ns");
    let word_keys: Vec<HashKey> = words.iter().map(|w| HashKey::of_name(w)).collect();
    let owner = ns_per_unit("Ring::owner_of", "ring", || {
        for &k in &word_keys {
            black_box(ring.owner_of(k).ok());
        }
        word_keys.len() as u64
    });
    m.push("ring.owner_of_ns", owner, "ns");
    let sample = inp.apps[0].1;
    let kib = (sample.len() / 1024).max(1) as u64;
    let sha = ns_per_unit("sha1", "util", || {
        black_box(sha1(black_box(sample)));
        kib
    });
    m.push("util.sha1_ns_per_kb", sha, "ns/KiB");
    let hk = ns_per_unit("HashKey::of_name", "util", || {
        for w in &words {
            black_box(HashKey::of_name(black_box(w)));
        }
        words.len() as u64
    });
    m.push("util.hashkey_ns", hk, "ns");
}
