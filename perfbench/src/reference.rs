//! Independent output checks: sequential computations over the whole
//! input with no cluster, written apart from the engine and the apps.
//! Each `check_*` returns the first mismatch as an error message.

use crate::gen::Point;
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub type Pairs = [(String, String)];

/// Add every whitespace-separated word of `text` to `counts`.
pub fn add_word_counts(counts: &mut HashMap<String, u64>, text: &str) {
    for w in text.split_whitespace() {
        *counts.entry(w.to_string()).or_default() += 1;
    }
}

pub fn word_count(text: &str) -> BTreeMap<String, String> {
    let mut counts = HashMap::new();
    add_word_counts(&mut counts, text);
    counts
        .into_iter()
        .map(|(w, n)| (w, n.to_string()))
        .collect()
}

/// Lines containing `pattern`, each with its occurrence count.
pub fn grep(text: &str, pattern: &str) -> BTreeMap<String, String> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines().filter(|l| l.contains(pattern)) {
        *counts.entry(line.to_string()).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(l, n)| (l, n.to_string()))
        .collect()
}

/// Word → comma-joined sorted distinct document ids.
pub fn inverted_index(docs: &str) -> BTreeMap<String, String> {
    let mut postings: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for line in docs.lines() {
        let Some((doc, body)) = line.split_once('\t') else {
            continue;
        };
        for w in body.split_whitespace() {
            postings
                .entry(w.to_string())
                .or_default()
                .insert(doc.to_string());
        }
    }
    postings
        .into_iter()
        .map(|(w, ds)| (w, ds.into_iter().collect::<Vec<_>>().join(",")))
        .collect()
}

/// Key-sorted output pairs must equal `want` exactly.
pub fn check_map(what: &str, got: &Pairs, want: &BTreeMap<String, String>) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} keys, expected {}",
            got.len(),
            want.len()
        ));
    }
    for ((k, v), (wk, wv)) in got.iter().zip(want) {
        if k != wk || v != wv {
            return Err(format!("{what}: got {k:?}={v:?}, expected {wk:?}={wv:?}"));
        }
    }
    Ok(())
}

/// The non-empty lines of `data` in sorted order.
pub fn sorted_lines(data: &str) -> Vec<String> {
    let mut v: Vec<String> = data
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    v.sort_unstable();
    v
}

/// TeraSort: the partition concatenation must be globally ordered and
/// hold the same multiset as the input (`want` is the sorted input).
pub fn check_sorted(got: &[String], want: &[String]) -> Result<(), String> {
    if let Some(i) = got.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("terasort: records {i} and {} out of order", i + 1));
    }
    if got != want {
        return Err(format!(
            "terasort: {} records differ from the input's {}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

fn rows(table: &str) -> Vec<(&str, &str)> {
    table.lines().filter_map(|l| l.split_once('\t')).collect()
}

/// Nested-loop equi-join: `(key, "left\tright")`, sorted.
pub fn join(left: &str, right: &str) -> Vec<(String, String)> {
    let (l, r) = (rows(left), rows(right));
    let mut out = Vec::new();
    for (lk, lv) in &l {
        for (rk, rv) in &r {
            if lk == rk {
                out.push((lk.to_string(), format!("{lv}\t{rv}")));
            }
        }
    }
    out.sort();
    out
}

pub fn check_join(got: &Pairs, want: &Pairs) -> Result<(), String> {
    let mut got = got.to_vec();
    got.sort();
    if got != want {
        return Err(format!("join: {} rows, expected {}", got.len(), want.len()));
    }
    Ok(())
}

pub fn parse_points(csv: &str) -> Vec<Point> {
    csv.lines()
        .filter_map(|l| {
            let mut p = [0.0; 8];
            let mut n = 0;
            for tok in l.split(',') {
                *p.get_mut(n)? = tok.trim().parse().ok()?;
                n += 1;
            }
            (n == 8).then_some(p)
        })
        .collect()
}

fn nearest(p: &Point, centroids: &[Point]) -> usize {
    let d2 = |c: &Point| c.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
    let mut best = 0;
    for (i, c) in centroids.iter().enumerate() {
        if d2(c) < d2(&centroids[best]) {
            best = i;
        }
    }
    best
}

/// One sequential k-means round: the mean of the points nearest each
/// centroid (`None` for a centroid no point chose).
pub fn kmeans_round(points: &[Point], centroids: &[Point]) -> Vec<Option<Point>> {
    let mut sums = vec![([0.0; 8], 0usize); centroids.len()];
    for p in points {
        let s = &mut sums[nearest(p, centroids)];
        for (acc, x) in s.0.iter_mut().zip(p) {
            *acc += x;
        }
        s.1 += 1;
    }
    sums.into_iter()
        .map(|(s, n)| (n > 0).then(|| s.map(|x| x / n as f64)))
        .collect()
}

/// Sequential Lloyd iterations; an empty cluster keeps its centroid.
pub fn kmeans(points: &[Point], initial: &[Point], iterations: u32) -> Vec<Point> {
    let mut c = initial.to_vec();
    for _ in 0..iterations {
        for (i, m) in kmeans_round(points, &c).into_iter().enumerate() {
            if let Some(m) = m {
                c[i] = m;
            }
        }
    }
    c
}

/// Coordinates are printed with six decimals by the app, so a round's
/// means agree with the sequential ones to well within this.
pub const KMEANS_TOL: f64 = 1e-4;
/// Power iteration agrees with the app's nine-decimal ranks to within
/// this per vertex.
pub const PAGERANK_TOL: f64 = 1e-7;

/// A k-means round's `c<index> -> mean` output against the sequential
/// round.
pub fn check_kmeans_round(got: &Pairs, want: &[Option<Point>]) -> Result<(), String> {
    let expected = want.iter().filter(|m| m.is_some()).count();
    if got.len() != expected {
        return Err(format!(
            "kmeans round: {} centroids, expected {expected}",
            got.len()
        ));
    }
    for (k, v) in got {
        let i: usize = k
            .trim_start_matches('c')
            .parse()
            .map_err(|_| format!("kmeans key {k:?}"))?;
        let Some(Some(m)) = want.get(i) else {
            return Err(format!("kmeans round: unexpected centroid {k}"));
        };
        let p = parse_points(v);
        let p = p.first().ok_or_else(|| format!("kmeans value {v:?}"))?;
        check_points(
            "kmeans round",
            std::slice::from_ref(p),
            std::slice::from_ref(m),
            KMEANS_TOL,
        )?;
    }
    Ok(())
}

pub fn check_points(what: &str, got: &[Point], want: &[Point], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} centroids, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        if g.iter().zip(w).any(|(a, b)| (a - b).abs() > tol) {
            return Err(format!(
                "{what}: got [{:.2}, {:.2}, ..], expected [{:.2}, {:.2}, ..]",
                g[0], g[1], w[0], w[1]
            ));
        }
    }
    Ok(())
}

/// Sequential PageRank by power iteration with damping `d`: dangling
/// vertices spread their rank uniformly, every vertex gets `(1-d)/n`.
pub fn pagerank(edges: &str, n: u32, iterations: u32, d: f64) -> Vec<f64> {
    let edges: Vec<(usize, usize)> = edges
        .lines()
        .filter_map(|l| {
            let (s, t) = l.split_once('\t')?;
            Some((s.parse().ok()?, t.parse().ok()?))
        })
        .collect();
    let n = n as usize;
    let mut deg = vec![0u32; n];
    for &(s, _) in &edges {
        deg[s] += 1;
    }
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let dangling: f64 = (0..n).filter(|&v| deg[v] == 0).map(|v| rank[v]).sum();
        let mut next = vec![(1.0 - d) / n as f64 + d * dangling / n as f64; n];
        for &(s, t) in &edges {
            next[t] += d * rank[s] / f64::from(deg[s]);
        }
        rank = next;
    }
    rank
}

pub fn check_pagerank(got: &HashMap<u32, f64>, want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "pagerank: {} vertices, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (v, w) in want.iter().enumerate() {
        match got.get(&(v as u32)) {
            Some(g) if (g - w).abs() <= PAGERANK_TOL => {}
            g => return Err(format!("pagerank: vertex {v} got {g:?}, expected {w:.9}")),
        }
    }
    Ok(())
}

/// A published epoch must equal the running count over the base and
/// deltas 1..k.
pub fn check_counts(what: &str, got: &Pairs, want: &HashMap<String, u64>) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} words, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (k, v) in got {
        if want.get(k).map(u64::to_string).as_deref() != Some(v.as_str()) {
            return Err(format!("{what}: {k:?}={v}, expected {:?}", want.get(k)));
        }
    }
    Ok(())
}
