//! Seeded input generation. Every input is a pure function of the
//! seed, so the same `--seed` gives byte-identical inputs.
//!
//! Timed inputs are fixed-width records: every line is padded to a
//! width that divides the cluster block size, so no record straddles a
//! block boundary (the engine cuts blocks at fixed byte offsets). The
//! torn-record probe deliberately breaks that rule.

use std::collections::HashSet;

/// Width of text, document and point records.
pub const LINE: usize = 64;
/// Width of sort records and graph edges.
pub const SHORT: usize = 16;
/// Width of join rows.
pub const ROW: usize = 32;

/// SplitMix64: small, fast, and good enough for input generation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(1e-12);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// A Zipf-skewed vocabulary of distinct lowercase words.
pub struct Vocab {
    pub words: Vec<String>,
    cdf: Vec<f64>,
}

impl Vocab {
    pub fn new(rng: &mut Rng, size: usize) -> Vocab {
        let mut seen = HashSet::new();
        let mut words = Vec::with_capacity(size);
        while words.len() < size {
            let len = 3 + rng.below(7) as usize;
            let w: String = (0..len)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            if seen.insert(w.clone()) {
                words.push(w);
            }
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=size)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Vocab { words, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> &str {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.words.len() - 1);
        &self.words[i]
    }
}

/// Append one line of words that fits `width - 1` bytes after `prefix`,
/// padded with spaces to exactly `width` bytes including the newline.
fn push_padded_line(out: &mut String, prefix: &str, vocab: &Vocab, rng: &mut Rng, width: usize) {
    let start = out.len();
    out.push_str(prefix);
    let mut first = true;
    loop {
        let w = vocab.sample(rng);
        let sep = usize::from(!first);
        if out.len() - start + sep + w.len() > width - 1 {
            break;
        }
        if !first {
            out.push(' ');
        }
        out.push_str(w);
        first = false;
    }
    while out.len() - start < width - 1 {
        out.push(' ');
    }
    out.push('\n');
}

/// `lines` fixed-width text lines.
pub fn text(vocab: &Vocab, rng: &mut Rng, lines: usize) -> String {
    let mut s = String::with_capacity(lines * LINE);
    for _ in 0..lines {
        push_padded_line(&mut s, "", vocab, rng, LINE);
    }
    s
}

/// `lines` fixed-width `doc_id<TAB>text` documents (inverted index).
pub fn documents(vocab: &Vocab, rng: &mut Rng, lines: usize) -> String {
    let mut s = String::with_capacity(lines * LINE);
    for d in 0..lines {
        push_padded_line(&mut s, &format!("d{d:06}\t"), vocab, rng, LINE);
    }
    s
}

/// Variable-width text: lines of 1..=12 words. Blocks cut at fixed
/// offsets tear the words that straddle a boundary.
pub fn ragged_text(vocab: &Vocab, rng: &mut Rng, bytes: usize) -> String {
    let mut s = String::with_capacity(bytes + 128);
    while s.len() < bytes {
        let n = 1 + rng.below(12);
        for i in 0..n {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(vocab.sample(rng));
        }
        s.push('\n');
    }
    s
}

/// `n` sort records: 15 random digits and a newline.
pub fn sort_records(rng: &mut Rng, n: usize) -> String {
    let mut s = String::with_capacity(n * SHORT);
    for _ in 0..n {
        s.push_str(&format!("{:015}\n", rng.below(1_000_000_000_000_000)));
    }
    s
}

/// `n` join rows `k<5 digits><TAB><24 digits>` over `keys` distinct keys.
pub fn join_table(rng: &mut Rng, n: usize, keys: u64) -> String {
    let mut s = String::with_capacity(n * ROW);
    for _ in 0..n {
        let k = rng.below(keys);
        let v = rng.below(1_000_000_000_000_000_000);
        s.push_str(&format!("k{k:05}\t{v:024}\n"));
    }
    s
}

pub type Point = [f64; 8];

/// `k` cluster centres in `[10, 90)` per coordinate.
pub fn centres(rng: &mut Rng, k: usize) -> Vec<Point> {
    (0..k)
        .map(|_| {
            let mut c = [0.0; 8];
            for x in &mut c {
                *x = 10.0 + 80.0 * rng.unit();
            }
            c
        })
        .collect()
}

/// `n` points around `centres` (σ = 4), as fixed-width CSV lines: eight
/// `{:07.3}` coordinates, seven commas and a newline = 64 bytes.
pub fn points_csv(rng: &mut Rng, centres: &[Point], n: usize) -> String {
    let mut s = String::with_capacity(n * LINE);
    for _ in 0..n {
        let c = &centres[rng.below(centres.len() as u64) as usize];
        for (d, x) in c.iter().enumerate() {
            if d > 0 {
                s.push(',');
            }
            let v = (x + 4.0 * rng.normal()).clamp(-99.0, 999.0);
            s.push_str(&format!("{v:07.3}"));
        }
        s.push('\n');
    }
    s
}

/// A directed graph on `n` vertices as fixed-width edge lines
/// `src<TAB>dst` (7-digit zero-padded ids). Out-degrees are 0..=7, so
/// about one vertex in eight is dangling.
pub fn graph_edges(rng: &mut Rng, n: u32) -> String {
    let mut s = String::new();
    for src in 0..n {
        for _ in 0..rng.below(8) {
            let dst = rng.below(u64::from(n)) as u32;
            s.push_str(&format!("{src:07}\t{dst:07}\n"));
        }
    }
    s
}
