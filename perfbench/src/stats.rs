//! The benchmark's one percentile helper, plus the digest that
//! fingerprints a generated request sequence.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`q` in 0..=100) of an ascending slice; 0
/// for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted values (the mean of the middle pair for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency samples of one request class, in milliseconds, with the
/// instant each completed.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<(Instant, f64)>,
}

/// Fewest samples a window may hold for its p99 to count.
const WINDOW: usize = 1000;

impl Latencies {
    /// Record one latency, completed now.
    pub fn push(&mut self, d: Duration) {
        self.samples.push((Instant::now(), d.as_secs_f64() * 1e3));
    }

    /// Append another connection's samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Percentile `q` of all samples, in milliseconds.
    pub fn pct(&self, q: f64) -> f64 {
        let mut ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        ms.sort_by(f64::total_cmp);
        percentile(&ms, q)
    }

    /// p99 robust to a burst of host noise: the samples, in completion
    /// order, are cut into consecutive windows of at least [`WINDOW`]
    /// samples (up to eight), and the median of the windows' p99 is
    /// reported. One stalled second moves one window, not the median.
    pub fn p99(&self) -> f64 {
        let windows = (self.samples.len() / WINDOW).clamp(1, 8);
        let mut by_time = self.samples.clone();
        by_time.sort_by_key(|s| s.0);
        let size = by_time.len().div_ceil(windows).max(1);
        let p99s: Vec<f64> = by_time
            .chunks(size)
            .map(|chunk| {
                let mut ms: Vec<f64> = chunk.iter().map(|s| s.1).collect();
                ms.sort_by(f64::total_cmp);
                percentile(&ms, 99.0)
            })
            .collect();
        median(&p99s)
    }
}

/// FNV-1a 64 over everything fed to it: the request-sequence digest
/// the report carries, so equal seeds can be shown to yield equal
/// inputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Feed a number.
    pub fn num(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// Feed a string, length-prefixed so concatenations stay distinct.
    pub fn str(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn windowed_p99_ignores_one_noisy_window() {
        let mut l = Latencies::default();
        for i in 0..5000 {
            // One burst of slow requests in the third thousand.
            let slow = (2000..2100).contains(&i);
            l.push(Duration::from_micros(if slow {
                50_000
            } else {
                1_000 + i % 100
            }));
        }
        assert!(l.pct(99.0) >= 50.0);
        assert!(l.p99() < 1.2, "{}", l.p99());
        assert_eq!(l.len(), 5000);
    }

    #[test]
    fn digest_separates_concatenations() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a.hex(), b.hex());
    }
}
