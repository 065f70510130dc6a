//! Sample statistics, the process's peak memory, and the output digest.

use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `samples` (the mean of the two middle values for an even
/// count). Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// How many of `n` samples lie beyond their nearest-rank `p`-th
/// percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank `p`-th percentile (`None` for no samples). Of fewer than
/// `100 / (100 - p)` samples this is the largest.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// Nearest-rank `p`-th percentile, or `None` when fewer than ten samples
/// lie beyond it: a tail read from fewer samples is one outlier, not a
/// percentile.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < 10 {
        return None;
    }
    percentile(samples, p)
}

/// Peak resident set size of this process in MB (`VmHWM`), when the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, fed field by field.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), Some(90.0), "rank 90 leaves 10 beyond");
        assert_eq!(tail(&v, 91.0), None, "rank 91 leaves only 9 beyond");
        assert_eq!(tail(&v[..19], 50.0), None, "rank 10 of 19 leaves 9 beyond");
        assert_eq!(tail(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 98.0), Some(98.0));
        assert_eq!(beyond(v.len(), 98.0), 2);
        assert_eq!(
            percentile(&v[..8], 98.0),
            Some(8.0),
            "few samples: the largest"
        );
        assert_eq!(percentile(&v[..8], 50.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
