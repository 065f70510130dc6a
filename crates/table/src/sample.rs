//! Seeded row sampling.
//!
//! The paper computes data profiles on a random sample of 100 records
//! (§VI "Settings"); this module provides the deterministic sampler used
//! for that.

/// splitmix64: advance `state` and return the next pseudo-random value.
/// The one seeded generator for draws that need reproducibility, not
/// statistical quality: row sampling here, k-means seeding, synthetic
/// fixtures and randomized tests. We avoid pulling `rand` into this leaf
/// crate.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A reproducible sample of `k` distinct row indices from `0..n`
/// (Fisher–Yates on the prefix). When `k >= n` returns `0..n` shuffled.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let take = k.min(n);
    for i in 0..take {
        let j = i + (splitmix64(&mut state) as usize) % (n - i);
        indices.swap(i, j);
    }
    indices.truncate(take);
    indices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_deterministic() {
        assert_eq!(sample_indices(100, 10, 7), sample_indices(100, 10, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(sample_indices(1000, 20, 1), sample_indices(1000, 20, 2));
    }

    #[test]
    fn sample_has_distinct_indices_in_range() {
        let s = sample_indices(50, 25, 3);
        assert_eq!(s.len(), 25);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 25, "indices must be distinct");
        assert!(sorted.iter().all(|&i| i < 50));
    }

    #[test]
    fn oversized_k_returns_all() {
        let s = sample_indices(5, 100, 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn empty_table_samples_empty() {
        assert!(sample_indices(0, 10, 1).is_empty());
    }
}
