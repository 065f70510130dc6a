//! MinHash sketches for Jaccard / containment estimation.
//!
//! One permutation per slot, implemented as seeded 64-bit mixes of the
//! value hash. Sketch comparisons are the approximate matching layer that
//! makes discovery scale — and, deliberately, a source of the candidate
//! noise the paper's algorithm is designed to tolerate.

use std::hash::{Hash, Hasher};

/// Number of hash slots per sketch. 128 gives a Jaccard standard error of
/// ~1/√128 ≈ 0.09, in line with LSH-ensemble-style deployments.
pub const SKETCH_SLOTS: usize = 128;

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut hasher);
    hasher.finish()
}

/// A MinHash sketch plus the exact distinct count of the underlying set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    mins: [u64; SKETCH_SLOTS],
    /// Exact distinct-value count of the sketched set.
    pub cardinality: usize,
}

impl MinHash {
    /// Sketch a set of normalized values.
    ///
    /// **Contract:** `keys` must already be deduplicated (order is
    /// irrelevant). `cardinality` is taken as `keys.len()` without
    /// re-counting, so duplicated input silently inflates every
    /// containment estimate derived from it. The one production call
    /// chain feeds this from [`metam_table::Column::distinct_keys`],
    /// which returns sorted, deduplicated keys; the debug assertion
    /// below catches any new caller that breaks the contract.
    pub fn from_keys<S: AsRef<str>>(keys: &[S]) -> MinHash {
        debug_assert!(
            {
                let mut sorted: Vec<&str> = keys.iter().map(AsRef::as_ref).collect();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "MinHash::from_keys requires deduplicated input (cardinality = keys.len())"
        );
        let mut mins = [u64::MAX; SKETCH_SLOTS];
        for key in keys {
            let base = hash_str(key.as_ref());
            for (slot, m) in mins.iter_mut().enumerate() {
                let h = mix64(base ^ mix64(slot as u64 ^ 0x9E3779B97F4A7C15));
                if h < *m {
                    *m = h;
                }
            }
        }
        MinHash {
            mins,
            cardinality: keys.len(),
        }
    }

    /// Reassemble a sketch from its parts (the persisted-sketch
    /// deserialization path). `slots` must come from a prior
    /// [`slots`](Self::slots) call — the pairing with `cardinality` is what
    /// makes containment estimates exact round-trips.
    pub fn from_parts(slots: [u64; SKETCH_SLOTS], cardinality: usize) -> MinHash {
        MinHash {
            mins: slots,
            cardinality,
        }
    }

    /// The raw per-slot minima (for serialization; `u64::MAX` = empty slot).
    pub fn slots(&self) -> &[u64; SKETCH_SLOTS] {
        &self.mins
    }

    /// Estimated Jaccard similarity with another sketch.
    pub fn jaccard(&self, other: &MinHash) -> f64 {
        if self.cardinality == 0 && other.cardinality == 0 {
            return 1.0;
        }
        if self.cardinality == 0 || other.cardinality == 0 {
            return 0.0;
        }
        let matches = self
            .mins
            .iter()
            .zip(other.mins.iter())
            .filter(|(a, b)| a == b && **a != u64::MAX)
            .count();
        matches as f64 / SKETCH_SLOTS as f64
    }

    /// Estimated containment of `self`'s set in `other`'s set
    /// (`|A ∩ B| / |A|`), derived from the Jaccard estimate and exact
    /// cardinalities — the Lazo-style coupled estimation \[17\].
    pub fn containment_in(&self, other: &MinHash) -> f64 {
        if self.cardinality == 0 {
            return 0.0;
        }
        let j = self.jaccard(other);
        if j <= 0.0 {
            return 0.0;
        }
        let union_est = (self.cardinality + other.cardinality) as f64 / (1.0 + j);
        let intersection = j * union_est;
        (intersection / self.cardinality as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("key_{i}")).collect()
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let a = MinHash::from_keys(&keys(0..200));
        let b = MinHash::from_keys(&keys(0..200));
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
        assert!((a.containment_in(&b) - 1.0).abs() < 0.05);
    }

    #[test]
    fn disjoint_sets_have_jaccard_near_zero() {
        let a = MinHash::from_keys(&keys(0..200));
        let b = MinHash::from_keys(&keys(1000..1200));
        assert!(a.jaccard(&b) < 0.05);
        assert!(a.containment_in(&b) < 0.1);
    }

    #[test]
    fn half_overlap_estimated() {
        let a = MinHash::from_keys(&keys(0..400));
        let b = MinHash::from_keys(&keys(200..600));
        // True Jaccard = 200/600 = 1/3.
        let j = a.jaccard(&b);
        assert!((j - 1.0 / 3.0).abs() < 0.12, "j={j}");
    }

    #[test]
    fn containment_asymmetric_for_subset() {
        let small = MinHash::from_keys(&keys(0..100));
        let big = MinHash::from_keys(&keys(0..1000));
        let c_small_in_big = small.containment_in(&big);
        let c_big_in_small = big.containment_in(&small);
        assert!(c_small_in_big > 0.8, "subset containment {c_small_in_big}");
        assert!(
            c_big_in_small < 0.3,
            "superset containment {c_big_in_small}"
        );
    }

    #[test]
    fn empty_set_edge_cases() {
        let empty = MinHash::from_keys::<&str>(&[]);
        let full = MinHash::from_keys(&keys(0..10));
        assert_eq!(empty.jaccard(&full), 0.0);
        assert_eq!(empty.containment_in(&full), 0.0);
        assert_eq!(empty.jaccard(&empty), 1.0);
    }

    #[test]
    fn from_parts_roundtrips_bit_identically() {
        let a = MinHash::from_keys(&keys(0..75));
        let b = MinHash::from_parts(*a.slots(), a.cardinality);
        assert_eq!(a, b);
        assert_eq!(a.jaccard(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "deduplicated")]
    #[cfg(debug_assertions)]
    fn duplicated_input_trips_the_debug_guard() {
        let _ = MinHash::from_keys(&["a", "b", "a"]);
    }

    #[test]
    fn sketch_is_order_insensitive() {
        let mut shuffled = keys(0..50);
        shuffled.reverse();
        assert_eq!(
            MinHash::from_keys(&keys(0..50)),
            MinHash::from_keys(&shuffled)
        );
    }
}
