//! Deterministic train/validation splitting.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::MlDataset;

/// Split into `(train, validation)` with `test_fraction` of rows held out.
/// The shuffle is seeded, so a given `(dataset, seed)` always produces the
/// same split — required for utility functions to be deterministic across
/// repeated queries.
pub fn train_test_split(data: &MlDataset, test_fraction: f64, seed: u64) -> (MlDataset, MlDataset) {
    let (train_idx, test_idx) = train_test_indices(data.len(), test_fraction, seed);
    (data.take_rows(&train_idx), data.take_rows(&test_idx))
}

/// The row indices [`train_test_split`] takes for `n` rows:
/// `(train, validation)`, each in the order its dataset lists them. They
/// depend only on `n`, `test_fraction` and `seed`.
pub fn train_test_indices(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let n_test = n_test.min(n.saturating_sub(1)).max(usize::from(n > 1));
    let train = indices.split_off(n_test);
    (train, indices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> MlDataset {
        MlDataset {
            features: (0..n).map(|i| vec![i as f64]).collect(),
            feature_names: vec!["x".into()],
            targets: (0..n).map(|i| i as f64).collect(),
            n_classes: None,
        }
    }

    #[test]
    fn split_is_deterministic_and_partitioning() {
        let d = dataset(100);
        let (tr1, te1) = train_test_split(&d, 0.25, 9);
        let (tr2, te2) = train_test_split(&d, 0.25, 9);
        assert_eq!(tr1.targets, tr2.targets);
        assert_eq!(te1.targets, te2.targets);
        assert_eq!(tr1.len() + te1.len(), 100);
        assert_eq!(te1.len(), 25);
        let mut all: Vec<f64> = tr1
            .targets
            .iter()
            .chain(te1.targets.iter())
            .copied()
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, d.targets);
    }

    #[test]
    fn split_never_empties_train() {
        let d = dataset(3);
        let (tr, te) = train_test_split(&d, 0.99, 1);
        assert!(!tr.is_empty());
        assert!(!te.is_empty());
    }
}
