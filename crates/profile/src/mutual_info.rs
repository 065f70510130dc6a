//! Mutual-information profile (§II-C).
//!
//! Numeric values are discretized into equi-width bins; MI is normalized by
//! `min(H(X), H(Y))` so the profile lands in `[0, 1]`.

use crate::profile::{Profile, ProfileContext};

/// Normalized mutual information between augmentation and target.
pub struct MutualInfoProfile {
    /// Number of equi-width bins for numeric discretization.
    pub bins: usize,
}

impl Default for MutualInfoProfile {
    fn default() -> Self {
        MutualInfoProfile { bins: 8 }
    }
}

/// Equi-width binning of present values; `None` stays `None`.
fn discretize(values: &[Option<f64>], bins: usize) -> Vec<Option<usize>> {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    if present.is_empty() {
        return vec![None; values.len()];
    }
    let lo = present.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = present.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            v.map(|x| {
                (((x - lo) / span) * bins as f64)
                    .floor()
                    .min(bins as f64 - 1.0) as usize
            })
        })
        .collect()
}

/// Normalized MI over paired discretized samples.
pub(crate) fn normalized_mi(xs: &[Option<usize>], ys: &[Option<usize>], bins: usize) -> f64 {
    let pairs: Vec<(usize, usize)> = xs.iter().zip(ys).filter_map(|(x, y)| x.zip(*y)).collect();
    let n = pairs.len();
    if n < 3 {
        return 0.0;
    }
    let mut joint = vec![vec![0.0; bins]; bins];
    let mut px = vec![0.0; bins];
    let mut py = vec![0.0; bins];
    let inv = 1.0 / n as f64;
    for (x, y) in &pairs {
        joint[*x][*y] += inv;
        px[*x] += inv;
        py[*y] += inv;
    }
    let mut mi = 0.0;
    for x in 0..bins {
        for y in 0..bins {
            let pxy = joint[x][y];
            if pxy > 0.0 {
                mi += pxy * (pxy / (px[x] * py[y])).ln();
            }
        }
    }
    let hx: f64 = -px
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>();
    let hy: f64 = -py
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>();
    let denom = hx.min(hy);
    if denom < 1e-12 {
        return 0.0;
    }
    (mi / denom).clamp(0.0, 1.0)
}

impl Profile for MutualInfoProfile {
    fn name(&self) -> &str {
        "mutual_info"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let target = ctx.target_sample();
        if target.is_empty() {
            return 0.0;
        }
        let aug = ctx.aug_sample();
        let dx = discretize(&aug, self.bins);
        let dy = discretize(target, self.bins);
        normalized_mi(&dx, &dy, self.bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_signals_have_full_mi() {
        let xs: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let dx = discretize(&xs, 8);
        assert!((normalized_mi(&dx, &dx, 8) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn independent_signals_have_low_mi() {
        let xs: Vec<Option<f64>> = (0..200).map(|i| Some((i % 8) as f64)).collect();
        let ys: Vec<Option<f64>> = (0..200).map(|i| Some(((i * 37 + 11) % 5) as f64)).collect();
        let mi = normalized_mi(&discretize(&xs, 8), &discretize(&ys, 8), 8);
        assert!(mi < 0.25, "mi={mi}");
    }

    #[test]
    fn nonlinear_dependence_detected() {
        // y = x² has near-zero Pearson on symmetric x, but high MI.
        let xs: Vec<Option<f64>> = (-50..50).map(|i| Some(i as f64)).collect();
        let ys: Vec<Option<f64>> = (-50..50).map(|i| Some((i * i) as f64)).collect();
        let mi = normalized_mi(&discretize(&xs, 8), &discretize(&ys, 8), 8);
        assert!(mi > 0.5, "mi={mi}");
        let r = crate::correlation::option_pearson(&xs, &ys).abs();
        assert!(r < 0.1, "pearson should miss the parabola: {r}");
    }

    #[test]
    fn missing_values_skipped() {
        let xs = vec![None, Some(1.0), Some(2.0), Some(3.0)];
        let ys = vec![Some(9.0), Some(1.0), Some(2.0), Some(3.0)];
        let mi = normalized_mi(&discretize(&xs, 4), &discretize(&ys, 4), 4);
        assert!((0.0..=1.0).contains(&mi));
    }

    #[test]
    fn constant_column_scores_zero() {
        let xs: Vec<Option<f64>> = (0..50).map(|_| Some(1.0)).collect();
        let ys: Vec<Option<f64>> = (0..50).map(|i| Some(i as f64)).collect();
        assert_eq!(
            normalized_mi(&discretize(&xs, 8), &discretize(&ys, 8), 8),
            0.0
        );
    }
}
