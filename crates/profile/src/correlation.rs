//! Pearson-correlation profile (§II-C "Correlation and Mutual Information").

use crate::profile::{Profile, ProfileContext};

/// |Pearson correlation| between the candidate augmentation and the task's
/// target attribute, estimated on the row sample. Pairs where either side
/// is missing are skipped; fewer than 3 complete pairs score 0.
pub struct CorrelationProfile;

/// Pearson over paired optional samples.
pub(crate) fn option_pearson(xs: &[Option<f64>], ys: &[Option<f64>]) -> f64 {
    let pairs: Vec<(f64, f64)> = xs.iter().zip(ys).filter_map(|(x, y)| x.zip(*y)).collect();
    if pairs.len() < 3 {
        return 0.0;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in &pairs {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx < 1e-15 || vy < 1e-15 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

impl Profile for CorrelationProfile {
    fn name(&self) -> &str {
        "correlation"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let aug = ctx.aug_sample();
        let target = ctx.target_sample();
        if target.is_empty() {
            // Unsupervised task: best correlation against any numeric Din column.
            let mut best: f64 = 0.0;
            for col in ctx.din.numeric_samples() {
                best = best.max(option_pearson(&aug, col).abs());
            }
            return best;
        }
        option_pearson(&aug, target).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_pearson_skips_missing_pairs() {
        let xs = vec![Some(1.0), None, Some(2.0), Some(3.0), Some(4.0)];
        let ys = vec![Some(2.0), Some(9.0), Some(4.0), Some(6.0), Some(8.0)];
        assert!((option_pearson(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_few_pairs_scores_zero() {
        assert_eq!(
            option_pearson(&[Some(1.0), None], &[Some(1.0), Some(2.0)]),
            0.0
        );
    }

    #[test]
    fn anticorrelation_magnitude() {
        let xs: Vec<Option<f64>> = (0..10).map(|i| Some(i as f64)).collect();
        let ys: Vec<Option<f64>> = (0..10).map(|i| Some(-(i as f64))).collect();
        assert!((option_pearson(&xs, &ys) + 1.0).abs() < 1e-12);
    }
}
