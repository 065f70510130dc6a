//! Spearman rank-correlation profile.
//!
//! An *extension profile* in the sense of §II-C "Extending to other data
//! profiles": Pearson misses monotone-but-nonlinear relationships (e.g.
//! price vs. log-income); rank correlation catches them and is robust to
//! the outliers that open data is full of. Plug it in with
//! `ProfileSet::push` exactly like the defaults.

use crate::profile::{Profile, ProfileContext};

/// |Spearman ρ| between the augmentation and the target on the row sample.
pub struct RankCorrelationProfile;

/// Average ranks (ties share the mean rank).
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = mean_rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman ρ over paired optional samples (pairs with a missing side are
/// skipped; < 3 complete pairs ⇒ 0).
pub fn option_spearman(xs: &[Option<f64>], ys: &[Option<f64>]) -> f64 {
    let pairs: Vec<(f64, f64)> = xs.iter().zip(ys).filter_map(|(x, y)| x.zip(*y)).collect();
    if pairs.len() < 3 {
        return 0.0;
    }
    let xr = ranks(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let yr = ranks(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let n = pairs.len() as f64;
    let mx = xr.iter().sum::<f64>() / n;
    let my = yr.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xr.iter().zip(&yr) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx < 1e-15 || vy < 1e-15 {
        return 0.0;
    }
    (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

impl Profile for RankCorrelationProfile {
    fn name(&self) -> &str {
        "rank_correlation"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let target = ctx.target_sample();
        if target.is_empty() {
            return 0.0;
        }
        option_spearman(&ctx.aug_sample(), target).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[5.0]), vec![1.0]);
    }

    #[test]
    fn monotone_nonlinear_scores_one() {
        // y = exp(x): Pearson < 1, Spearman = 1.
        let xs: Vec<Option<f64>> = (0..30).map(|i| Some(i as f64)).collect();
        let ys: Vec<Option<f64>> = (0..30).map(|i| Some((i as f64 * 0.4).exp())).collect();
        assert!((option_spearman(&xs, &ys) - 1.0).abs() < 1e-9);
        let pearson = crate::correlation::option_pearson(&xs, &ys);
        assert!(
            pearson < 0.95,
            "pearson should under-score the exponential: {pearson}"
        );
    }

    #[test]
    fn anti_monotone_scores_minus_one() {
        let xs: Vec<Option<f64>> = (0..20).map(|i| Some(i as f64)).collect();
        let ys: Vec<Option<f64>> = (0..20).map(|i| Some(-(i as f64).powi(3))).collect();
        assert!((option_spearman(&xs, &ys) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn outlier_robustness_beats_pearson() {
        // Clean weak monotone trend + one enormous outlier.
        let mut xs: Vec<Option<f64>> = (0..30).map(|i| Some(i as f64)).collect();
        let mut ys: Vec<Option<f64>> = (0..30).map(|i| Some(i as f64 + (i % 3) as f64)).collect();
        xs.push(Some(31.0));
        ys.push(Some(-1e9));
        let spearman = option_spearman(&xs, &ys).abs();
        let pearson = crate::correlation::option_pearson(&xs, &ys).abs();
        assert!(spearman > 0.8, "rank stays high: {spearman}");
        assert!(
            pearson < 0.5,
            "pearson collapses under the outlier: {pearson}"
        );
    }

    #[test]
    fn missing_pairs_skipped() {
        let xs = vec![Some(1.0), None, Some(3.0), Some(4.0)];
        let ys = vec![Some(1.0), Some(9.0), Some(3.0), Some(4.0)];
        assert!((option_spearman(&xs, &ys) - 1.0).abs() < 1e-9);
    }
}
