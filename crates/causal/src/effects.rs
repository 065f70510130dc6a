//! Total causal effects in linear SEMs.
//!
//! The paper's how-to analysis scores attributes by their *total causal
//! effect* on the outcome. In a linear structural equation model the total
//! effect of X on Y equals the regression coefficient of X in a regression
//! of Y on X plus a valid adjustment set; we use standardized ridge
//! coefficients (regression of Y on all candidate attributes), which matches
//! the monotone "support of identified causal relationship" utility the
//! paper describes.

use metam_ml::RidgeRegression;

use crate::stats::variance;

/// Standardized total-effect estimates of each column on the outcome:
/// the absolute standardized coefficient of a ridge regression of
/// `outcome` on `columns`.
pub fn standardized_effects(columns: &[Vec<f64>], outcome: &[f64]) -> Vec<f64> {
    if columns.is_empty() || outcome.is_empty() {
        return vec![0.0; columns.len()];
    }
    let n = outcome.len();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|r| columns.iter().map(|c| c[r]).collect())
        .collect();
    let model = RidgeRegression::fit(&rows, outcome, 1e-3);
    let sd_y = variance(outcome).sqrt().max(1e-12);
    model
        .coefficients()
        .iter()
        .map(|w| (w / sd_y).abs())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn noise(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn effect_found_for_true_cause() {
        let n = 300;
        let cause = noise(1, n);
        let junk = noise(2, n);
        let e = noise(3, n);
        let y: Vec<f64> = cause
            .iter()
            .zip(&e)
            .map(|(c, e)| 2.0 * c + 0.1 * e)
            .collect();
        let effects = standardized_effects(&[cause, junk], &y);
        assert!(effects[0] > 3.0 * effects[1], "effects={effects:?}");
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert!(standardized_effects(&[], &[]).is_empty());
    }
}
