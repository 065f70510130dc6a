//! Moment statistics on numeric slices.

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population covariance of paired samples.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance needs paired samples");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64
}

/// Pearson correlation in `[-1, 1]`; 0 when either side is constant.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let vx = variance(xs);
    let vy = variance(ys);
    if vx < 1e-15 || vy < 1e-15 {
        return 0.0;
    }
    (covariance(xs, ys) / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation
/// (max abs error ≈ 1.5e-7, plenty for p-value thresholding at 0.05).
pub fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erf = 1.0 - poly * (-(x * x) / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999999);
    }
}
