//! Evaluation metrics used as utility scores.
//!
//! Every metric is bounded so that tasks can report `u ∈ [0, 1]` as
//! Definition 5 requires.

/// Fraction of exact matches (classes compared as rounded integers).
pub fn accuracy(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len());
    if predictions.is_empty() {
        return 0.0;
    }
    let hits = predictions
        .iter()
        .zip(targets)
        .filter(|(p, y)| (p.round() - y.round()).abs() < 0.5)
        .count();
    hits as f64 / predictions.len() as f64
}

/// Binary precision for positive class `1`.
pub fn precision(predictions: &[f64], targets: &[f64]) -> f64 {
    let tp = predictions
        .iter()
        .zip(targets)
        .filter(|(p, y)| p.round() == 1.0 && y.round() == 1.0)
        .count() as f64;
    let fp = predictions
        .iter()
        .zip(targets)
        .filter(|(p, y)| p.round() == 1.0 && y.round() == 0.0)
        .count() as f64;
    if tp + fp == 0.0 {
        0.0
    } else {
        tp / (tp + fp)
    }
}

/// Binary recall for positive class `1`.
pub fn recall(predictions: &[f64], targets: &[f64]) -> f64 {
    let tp = predictions
        .iter()
        .zip(targets)
        .filter(|(p, y)| p.round() == 1.0 && y.round() == 1.0)
        .count() as f64;
    let fun = predictions
        .iter()
        .zip(targets)
        .filter(|(p, y)| p.round() == 0.0 && y.round() == 1.0)
        .count() as f64;
    if tp + fun == 0.0 {
        0.0
    } else {
        tp / (tp + fun)
    }
}

/// Binary F1 for positive class `1`.
pub fn f1_binary(predictions: &[f64], targets: &[f64]) -> f64 {
    let p = precision(predictions, targets);
    let r = recall(predictions, targets);
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

/// Macro-averaged F1 over `n_classes` (one-vs-rest per class).
pub fn f1_macro(predictions: &[f64], targets: &[f64], n_classes: usize) -> f64 {
    if n_classes == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for c in 0..n_classes {
        let bp: Vec<f64> = predictions
            .iter()
            .map(|&p| if p.round() as usize == c { 1.0 } else { 0.0 })
            .collect();
        let bt: Vec<f64> = targets
            .iter()
            .map(|&y| if y.round() as usize == c { 1.0 } else { 0.0 })
            .collect();
        total += f1_binary(&bp, &bt);
    }
    total / n_classes as f64
}

/// Mean absolute error.
pub fn mae(predictions: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(predictions.len(), targets.len());
    if predictions.is_empty() {
        return 0.0;
    }
    predictions
        .iter()
        .zip(targets)
        .map(|(p, y)| (p - y).abs())
        .sum::<f64>()
        / predictions.len() as f64
}

/// The paper's regression utility: `1 − MAE` on targets normalized to
/// `[0, 1]` (clamped for safety).
pub fn regression_utility(predictions: &[f64], targets: &[f64]) -> f64 {
    let lo = targets.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() || hi - lo < 1e-12 {
        return 0.0;
    }
    let span = hi - lo;
    let norm_pred: Vec<f64> = predictions.iter().map(|p| (p - lo) / span).collect();
    let norm_targ: Vec<f64> = targets.iter().map(|y| (y - lo) / span).collect();
    (1.0 - mae(&norm_pred, &norm_targ)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1.0, 0.0, 1.0], &[1.0, 1.0, 1.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_f1() {
        let p = [1.0, 0.0, 1.0, 0.0];
        assert_eq!(f1_binary(&p, &p), 1.0);
    }

    #[test]
    fn f1_zero_when_no_positives_predicted() {
        assert_eq!(f1_binary(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn precision_recall_basics() {
        let pred = [1.0, 1.0, 0.0, 0.0];
        let targ = [1.0, 0.0, 1.0, 0.0];
        assert_eq!(precision(&pred, &targ), 0.5);
        assert_eq!(recall(&pred, &targ), 0.5);
    }

    #[test]
    fn macro_f1_averages_classes() {
        let pred = [0.0, 1.0, 2.0];
        let targ = [0.0, 1.0, 2.0];
        assert!((f1_macro(&pred, &targ, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mae_averages_absolute_errors() {
        let pred = [1.0, 2.0];
        let targ = [2.0, 4.0];
        assert_eq!(mae(&pred, &targ), 1.5);
    }

    #[test]
    fn regression_utility_bounds() {
        let t = [0.0, 10.0];
        assert_eq!(regression_utility(&t, &t), 1.0);
        let u = regression_utility(&[10.0, 0.0], &t);
        assert!((0.0..=1.0).contains(&u));
        assert_eq!(u, 0.0);
    }
}
