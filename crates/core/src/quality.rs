//! Quality-score estimation (§IV-B QUALITY-SCORE).
//!
//! `score(P) = profile_score(P) + utility_score(P)` where:
//!
//! * `profile_score` = `w · p`, a prior from profile values; the importance
//!   weights `w` start uniform and are re-learned after every query by the
//!   ridge closed form `β = (XᵀX + λI)⁻¹ Xᵀ q` that Lemma 4 analyzes,
//! * `utility_score` = the observed utility *gain* for queried candidates,
//!   propagated within a cluster as `(1 − d(P, P′)) · score(P′)` to
//!   unqueried candidates (property P2).

use metam_ml::matrix::ridge_solve;
use metam_ml::Matrix;
use metam_profile::linf_distance;

use crate::cluster::Clustering;

/// Refit the ridge weights every this many observations.
const REFIT_INTERVAL: usize = 4;
/// Only this many most-recent observations enter a refit.
const REFIT_WINDOW: usize = 512;

/// Online quality-score model over a fixed candidate set.
#[derive(Debug, Clone)]
pub struct QualityModel {
    /// Profile importance weights (normalized, non-negative).
    weights: Vec<f64>,
    /// Observed `(candidate, gain)` pairs.
    observations: Vec<(usize, f64)>,
    /// Per-candidate utility-based score.
    utility_scores: Vec<f64>,
    /// Whether cluster propagation of utility scores is active (turned off
    /// when the homogeneity check fails, §IV-B Generalization).
    propagate: bool,
}

impl QualityModel {
    /// New model with uniform weights over `n_profiles`.
    pub fn new(n_candidates: usize, n_profiles: usize) -> QualityModel {
        let w = if n_profiles == 0 {
            0.0
        } else {
            1.0 / n_profiles as f64
        };
        QualityModel {
            weights: vec![w; n_profiles],
            observations: Vec::new(),
            utility_scores: vec![0.0; n_candidates],
            propagate: true,
        }
    }

    /// Current profile weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Disable intra-cluster utility propagation (homogeneity failed).
    pub fn disable_propagation(&mut self) {
        self.propagate = false;
    }

    /// Record the outcome of querying `candidate`: `gain` = utility
    /// increase over the pre-query dataset (clamped at 0 — a harmful
    /// augmentation has no *positive* evidence). Updates the candidate's
    /// utility score, propagates within its cluster, and refits weights.
    pub fn record(
        &mut self,
        candidate: usize,
        gain: f64,
        profiles: &[Vec<f64>],
        clustering: &Clustering,
    ) {
        let gain = gain.max(0.0);
        self.observations.push((candidate, gain));
        self.utility_scores[candidate] = gain;
        if self.propagate {
            let cluster = clustering.cluster_of(candidate);
            for &other in &clustering.clusters[cluster] {
                if other == candidate {
                    continue;
                }
                let d = linf_distance(&profiles[candidate], &profiles[other]);
                let propagated = (1.0 - d).max(0.0) * gain;
                // Keep the best evidence seen for `other` so far.
                if propagated > self.utility_scores[other] {
                    self.utility_scores[other] = propagated;
                }
            }
        }
        if self.observations.len().is_multiple_of(REFIT_INTERVAL) {
            self.refit_weights(profiles);
        }
    }

    /// Ridge refit of profile weights against observed gains (Lemma 4's
    /// closed form). Needs at least 3 observations; negative weights clamp
    /// to 0 (importances) and the vector renormalizes to sum 1, falling
    /// back to uniform when everything clamps away.
    ///
    /// Only the most recent [`REFIT_WINDOW`] observations enter the fit,
    /// keeping the per-refit cost `O(window · l² + l³)` independent of the
    /// query count — necessary for the 100-profile scalability sweeps.
    fn refit_weights(&mut self, profiles: &[Vec<f64>]) {
        let l = self.weights.len();
        if l == 0 || self.observations.len() < 3 {
            return;
        }
        let start = self.observations.len().saturating_sub(REFIT_WINDOW);
        let window = &self.observations[start..];
        let rows: Vec<Vec<f64>> = window.iter().map(|&(c, _)| profiles[c].clone()).collect();
        let targets: Vec<f64> = window.iter().map(|&(_, g)| g).collect();
        let x = Matrix::from_rows(&rows);
        if let Some(beta) = ridge_solve(&x, &targets, 1e-3) {
            let clamped: Vec<f64> = beta.iter().map(|&b| b.max(0.0)).collect();
            let sum: f64 = clamped.iter().sum();
            if sum > 1e-12 {
                self.weights = clamped.iter().map(|&b| b / sum).collect();
            } else {
                self.weights = vec![1.0 / l as f64; l];
            }
        }
    }

    /// Profile-based prior of one candidate.
    pub fn profile_score(&self, candidate: usize, profiles: &[Vec<f64>]) -> f64 {
        profiles[candidate]
            .iter()
            .zip(&self.weights)
            .map(|(p, w)| p * w)
            .sum()
    }

    /// Utility-based component of one candidate.
    pub fn utility_score(&self, candidate: usize) -> f64 {
        self.utility_scores[candidate]
    }

    /// Full quality score (JPSCORE in Algorithm 1).
    pub fn quality_score(&self, candidate: usize, profiles: &[Vec<f64>]) -> f64 {
        self.profile_score(candidate, profiles) + self.utility_score(candidate)
    }

    /// Argmax of the quality score over `eligible` (ties → smaller index).
    pub fn best_candidate(
        &self,
        eligible: impl Iterator<Item = usize>,
        profiles: &[Vec<f64>],
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in eligible {
            let s = self.quality_score(c, profiles);
            match best {
                Some((_, bs)) if s <= bs => {}
                _ => best = Some((c, s)),
            }
        }
        best.map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_partition;

    fn profiles() -> Vec<Vec<f64>> {
        // Candidates 0,1 nearly identical (one cluster); candidate 2 far.
        vec![vec![0.9, 0.1], vec![0.88, 0.12], vec![0.1, 0.9]]
    }

    #[test]
    fn initial_weights_uniform() {
        let m = QualityModel::new(3, 2);
        assert_eq!(m.weights(), &[0.5, 0.5]);
        assert_eq!(m.quality_score(0, &profiles()), 0.5);
    }

    #[test]
    fn gain_propagates_within_cluster_only() {
        let p = profiles();
        let clustering = cluster_partition(&p, 0.1, 0);
        let mut m = QualityModel::new(3, 2);
        m.record(0, 0.4, &p, &clustering);
        assert_eq!(m.utility_score(0), 0.4);
        assert!(
            m.utility_score(1) > 0.3,
            "near-duplicate inherits most of the gain"
        );
        assert_eq!(m.utility_score(2), 0.0, "far candidate untouched");
    }

    #[test]
    fn propagation_can_be_disabled() {
        let p = profiles();
        let clustering = cluster_partition(&p, 0.1, 0);
        let mut m = QualityModel::new(3, 2);
        m.disable_propagation();
        m.record(0, 0.4, &p, &clustering);
        assert_eq!(m.utility_score(1), 0.0);
    }

    #[test]
    fn weights_learn_the_predictive_profile() {
        // Profile 0 predicts gain; profile 1 is anti-correlated noise.
        let p: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 / 20.0, ((i * 7) % 5) as f64 / 5.0])
            .collect();
        let clustering = Clustering::singletons(20);
        let mut m = QualityModel::new(20, 2);
        for i in 0..20 {
            m.record(i, p[i][0] * 0.5, &p, &clustering);
        }
        assert!(
            m.weights()[0] > 0.8,
            "predictive profile should dominate: {:?}",
            m.weights()
        );
    }

    #[test]
    fn negative_gain_clamped() {
        let p = profiles();
        let clustering = Clustering::singletons(3);
        let mut m = QualityModel::new(3, 2);
        m.record(2, -0.5, &p, &clustering);
        assert_eq!(m.utility_score(2), 0.0);
    }

    #[test]
    fn best_candidate_prefers_high_scores() {
        let p = profiles();
        let m = QualityModel::new(3, 2);
        // Uniform weights: scores 0.5, 0.5, 0.5 → tie → smallest index.
        assert_eq!(m.best_candidate(0..3, &p), Some(0));
        assert_eq!(m.best_candidate(std::iter::empty(), &p), None);
    }
}
