//! Synthetic profiles for the informativeness ablations (Figs. 9–11).
//!
//! The paper varies *how informative* the profile set is. These profiles
//! are constructed with knowledge of each candidate's planted relevance
//! (informative, with controllable noise) or from a seeded RNG only
//! (uninformative): exactly the knobs Figs. 9 and 10 sweep.

use crate::profile::{Profile, ProfileContext};

/// A profile whose value is a fixed per-candidate lookup table.
///
/// Candidates missing from the table score 0. This is the building block
/// for both informative and uninformative synthetic profiles — the bench
/// harness fills the table from ground truth or from noise.
pub struct FixedProfile {
    name: String,
    values: Vec<f64>,
}

impl FixedProfile {
    /// Build from per-candidate-id values (clamped to `[0, 1]`).
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> FixedProfile {
        FixedProfile {
            name: name.into(),
            values: values.into_iter().map(|v| v.clamp(0.0, 1.0)).collect(),
        }
    }

    /// An *informative* profile: relevance signal plus bounded noise.
    ///
    /// `relevance[i] ∈ [0,1]` is the planted ground-truth usefulness of
    /// candidate `i`; `noise ∈ [0,1]` controls corruption (0 = oracle).
    pub fn informative(
        name: impl Into<String>,
        relevance: &[f64],
        noise: f64,
        seed: u64,
    ) -> FixedProfile {
        let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
        let values = relevance
            .iter()
            .map(|&r| {
                let u = next_unit(&mut state);
                ((1.0 - noise) * r + noise * u).clamp(0.0, 1.0)
            })
            .collect();
        FixedProfile::new(name, values)
    }

    /// An *uninformative* profile: pure seeded noise, independent of
    /// relevance.
    pub fn uninformative(name: impl Into<String>, n: usize, seed: u64) -> FixedProfile {
        let mut state = seed ^ 0x94D0_49BB_1331_11EB;
        let values = (0..n).map(|_| next_unit(&mut state)).collect();
        FixedProfile::new(name, values)
    }
}

fn next_unit(state: &mut u64) -> f64 {
    metam_table::sample::splitmix64(state) as f64 / u64::MAX as f64
}

impl Profile for FixedProfile {
    fn name(&self) -> &str {
        &self.name
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        self.values.get(ctx.candidate.id).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DinState;
    use metam_discovery::{Candidate, JoinPath};
    use metam_table::{Column, Table};

    fn ctx_for<'a>(din: &'a DinState<'a>, cand: &'a Candidate) -> ProfileContext<'a> {
        ProfileContext {
            din,
            candidate: cand,
            aug: None,
        }
    }

    fn candidate(id: usize) -> Candidate {
        Candidate {
            id,
            path: JoinPath::single(0, 0, 0),
            value_column: 0,
            name: String::new(),
            source_table: String::new(),
            column_name: String::new(),
            source: String::new(),
            discovered_containment: 0.0,
        }
    }

    #[test]
    fn fixed_profile_looks_up_by_id() {
        let din = Table::from_columns(
            "din",
            vec![Column::from_floats(Some("y".into()), vec![Some(1.0)])],
        )
        .unwrap();
        let din = DinState::new(&din, None, &[]);
        let p = FixedProfile::new("fp", vec![0.25, 0.75]);
        assert_eq!(p.compute(&ctx_for(&din, &candidate(1))), 0.75);
        assert_eq!(
            p.compute(&ctx_for(&din, &candidate(9))),
            0.0,
            "unknown id scores 0"
        );
    }

    #[test]
    fn informative_with_zero_noise_is_oracle() {
        let p = FixedProfile::informative("i", &[0.1, 0.9], 0.0, 7);
        assert_eq!(p.values, vec![0.1, 0.9]);
    }

    #[test]
    fn informative_tracks_relevance_under_noise() {
        let relevance: Vec<f64> = (0..200).map(|i| if i < 100 { 0.9 } else { 0.1 }).collect();
        let p = FixedProfile::informative("i", &relevance, 0.3, 1);
        let hi: f64 = p.values[..100].iter().sum::<f64>() / 100.0;
        let lo: f64 = p.values[100..].iter().sum::<f64>() / 100.0;
        assert!(hi > lo + 0.3, "hi={hi} lo={lo}");
    }

    #[test]
    fn uninformative_is_seed_deterministic() {
        let a = FixedProfile::uninformative("u", 50, 3);
        let b = FixedProfile::uninformative("u", 50, 3);
        let c = FixedProfile::uninformative("u", 50, 4);
        assert_eq!(a.values, b.values);
        assert_ne!(a.values, c.values);
        assert!(a.values.iter().all(|v| (0.0..=1.0).contains(v)));
    }
}
