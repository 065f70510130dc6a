//! Dataset-overlap profile (§II-C): cardinality of the augmented dataset,
//! expressed as the fraction of `Din` rows that received a joined value —
//! the statistic the S4/Ver-style Overlap baseline ranks by.

use crate::profile::{Profile, ProfileContext};

/// Fill ratio of the materialized augmentation on the sampled rows.
pub struct OverlapProfile;

impl Profile for OverlapProfile {
    fn name(&self) -> &str {
        "overlap"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let Some(col) = ctx.aug else { return 0.0 };
        let sample = ctx.din.sample_indices;
        if sample.is_empty() {
            return 0.0;
        }
        let filled = sample.iter().filter(|&&i| !col.get(i).is_null()).count();
        filled as f64 / sample.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DinState;
    use metam_discovery::{Candidate, JoinPath};
    use metam_table::{Column, Table};

    fn fake_candidate() -> Candidate {
        Candidate {
            id: 0,
            path: JoinPath::single(0, 0, 0),
            value_column: 1,
            name: "x".into(),
            source_table: "t".into(),
            column_name: "c".into(),
            source: String::new(),
            discovered_containment: 1.0,
        }
    }

    #[test]
    fn overlap_counts_non_nulls() {
        let din = Table::from_columns(
            "din",
            vec![Column::from_floats(Some("y".into()), vec![Some(1.0); 4])],
        )
        .unwrap();
        let aug = Column::from_floats(None, vec![Some(1.0), None, Some(2.0), None]);
        let cand = fake_candidate();
        let idx = [0usize, 1, 2, 3];
        let state = DinState::new(&din, Some(0), &idx);
        let ctx = ProfileContext {
            din: &state,
            candidate: &cand,
            aug: Some(&aug),
        };
        assert_eq!(OverlapProfile.compute(&ctx), 0.5);
    }

    #[test]
    fn missing_materialization_scores_zero() {
        let din = Table::from_columns(
            "din",
            vec![Column::from_floats(Some("y".into()), vec![Some(1.0)])],
        )
        .unwrap();
        let cand = fake_candidate();
        let idx = [0usize];
        let state = DinState::new(&din, Some(0), &idx);
        let ctx = ProfileContext {
            din: &state,
            candidate: &cand,
            aug: None,
        };
        assert_eq!(OverlapProfile.compute(&ctx), 0.0);
    }
}
