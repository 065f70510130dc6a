//! Metadata/attribute profile (§II-C): syntactic similarity of names and
//! sources, the Ver-style signal \[22\].

use metam_table::Table;

use crate::embedding::tokenize;
use crate::profile::{Profile, ProfileContext};

/// Jaccard similarity of two token sets.
pub(crate) fn token_jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let sa: std::collections::BTreeSet<&str> = a.iter().map(String::as_str).collect();
    let sb: std::collections::BTreeSet<&str> = b.iter().map(String::as_str).collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Tokens of `din`'s name and attribute names.
pub(crate) fn din_metadata_tokens(din: &Table) -> Vec<String> {
    let mut tokens: Vec<String> = Vec::new();
    tokens.extend(tokenize(&din.name));
    for i in 0..din.ncols() {
        tokens.extend(tokenize(&din.column_display_name(i)));
    }
    tokens
}

/// Syntactic similarity between `din`'s metadata (name, source, attribute
/// names) and the candidate's (source table, column, provenance), blended
/// with a same-source bonus.
pub struct MetadataProfile;

impl Profile for MetadataProfile {
    fn name(&self) -> &str {
        "metadata"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let din = ctx.din.table;
        let mut cand_tokens: Vec<String> = Vec::new();
        cand_tokens.extend(tokenize(&ctx.candidate.source_table));
        cand_tokens.extend(tokenize(&ctx.candidate.column_name));

        let name_sim = token_jaccard(ctx.din.metadata_tokens(), &cand_tokens);
        let source_sim = if !din.source.is_empty() && din.source == ctx.candidate.source {
            1.0
        } else {
            token_jaccard(&tokenize(&din.source), &tokenize(&ctx.candidate.source))
        };
        0.7 * name_sim + 0.3 * source_sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_basics() {
        let a = vec!["crime".to_string(), "rate".to_string()];
        let b = vec!["crime".to_string(), "count".to_string()];
        assert!((token_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(token_jaccard(&[], &[]), 0.0);
    }

    #[test]
    fn duplicate_tokens_do_not_inflate() {
        let a = vec!["zip".to_string(), "zip".to_string()];
        let b = vec!["zip".to_string()];
        assert!((token_jaccard(&a, &b) - 1.0).abs() < 1e-12);
    }
}
