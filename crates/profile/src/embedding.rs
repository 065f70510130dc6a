//! Semantic-embedding profile (§II-C).
//!
//! The paper averages BERT token embeddings over table tokens and compares
//! datasets by cosine similarity. We substitute deterministic *feature
//! hashing*: every token hashes to a pseudo-random unit vector, a dataset
//! embeds as the mean of its token vectors, and similar vocabularies yield
//! high cosine — the property P2 clustering actually relies on (see
//! DESIGN.md, substitutions).

use std::hash::{Hash, Hasher};

use metam_table::Table;

use crate::profile::{Profile, ProfileContext};

/// Embedding dimensionality.
pub const EMBED_DIM: usize = 64;

fn token_hash(token: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    token.hash(&mut h);
    h.finish()
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random unit vector for one token.
pub fn token_vector(token: &str) -> [f64; EMBED_DIM] {
    let base = token_hash(&token.to_ascii_lowercase());
    let mut v = [0.0; EMBED_DIM];
    let mut norm = 0.0;
    for (i, slot) in v.iter_mut().enumerate() {
        let bits = mix64(base ^ mix64(i as u64 ^ 0x9E3779B97F4A7C15));
        // Map to (-1, 1).
        let x = (bits as f64 / u64::MAX as f64) * 2.0 - 1.0;
        *slot = x;
        norm += x * x;
    }
    let norm = norm.sqrt().max(1e-12);
    for slot in &mut v {
        *slot /= norm;
    }
    v
}

/// Mean token vector over an iterator of tokens (zero vector when empty).
pub fn embed_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> [f64; EMBED_DIM] {
    let mut sum = [0.0; EMBED_DIM];
    let mut count = 0usize;
    for t in tokens {
        if t.is_empty() {
            continue;
        }
        let v = token_vector(t);
        for (s, x) in sum.iter_mut().zip(v.iter()) {
            *s += x;
        }
        count += 1;
    }
    if count > 0 {
        for s in &mut sum {
            *s /= count as f64;
        }
    }
    sum
}

/// Cosine similarity (0 when either side is a zero vector).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

/// Tokens describing a candidate: source table name, column name, source
/// tag, and a sample of the materialized values.
fn candidate_tokens(ctx: &ProfileContext<'_>) -> Vec<String> {
    let mut tokens: Vec<String> = Vec::new();
    for field in [
        &ctx.candidate.source_table,
        &ctx.candidate.column_name,
        &ctx.candidate.source,
    ] {
        tokens.extend(tokenize(field));
    }
    if let Some(col) = ctx.aug {
        for &i in ctx.din.sample_indices.iter().take(50) {
            if let Some(k) = col.get(i).join_key() {
                tokens.extend(tokenize(&k));
            }
        }
    }
    tokens
}

/// Embedding of `din`: its name, source, column names and the first 20
/// sampled values of every column.
pub(crate) fn din_embedding(din: &Table, sample_indices: &[usize]) -> [f64; EMBED_DIM] {
    let mut tokens: Vec<String> = Vec::new();
    tokens.extend(tokenize(&din.name));
    tokens.extend(tokenize(&din.source));
    for i in 0..din.ncols() {
        tokens.extend(tokenize(&din.column_display_name(i)));
    }
    for col in din.columns() {
        for &i in sample_indices.iter().take(20) {
            if let Some(k) = col.get(i).join_key() {
                tokens.extend(tokenize(&k));
            }
        }
    }
    embed_tokens(tokens.iter().map(String::as_str))
}

/// Lower-cased alphanumeric word split.
pub fn tokenize(text: &str) -> Vec<String> {
    text.to_ascii_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(str::to_string)
        .collect()
}

/// Cosine similarity between the hashed embeddings of `din` (computed once
/// per evaluation, in its [`DinState`](crate::DinState)) and the
/// candidate's table/column/values, mapped from `[-1, 1]` to `[0, 1]`.
#[derive(Default)]
pub struct EmbeddingProfile;

impl Profile for EmbeddingProfile {
    fn name(&self) -> &str {
        "embedding"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        let b = embed_tokens(candidate_tokens(ctx).iter().map(String::as_str));
        (cosine(ctx.din.embedding(), &b) + 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_vectors_are_unit_and_deterministic() {
        let v1 = token_vector("income");
        let v2 = token_vector("income");
        assert_eq!(v1, v2);
        let norm: f64 = v1.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn same_vocabulary_embeds_identically() {
        let a = embed_tokens(["crime", "rate", "zip"].into_iter());
        let b = embed_tokens(["zip", "crime", "rate"].into_iter());
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_tokens_beat_disjoint_tokens() {
        let base = embed_tokens(["housing", "price", "zip"].into_iter());
        let near = embed_tokens(["housing", "price", "county"].into_iter());
        let far = embed_tokens(["penguin", "velocity", "quark"].into_iter());
        assert!(cosine(&base, &near) > cosine(&base, &far));
    }

    #[test]
    fn tokenize_splits_and_lowercases() {
        assert_eq!(
            tokenize("Crime-Rate_2020 (zip)"),
            vec!["crime", "rate", "2020", "zip"]
        );
        assert!(tokenize("--- ").is_empty());
    }

    #[test]
    fn cosine_zero_vector_safe() {
        let z = [0.0; EMBED_DIM];
        let v = token_vector("x");
        assert_eq!(cosine(&z, &v), 0.0);
    }
}
