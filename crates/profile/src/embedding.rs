//! Semantic-embedding profile (§II-C).
//!
//! The paper averages BERT token embeddings over table tokens and compares
//! datasets by cosine similarity. We substitute deterministic *feature
//! hashing*: every token hashes to a pseudo-random unit vector, a dataset
//! embeds as the mean of its token vectors, and similar vocabularies yield
//! high cosine — the property P2 clustering actually relies on. The
//! substitution keeps the workspace free of model weights and makes the
//! profile deterministic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use metam_table::{Column, Table};

use crate::profile::{Profile, ProfileContext};

/// Embedding dimensionality.
pub const EMBED_DIM: usize = 64;

/// Most token vectors one thread memoizes: 1024 × 64 `f64`s, about 0.5 MB.
/// A token past the cap has its vector computed each time it occurs.
const MEMO_VECTORS: usize = 1024;

/// Most distinct tokens one thread remembers. The memo stores a token's
/// vector only when the token comes back, so a token that occurs once (the
/// digits of a high-precision float, most of a small lake's values) costs
/// a map entry, not a vector.
const MEMO_TOKENS: usize = 4 * MEMO_VECTORS;

/// The slot of a token seen once, whose vector is not stored.
const SEEN_ONCE: u32 = u32::MAX;

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

/// The unit vector of a token whose lower-cased form hashes to `base`.
fn hash_vector(base: u64) -> [f64; EMBED_DIM] {
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

/// Deterministic pseudo-random unit vector for one token.
pub fn token_vector(token: &str) -> [f64; EMBED_DIM] {
    hash_vector(token_hash(&token.to_ascii_lowercase()))
}

/// Token vectors already computed on this thread, keyed by the token's
/// full 64-bit hash. A vector is a pure function of that hash, so a memo
/// hit returns the same bits as computing it again.
#[derive(Default)]
struct TokenMemo {
    /// Per token seen, the index of its vector in `vectors`, or
    /// [`SEEN_ONCE`].
    slots: HashMap<u64, u32>,
    vectors: Vec<[f64; EMBED_DIM]>,
}

impl TokenMemo {
    /// Add the vector of the token hashing to `hash` into `sum`.
    fn add(&mut self, hash: u64, sum: &mut [f64; EMBED_DIM]) {
        let slot = self.slots.get(&hash).copied();
        let fresh;
        let v = match slot {
            Some(i) if i != SEEN_ONCE => &self.vectors[i as usize],
            _ => {
                fresh = hash_vector(hash);
                if slot.is_some() && self.vectors.len() < MEMO_VECTORS {
                    self.slots.insert(hash, self.vectors.len() as u32);
                    self.vectors.push(fresh);
                } else if slot.is_none() && self.slots.len() < MEMO_TOKENS {
                    self.slots.insert(hash, SEEN_ONCE);
                }
                &fresh
            }
        };
        for (s, x) in sum.iter_mut().zip(v) {
            *s += x;
        }
    }
}

thread_local! {
    /// Each profile worker's memo. Pool workers are scoped threads, so a
    /// worker's memo lives for one evaluation; the calling thread's is
    /// dropped when its evaluation ends (see [`release_thread_memo`]).
    static MEMO: RefCell<TokenMemo> = RefCell::new(TokenMemo::default());
}

/// Drop this thread's memo and its memory. [`ProfileSet::evaluate_all`]
/// calls it when done, so a long-lived thread that evaluates (a `metam
/// serve` worker) keeps no vectors between evaluations.
///
/// [`ProfileSet::evaluate_all`]: crate::ProfileSet::evaluate_all
pub(crate) fn release_thread_memo() {
    MEMO.take();
}

/// The running sum of one embedding's token vectors, added in token order.
struct TokenSum<'m> {
    memo: &'m mut TokenMemo,
    sum: [f64; EMBED_DIM],
    count: usize,
    /// The current token, lower-cased.
    token: String,
    /// The current join key.
    key: String,
}

impl TokenSum<'_> {
    /// Add the tokens of `text`, as [`tokenize`] splits it. A non-ASCII
    /// character is a separator there, and every byte of its UTF-8
    /// encoding is non-ASCII, so a byte walk finds the same tokens.
    fn add_text(&mut self, text: &str) {
        for run in text.as_bytes().split(|b| !b.is_ascii_alphanumeric()) {
            if run.is_empty() {
                continue;
            }
            self.token.clear();
            self.token
                .extend(run.iter().map(|b| b.to_ascii_lowercase() as char));
            self.memo.add(token_hash(&self.token), &mut self.sum);
            self.count += 1;
        }
    }

    /// Add the tokens of the join key of `col`'s row `row`, if it has one.
    fn add_key(&mut self, col: &Column, row: usize) {
        let mut key = std::mem::take(&mut self.key);
        if col.write_join_key(row, &mut key) {
            self.add_text(&key);
        }
        self.key = key;
    }
}

/// Mean token vector of the texts `add` feeds in (zero vector when there
/// are no tokens), using this thread's memo.
fn embed(add: impl FnOnce(&mut TokenSum<'_>)) -> [f64; EMBED_DIM] {
    MEMO.with(|memo| {
        let mut tokens = TokenSum {
            memo: &mut memo.borrow_mut(),
            sum: [0.0; EMBED_DIM],
            count: 0,
            token: String::new(),
            key: String::new(),
        };
        add(&mut tokens);
        let mut sum = tokens.sum;
        if tokens.count > 0 {
            for s in &mut sum {
                *s /= tokens.count as f64;
            }
        }
        sum
    })
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

/// Embedding of a candidate: its source table name, column name, source
/// tag and the join keys of the first 50 sampled values.
fn candidate_embedding(ctx: &ProfileContext<'_>) -> [f64; EMBED_DIM] {
    embed(|tokens| {
        for field in [
            &ctx.candidate.source_table,
            &ctx.candidate.column_name,
            &ctx.candidate.source,
        ] {
            tokens.add_text(field);
        }
        if let Some(col) = ctx.aug {
            for &i in ctx.din.sample_indices.iter().take(50) {
                tokens.add_key(col, i);
            }
        }
    })
}

/// Embedding of `din`: its name, source, column names and the first 20
/// sampled values of every column.
pub(crate) fn din_embedding(din: &Table, sample_indices: &[usize]) -> [f64; EMBED_DIM] {
    embed(|tokens| {
        tokens.add_text(&din.name);
        tokens.add_text(&din.source);
        for i in 0..din.ncols() {
            tokens.add_text(&din.column_display_name(i));
        }
        for col in din.columns() {
            for &i in sample_indices.iter().take(20) {
                tokens.add_key(col, i);
            }
        }
    })
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
///
/// Tokens are hashed straight from the text, without a `String` per
/// token or per value, and each thread memoizes the vectors of up to 1024
/// tokens that occur more than once; vectors add up in token order, so
/// the value is bit-for-bit what embedding the token list would give.
#[derive(Default)]
pub struct EmbeddingProfile;

impl Profile for EmbeddingProfile {
    fn name(&self) -> &str {
        "embedding"
    }

    fn compute(&self, ctx: &ProfileContext<'_>) -> f64 {
        (cosine(ctx.din.embedding(), &candidate_embedding(ctx)) + 1.0) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DinState;
    use metam_discovery::{Candidate, JoinPath};
    use proptest::prelude::*;

    /// Mean token vector over an iterator of tokens (zero vector when
    /// empty): the embedding as it was computed before the memo, kept as
    /// the oracle of the memoized, allocation-free path.
    fn embed_tokens<'a>(tokens: impl Iterator<Item = &'a str>) -> [f64; EMBED_DIM] {
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

    /// Oracle tokens of a candidate: source table name, column name,
    /// source tag, and the join keys of a sample of the materialized values.
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

    /// Oracle embedding of `din`.
    fn oracle_din_embedding(din: &Table, sample_indices: &[usize]) -> [f64; EMBED_DIM] {
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Pairs of tokens whose 64-bit hashes agree on their low 32 bits, on
    /// their high 32 bits, and on the XOR of the two halves: a memo keyed
    /// on fewer than the full 64 bits confuses one pair's vectors.
    const COLLIDING: [(&str, &str); 3] = [
        ("k22605", "k41237"),
        ("k40660", "k74679"),
        ("k20522", "k29709"),
    ];

    /// Words for names and values: mixed case, non-ASCII letters and
    /// whitespace, punctuation, digits and the colliding tokens.
    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => "[a-z]{1,5}",
            2 => "[A-Z]{1,3}",
            1 => Just("Émile".to_string()),
            1 => Just("straße".to_string()),
            1 => Just("Zürich\u{3000}Nord".to_string()),
            1 => Just("\u{a0}".to_string()),
            1 => Just("-_./,".to_string()),
            1 => Just("60614".to_string()),
            1 => Just("k22605 k41237".to_string()),
            1 => Just("k40660-K74679".to_string()),
            1 => Just("K20522_k29709".to_string()),
        ]
    }

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(word(), 0..4).prop_map(|w| w.join(" "))
    }

    fn float_cell() -> impl Strategy<Value = Option<f64>> {
        prop_oneof![
            3 => prop_oneof![
                Just(-0.0),
                Just(1e15),
                Just(1e15 - 1.0),
                Just(1e15 + 2.0),
                Just(-1e15 + 1.0),
                Just(1e-7),
                Just(0.1),
                Just(-3.75),
                Just(60614.0),
            ].prop_map(Some),
            2 => (-1e4f64..1e4).prop_map(Some),
            2 => (-100i64..100).prop_map(|i| Some(i as f64)),
            1 => Just(None),
        ]
    }

    /// A column of `n` rows of one of the four types, nulls included.
    fn column(n: usize) -> impl Strategy<Value = Column> {
        let ints = prop_oneof![
            3 => (-1000i64..1000).prop_map(Some),
            1 => (i64::MIN..i64::MAX).prop_map(Some),
            1 => Just(Some(i64::MIN)),
            1 => Just(None),
        ];
        let strs = prop_oneof![
            4 => text().prop_map(Some),
            1 => Just(Some(" \t\u{2003} ".to_string())),
            1 => Just(None),
        ];
        let bools = prop_oneof![
            2 => (0u32..2).prop_map(|b| Some(b == 1)),
            1 => Just(None),
        ];
        prop_oneof![
            1 => prop::collection::vec(ints, n).prop_map(|v| Column::from_ints(None, v)),
            1 => prop::collection::vec(float_cell(), n)
                .prop_map(|v| Column::from_floats(Some("Wert €".into()), v)),
            2 => prop::collection::vec(strs, n)
                .prop_map(|v| Column::from_strings(Some("Ville".into()), v)),
            1 => prop::collection::vec(bools, n).prop_map(|v| Column::from_bools(None, v)),
        ]
    }

    const ROWS: usize = 24;

    proptest! {
        #[test]
        fn memoized_embedding_equals_the_token_list_oracle(
            din_cols in prop::collection::vec(column(ROWS), 1..4),
            aug in prop::collection::vec(column(ROWS), 0..2),
            names in (text(), text(), text()),
            din_source in text(),
            start in 0usize..ROWS,
        ) {
            let mut din = Table::from_columns("Entrée din", din_cols).unwrap();
            din.source = din_source;
            let sample: Vec<usize> = (0..ROWS + 3).map(|i| (start + 7 * i) % (ROWS + 2)).collect();
            let state = DinState::new(&din, None, &sample);
            prop_assert_eq!(
                bits(state.embedding()),
                bits(&oracle_din_embedding(&din, &sample))
            );
            let (source_table, column_name, source) = names;
            let candidate = Candidate {
                id: 0,
                path: JoinPath::single(0, 0, 0),
                value_column: 1,
                name: String::new(),
                source_table,
                column_name,
                source,
                discovered_containment: 1.0,
            };
            let ctx = ProfileContext {
                din: &state,
                candidate: &candidate,
                aug: aug.first(),
            };
            let oracle = embed_tokens(candidate_tokens(&ctx).iter().map(String::as_str));
            prop_assert_eq!(bits(&candidate_embedding(&ctx)), bits(&oracle));
            let want = (cosine(&oracle_din_embedding(&din, &sample), &oracle) + 1.0) / 2.0;
            prop_assert_eq!(EmbeddingProfile.compute(&ctx).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn colliding_tokens_keep_their_own_vectors() {
        for (a, b) in COLLIDING {
            let (ha, hb) = (token_hash(a), token_hash(b));
            assert_ne!(ha, hb);
            assert!(
                ha as u32 == hb as u32
                    || ha >> 32 == hb >> 32
                    || (ha ^ (ha >> 32)) as u32 == (hb ^ (hb >> 32)) as u32,
                "{a} and {b} share no 32-bit half"
            );
            let text = format!("{a} {b} {a}");
            let got = embed(|tokens| tokens.add_text(&text));
            assert_eq!(bits(&got), bits(&embed_tokens([a, b, a].into_iter())));
        }
    }

    #[test]
    fn memo_stores_returning_tokens_up_to_its_caps() {
        let stored = || MEMO.with(|memo| memo.borrow().vectors.len());
        let text: String = (0..MEMO_VECTORS + 50).map(|i| format!("w{i} ")).collect();
        let tokens = tokenize(&text);
        let oracle = embed_tokens(tokens.iter().map(String::as_str));
        // The first pass sees every token once and stores no vector; the
        // second stores the first 1024 and computes the rest; the third
        // hits the memo for those 1024.
        for want in [0, MEMO_VECTORS, MEMO_VECTORS] {
            assert_eq!(bits(&embed(|t| t.add_text(&text))), bits(&oracle));
            assert_eq!(stored(), want);
        }
        let once: String = (0..MEMO_TOKENS).map(|i| format!("u{i} ")).collect();
        embed(|t| t.add_text(&once));
        MEMO.with(|memo| assert_eq!(memo.borrow().slots.len(), MEMO_TOKENS));
        release_thread_memo();
        assert_eq!(stored(), 0);
    }

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
        let a = embed(|t| t.add_text("crime rate zip"));
        let b = embed(|t| t.add_text("Zip, crime-RATE"));
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_tokens_beat_disjoint_tokens() {
        let base = embed(|t| t.add_text("housing price zip"));
        let near = embed(|t| t.add_text("housing price county"));
        let far = embed(|t| t.add_text("penguin velocity quark"));
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
