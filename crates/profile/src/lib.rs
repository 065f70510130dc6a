#![forbid(unsafe_code)]
//! # metam-profile
//!
//! Task-independent *data profiles* (paper Definition 7 and §II-C). A
//! profile maps a candidate augmentation to a value in `[0, 1]`; the vector
//! of all profile values is Metam's representation of a candidate — it
//! drives clustering (property P2) and the quality-score prior.
//!
//! Implemented profiles, mirroring §II-C:
//!
//! * [`correlation`] — |Pearson| between the augmentation and the target,
//! * [`mutual_info`] — normalized mutual information with the target,
//! * [`embedding`] — cosine similarity of hashed token embeddings (our
//!   deterministic stand-in for BERT, see [`embedding`]),
//! * [`metadata`] — syntactic similarity of names/sources (Ver-style),
//! * [`overlap`] — fill ratio of the materialized augmentation (join
//!   cardinality),
//! * [`task_specific`] — ARDA-style injection feature importance (Fig. 7),
//! * [`synthetic`] — fixed informative/uninformative profiles for the
//!   ablation experiments (Figs. 9–11),
//! * [`rank_correlation`] — Spearman ρ, an extension profile (robust to
//!   monotone transforms and outliers; §II-C "Extending to other data
//!   profiles").
//!
//! Profiles are computed on a seeded row sample (the paper uses 100
//! records) and evaluated in parallel across candidates over the shared
//! worker pool (`metam-pool`).

#![warn(missing_docs)]

pub mod correlation;
pub mod embedding;
pub mod metadata;
pub mod mutual_info;
pub mod overlap;
pub mod profile;
pub mod rank_correlation;
pub mod synthetic;
pub mod task_specific;
pub mod vector;

pub use profile::{DinState, Profile, ProfileContext, ProfileSet};
pub use vector::{linf_distance, ProfileVector};

/// The paper's default profile set: correlation, mutual information,
/// semantic embedding, metadata similarity and dataset overlap.
pub fn default_profiles() -> ProfileSet {
    let mut set = ProfileSet::new();
    set.push(Box::new(correlation::CorrelationProfile));
    set.push(Box::new(mutual_info::MutualInfoProfile::default()));
    set.push(Box::new(embedding::EmbeddingProfile));
    set.push(Box::new(metadata::MetadataProfile));
    set.push(Box::new(overlap::OverlapProfile));
    set
}
