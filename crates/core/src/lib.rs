//! The high-order model (the paper's primary contribution).
//!
//! A [`HighOrderModel`] is mined **offline** from a historical labeled
//! stream ([`build()`]): concept clustering (from `hom-cluster`) finds the
//! stable concepts, one classifier is trained per concept on *all* of that
//! concept's data scattered across the stream, and the concept-change
//! statistics `Len_i` (mean occurrence length), `Freq_i` (occurrence
//! frequency) and the transition kernel `χ(i,j)` (Eq. 6) are collected
//! ([`transition`]).
//!
//! At **runtime** ([`online`]) an [`OnlinePredictor`] maintains each
//! concept's *active probability* — the probability that it is the current
//! concept — with a Bayesian filter: priors evolve through `χ` (Eq. 5) and
//! posteriors absorb the evidence of each labeled record through
//! `ψ(c, yₜ)` (Eqs. 7–9). Unlabeled records are classified by the
//! probability-weighted ensemble of concept classifiers (Eq. 10), with an
//! optional early-terminated enumeration (§III-C) that usually consults a
//! single classifier.
//!
//! The [`viterbi`] module implements the paper's stated future-work
//! extension: offline smoothing of the concept sequence with a Viterbi
//! pass over the same HMM.

#![warn(missing_docs)]

pub mod build;
pub mod compiled;
pub mod concept;
pub mod extend;
pub mod filter;
pub mod model_codec;
pub mod online;
pub mod snapshot;
pub mod transition;
pub mod viterbi;

pub use build::{build, build_with, BuildOptions, BuildParams, BuildReport, HighOrderModel};
pub use compiled::{BatchStats, BatchTable, CompiledModel, Kernel, KernelScratch, KernelTask};
pub use concept::Concept;
pub use filter::{FilterIntrospection, FilterState, FilterView, Fixed, Width};
pub use hom_data::codec::{self, fnv1a};
pub use model_codec::{
    decode_model, encode_model, model_epoch, ModelCodecError, MODEL_MAGIC, MODEL_VERSION,
};
pub use online::{OnlineOptions, OnlinePredictor};
pub use snapshot::{
    encode_snapshot, snapshot_epoch, SnapshotError, SnapshotRef, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use transition::TransitionStats;
