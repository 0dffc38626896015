//! Versioned binary snapshots of [`FilterState`].
//!
//! A snapshot captures exactly the logical state of one stream's filter —
//! posterior, prior and the prune order — so the stream can be evicted
//! from memory and later resumed **bit-identically**: every prediction
//! and posterior after a restore equals what the uninterrupted run would
//! have produced. Scratch buffers are derivable from the model and are
//! not stored.
//!
//! # Wire format (all little-endian)
//!
//! ```text
//! offset  size   field
//! 0       4      magic  "HOMF"
//! 4       2      version (u16) = 2
//! 6       4      n_concepts (u32)
//! 10      4      epoch (u32)                      — version ≥ 2 only
//! 14      8·n    posterior (f64 × n)
//! 14+8n   8·n    prior (f64 × n)
//! 14+16n  4·n    order (u32 × n, a permutation of 0..n)
//! …       8      FNV-1a checksum (u64) over all preceding bytes
//! ```
//!
//! Version 1 (what every snapshot before model maintenance existed was
//! written as) is the same layout without the `epoch` field; it is still
//! read. `epoch` records the serving engine's model generation at save
//! time, so a snapshot parked across a hot-swap can tell how stale it is
//! ([`snapshot_epoch`]). Version-1 bytes report epoch 0.
//!
//! There is one encoder ([`encode_snapshot`]) and one parser
//! ([`SnapshotRef::parse`]), both working on a state's parts rather than
//! on a [`FilterState`], so a serving layer that keeps its streams in its
//! own row layout reads and writes the identical bytes without building
//! an owned state on either side. Both go through `hom_data::codec`: the
//! fields through its `Writer` / `Reader`, the checksum through its one
//! FNV-1a seal (`Writer::seal`, `codec::unseal`).
//!
//! [`FilterState::restore`] validates everything — length, magic,
//! version, checksum, model compatibility, that the distributions are
//! finite/non-negative/normalized and the order a permutation — and
//! returns a [`SnapshotError`] instead of panicking, so corrupt or
//! truncated bytes from disk or the network can never take a serving
//! process down. [`FilterState::restore_migrating`] additionally accepts
//! snapshots taken against an **older, smaller** model (fewer concepts
//! than the restoring one) and migrates them forward with
//! [`FilterState::migrate`]'s extension rule — the path a serving engine
//! takes for streams parked across a model hot-swap.

use std::fmt;

use hom_data::codec::{unseal, ReadError, Reader, Writer};

use crate::build::HighOrderModel;
use crate::filter::{migrate_parts, FilterState};

/// First four bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HOMF";

/// The newest snapshot format version this build writes. Versions
/// `1..=SNAPSHOT_VERSION` are all readable.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Why a snapshot failed to restore. Every variant is a rejected input,
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the header or the declared payload requires.
    Truncated {
        /// Bytes the snapshot would need to be complete.
        needed: usize,
        /// Bytes actually provided.
        got: usize,
    },
    /// The first four bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// A version this build does not know how to read.
    UnsupportedVersion(u16),
    /// The snapshot's concept count is incompatible with the model it is
    /// being restored into: different under [`FilterState::restore`],
    /// *larger* under [`FilterState::restore_migrating`] (a state can be
    /// migrated forward into a grown model, never backward into a
    /// smaller one).
    ModelMismatch {
        /// Concept count recorded in the snapshot.
        snapshot: usize,
        /// Concept count of the model restoring it.
        model: usize,
    },
    /// Structurally well-formed but semantically invalid content (failed
    /// checksum, non-finite probabilities, an order that is not a
    /// permutation, trailing bytes, …).
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, got } => {
                write!(f, "snapshot truncated: need {needed} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "not a filter snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: 1..={SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ModelMismatch { snapshot, model } => write!(
                f,
                "snapshot is for a {snapshot}-concept model, restoring into {model} concepts"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A codec failure past the length checks: `"checksum mismatch"`, or a
/// read the checked length makes impossible.
impl From<ReadError> for SnapshotError {
    fn from(e: ReadError) -> Self {
        SnapshotError::Corrupt(e.into())
    }
}

/// Header bytes before the variable-size payload, per format version.
fn header_len(version: u16) -> usize {
    match version {
        1 => 4 + 2 + 4,
        _ => 4 + 2 + 4 + 4,
    }
}

/// Total snapshot size (header + payload + checksum) for `n` concepts.
fn total_len(version: u16, n: usize) -> usize {
    header_len(version) + 8 * n + 8 * n + 4 * n + 8
}

/// The model epoch recorded in a snapshot, without restoring it. Returns
/// `None` for bytes that are not (a prefix of) a structurally plausible
/// snapshot header; version-1 snapshots (which predate the field) report
/// `Some(0)`. Only the header is inspected — a `Some` says nothing about
/// the payload's integrity.
pub fn snapshot_epoch(bytes: &[u8]) -> Option<u32> {
    let mut r = Reader::new(bytes);
    if bytes.len() < header_len(1) || r.take_array().ok()? != SNAPSHOT_MAGIC {
        return None;
    }
    match r.take_u16().ok()? {
        1 => Some(0),
        2 => r.take_u32().and_then(|_| r.take_u32()).ok(),
        _ => None,
    }
}

/// Check one serialized distribution of `n` entries: finite,
/// non-negative, normalized.
fn check_distribution(
    r: &mut Reader<'_>,
    n: usize,
    not_a_probability: &'static str,
    not_normalized: &'static str,
) -> Result<(), SnapshotError> {
    let mut sum = 0.0;
    for _ in 0..n {
        let v = r.take_f64()?;
        if !v.is_finite() || v < 0.0 {
            return Err(SnapshotError::Corrupt(not_a_probability));
        }
        sum += v;
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(SnapshotError::Corrupt(not_normalized));
    }
    Ok(())
}

/// Check that the next `n` `u32`s are a permutation of `0..n`.
/// Allocation-free for up to 256 concepts.
fn check_permutation(r: &mut Reader<'_>, n: usize) -> Result<(), SnapshotError> {
    let words = n.div_ceil(64);
    let mut small = [0u64; 4];
    let mut large = Vec::new();
    let seen: &mut [u64] = if words <= small.len() {
        &mut small[..words]
    } else {
        large.resize(words, 0);
        &mut large
    };
    for _ in 0..n {
        let c = r.take_u32()? as usize;
        let bit = 1u64 << (c % 64);
        if c >= n || seen[c / 64] & bit != 0 {
            return Err(SnapshotError::Corrupt("order is not a permutation"));
        }
        seen[c / 64] |= bit;
    }
    Ok(())
}

/// Append the current-version (2) encoding of a filter state given as
/// its parts — the one HOMF encoder. [`FilterState::snapshot_with_epoch`]
/// and a serving layer's row table (which stores the same parts in its
/// own layout) both write through here, so their bytes are identical by
/// construction.
///
/// # Panics
/// Panics if `prior` or `order` is not as long as `posterior`.
pub fn encode_snapshot(
    out: &mut Vec<u8>,
    epoch: u32,
    posterior: &[f64],
    prior: &[f64],
    order: &[u32],
) {
    let n = posterior.len();
    assert!(
        prior.len() == n && order.len() == n,
        "snapshot parts disagree on the concept count"
    );
    out.reserve(total_len(SNAPSHOT_VERSION, n));
    let mut w = Writer::new(out);
    w.put_bytes(&SNAPSHOT_MAGIC);
    w.put_u16(SNAPSHOT_VERSION);
    w.put_u32(n as u32);
    w.put_u32(epoch);
    for &v in posterior.iter().chain(prior) {
        w.put_f64(v);
    }
    for &c in order {
        w.put_u32(c);
    }
    w.seal();
}

/// A validated snapshot, borrowed from its bytes — the one HOMF parser.
///
/// [`Self::parse`] runs every check a restore needs that does not
/// involve a model (framing, version, length, trailing bytes, checksum,
/// both distributions, the order permutation) without allocating; the
/// accessors then copy the values out wherever the caller keeps them —
/// a [`FilterState`]'s vectors, or a serving layer's row block.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRef<'a> {
    n: usize,
    /// `posterior (f64 × n) | prior (f64 × n) | order (u32 × n)`.
    body: &'a [u8],
}

impl<'a> SnapshotRef<'a> {
    /// Validate `bytes` (any supported version) and borrow them. Never
    /// panics on untrusted input: every defect is a [`SnapshotError`].
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotRef<'a>, SnapshotError> {
        let got = bytes.len();
        if got < header_len(1) {
            return Err(SnapshotError::Truncated {
                needed: header_len(1),
                got,
            });
        }
        let mut r = Reader::new(bytes);
        if r.take_array()? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.take_u16()?;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // The concept count is held to the exact length rather than to
        // `Reader::count`'s lower bound, so a short snapshot can say how
        // long it should have been.
        let n = r.take_u32()? as usize;
        let total = total_len(version, n);
        if got < total {
            return Err(SnapshotError::Truncated { needed: total, got });
        }
        if got > total {
            return Err(SnapshotError::Corrupt("trailing bytes after checksum"));
        }
        let body = &unseal(bytes)?[header_len(version)..];
        let mut r = Reader::new(body);
        check_distribution(
            &mut r,
            n,
            "posterior entry not a probability",
            "posterior does not sum to 1",
        )?;
        check_distribution(
            &mut r,
            n,
            "prior entry not a probability",
            "prior does not sum to 1",
        )?;
        check_permutation(&mut r, n)?;
        Ok(SnapshotRef { n, body })
    }

    /// Concepts the snapshot tracks.
    pub fn n_concepts(&self) -> usize {
        self.n
    }

    /// Copy the state out, bit for bit: the posterior, the prior and the
    /// §III-C prune order.
    ///
    /// # Panics
    /// Panics if a destination is not [`Self::n_concepts`] long.
    pub fn read_into(&self, posterior: &mut [f64], prior: &mut [f64], order: &mut [u32]) {
        let n = self.n;
        assert!(
            posterior.len() == n && prior.len() == n && order.len() == n,
            "destination does not match the snapshot's concept count"
        );
        let mut r = Reader::new(self.body);
        for v in posterior.iter_mut().chain(prior.iter_mut()) {
            *v = r.take_f64().expect("parse checked the length");
        }
        for c in order.iter_mut() {
            *c = r.take_u32().expect("parse checked the length");
        }
    }

    /// The state as owned vectors `(posterior, prior, order)`.
    fn to_parts(self) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let (mut posterior, mut prior, mut order) =
            (vec![0.0; self.n], vec![0.0; self.n], vec![0; self.n]);
        self.read_into(&mut posterior, &mut prior, &mut order);
        (posterior, prior, order)
    }

    /// Restore into `model` exactly as [`FilterState::restore_migrating`]
    /// does: a same-width snapshot bit-identically, one from an older,
    /// smaller model migrated forward (`true` in the result), a larger
    /// one rejected with [`SnapshotError::ModelMismatch`].
    pub fn restore_migrating(
        self,
        model: &HighOrderModel,
    ) -> Result<(FilterState, bool), SnapshotError> {
        if self.n > model.n_concepts() {
            return Err(SnapshotError::ModelMismatch {
                snapshot: self.n,
                model: model.n_concepts(),
            });
        }
        let (posterior, prior, order) = self.to_parts();
        if self.n == model.n_concepts() {
            return Ok((
                FilterState::from_parts(model, posterior, prior, order),
                false,
            ));
        }
        Ok((migrate_parts(model, &posterior, &prior, &order), true))
    }
}

impl FilterState {
    /// Serialize this state to the current wire format with epoch 0.
    /// Equivalent to [`Self::snapshot_with_epoch`]`(0)` — standalone
    /// callers that never hot-swap models don't care about epochs.
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_with_epoch(0)
    }

    /// Serialize this state to the current (version-2) wire format,
    /// stamping `epoch` — the serving engine's model generation — into
    /// the header so a snapshot parked across a model hot-swap knows
    /// which model it was taken against ([`snapshot_epoch`]).
    pub fn snapshot_with_epoch(&self, epoch: u32) -> Vec<u8> {
        let mut out = Vec::new();
        encode_snapshot(
            &mut out,
            epoch,
            self.posterior(),
            self.prior(),
            self.order(),
        );
        out
    }

    /// Deserialize a snapshot taken with [`FilterState::snapshot`]
    /// (any supported version), validating it against `model`. On
    /// success the returned state continues the stream bit-identically;
    /// on any defect the bytes are rejected with a [`SnapshotError`] —
    /// this function never panics on untrusted input.
    pub fn restore(model: &HighOrderModel, bytes: &[u8]) -> Result<FilterState, SnapshotError> {
        let snap = SnapshotRef::parse(bytes)?;
        if snap.n != model.n_concepts() {
            return Err(SnapshotError::ModelMismatch {
                snapshot: snap.n,
                model: model.n_concepts(),
            });
        }
        let (posterior, prior, order) = snap.to_parts();
        Ok(FilterState::from_parts(model, posterior, prior, order))
    }

    /// Like [`Self::restore`], but a snapshot taken against an older
    /// model with **fewer** concepts is accepted and migrated forward
    /// with the [`Self::migrate`] extension rule (new concepts get their
    /// stationary `Freq_j` mass, distributions re-normalized). Returns
    /// the state and whether migration happened (`false` = plain
    /// bit-identical restore). A snapshot with *more* concepts than
    /// `model` is still a [`SnapshotError::ModelMismatch`] — states
    /// never migrate backward.
    ///
    /// This is the restore path a serving engine uses after a model
    /// hot-swap, when parked streams hold snapshots of the previous
    /// generation.
    pub fn restore_migrating(
        model: &HighOrderModel,
        bytes: &[u8],
    ) -> Result<(FilterState, bool), SnapshotError> {
        SnapshotRef::parse(bytes)?.restore_migrating(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::TransitionStats;
    use crate::Concept;
    use hom_classifiers::MajorityClassifier;
    use hom_data::{Attribute, Schema};
    use std::sync::Arc;

    fn model(n: usize) -> HighOrderModel {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let concepts = (0..n)
            .map(|id| Concept {
                id,
                model: Arc::new(MajorityClassifier::from_counts(if id % 2 == 0 {
                    &[10, 0]
                } else {
                    &[0, 10]
                })),
                err: 0.1 + 0.01 * id as f64,
                n_records: 50,
                n_occurrences: 1,
            })
            .collect();
        let occ: Vec<(usize, usize)> = (0..n).map(|c| (c, 40 + 10 * c)).collect();
        let stats = TransitionStats::from_occurrences(n, &occ);
        HighOrderModel::from_parts(schema, concepts, stats)
    }

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    /// Write `s` in the legacy version-1 format (no epoch field), as
    /// every pre-maintenance build did.
    fn snapshot_v1(s: &FilterState) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u16(1);
        w.put_u32(s.n_concepts() as u32);
        for &v in s.posterior().iter().chain(s.prior()) {
            w.put_f64(v);
        }
        for &c in s.order() {
            w.put_u32(c);
        }
        w.seal();
        out
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let m = model(3);
        let mut s = FilterState::new(&m);
        for t in 0..37u32 {
            s.observe(&m, &[0.0], t % 2);
        }
        let bytes = s.snapshot();
        let r = FilterState::restore(&m, &bytes).expect("restore");
        assert_eq!(bits(s.posterior()), bits(r.posterior()));
        assert_eq!(bits(s.prior()), bits(r.prior()));
        assert_eq!(s.order(), r.order());
        // and the continued runs agree exactly
        let mut a = s.clone();
        let mut b = r;
        for t in 0..50u32 {
            let x = [f64::from(t)];
            assert_eq!(a.predict_pruned(&m, &x), b.predict_pruned(&m, &x));
            a.observe(&m, &x, t % 2);
            b.observe(&m, &x, t % 2);
            assert_eq!(bits(a.posterior()), bits(b.posterior()));
        }
    }

    #[test]
    fn version_1_snapshots_still_restore() {
        let m = model(3);
        let mut s = FilterState::new(&m);
        for t in 0..23u32 {
            s.observe(&m, &[0.0], t % 2);
        }
        let legacy = snapshot_v1(&s);
        let r = FilterState::restore(&m, &legacy).expect("v1 restore");
        assert_eq!(bits(s.posterior()), bits(r.posterior()));
        assert_eq!(bits(s.prior()), bits(r.prior()));
        assert_eq!(s.order(), r.order());
        assert_eq!(snapshot_epoch(&legacy), Some(0));
    }

    #[test]
    fn epoch_round_trips() {
        let m = model(2);
        let s = FilterState::new(&m);
        let bytes = s.snapshot_with_epoch(7);
        assert_eq!(snapshot_epoch(&bytes), Some(7));
        assert_eq!(snapshot_epoch(&s.snapshot()), Some(0));
        assert_eq!(snapshot_epoch(b"nope"), None);
        // the epoch is covered by the checksum
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(FilterState::restore(&m, &bad).is_err());
        // but a clean snapshot restores regardless of its epoch
        assert!(FilterState::restore(&m, &bytes).is_ok());
    }

    #[test]
    fn restore_migrating_extends_older_snapshots() {
        let m2 = model(2);
        let mut s = FilterState::new(&m2);
        for _ in 0..20 {
            s.observe(&m2, &[0.0], 1);
        }
        let bytes = s.snapshot();
        // the model gains a concept after the snapshot was parked
        let m3 = m2.admit_concept(Arc::new(MajorityClassifier::from_counts(&[5, 5])), 0.2, 60);
        let (r, migrated) = FilterState::restore_migrating(&m3, &bytes).expect("migrate");
        assert!(migrated);
        assert_eq!(r.n_concepts(), 3);
        // identical to the in-memory migration path
        let direct = s.migrate(&m3);
        assert_eq!(bits(r.posterior()), bits(direct.posterior()));
        assert_eq!(bits(r.prior()), bits(direct.prior()));
        assert_eq!(r.order(), direct.order());
        // same-size restore reports no migration and stays bit-identical
        let (same, migrated) = FilterState::restore_migrating(&m2, &bytes).expect("restore");
        assert!(!migrated);
        assert_eq!(bits(same.posterior()), bits(s.posterior()));
        // v1 bytes migrate just as well
        let (r1, migrated) =
            FilterState::restore_migrating(&m3, &snapshot_v1(&s)).expect("v1 migrate");
        assert!(migrated);
        assert_eq!(bits(r1.posterior()), bits(direct.posterior()));
    }

    #[test]
    fn restore_migrating_never_shrinks() {
        let m3 = model(3);
        let m2 = model(2);
        let bytes = FilterState::new(&m3).snapshot();
        assert_eq!(
            FilterState::restore_migrating(&m2, &bytes),
            Err(SnapshotError::ModelMismatch {
                snapshot: 3,
                model: 2
            })
        );
    }

    #[test]
    fn every_truncation_is_rejected() {
        let m = model(4);
        let mut s = FilterState::new(&m);
        s.observe(&m, &[0.0], 1);
        for bytes in [s.snapshot(), snapshot_v1(&s)] {
            for len in 0..bytes.len() {
                let err = FilterState::restore(&m, &bytes[..len])
                    .expect_err("truncated snapshot must be rejected");
                assert!(
                    matches!(
                        err,
                        SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_)
                    ),
                    "len {len}: unexpected error {err:?}"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let m = model(3);
        let mut s = FilterState::new(&m);
        s.observe(&m, &[0.0], 0);
        for bytes in [s.snapshot(), snapshot_v1(&s)] {
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                assert!(
                    FilterState::restore(&m, &bad).is_err(),
                    "flip at byte {i} was accepted"
                );
            }
        }
    }

    #[test]
    fn wrong_model_is_a_mismatch() {
        let m3 = model(3);
        let m4 = model(4);
        let s = FilterState::new(&m3);
        let err = FilterState::restore(&m4, &s.snapshot()).expect_err("mismatch");
        assert_eq!(
            err,
            SnapshotError::ModelMismatch {
                snapshot: 3,
                model: 4
            }
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let m = model(2);
        let mut bytes = FilterState::new(&m).snapshot();
        bytes[4] = 9; // version low byte
                      // checksum no longer matches either, but the version gate fires
                      // first — both are rejections, never panics.
        let err = FilterState::restore(&m, &bytes).expect_err("version");
        assert_eq!(err, SnapshotError::UnsupportedVersion(9));
        // version 0 never existed
        bytes[4] = 0;
        let err = FilterState::restore(&m, &bytes).expect_err("version");
        assert_eq!(err, SnapshotError::UnsupportedVersion(0));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let m = model(2);
        let mut bytes = FilterState::new(&m).snapshot();
        bytes.push(0);
        assert_eq!(
            FilterState::restore(&m, &bytes),
            Err(SnapshotError::Corrupt("trailing bytes after checksum"))
        );
    }

    #[test]
    fn errors_render_a_message() {
        let e = SnapshotError::Truncated { needed: 10, got: 3 };
        assert!(e.to_string().contains("10"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    }
}
