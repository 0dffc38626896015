//! The versioned **model** wire codec: a [`HighOrderModel`] as bytes,
//! for distributing one mined model to every node of a serving cluster.
//!
//! Where the snapshot codec ([`crate::snapshot`]) ships one *stream's*
//! filter state, this codec ships the *model itself* — schema, every
//! concept (its `Err_c`, occurrence totals and classifier) and the raw
//! transition kernel — so `hom-cluster-serve`'s two-phase hot-swap can
//! stage an identical model on every worker before any worker flips its
//! epoch. The design goal is the same **bit-identity** bar: a decoded
//! model must serve (predictions *and* posteriors) bit-identically to
//! the encoded one, which holds because
//!
//! * classifiers go through `hom-classifiers`' wire layer, whose
//!   contract is bit-identical `predict`/`predict_proba`
//!   ([`hom_classifiers::Classifier::wire_encode`]);
//! * `Err_c` (ψ, Eq. 8) and the raw `Len`/`Freq`/`χ` vectors (Eq. 6,
//!   driving the Eq. 5 prior advance) are shipped as raw f64 **bits**,
//!   not re-derived from totals on the far side.
//!
//! ## Wire format (version 1, little-endian)
//!
//! | bytes | field |
//! |---|---|
//! | 4 | magic `HOMM` |
//! | 2 | format version (1) |
//! | 4 | model epoch (the serving epoch this distribution targets) |
//! | var | schema: attribute list (name, kind, categorical values) + class names |
//! | 4 | `n_concepts` |
//! | var | per concept: `Err_c` (f64 bits) · `n_records` · `n_occurrences` · classifier blob |
//! | 8·n | `Len` (f64 bits each) |
//! | 8·n | `Freq` (f64 bits each) |
//! | 8·n² | `χ` row-major (f64 bits each) |
//! | 8 | FNV-1a checksum of everything above |
//!
//! Strings are `u32` length + UTF-8. Decoding validates structurally
//! (magic, version, checksum, string/count bounds, classifier structure
//! via the classifier wire layer) and returns a typed
//! [`ModelCodecError`] on anything malformed — corrupt bytes must never
//! panic a node. A model whose classifier has no wire form (naive
//! Bayes) is rejected at **encode** time with
//! [`ModelCodecError::UnsupportedClassifier`], so the failure surfaces
//! on the node that owns the model, not mid-swap on a worker.

use std::fmt;
use std::sync::Arc;

use hom_classifiers::wire::{decode_classifier, ClassifierWireError};
use hom_data::{Attribute, Schema};

use crate::build::HighOrderModel;
use crate::concept::Concept;
use crate::snapshot::fnv1a;
use crate::transition::TransitionStats;

/// Magic prefix of every encoded model.
pub const MODEL_MAGIC: [u8; 4] = *b"HOMM";
/// Current model wire-format version.
pub const MODEL_VERSION: u16 = 1;

/// Why model bytes failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCodecError {
    /// Input ended before the encoded structure did.
    Truncated,
    /// The first four bytes are not `HOMM`.
    BadMagic,
    /// A version this build does not understand.
    UnsupportedVersion(u16),
    /// The FNV-1a trailer does not match the payload.
    ChecksumMismatch,
    /// Structurally invalid payload (bad counts, out-of-range index,
    /// invalid UTF-8, malformed classifier, …).
    Corrupt(&'static str),
    /// Encode-side: concept `concept`'s classifier has no wire form
    /// (e.g. naive Bayes) — the model cannot be distributed.
    UnsupportedClassifier {
        /// Index of the offending concept.
        concept: usize,
    },
}

impl fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelCodecError::Truncated => write!(f, "model bytes truncated"),
            ModelCodecError::BadMagic => write!(f, "not a HOMM model (bad magic)"),
            ModelCodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported model format version {v}")
            }
            ModelCodecError::ChecksumMismatch => write!(f, "model checksum mismatch"),
            ModelCodecError::Corrupt(why) => write!(f, "corrupt model bytes: {why}"),
            ModelCodecError::UnsupportedClassifier { concept } => write!(
                f,
                "concept {concept}'s classifier has no wire form and cannot be distributed"
            ),
        }
    }
}

impl std::error::Error for ModelCodecError {}

impl From<ClassifierWireError> for ModelCodecError {
    fn from(e: ClassifierWireError) -> Self {
        match e {
            ClassifierWireError::Truncated => ModelCodecError::Truncated,
            ClassifierWireError::Corrupt(why) => ModelCodecError::Corrupt(why),
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], ModelCodecError> {
    let end = at.checked_add(n).ok_or(ModelCodecError::Truncated)?;
    let chunk = bytes.get(*at..end).ok_or(ModelCodecError::Truncated)?;
    *at = end;
    Ok(chunk)
}

fn take_u16(bytes: &[u8], at: &mut usize) -> Result<u16, ModelCodecError> {
    Ok(u16::from_le_bytes(take(bytes, at, 2)?.try_into().unwrap()))
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, ModelCodecError> {
    Ok(u32::from_le_bytes(take(bytes, at, 4)?.try_into().unwrap()))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, ModelCodecError> {
    Ok(u64::from_le_bytes(take(bytes, at, 8)?.try_into().unwrap()))
}

fn take_f64(bytes: &[u8], at: &mut usize) -> Result<f64, ModelCodecError> {
    Ok(f64::from_bits(take_u64(bytes, at)?))
}

/// A declared element count, believed only when `n` elements of at
/// least `min_bytes` each fit in the bytes left after `at` — the rule of
/// `hom_data::codec::Reader::count` — so nothing sized from it can
/// reserve more than the input could hold.
fn take_count(bytes: &[u8], at: &mut usize, min_bytes: usize) -> Result<usize, ModelCodecError> {
    let n = take_u32(bytes, at)? as usize;
    fits(bytes, *at, n, min_bytes)
}

/// `n` itself when `n` elements of `min_bytes` fit in `bytes[at..]`.
fn fits(bytes: &[u8], at: usize, n: usize, min_bytes: usize) -> Result<usize, ModelCodecError> {
    match n.checked_mul(min_bytes) {
        Some(need) if need <= bytes.len() - at => Ok(n),
        _ => Err(ModelCodecError::Truncated),
    }
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, ModelCodecError> {
    let len = take_u32(bytes, at)? as usize;
    let raw = take(bytes, at, len)?;
    String::from_utf8(raw.to_vec()).map_err(|_| ModelCodecError::Corrupt("invalid UTF-8 string"))
}

/// Serialize `model` for distribution, stamping `epoch` (the serving
/// epoch the receiving workers will swap to — see
/// `hom-cluster-serve`'s two-phase swap). Fails with a typed error if
/// any concept's classifier has no wire form.
pub fn encode_model(model: &HighOrderModel, epoch: u32) -> Result<Vec<u8>, ModelCodecError> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MODEL_MAGIC);
    put_u16(&mut out, MODEL_VERSION);
    put_u32(&mut out, epoch);

    let schema = model.schema();
    put_u32(&mut out, schema.n_attrs() as u32);
    for a in schema.attrs() {
        put_str(&mut out, &a.name);
        match a.cardinality() {
            None => out.push(0),
            Some(_) => {
                out.push(1);
                let values = match &a.kind {
                    hom_data::AttrKind::Categorical { values } => values,
                    hom_data::AttrKind::Numeric => unreachable!("cardinality was Some"),
                };
                put_u32(&mut out, values.len() as u32);
                for v in values {
                    put_str(&mut out, v);
                }
            }
        }
    }
    put_u32(&mut out, schema.n_classes() as u32);
    for c in schema.classes() {
        put_str(&mut out, c);
    }

    put_u32(&mut out, model.n_concepts() as u32);
    for (i, concept) in model.concepts().iter().enumerate() {
        put_f64(&mut out, concept.err);
        put_u64(&mut out, concept.n_records as u64);
        put_u64(&mut out, concept.n_occurrences as u64);
        if !concept.model.wire_encode(&mut out) {
            return Err(ModelCodecError::UnsupportedClassifier { concept: i });
        }
    }

    let (len, freq, chi) = model.stats().raw_parts();
    for &v in len.iter().chain(freq).chain(chi) {
        put_f64(&mut out, v);
    }

    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    Ok(out)
}

/// The epoch stamp of an encoded model, without decoding the rest.
/// `None` if the bytes are too short or not a HOMM blob.
pub fn model_epoch(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < 10 || bytes[..4] != MODEL_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(bytes[6..10].try_into().ok()?))
}

/// Decode a model encoded by [`encode_model`], returning the model and
/// its epoch stamp. The decoded model serves bit-identically to the
/// encoded one (see the [module docs](self) for the argument). Any
/// malformed input — wrong magic, unknown version, checksum mismatch,
/// truncation, structural corruption — is a typed error, never a panic.
pub fn decode_model(bytes: &[u8]) -> Result<(Arc<HighOrderModel>, u32), ModelCodecError> {
    if bytes.len() < MODEL_MAGIC.len() + 2 + 4 + 8 {
        return Err(ModelCodecError::Truncated);
    }
    if bytes[..4] != MODEL_MAGIC {
        return Err(ModelCodecError::BadMagic);
    }
    let payload = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(ModelCodecError::ChecksumMismatch);
    }

    let at = &mut 4usize;
    let version = take_u16(payload, at)?;
    if version != MODEL_VERSION {
        return Err(ModelCodecError::UnsupportedVersion(version));
    }
    let epoch = take_u32(payload, at)?;

    // An attribute is at least a name length and a kind byte.
    let n_attrs = take_count(payload, at, 4 + 1)?;
    if n_attrs == 0 {
        return Err(ModelCodecError::Corrupt("schema with no attributes"));
    }
    let mut attrs = Vec::new();
    for _ in 0..n_attrs {
        let name = take_str(payload, at)?;
        match take(payload, at, 1)?[0] {
            0 => attrs.push(Attribute::numeric(name)),
            1 => {
                let n_values = take_count(payload, at, 4)?;
                if n_values == 0 {
                    return Err(ModelCodecError::Corrupt(
                        "categorical attribute with no values",
                    ));
                }
                let mut values = Vec::with_capacity(n_values);
                for _ in 0..n_values {
                    values.push(take_str(payload, at)?);
                }
                attrs.push(Attribute::categorical(name, values));
            }
            _ => return Err(ModelCodecError::Corrupt("unknown attribute kind")),
        }
    }
    let n_classes = take_count(payload, at, 4)?;
    if n_classes < 2 {
        return Err(ModelCodecError::Corrupt(
            "schema with fewer than two classes",
        ));
    }
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        classes.push(take_str(payload, at)?);
    }
    let schema = Schema::new(attrs, classes);

    let n_concepts = take_u32(payload, at)? as usize;
    if n_concepts == 0 {
        return Err(ModelCodecError::Corrupt("model with no concepts"));
    }
    // Each concept owns at least its three header words, its `Len` and
    // `Freq` entries and a χ row of `n_concepts` f64s: a count whose
    // smallest encoding overruns the blob is refused before anything
    // is reserved from it (χ alone would be 8·n² bytes).
    fits(payload, *at, n_concepts, 8 * (5 + n_concepts))?;
    let mut concepts = Vec::with_capacity(n_concepts);
    for id in 0..n_concepts {
        let err = take_f64(payload, at)?;
        let n_records = take_u64(payload, at)? as usize;
        let n_occurrences = take_u64(payload, at)? as usize;
        let classifier = decode_classifier(payload, at, &schema)?;
        if classifier.n_classes() != schema.n_classes() {
            return Err(ModelCodecError::Corrupt("classifier class count mismatch"));
        }
        concepts.push(Concept {
            id,
            model: classifier,
            err,
            n_records,
            n_occurrences,
        });
    }

    let mut len = Vec::with_capacity(n_concepts);
    for _ in 0..n_concepts {
        len.push(take_f64(payload, at)?);
    }
    let mut freq = Vec::with_capacity(n_concepts);
    for _ in 0..n_concepts {
        freq.push(take_f64(payload, at)?);
    }
    let mut chi = Vec::with_capacity(n_concepts * n_concepts);
    for _ in 0..n_concepts * n_concepts {
        chi.push(take_f64(payload, at)?);
    }
    if *at != payload.len() {
        return Err(ModelCodecError::Corrupt("trailing bytes after model"));
    }
    let stats = TransitionStats::from_raw_parts(n_concepts, len, freq, chi)
        .map_err(ModelCodecError::Corrupt)?;
    Ok((
        Arc::new(HighOrderModel::from_parts(schema, concepts, stats)),
        epoch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hom_classifiers::{HoeffdingParams, HoeffdingTree, MajorityClassifier};
    use hom_data::ClassId;

    fn schema() -> Arc<Schema> {
        Schema::new(
            vec![
                Attribute::categorical("c", ["p", "q", "r"]),
                Attribute::numeric("x"),
            ],
            ["neg", "pos"],
        )
    }

    fn trained_hoeffding(schema: &Arc<Schema>) -> HoeffdingTree {
        let mut t = HoeffdingTree::new(Arc::clone(schema), HoeffdingParams::default());
        let mut state = 17u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 3) as f64;
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            t.update(&[c, x], u32::from(c == 1.0));
        }
        t
    }

    fn model() -> Arc<HighOrderModel> {
        let schema = schema();
        let concepts = vec![
            Concept {
                id: 0,
                model: Arc::new(MajorityClassifier::from_counts(&[10, 3])),
                err: 0.05,
                n_records: 100,
                n_occurrences: 2,
            },
            Concept {
                id: 1,
                model: Arc::new(trained_hoeffding(&schema)),
                err: 0.125,
                n_records: 60,
                n_occurrences: 1,
            },
        ];
        let stats = TransitionStats::from_occurrences(2, &[(0, 50), (1, 60), (0, 50)]);
        Arc::new(HighOrderModel::from_parts(schema, concepts, stats))
    }

    /// Probes covering vocabulary, fallback, fractional, negative, NaN.
    fn probes() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.2],
            vec![1.0, 0.8],
            vec![2.0, 0.5],
            vec![7.0, 0.5],
            vec![0.5, 0.3],
            vec![-2.0, 0.3],
            vec![1.0, f64::NAN],
        ]
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let m = model();
        let bytes = encode_model(&m, 3).expect("encodes");
        assert_eq!(model_epoch(&bytes), Some(3));
        let (back, epoch) = decode_model(&bytes).expect("decodes");
        assert_eq!(epoch, 3);

        assert_eq!(back.schema(), m.schema());
        assert_eq!(back.n_concepts(), m.n_concepts());
        for (a, b) in m.concepts().iter().zip(back.concepts()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.err.to_bits(), b.err.to_bits());
            assert_eq!(a.n_records, b.n_records);
            assert_eq!(a.n_occurrences, b.n_occurrences);
            let mut pa = vec![0.0; 2];
            let mut pb = vec![0.0; 2];
            for x in probes() {
                assert_eq!(a.model.predict(&x), b.model.predict(&x));
                a.model.predict_proba(&x, &mut pa);
                b.model.predict_proba(&x, &mut pb);
                let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
                assert_eq!(bits(&pa), bits(&pb));
            }
            for (x, y) in [(probes()[0].clone(), 0u32), (probes()[1].clone(), 1u32)] {
                assert_eq!(
                    a.psi(&x, y as ClassId).to_bits(),
                    b.psi(&x, y as ClassId).to_bits()
                );
            }
        }
        let (sa, sb) = (m.stats(), back.stats());
        for i in 0..m.n_concepts() {
            assert_eq!(sa.len(i).to_bits(), sb.len(i).to_bits());
            assert_eq!(sa.freq(i).to_bits(), sb.freq(i).to_bits());
            for j in 0..m.n_concepts() {
                assert_eq!(sa.chi(i, j).to_bits(), sb.chi(i, j).to_bits());
            }
        }
    }

    #[test]
    fn filter_over_decoded_model_is_bit_identical() {
        let m = model();
        let (back, _) = decode_model(&encode_model(&m, 0).expect("encodes")).expect("decodes");
        let mut a = crate::FilterState::new(&m);
        let mut b = crate::FilterState::new(&back);
        let mut state = 23u64;
        for t in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = vec![
                ((state >> 33) % 4) as f64,
                (state >> 11) as f64 / (1u64 << 53) as f64,
            ];
            let y = (t % 2) as ClassId;
            assert_eq!(
                a.predict(&m, &x),
                b.predict(&back, &x),
                "prediction diverged at {t}"
            );
            a.observe(&m, &x, y);
            b.observe(&back, &x, y);
            let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(a.posterior()),
                bits(b.posterior()),
                "posterior diverged at {t}"
            );
        }
    }

    #[test]
    fn naive_bayes_model_is_rejected_at_encode_time() {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let mut d = hom_data::Dataset::new(Arc::clone(&schema));
        for i in 0..40 {
            d.push(&[i as f64], u32::from(i >= 20));
        }
        use hom_classifiers::Learner;
        let nb: Arc<dyn hom_classifiers::Classifier> =
            Arc::from(hom_classifiers::NaiveBayesLearner.fit(&d));
        let m = HighOrderModel::from_parts(
            schema,
            vec![Concept {
                id: 0,
                model: nb,
                err: 0.1,
                n_records: 40,
                n_occurrences: 1,
            }],
            TransitionStats::from_occurrences(1, &[(0, 40)]),
        );
        assert_eq!(
            encode_model(&m, 0).err(),
            Some(ModelCodecError::UnsupportedClassifier { concept: 0 })
        );
    }

    #[test]
    fn truncation_battery_every_prefix_errors() {
        let bytes = encode_model(&model(), 1).expect("encodes");
        for cut in 0..bytes.len() {
            assert!(
                decode_model(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn bit_flip_battery_every_flip_errors_or_roundtrips() {
        // Any single bit flip must be *detected* (checksum) — except a
        // flip inside the checksum trailer itself, which also errors.
        let bytes = encode_model(&model(), 1).expect("encodes");
        let stride = (bytes.len() / 97).max(1);
        for i in (0..bytes.len()).step_by(stride) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x10;
            assert!(
                decode_model(&corrupted).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn a_concept_count_the_blob_cannot_hold_is_refused_before_reserving() {
        // 200,000 minimal concepts with their `Len` and `Freq` rows and a
        // valid trailer fit in 17 MiB, but their χ would be 8·n² =
        // 320 GB: the declared count must fail typed, not abort on the
        // reservation.
        let one = |n: usize| {
            let concepts = (0..n)
                .map(|id| Concept {
                    id,
                    model: Arc::new(MajorityClassifier::from_counts(&[1, 1])) as Arc<_>,
                    err: 0.5,
                    n_records: 1,
                    n_occurrences: 1,
                })
                .collect();
            let runs: Vec<(usize, usize)> = (0..n).map(|c| (c, 10)).collect();
            let stats = TransitionStats::from_occurrences(n, &runs);
            let model = HighOrderModel::from_parts(schema(), concepts, stats);
            encode_model(&model, 1).expect("encodes")
        };
        let (single, double) = (one(1), one(2));
        // A second concept adds its bytes, a `Len` and a `Freq` entry and
        // three χ entries.
        let concept_len = double.len() - single.len() - 5 * 8;
        let concepts_at = single.len() - 8 - 3 * 8 - concept_len;
        let n = 200_000usize;
        let mut blob = single[..concepts_at - 4].to_vec();
        blob.extend_from_slice(&(n as u32).to_le_bytes());
        for _ in 0..n {
            blob.extend_from_slice(&single[concepts_at..concepts_at + concept_len]);
        }
        for _ in 0..2 * n {
            blob.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        }
        let sum = fnv1a(&blob);
        blob.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_model(&blob).err(), Some(ModelCodecError::Truncated));
        // The honest one-concept blob still decodes.
        assert!(decode_model(&single).is_ok());
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let bytes = encode_model(&model(), 0).expect("encodes");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_model(&bad).err(), Some(ModelCodecError::BadMagic));

        let mut versioned = bytes.clone();
        versioned[4] = 99;
        // re-stamp the checksum so the version check is what fires
        let n = versioned.len();
        let sum = fnv1a(&versioned[..n - 8]);
        versioned[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            decode_model(&versioned).err(),
            Some(ModelCodecError::UnsupportedVersion(99))
        );
        assert!(decode_model(&[]).is_err());
    }
}
