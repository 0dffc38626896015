//! One generated battery for every binary format: HOMF filter snapshots,
//! HOMM models, HOMR store records and the HOMQ/HOMP router↔worker
//! frames, all built on `hom_data::codec`.
//!
//! Per format:
//!
//! * generated values round-trip bit-exactly;
//! * every truncation, every single-bit flip and arbitrary bytes decode
//!   to a value or the format's typed error — never a panic;
//! * for the sealed formats (HOMF, HOMM, HOMR), mutated and truncated
//!   bodies are re-sealed with a recomputed, valid FNV-1a trailer, so
//!   the structural checks past the checksum see generated input rather
//!   than only hand-picked cases (the frames carry no trailer, so their
//!   damage reaches those checks directly);
//! * every decode allocates at most a per-format constant times its
//!   input length, measured by a counting global allocator.

mod wire_gen;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use hom_classifiers::{
    Classifier, DecisionTreeLearner, HoeffdingParams, HoeffdingTree, Learner, MajorityClassifier,
};
use hom_cluster_serve::{wire, WireError};
use hom_core::{
    decode_model, encode_model, encode_snapshot, fnv1a, snapshot_epoch, Concept, HighOrderModel,
    SnapshotError, SnapshotRef, TransitionStats, MODEL_MAGIC, MODEL_VERSION,
};
use hom_data::{Attribute, Dataset, Schema};
use hom_serve::{Request, Response};
use hom_store::{decode_at, encode_into, DecodeFailure, RecordKind, RECORD_OVERHEAD};
use proptest::collection::vec;
use proptest::prelude::*;
use wire_gen::{damaged_bytes, parts, request, response};

/// Counts the bytes this thread asks the allocator for, so a test can
/// bound what one decode reserves.
struct Counting;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the bytes it allocated on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

// ---------------------------------------------------------------------
// The formats.
// ---------------------------------------------------------------------

/// One binary format under test.
struct Format {
    name: &'static str,
    /// Decode one input: `Ok` for a value or a well-formed typed error,
    /// `Err` describing a typed error that breaks its own contract (an
    /// offset or a length outside the input).
    decode: fn(&[u8]) -> Result<(), String>,
    /// Whether an encoding ends in an FNV-1a trailer over the rest.
    sealed: bool,
    /// Bytes one decode may allocate per input byte.
    alloc_per_byte: usize,
}

/// A HOMF snapshot parses, and its values copy out; a short one says
/// how many bytes it got.
fn decode_homf(bytes: &[u8]) -> Result<(), String> {
    match SnapshotRef::parse(bytes) {
        Ok(snap) => {
            let n = snap.n_concepts();
            let (mut posterior, mut prior, mut order) = (vec![0.0; n], vec![0.0; n], vec![0; n]);
            snap.read_into(&mut posterior, &mut prior, &mut order);
            Ok(())
        }
        Err(SnapshotError::Truncated { needed, got }) if got != bytes.len() || needed <= got => {
            Err(format!("Truncated {{ needed: {needed}, got: {got} }}"))
        }
        Err(_) => Ok(()),
    }
}

/// A HOMM model decodes or fails typed.
fn decode_homm(bytes: &[u8]) -> Result<(), String> {
    let _ = decode_model(bytes);
    Ok(())
}

/// A buffer of HOMR records scans as the store's recovery scans a file:
/// record after record until the end or the first failure, each record
/// lying inside the buffer.
fn decode_homr(bytes: &[u8]) -> Result<(), String> {
    let mut at = 0;
    while at < bytes.len() {
        match decode_at(bytes, at) {
            Ok((rec, len))
                if len >= RECORD_OVERHEAD + rec.payload.len() && at + len <= bytes.len() =>
            {
                at += len
            }
            Ok((_, len)) => return Err(format!("record of {len} bytes at {at}")),
            Err(_) => break,
        }
    }
    Ok(())
}

/// A frame decodes, or fails at an offset inside the input.
fn frame_outcome<T>(bytes: &[u8], outcome: Result<T, WireError>) -> Result<(), String> {
    match outcome {
        Err(WireError::BadFrame { at, .. }) if at <= bytes.len() => Ok(()),
        Err(e) => Err(format!("{e:?}")),
        Ok(_) => Ok(()),
    }
}

fn decode_homq(bytes: &[u8]) -> Result<(), String> {
    frame_outcome(bytes, wire::decode_requests(bytes))
}

fn decode_homp(bytes: &[u8]) -> Result<(), String> {
    frame_outcome(bytes, wire::decode_responses(bytes))
}

/// HOMF and HOMR decode in place; their only allocation is the copy of a
/// snapshot's values. A decoded model holds its schema's strings, its
/// trees' node arrays and its transition matrix, each a small multiple
/// of the bytes it came from. The smallest request encoding is 13 bytes
/// and a decoded [`Request`] is 40.
const HOMF: Format = Format {
    name: "HOMF",
    decode: decode_homf,
    sealed: true,
    alloc_per_byte: 1,
};
const HOMM: Format = Format {
    name: "HOMM",
    decode: decode_homm,
    sealed: true,
    alloc_per_byte: 16,
};
const HOMR: Format = Format {
    name: "HOMR",
    decode: decode_homr,
    sealed: true,
    alloc_per_byte: 0,
};
const HOMQ: Format = Format {
    name: "HOMQ",
    decode: decode_homq,
    sealed: false,
    alloc_per_byte: 4,
};
const HOMP: Format = Format {
    name: "HOMP",
    decode: decode_homp,
    sealed: false,
    alloc_per_byte: 4,
};

/// `bytes` decode without panicking, to a value or a well-formed typed
/// error, within the format's allocation bound.
fn outcome(format: &Format, bytes: &[u8]) -> Result<(), TestCaseError> {
    let (checked, allocated) = allocated_by(|| (format.decode)(bytes));
    prop_assert!(
        allocated <= format.alloc_per_byte * bytes.len(),
        "{}: {allocated} bytes allocated decoding {} input bytes",
        format.name,
        bytes.len()
    );
    if let Err(what) = checked {
        return Err(TestCaseError::fail(format!(
            "{}: {what} for {bytes:?}",
            format.name
        )));
    }
    Ok(())
}

/// `body` followed by its FNV-1a trailer.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out
}

/// Every prefix and every single-bit flip of a sealed encoding's body,
/// each re-sealed with a valid trailer.
fn resealed_damage(encoding: &[u8]) -> Vec<Vec<u8>> {
    let body = &encoding[..encoding.len() - 8];
    damaged_bytes(body).iter().map(|b| sealed(b)).collect()
}

// ---------------------------------------------------------------------
// Generated values.
// ---------------------------------------------------------------------

/// A filter state of 1–5 concepts: two distributions and a permutation.
fn snapshot() -> impl Strategy<Value = Vec<u8>> {
    (
        1usize..6,
        vec(1u32..1000, 5),
        vec(1u32..1000, 5),
        vec(any::<u64>(), 5),
        any::<u32>(),
    )
        .prop_map(|(n, post, prior, keys, epoch)| {
            let normalized = |w: &[u32]| {
                let sum: f64 = w[..n].iter().map(|&v| f64::from(v)).sum();
                w[..n]
                    .iter()
                    .map(|&v| f64::from(v) / sum)
                    .collect::<Vec<_>>()
            };
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_by_key(|&c| keys[c as usize]);
            let mut out = Vec::new();
            encode_snapshot(
                &mut out,
                epoch,
                &normalized(&post),
                &normalized(&prior),
                &order,
            );
            out
        })
}

fn schema() -> Arc<Schema> {
    Schema::new(
        vec![
            Attribute::categorical("c", ["p", "q", "r"]),
            Attribute::numeric("x"),
        ],
        ["neg", "pos"],
    )
}

/// One classifier of each wire form, trained once: a majority stub and
/// a decision tree (both shipped as flat trees) and a Hoeffding tree.
fn classifier_pool() -> &'static [Arc<dyn Classifier>; 3] {
    static POOL: OnceLock<[Arc<dyn Classifier>; 3]> = OnceLock::new();
    POOL.get_or_init(|| {
        let schema = schema();
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            [
                ((state >> 33) % 3) as f64,
                ((state >> 11) % 1000) as f64 / 1000.0,
            ]
        };
        let mut d = Dataset::new(Arc::clone(&schema));
        let mut t = HoeffdingTree::new(Arc::clone(&schema), HoeffdingParams::default());
        for _ in 0..2000 {
            let [c, x] = next();
            d.push(&[c, x], u32::from(c == 1.0 || x > 0.7));
            t.update(&[c, x], u32::from(c == 2.0));
        }
        [
            Arc::new(MajorityClassifier::from_counts(&[10, 3])),
            Arc::from(DecisionTreeLearner::new().fit(&d)),
            Arc::new(t),
        ]
    })
}

/// A model of 1–3 concepts drawn from the pool, with generated `Err_c`,
/// totals, run lengths and epoch.
fn model_blob() -> impl Strategy<Value = Vec<u8>> {
    (vec((0usize..3, 1u64..1000), 1..4), any::<u32>()).prop_map(|(picks, epoch)| {
        let pool = classifier_pool();
        let concepts = picks
            .iter()
            .enumerate()
            .map(|(id, &(pick, w))| Concept {
                id,
                model: Arc::clone(&pool[pick]),
                err: w as f64 / 1000.0,
                n_records: w as usize,
                n_occurrences: 1,
            })
            .collect();
        let runs: Vec<(usize, usize)> = picks
            .iter()
            .enumerate()
            .map(|(c, &(_, w))| (c, 1 + w as usize))
            .collect();
        let stats = TransitionStats::from_occurrences(picks.len(), &runs);
        let model = HighOrderModel::from_parts(schema(), concepts, stats);
        encode_model(&model, epoch).expect("pooled classifiers have a wire form")
    })
}

type RecordParts = (RecordKind, u64, u64, Vec<u8>);

fn record() -> impl Strategy<Value = RecordParts> {
    (
        0usize..3,
        any::<u64>(),
        any::<u64>(),
        vec(any::<u8>(), 0..40),
    )
        .prop_map(|(kind, stream, seq, payload)| {
            let kind = [
                RecordKind::Snapshot,
                RecordKind::Tombstone,
                RecordKind::Commit,
            ][kind];
            (kind, stream, seq, payload)
        })
}

fn records_blob(records: &[RecordParts]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (kind, stream, seq, payload) in records {
        encode_into(&mut buf, *kind, *stream, *seq, payload);
    }
    buf
}

// ---------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshots_round_trip_bit_exactly(bytes in snapshot()) {
        let snap = SnapshotRef::parse(&bytes).expect("own snapshot parses");
        let n = snap.n_concepts();
        let (mut posterior, mut prior, mut order) = (vec![0.0; n], vec![0.0; n], vec![0; n]);
        snap.read_into(&mut posterior, &mut prior, &mut order);
        let mut again = Vec::new();
        encode_snapshot(&mut again, snapshot_epoch(&bytes).expect("epoch"), &posterior, &prior, &order);
        prop_assert_eq!(again, bytes);
    }

    #[test]
    fn models_round_trip_to_the_same_bytes(bytes in model_blob()) {
        let (model, epoch) = decode_model(&bytes).expect("own model decodes");
        prop_assert_eq!(encode_model(&model, epoch).expect("re-encodes"), bytes);
    }

    #[test]
    fn records_round_trip(records in vec(record(), 1..4)) {
        let buf = records_blob(&records);
        let mut at = 0;
        for (kind, stream, seq, payload) in &records {
            let (rec, len) = decode_at(&buf, at).expect("own record decodes");
            prop_assert_eq!(
                (rec.kind, rec.stream, rec.seq, rec.payload),
                (*kind, *stream, *seq, &payload[..])
            );
            at += len;
        }
        prop_assert_eq!(at, buf.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_frames_round_trip_bit_exactly(batch in vec(request(), 0..12)) {
        let frame = wire::encode_requests(&batch).expect("finite attributes encode");
        let back = wire::decode_requests(&frame).expect("own frame decodes");
        prop_assert_eq!(
            batch.iter().map(parts).collect::<Vec<_>>(),
            back.iter().map(parts).collect::<Vec<_>>()
        );
    }

    #[test]
    fn response_frames_round_trip(responses in vec(response(), 0..12)) {
        let frame = wire::encode_responses(&responses);
        prop_assert_eq!(wire::decode_responses(&frame).expect("own frame decodes"), responses);
    }
}

// ---------------------------------------------------------------------
// Arbitrary bytes: bare, behind a valid header, and (for the sealed
// formats) behind a real encoding's prefix with a valid trailer.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(raw in vec(any::<u8>(), 0..64)) {
        for format in [&HOMF, &HOMM, &HOMR, &HOMQ, &HOMP] {
            outcome(format, &raw)?;
        }
        // Behind each format's valid header, fed to every decoder, so each
        // also reads the others' magics.
        for header in [
            [&b"HOMF"[..], &2u16.to_le_bytes()].concat(),
            [&MODEL_MAGIC[..], &MODEL_VERSION.to_le_bytes()].concat(),
            b"HOMR\x01".to_vec(),
            [&wire::REQUEST_MAGIC[..], &wire::FRAME_VERSION.to_le_bytes()].concat(),
            [&wire::RESPONSE_MAGIC[..], &wire::FRAME_VERSION.to_le_bytes()].concat(),
        ] {
            let framed = [&header[..], &raw].concat();
            for format in [&HOMF, &HOMM, &HOMR, &HOMQ, &HOMP] {
                outcome(format, &framed)?;
                if format.sealed {
                    outcome(format, &sealed(&framed))?;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn real_prefixes_with_arbitrary_tails_decode_or_fail_typed(
        snap in snapshot(),
        model in model_blob(),
        records in vec(record(), 1..3),
        cut in any::<u64>(),
        raw in vec(any::<u8>(), 0..48),
    ) {
        let records = records_blob(&records);
        for (format, encoding) in [(&HOMF, &snap), (&HOMM, &model), (&HOMR, &records)] {
            let body = &encoding[..encoding.len() - 8];
            let keep = (cut % (body.len() as u64 + 1)) as usize;
            outcome(format, &sealed(&[&body[..keep], &raw].concat()))?;
        }
    }
}

// ---------------------------------------------------------------------
// Damage: every truncation and every single-bit flip, as sent and
// re-sealed.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn damaged_snapshots_decode_or_fail_typed(bytes in snapshot()) {
        for bad in damaged_bytes(&bytes).iter().chain(&resealed_damage(&bytes)) {
            outcome(&HOMF, bad)?;
        }
    }

    #[test]
    fn damaged_records_decode_or_fail_typed(records in vec(record(), 1..3)) {
        let buf = records_blob(&records);
        for bad in damaged_bytes(&buf) {
            outcome(&HOMR, &bad)?;
        }
        // Re-seal the first record after damaging its body.
        let first = decode_at(&buf, 0).expect("own record decodes").1;
        for bad in resealed_damage(&buf[..first]) {
            outcome(&HOMR, &bad)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn damaged_request_frames_decode_or_fail_typed(batch in vec(request(), 1..3)) {
        let frame = wire::encode_requests(&batch).expect("finite attributes encode");
        for bad in damaged_bytes(&frame) {
            outcome(&HOMQ, &bad)?;
        }
    }

    #[test]
    fn damaged_response_frames_decode_or_fail_typed(responses in vec(response(), 1..3)) {
        let frame = wire::encode_responses(&responses);
        for bad in damaged_bytes(&frame) {
            outcome(&HOMP, &bad)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn damaged_models_decode_or_fail_typed(bytes in model_blob()) {
        for bad in damaged_bytes(&bytes).iter().chain(&resealed_damage(&bytes)) {
            outcome(&HOMM, bad)?;
        }
    }
}

// ---------------------------------------------------------------------
// Named cases.
// ---------------------------------------------------------------------

/// A HOMM blob of one concept whose Hoeffding tree is `leaves` bare
/// leaves, over a schema with one categorical attribute of `values`
/// values — all valid, sealed, and small.
fn wide_hoeffding_blob(values: usize, leaves: usize) -> Vec<u8> {
    let mut body = MODEL_MAGIC.to_vec();
    body.extend_from_slice(&MODEL_VERSION.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    let put_str = |body: &mut Vec<u8>, s: &str| {
        body.extend_from_slice(&(s.len() as u32).to_le_bytes());
        body.extend_from_slice(s.as_bytes());
    };
    body.extend_from_slice(&1u32.to_le_bytes());
    put_str(&mut body, "c");
    body.push(1);
    body.extend_from_slice(&(values as u32).to_le_bytes());
    for v in 0..values {
        put_str(&mut body, &v.to_string());
    }
    body.extend_from_slice(&2u32.to_le_bytes());
    put_str(&mut body, "a");
    put_str(&mut body, "b");
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&1u64.to_le_bytes());
    body.push(1); // Hoeffding tag
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&(leaves as u32).to_le_bytes());
    for _ in 0..leaves {
        body.push(0);
        body.extend_from_slice(&[0; 16]);
    }
    // `Len`, `Freq` and χ of a one-concept model: its last 24 bytes
    // before the trailer.
    let one = HighOrderModel::from_parts(
        Schema::new(vec![Attribute::numeric("x")], ["a", "b"]),
        vec![Concept {
            id: 0,
            model: Arc::clone(&classifier_pool()[0]),
            err: 0.5,
            n_records: 1,
            n_occurrences: 1,
        }],
        TransitionStats::from_occurrences(1, &[(0, 10)]),
    );
    let one = encode_model(&one, 0).expect("encodes");
    body.extend_from_slice(&one[one.len() - 32..one.len() - 8]);
    sealed(&body)
}

#[test]
fn many_hoeffding_leaves_over_a_wide_schema_decode_within_the_bound() {
    // Decoding used to give every leaf fresh attribute observers: one
    // count per (class, value) pair, 32 KB a leaf here, so this 49 KB
    // blob reserved 64 MB.
    let blob = wide_hoeffding_blob(2_000, 2_000);
    let ((model, _), allocated) = allocated_by(|| decode_model(&blob).expect("a valid model"));
    assert_eq!(model.n_concepts(), 1);
    assert!(
        allocated <= HOMM.alloc_per_byte * blob.len(),
        "{allocated} bytes allocated decoding {} input bytes",
        blob.len()
    );
    // The decoded tree still serves: every leaf predicts from its counts.
    assert_eq!(model.concepts()[0].model.predict(&[0.0]), 0);
}

#[test]
fn a_record_longer_than_its_buffer_is_incomplete() {
    let mut buf = Vec::new();
    encode_into(&mut buf, RecordKind::Snapshot, 1, 2, b"payload");
    buf[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    let (outcome, allocated) = allocated_by(|| decode_at(&buf, 0).map(|(_, len)| len));
    assert_eq!((outcome, allocated), (Err(DecodeFailure::Incomplete), 0));
}

#[test]
fn a_count_the_body_cannot_hold_is_refused_before_reserving() {
    // A header declaring u32::MAX elements, in a 20-byte body.
    let body = |magic: [u8; 4]| {
        let mut body = magic.to_vec();
        body.extend_from_slice(&wire::FRAME_VERSION.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.resize(20, 0);
        body
    };
    let truncated = Some(WireError::BadFrame {
        at: 10,
        what: "truncated",
    });
    let requests = body(wire::REQUEST_MAGIC);
    let (outcome, allocated) = allocated_by(|| wire::decode_requests(&requests));
    assert_eq!((outcome.err(), allocated), (truncated.clone(), 0));
    let responses = body(wire::RESPONSE_MAGIC);
    let (outcome, allocated) = allocated_by(|| wire::decode_responses(&responses));
    assert_eq!((outcome.err(), allocated), (truncated, 0));
    // An attribute count the body cannot hold, inside a sane batch.
    let mut body = wire::encode_requests(&[Request::Predict {
        stream: 1,
        x: vec![0.5],
    }])
    .expect("encodes");
    body[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        wire::decode_requests(&body).err(),
        Some(WireError::BadFrame {
            at: 23,
            what: "truncated"
        })
    );
}

#[test]
fn frame_edge_values_survive_bit_for_bit() {
    let batch = vec![
        Request::Observe {
            stream: u64::MAX,
            x: vec![-0.0, f64::from_bits(1), f64::MIN_POSITIVE, f64::MAX],
            y: u32::MAX,
        },
        Request::Advance {
            stream: (1 << 53) + 1,
            k: usize::MAX,
        },
    ];
    let frame = wire::encode_requests(&batch).expect("encodes");
    let back = wire::decode_requests(&frame).expect("decodes");
    assert_eq!(
        batch.iter().map(parts).collect::<Vec<_>>(),
        back.iter().map(parts).collect::<Vec<_>>()
    );
    let responses = vec![Response {
        stream: u64::MAX,
        prediction: Some(u32::MAX),
    }];
    let frame = wire::encode_responses(&responses);
    assert_eq!(wire::decode_responses(&frame), Ok(responses));
}
