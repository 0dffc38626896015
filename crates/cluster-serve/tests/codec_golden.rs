//! Golden corpus: every binary format's encoding of a fixed input,
//! pinned by length and FNV-1a digest.
//!
//! The corpus covers HOMF (version 2, and version 1 as an older writer
//! laid it out), HOMM (majority, decision-tree and Hoeffding concepts),
//! HOMR (snapshot, tombstone and commit records), the HOMS file header
//! and the HOMQ/HOMP frames. A change to any codec that moves one byte
//! of these encodings fails here, so "the encodings are byte-identical"
//! is a standing check rather than a one-off diff. Each encoding is also
//! decoded back, so the pinned bytes are known to be readable.
//!
//! The inputs avoid anything platform-dependent where they can: the
//! snapshots and frames are built from literal values, and only the
//! model's trees come out of (deterministic) training.

use std::sync::Arc;

use hom_classifiers::{
    Classifier, DecisionTreeLearner, HoeffdingParams, HoeffdingTree, Learner, MajorityClassifier,
};
use hom_cluster_serve::wire;
use hom_core::{
    decode_model, encode_model, encode_snapshot, fnv1a, model_epoch, snapshot_epoch, Concept,
    HighOrderModel, SnapshotRef, TransitionStats, SNAPSHOT_MAGIC,
};
use hom_data::{Attribute, Dataset, Schema};
use hom_serve::{Request, Response};
use hom_store::{decode_at, encode_into, segment_header, RecordKind};

/// An encoding's length and FNV-1a digest, as the corpus pins them.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv1a(bytes))
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

/// A fixed pseudo-random stream of `(c, x)` records.
fn records(seed: u64, n: usize) -> Vec<[f64; 2]> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            [
                ((state >> 33) % 3) as f64,
                ((state >> 11) % 1000) as f64 / 1000.0,
            ]
        })
        .collect()
}

fn decision_tree(schema: &Arc<Schema>) -> Arc<dyn Classifier> {
    let mut d = Dataset::new(Arc::clone(schema));
    for [c, x] in records(3, 400) {
        d.push(&[c, x], u32::from(c == 1.0 || x > 0.7));
    }
    Arc::from(DecisionTreeLearner::new().fit(&d))
}

fn hoeffding(schema: &Arc<Schema>) -> Arc<dyn Classifier> {
    let mut t = HoeffdingTree::new(Arc::clone(schema), HoeffdingParams::default());
    for [c, x] in records(17, 4000) {
        t.update(&[c, x], u32::from(c == 2.0));
    }
    assert!(t.n_nodes() > 1, "the tree must have split");
    Arc::new(t)
}

/// Three concepts, one of each classifier wire form: a majority stub and
/// a decision tree (both shipped as flat trees) and a Hoeffding tree.
fn model() -> HighOrderModel {
    let schema = schema();
    let classifiers = [
        Arc::new(MajorityClassifier::from_counts(&[10, 3])) as Arc<dyn Classifier>,
        decision_tree(&schema),
        hoeffding(&schema),
    ];
    let concepts = classifiers
        .into_iter()
        .enumerate()
        .map(|(id, model)| Concept {
            id,
            model,
            err: 0.0625 * (id + 1) as f64,
            n_records: 100 + id,
            n_occurrences: 1 + id,
        })
        .collect();
    let stats = TransitionStats::from_occurrences(3, &[(0, 50), (1, 60), (2, 40), (0, 30)]);
    HighOrderModel::from_parts(schema, concepts, stats)
}

/// The three concepts' filter state as literal parts.
const POSTERIOR: [f64; 3] = [0.25, 0.5, 0.25];
const PRIOR: [f64; 3] = [0.125, 0.375, 0.5];
const ORDER: [u32; 3] = [2, 0, 1];

fn homf_v2() -> Vec<u8> {
    let mut out = Vec::new();
    encode_snapshot(&mut out, 7, &POSTERIOR, &PRIOR, &ORDER);
    out
}

/// The same state laid out as version 1 (no epoch field), as every
/// build before model maintenance wrote it.
fn homf_v1() -> Vec<u8> {
    let mut out = SNAPSHOT_MAGIC.to_vec();
    out.extend_from_slice(&1u16.to_le_bytes());
    out.extend_from_slice(&3u32.to_le_bytes());
    for v in POSTERIOR.iter().chain(&PRIOR) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for c in ORDER {
        out.extend_from_slice(&c.to_le_bytes());
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn read_back(bytes: &[u8]) -> (Vec<u64>, Vec<u64>, Vec<u32>) {
    let snap = SnapshotRef::parse(bytes).expect("the pinned snapshot parses");
    let (mut posterior, mut prior, mut order) = ([0.0; 3], [0.0; 3], [0u32; 3]);
    snap.read_into(&mut posterior, &mut prior, &mut order);
    let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect();
    (bits(&posterior), bits(&prior), order.to_vec())
}

#[test]
fn homf_encodings_are_pinned() {
    let v2 = homf_v2();
    assert_eq!(pin(&v2), (82, 0x314d_a5d7_f275_14a2));
    assert_eq!(snapshot_epoch(&v2), Some(7));
    let v1 = homf_v1();
    assert_eq!(pin(&v1), (78, 0x78cb_09c5_aa91_a426));
    assert_eq!(snapshot_epoch(&v1), Some(0));
    let want = (
        POSTERIOR.iter().map(|v| v.to_bits()).collect(),
        PRIOR.iter().map(|v| v.to_bits()).collect(),
        ORDER.to_vec(),
    );
    assert_eq!(read_back(&v2), want);
    assert_eq!(read_back(&v1), want);
}

#[test]
fn homm_encoding_is_pinned() {
    let m = model();
    let bytes = encode_model(&m, 5).expect("every concept has a wire form");
    assert_eq!(pin(&bytes), (751, 0xe295_cac3_7bf9_f5d1));
    assert_eq!(model_epoch(&bytes), Some(5));
    let (back, epoch) = decode_model(&bytes).expect("the pinned model decodes");
    assert_eq!(epoch, 5);
    assert_eq!(
        encode_model(&back, 5).expect("re-encodes"),
        bytes,
        "a decoded model re-encodes to the same bytes"
    );
}

#[test]
fn homr_and_homs_encodings_are_pinned() {
    assert_eq!(pin(&segment_header()), (8, 0x412c_1cc9_715e_fa35));
    let snapshot = homf_v2();
    let mut file = segment_header().to_vec();
    let mut pins = Vec::new();
    for (kind, stream, seq, payload) in [
        (RecordKind::Snapshot, 42, 9, &snapshot[..]),
        (RecordKind::Tombstone, 43, 10, &[][..]),
        (RecordKind::Commit, 0, 11, &[][..]),
    ] {
        let start = file.len();
        let len = encode_into(&mut file, kind, stream, seq, payload);
        pins.push(pin(&file[start..]));
        let (rec, read) = decode_at(&file, start).expect("the pinned record decodes");
        assert_eq!(
            (rec.kind, rec.stream, rec.seq, rec.payload, read),
            (kind, stream, seq, payload, len)
        );
    }
    assert_eq!(
        pins,
        vec![
            (115, 0x4421_bac0_3617_62b7),
            (33, 0xd883_ca49_367d_e5d5),
            (33, 0x918b_4e23_6f36_7148),
        ]
    );
    assert_eq!(pin(&file), (189, 0xa03b_8ea6_189a_3c8e));
}

#[test]
fn frame_encodings_are_pinned() {
    let batch = vec![
        Request::Predict {
            stream: 7,
            x: vec![1.0, 0.5],
        },
        Request::Observe {
            stream: u64::MAX,
            x: vec![-0.0, 0.30000000000000004],
            y: 1,
        },
        Request::Step {
            stream: 9,
            x: vec![2.0, 0.25],
            y: u32::MAX,
        },
        Request::Advance { stream: 9, k: 3 },
    ];
    let requests = wire::encode_requests(&batch).expect("finite attributes encode");
    assert_eq!(pin(&requests), (122, 0x839a_648c_6ffb_74f4));
    assert_eq!(
        wire::decode_requests(&requests).expect("decodes").len(),
        batch.len()
    );
    let responses = vec![
        Response {
            stream: 7,
            prediction: Some(1),
        },
        Response {
            stream: 9,
            prediction: None,
        },
    ];
    let frame = wire::encode_responses(&responses);
    assert_eq!(pin(&frame), (32, 0xdd5c_e5cf_1803_1030));
    assert_eq!(wire::decode_responses(&frame), Ok(responses));
}
