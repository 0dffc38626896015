//! Byte-level wire encoding of trained classifiers, for shipping a
//! mined model between cluster nodes.
//!
//! The cluster's model-distribution path (`hom-core`'s `model_codec`,
//! used by `hom-cluster-serve`'s two-phase swap) serializes every
//! concept's classifier into a self-describing byte blob:
//!
//! ```text
//! tag u8 · payload
//!   tag 0 — a FlatTree (structure-of-arrays tree; see FlatTree docs)
//!   tag 1 — a frozen HoeffdingTree (node structure + majority counts)
//! ```
//!
//! Every classifier with an exact [`crate::Classifier::flatten`] form
//! (decision trees, majority stubs, flat trees themselves) ships as its
//! [`FlatTree`] — the flatten contract guarantees the decoded tree
//! serves **bit-identically** to the source, which is what makes a
//! wire-distributed model produce the same prediction and posterior
//! bits on every node. The [`crate::HoeffdingTree`] (the fallback
//! learner `hom-adapt` admits novel concepts with) has **no** exact
//! flat form — its out-of-vocabulary categorical fallback walks to the
//! deepest first-child leaf while [`FlatTree`]'s stops at the split
//! node — so it gets a dedicated frozen encoding instead (tag 1).
//!
//! Decoding validates structure exhaustively (bounds, forward-only
//! child edges so descent always terminates, class/attribute ranges
//! against the schema) and returns a typed [`ClassifierWireError`] on
//! any malformed input — corrupt bytes must never panic a serving
//! node. Blobs are written and read with `hom_data::codec`'s `Writer` /
//! `Reader`, and every declared count (nodes, children) goes through
//! `Reader::count`, so a decode reserves no more than a constant times
//! the bytes it was given. Checksumming is the *container's* job:
//! `hom-core`'s model codec guards the whole model blob with the codec's
//! one FNV-1a seal.

use std::fmt;
use std::sync::Arc;

use hom_data::codec::{ReadError, Reader};
use hom_data::Schema;

use crate::api::Classifier;
use crate::flat::FlatTree;
use crate::hoeffding::HoeffdingTree;

/// Wire tag for a [`FlatTree`] payload.
pub const WIRE_TAG_FLAT: u8 = 0;
/// Wire tag for a frozen [`HoeffdingTree`] payload.
pub const WIRE_TAG_HOEFFDING: u8 = 1;

/// Why classifier bytes failed to decode. Mirrors `hom-core`'s
/// `SnapshotError` philosophy: a typed reason, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifierWireError {
    /// The input ended before the encoded structure did.
    Truncated,
    /// The bytes parse but describe an invalid structure (out-of-range
    /// index, backward child edge, unknown tag, …).
    Corrupt(&'static str),
}

impl fmt::Display for ClassifierWireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassifierWireError::Truncated => write!(f, "classifier bytes truncated"),
            ClassifierWireError::Corrupt(why) => write!(f, "corrupt classifier bytes: {why}"),
        }
    }
}

impl std::error::Error for ClassifierWireError {}

/// A codec failure inside a blob. Only `Truncated` can arise from the
/// reads a classifier makes; the rest map to [`ClassifierWireError::Corrupt`]
/// with the codec's reason.
impl From<ReadError> for ClassifierWireError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated => ClassifierWireError::Truncated,
            other => ClassifierWireError::Corrupt(other.into()),
        }
    }
}

/// Decode one classifier blob (tag + payload) from `r`, validating
/// every index against `schema`. The returned trait object serves
/// (`predict` / `predict_proba`) bit-identically to the encoded source
/// classifier.
pub fn decode_classifier(
    r: &mut Reader<'_>,
    schema: &Arc<Schema>,
) -> Result<Arc<dyn Classifier>, ClassifierWireError> {
    match r.take_u8()? {
        WIRE_TAG_FLAT => Ok(Arc::new(FlatTree::wire_decode(
            r,
            schema.n_attrs(),
            schema.n_classes(),
        )?)),
        WIRE_TAG_HOEFFDING => Ok(Arc::new(HoeffdingTree::wire_decode(r, schema)?)),
        _ => Err(ClassifierWireError::Corrupt("unknown classifier tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Learner;
    use crate::decision_tree::DecisionTreeLearner;
    use crate::hoeffding::HoeffdingParams;
    use crate::majority::MajorityClassifier;
    use crate::naive_bayes::NaiveBayesLearner;
    use hom_data::codec::Writer;
    use hom_data::{Attribute, Dataset};

    fn mixed_schema() -> Arc<Schema> {
        Schema::new(
            vec![
                Attribute::categorical("c", ["p", "q", "r"]),
                Attribute::numeric("x"),
            ],
            ["neg", "pos"],
        )
    }

    /// Probes covering interior paths, fallbacks, NaN and negatives.
    fn probes() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 0.1],
            vec![1.0, 0.9],
            vec![2.0, 0.5],
            vec![5.0, 0.5],  // out-of-vocabulary category
            vec![0.5, 0.5],  // fractional category
            vec![-1.0, 0.5], // negative category
            vec![-1.5, 0.5], // negative fractional category
            vec![0.0, f64::NAN],
        ]
    }

    fn assert_serves_identically(a: &dyn Classifier, b: &dyn Classifier, probes: &[Vec<f64>]) {
        let k = a.n_classes();
        assert_eq!(b.n_classes(), k);
        let mut pa = vec![0.0; k];
        let mut pb = vec![0.0; k];
        for x in probes {
            assert_eq!(a.predict(x), b.predict(x), "class diverged on {x:?}");
            a.predict_proba(x, &mut pa);
            b.predict_proba(x, &mut pb);
            let bits = |p: &[f64]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pa), bits(&pb), "proba bits diverged on {x:?}");
        }
    }

    #[test]
    fn decision_tree_round_trips_through_flat_wire() {
        let schema = mixed_schema();
        let mut d = Dataset::new(Arc::clone(&schema));
        for i in 0..120 {
            let c = (i % 3) as f64;
            let x = (i % 10) as f64 / 10.0;
            d.push(&[c, x], u32::from(c == 1.0 && x > 0.4));
        }
        let tree = DecisionTreeLearner::new().fit(&d);
        let mut bytes = Vec::new();
        assert!(
            tree.wire_encode(&mut Writer::new(&mut bytes)),
            "decision trees have a wire form"
        );
        assert_eq!(bytes[0], WIRE_TAG_FLAT);
        let mut r = Reader::new(&bytes);
        let back = decode_classifier(&mut r, &schema).expect("decodes");
        assert_eq!(r.offset(), bytes.len(), "decode consumed every byte");
        assert_serves_identically(tree.as_ref(), back.as_ref(), &probes());
    }

    #[test]
    fn majority_round_trips_through_flat_wire() {
        let schema = mixed_schema();
        let m = MajorityClassifier::from_counts(&[3, 7]);
        let mut bytes = Vec::new();
        assert!(m.wire_encode(&mut Writer::new(&mut bytes)));
        let mut r = Reader::new(&bytes);
        let back = decode_classifier(&mut r, &schema).expect("decodes");
        assert_serves_identically(&m, back.as_ref(), &probes());
    }

    #[test]
    fn hoeffding_round_trips_through_frozen_wire() {
        let schema = mixed_schema();
        let mut t = HoeffdingTree::new(Arc::clone(&schema), HoeffdingParams::default());
        let mut state = 5u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = ((state >> 33) % 3) as f64;
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            t.update(&[c, x], u32::from(c == 1.0));
        }
        assert!(
            t.n_nodes() > 1,
            "tree must have split to exercise structure"
        );
        let mut bytes = Vec::new();
        assert!(
            t.wire_encode(&mut Writer::new(&mut bytes)),
            "hoeffding trees have a wire form"
        );
        assert_eq!(bytes[0], WIRE_TAG_HOEFFDING);
        let mut r = Reader::new(&bytes);
        let back = decode_classifier(&mut r, &schema).expect("decodes");
        assert_eq!(r.offset(), bytes.len());
        assert_serves_identically(&t, back.as_ref(), &probes());
    }

    #[test]
    fn a_decoded_hoeffding_tree_trains_on_from_fresh_leaves() {
        // Decoded leaves carry no observers until first trained; training
        // must then start them from zero, as a fresh tree's are.
        let schema = mixed_schema();
        let mut bytes = Vec::new();
        HoeffdingTree::new(Arc::clone(&schema), HoeffdingParams::default())
            .wire_encode_into(&mut Writer::new(&mut bytes));
        let mut decoded =
            HoeffdingTree::wire_decode(&mut Reader::new(&bytes), &schema).expect("decodes");
        let mut fresh = HoeffdingTree::new(Arc::clone(&schema), HoeffdingParams::default());
        for i in 0..2000u64 {
            let x = [(i % 3) as f64, (i % 10) as f64 / 10.0];
            let y = u32::from(i % 3 == 1);
            decoded.update(&x, y);
            fresh.update(&x, y);
        }
        assert!(fresh.n_nodes() > 1, "the tree must have split");
        assert_eq!(decoded.n_nodes(), fresh.n_nodes());
        assert_serves_identically(&fresh, &decoded, &probes());
    }

    #[test]
    fn naive_bayes_has_no_wire_form() {
        let schema = Schema::new(vec![Attribute::numeric("x")], ["a", "b"]);
        let mut d = Dataset::new(schema);
        for i in 0..40 {
            d.push(&[i as f64], u32::from(i >= 20));
        }
        let nb = NaiveBayesLearner.fit(&d);
        let mut bytes = Vec::new();
        assert!(
            !nb.wire_encode(&mut Writer::new(&mut bytes)),
            "naive Bayes cannot be shipped"
        );
        assert!(bytes.is_empty(), "a refused encode writes nothing");
    }

    #[test]
    fn truncation_battery_every_prefix_errors() {
        let schema = mixed_schema();
        let mut t = HoeffdingTree::new(Arc::clone(&schema), HoeffdingParams::default());
        for i in 0..1000u64 {
            t.update(&[(i % 3) as f64, (i % 10) as f64 / 10.0], (i % 2) as u32);
        }
        let mut bytes = Vec::new();
        t.wire_encode(&mut Writer::new(&mut bytes));
        for cut in 0..bytes.len() {
            assert!(
                decode_classifier(&mut Reader::new(&bytes[..cut]), &schema).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let schema = mixed_schema();
        assert_eq!(
            decode_classifier(&mut Reader::new(&[9u8]), &schema).err(),
            Some(ClassifierWireError::Corrupt("unknown classifier tag"))
        );
    }
}
