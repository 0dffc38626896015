//! Object-safe classifier and learner traits.

use hom_data::codec::Writer;
use hom_data::{ClassId, Instances};

use crate::flat::FlatTree;

/// A trained classification model.
///
/// Implementations must be `Send + Sync` because trained models are shared
/// read-only between the offline build and online prediction phases.
pub trait Classifier: Send + Sync {
    /// Number of classes the model can predict.
    fn n_classes(&self) -> usize;

    /// Predict the class of a record.
    fn predict(&self, x: &[f64]) -> ClassId;

    /// Write the class-probability distribution for `x` into `out`.
    ///
    /// `out.len()` must equal [`Classifier::n_classes`]. The written values
    /// are non-negative and sum to 1 (implementations use Laplace-smoothed
    /// estimates, so no class ever gets exactly zero probability).
    fn predict_proba(&self, x: &[f64], out: &mut [f64]);

    /// Approximate number of nodes/parameters, for complexity reporting.
    fn complexity(&self) -> usize {
        1
    }

    /// An exact structure-of-arrays re-layout of this model for the batch
    /// hot path, or `None` when the model has no flat form (the batch
    /// kernel then falls back to dynamic dispatch).
    ///
    /// Contract for implementations: the returned [`FlatTree`] must be
    /// **bit-identical** to `self` — same `predict` class and same
    /// `predict_proba` f64 bits for every input, including fallback paths
    /// for out-of-vocabulary categorical codes.
    fn flatten(&self) -> Option<FlatTree> {
        None
    }

    /// Append this classifier's wire blob (tag + payload, see
    /// [`crate::wire`]) to `w`, returning whether the classifier has a
    /// wire form at all. On `false` nothing is written.
    ///
    /// Contract: the classifier decoded from the written bytes
    /// ([`crate::wire::decode_classifier`]) must serve **bit-identically**
    /// to `self` — same `predict` class and same `predict_proba` f64 bits
    /// for every input. The default implementation rides on
    /// [`Classifier::flatten`], whose contract guarantees exactly that;
    /// classifiers without a flat form either override this with a
    /// dedicated encoding (Hoeffding trees) or stay node-local (naive
    /// Bayes returns `false`, and a model containing one is rejected by
    /// the model codec with a typed error).
    fn wire_encode(&self, w: &mut Writer<'_>) -> bool {
        match self.flatten() {
            Some(flat) => {
                w.put_u8(crate::wire::WIRE_TAG_FLAT);
                flat.wire_encode_into(w);
                true
            }
            None => false,
        }
    }
}

/// A learning algorithm that produces a [`Classifier`] from labeled data.
///
/// Object-safe so heterogeneous algorithm stacks (high-order model, RePro,
/// WCE) can share one learner instance via `Arc<dyn Learner>`.
pub trait Learner: Send + Sync {
    /// Train a model on `data`.
    ///
    /// Implementations must accept any non-empty view, including all-one-
    /// class and single-record views (the concept-clustering algorithm
    /// feeds such degenerate inputs for tiny clusters), and fall back to a
    /// sensible constant model in those cases.
    fn fit(&self, data: &dyn Instances) -> Box<dyn Classifier>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

/// Index of the maximum value (ties broken toward the lower index).
///
/// Used everywhere a probability vector is converted to a class decision,
/// so tie-breaking is consistent across the whole workspace.
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[0.2, 0.5, 0.5, 0.1]), 1);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[-3.0, -1.0, -2.0]), 1);
    }

    #[test]
    fn argmax_empty_is_zero() {
        assert_eq!(argmax(&[]), 0);
    }
}
