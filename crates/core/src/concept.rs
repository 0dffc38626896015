//! A mined stable concept.

use std::sync::Arc;

use hom_classifiers::Classifier;

/// One stable concept of the high-order model: its classifier and the
/// statistics the online filter needs.
///
/// Cloning is cheap: the classifier is shared behind an [`Arc`], so the
/// incremental model-extension path ([`crate::HighOrderModel::admit_concept`]
/// / [`crate::HighOrderModel::record_occurrence`]) can assemble a new
/// model without retraining or copying any classifier.
#[derive(Clone)]
pub struct Concept {
    /// Dense id (index into [`crate::HighOrderModel`]'s concept list).
    pub id: usize,
    /// Classifier for this concept. By default trained on *all* records of
    /// the concept (every occurrence scattered across the stream) — the
    /// paper's key advantage over window-based methods.
    pub model: Arc<dyn Classifier>,
    /// Holdout-validated error rate `Err_c`, used by `ψ` (Eq. 8). Clamped
    /// away from exactly 0/1 so `ψ` never annihilates a concept's
    /// probability on a single lucky or noisy record.
    pub err: f64,
    /// Total records of this concept in the historical stream.
    pub n_records: usize,
    /// Number of occurrences (maximal runs) in the historical stream.
    pub n_occurrences: usize,
}

impl Concept {
    /// `ψ(c, yₜ)` (Eq. 8): the likelihood proxy for a labeled record —
    /// `1 − Err_c` if this concept's model classifies it correctly,
    /// `Err_c` otherwise.
    pub fn psi(&self, x: &[f64], y: u32) -> f64 {
        let (hit, miss) = self.psi_outcomes();
        if self.model.predict(x) == y {
            hit
        } else {
            miss
        }
    }

    /// The two values `ψ(c, yₜ)` takes (Eq. 8): `(1 − Err_c, Err_c)`, for
    /// a correct and a wrong prediction — what the compiled kernel
    /// tabulates per concept.
    pub fn psi_outcomes(&self) -> (f64, f64) {
        (1.0 - self.err, self.err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hom_classifiers::MajorityClassifier;

    fn concept(err: f64) -> Concept {
        Concept {
            id: 0,
            // always predicts class 1 (counts favor class 1)
            model: Arc::new(MajorityClassifier::from_counts(&[1, 3])),
            err,
            n_records: 4,
            n_occurrences: 1,
        }
    }

    #[test]
    fn psi_rewards_correct_prediction() {
        let c = concept(0.1);
        assert!((c.psi(&[0.0], 1) - 0.9).abs() < 1e-12);
        assert!((c.psi(&[0.0], 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn psi_is_symmetric_at_half_error() {
        let c = concept(0.5);
        assert_eq!(c.psi(&[0.0], 1), c.psi(&[0.0], 0));
    }
}
