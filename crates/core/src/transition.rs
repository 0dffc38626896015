//! Concept-change statistics and the transition kernel χ (Eq. 6).

use crate::filter::Width;

/// The high-order model's concept-change statistics:
///
/// * `Len_i` — mean occurrence length of concept `i` in records;
/// * `Freq_i` — frequency of concept `i` among all occurrences;
/// * `χ(i,j)` — the probability that the next record's concept is `j`
///   given the current record's concept is `i` (Eq. 6):
///
/// ```text
/// χ(i,i) = 1 − 1/Len_i
/// χ(i,j) = (1/Len_i) · Freq_j / (1 − Freq_i)        (i ≠ j)
/// ```
///
/// `1/Len_i` is the per-record probability of leaving concept `i`, and
/// `Freq_j / (1 − Freq_i)` distributes the exit mass over the other
/// concepts proportionally to how often they occur in history.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionStats {
    n: usize,
    /// Mean occurrence length per concept.
    len: Vec<f64>,
    /// Occurrence frequency per concept.
    freq: Vec<f64>,
    /// Row-major `χ[i * n + j]`.
    chi: Vec<f64>,
}

impl TransitionStats {
    /// Build the statistics from the historical sequence of concept
    /// occurrences, each `(concept_id, length_in_records)`. Adjacent
    /// occurrences of the same concept should already be coalesced (the
    /// builder does this); if not, they are counted as separate
    /// occurrences, which only biases `Len` downward.
    ///
    /// # Panics
    /// Panics if `occurrences` is empty, a length is zero, or a concept id
    /// is `>= n_concepts`.
    pub fn from_occurrences(n_concepts: usize, occurrences: &[(usize, usize)]) -> Self {
        assert!(!occurrences.is_empty(), "need at least one occurrence");
        let mut count = vec![0usize; n_concepts];
        let mut records = vec![0usize; n_concepts];
        for &(c, len) in occurrences {
            assert!(c < n_concepts, "occurrence of unknown concept {c}");
            assert!(len > 0, "zero-length occurrence");
            count[c] += 1;
            records[c] += len;
        }
        Self::from_totals(&count, &records)
    }

    /// Build the statistics from per-concept totals: `count[c]` historical
    /// occurrences of concept `c` spanning `records[c]` records in all.
    /// This is the sufficient statistic of [`Self::from_occurrences`]
    /// (`Len` and `Freq` only depend on the totals, not the order), and it
    /// is what the incremental model-maintenance path has once the
    /// occurrence sequence itself is no longer retained: a mined model
    /// stores each concept's `n_occurrences`/`n_records`, so admitting a
    /// new concept or recording a new occurrence of a known one
    /// re-derives an exactly re-normalized kernel χ from the updated
    /// totals (see `HighOrderModel::admit_concept`).
    ///
    /// # Panics
    /// Panics if the slices disagree in length, no concept has an
    /// occurrence, or some concept has occurrences but no records.
    pub fn from_totals(count: &[usize], records: &[usize]) -> Self {
        assert_eq!(count.len(), records.len(), "totals must align");
        let n_concepts = count.len();
        for (c, (&k, &r)) in count.iter().zip(records).enumerate() {
            assert!(
                k == 0 || r >= k,
                "concept {c}: {k} occurrences need at least {k} records, got {r}"
            );
        }

        let total_occ: usize = count.iter().sum();
        assert!(total_occ > 0, "need at least one occurrence");
        // A concept that never occurs (possible only if the caller passes
        // a larger n_concepts than the data supports) gets Len 1 and
        // Freq 0, making it immediately exited and never entered.
        let len: Vec<f64> = count
            .iter()
            .zip(records)
            .map(|(&c, &r)| if c > 0 { r as f64 / c as f64 } else { 1.0 })
            .collect();
        let freq: Vec<f64> = count.iter().map(|&c| c as f64 / total_occ as f64).collect();

        let mut chi = vec![0.0; n_concepts * n_concepts];
        if n_concepts == 1 {
            chi[0] = 1.0;
        } else {
            for i in 0..n_concepts {
                let leave = 1.0 / len[i].max(1.0);
                let stay = 1.0 - leave;
                let denom = 1.0 - freq[i];
                for j in 0..n_concepts {
                    chi[i * n_concepts + j] = if i == j {
                        stay
                    } else if denom > 0.0 {
                        leave * freq[j] / denom
                    } else {
                        // freq[i] == 1: history never saw another concept;
                        // spread the exit mass uniformly.
                        leave / (n_concepts - 1) as f64
                    };
                }
            }
        }

        TransitionStats {
            n: n_concepts,
            len,
            freq,
            chi,
        }
    }

    /// Number of concepts.
    pub fn n_concepts(&self) -> usize {
        self.n
    }

    /// Mean occurrence length of concept `i`.
    pub fn len(&self, i: usize) -> f64 {
        self.len[i]
    }

    /// Occurrence frequency of concept `i`.
    pub fn freq(&self, i: usize) -> f64 {
        self.freq[i]
    }

    /// `χ(i,j)`.
    pub fn chi(&self, i: usize, j: usize) -> f64 {
        self.chi[i * self.n + j]
    }

    /// The raw `(len, freq, chi)` vectors, for the model wire codec —
    /// serialized as f64 bits so a decoded kernel is bit-identical to
    /// the encoded one (`from_totals` is *not* re-run on the far side:
    /// Eq. 6 re-derivation would be value-equal but the cluster's
    /// differential bar demands bit equality without trusting float
    /// expression ordering across builds).
    pub(crate) fn raw_parts(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.len, &self.freq, &self.chi)
    }

    /// Rebuild from raw vectors (the model wire codec's decode side).
    /// Lengths are validated; the values themselves are trusted as far
    /// as being the paper's Eq. 6 quantities goes — the codec's FNV-1a
    /// trailer already guards against transport corruption.
    pub(crate) fn from_raw_parts(
        n_concepts: usize,
        len: Vec<f64>,
        freq: Vec<f64>,
        chi: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if len.len() != n_concepts || freq.len() != n_concepts {
            return Err("Len/Freq length mismatch");
        }
        if chi.len() != n_concepts * n_concepts {
            return Err("chi is not n_concepts squared");
        }
        Ok(TransitionStats {
            n: n_concepts,
            len,
            freq,
            chi,
        })
    }

    /// One step of the prior update (Eq. 5): `out[c] = Σᵢ p[i]·χ(i,c)`.
    ///
    /// # Panics
    /// Panics if slice lengths don't match `n_concepts`.
    pub fn advance(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n);
        assert_eq!(out.len(), self.n);
        self.advance_at(self.n, p, out);
    }

    /// The Eq. 5 step at width `k` (see [`Width`]): the form the filter
    /// core runs, with a compile-time `k` on the serving kernel. Reads
    /// `p[..k]` and writes `out[..k]`; rows with `p[i] == 0` are skipped.
    ///
    /// # Panics
    /// Panics if `k` is not this kernel's concept count, or a slice is
    /// shorter than `k`.
    #[inline]
    pub(crate) fn advance_at<K: Width>(&self, k: K, p: &[f64], out: &mut [f64]) {
        let n = k.get();
        assert_eq!(self.n, n, "transition kernel width");
        let chi = &self.chi[..n * n];
        let out = &mut out[..n];
        out.fill(0.0);
        for (i, &pi) in p[..n].iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            let row = &chi[i * n..(i + 1) * n];
            for (o, &x) in out.iter_mut().zip(row) {
                *o += pi * x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> TransitionStats {
        // A B A C — lengths 100, 50, 100, 50
        TransitionStats::from_occurrences(3, &[(0, 100), (1, 50), (0, 100), (2, 50)])
    }

    #[test]
    fn lengths_and_frequencies() {
        let s = stats();
        assert_eq!(s.len(0), 100.0);
        assert_eq!(s.len(1), 50.0);
        assert_eq!(s.freq(0), 0.5);
        assert_eq!(s.freq(1), 0.25);
        assert_eq!(s.freq(2), 0.25);
    }

    #[test]
    fn chi_rows_sum_to_one() {
        let s = stats();
        for i in 0..3 {
            let sum: f64 = (0..3).map(|j| s.chi(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn chi_matches_eq6() {
        let s = stats();
        // χ(0,0) = 1 − 1/100
        assert!((s.chi(0, 0) - 0.99).abs() < 1e-12);
        // χ(0,1) = (1/100) · 0.25/(1−0.5) = 0.005
        assert!((s.chi(0, 1) - 0.005).abs() < 1e-12);
        // χ(1,0) = (1/50) · 0.5/(0.75)
        assert!((s.chi(1, 0) - 0.02 * 0.5 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn advance_preserves_probability_mass() {
        let s = stats();
        let p = [0.7, 0.2, 0.1];
        let mut out = [0.0; 3];
        s.advance(&p, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Mass mostly stays where it was (long concepts).
        assert!(out[0] > 0.65);
    }

    #[test]
    fn advance_from_point_mass_matches_row() {
        let s = stats();
        let p = [0.0, 1.0, 0.0];
        let mut out = [0.0; 3];
        s.advance(&p, &mut out);
        for (j, &o) in out.iter().enumerate() {
            assert!((o - s.chi(1, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn single_concept_is_absorbing() {
        let s = TransitionStats::from_occurrences(1, &[(0, 500)]);
        assert_eq!(s.chi(0, 0), 1.0);
        let mut out = [0.0];
        s.advance(&[1.0], &mut out);
        assert_eq!(out[0], 1.0);
    }

    #[test]
    fn unseen_concept_gets_zero_frequency() {
        let s = TransitionStats::from_occurrences(3, &[(0, 10), (1, 10)]);
        assert_eq!(s.freq(2), 0.0);
        // nobody transitions into concept 2
        assert_eq!(s.chi(0, 2), 0.0);
        assert_eq!(s.chi(1, 2), 0.0);
    }

    #[test]
    fn totals_are_a_sufficient_statistic() {
        // Same totals as `stats()` (A B A C): the kernel must be
        // bit-identical whether built from the sequence or the totals.
        let a = stats();
        let b = TransitionStats::from_totals(&[2, 1, 1], &[200, 50, 50]);
        assert_eq!(a, b);
    }

    #[test]
    fn totals_extended_by_one_concept_renormalize() {
        let s = TransitionStats::from_totals(&[2, 1, 1, 1], &[200, 50, 50, 120]);
        assert_eq!(s.n_concepts(), 4);
        assert_eq!(s.freq(3), 0.2);
        assert_eq!(s.len(3), 120.0);
        for i in 0..4 {
            let sum: f64 = (0..4).map(|j| s.chi(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            // every concept is now reachable from every other
            for j in 0..4 {
                if i != j {
                    assert!(s.chi(i, j) > 0.0, "χ({i},{j}) = 0");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one occurrence")]
    fn rejects_all_zero_totals() {
        TransitionStats::from_totals(&[0, 0], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "unknown concept")]
    fn rejects_out_of_range_concept() {
        TransitionStats::from_occurrences(2, &[(5, 10)]);
    }

    #[test]
    #[should_panic(expected = "at least one occurrence")]
    fn rejects_empty_history() {
        TransitionStats::from_occurrences(2, &[]);
    }
}
