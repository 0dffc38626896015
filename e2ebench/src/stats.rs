//! Order statistics with the benchmark's reporting rule.

/// Samples that must lie beyond a percentile before it is reported: a
/// tail figure resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile of `values` (`0 < p < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile rank must be inside (0, 1)");
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The middle value (mean of the two middle ones for an even count).
///
/// # Panics
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the function must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, ten beyond — reported.
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        // 199 samples: rank 190 (ceil of 189.05), nine beyond — withheld.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert_eq!(percentile(&[], 0.95), None);
    }

    #[test]
    fn median_percentile_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
