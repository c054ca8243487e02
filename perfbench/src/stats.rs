//! Order statistics for timing samples.

/// The percentiles a tail may be reported at, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p * n` from bumping an exact
    // rank (99.9% of 10 000 is rank 9990, not 9991).
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile of ascending `sorted` samples, nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether `p` is reportable from `n` samples: at least
/// [`MIN_BEYOND`] samples lie above its nearest-rank position.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest [`LADDER`] percentile reportable from `n` samples, if
/// any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|p| supports(n, *p))
}

pub use govhost::stats::descriptive::median;

/// The interquartile mean: the mean of the middle half of the samples,
/// dropping `(n + 1) / 4` from each end (so three samples give their
/// median, two their mean). Unlike the median it does not jump between
/// the modes of a two-humped distribution, and unlike the mean it
/// ignores the outer quarters.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    let s = sorted(samples.to_vec());
    let cut = (s.len() + 1) / 4;
    let middle = &s[cut..s.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Sort samples ascending.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(10), None);
        // 20 samples: the median sits at rank 10, ten above it.
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        assert_eq!(highest_supported(10_000_000), Some(99.999));
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles_and_interquartile_means() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(sorted(vec![2.0, 1.0]), vec![1.0, 2.0]);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 2.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0]), 2.0);
        // Eight samples: the outer two on each side are dropped.
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 4.0, 5.0, 6.0, 7.0, 0.0, 50.0]),
            5.5
        );
    }
}
