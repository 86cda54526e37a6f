//! Order statistics for the end-to-end timings.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count; NaN when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Its percentile rank, `100 · (rank + 1) / samples`.
    pub percentile: f64,
    /// Samples ranked above it (below [`TAIL_BEYOND`] only when the
    /// whole sample is too small, in which case `value` is the maximum).
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// The tail of a sample by the "at least ten samples beyond" rule:
/// with `n` samples the reported value is the one ranked
/// `n − 1 − TAIL_BEYOND` (0-based, ascending). Samples of at most
/// `TAIL_BEYOND` values fall back to their maximum. `None` when empty.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_BEYOND {
        n - 1 - TAIL_BEYOND
    } else {
        n - 1
    };
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: n - 1 - rank,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the 90th value has exactly ten above it → p90.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("non-empty");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, TAIL_BEYOND);
        assert_eq!(t.percentile, 90.0);
        // 1000 samples → p99.0 (rank 989, ten above).
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let t = tail(&v).expect("non-empty");
        assert_eq!((t.value, t.beyond, t.percentile), (989.0, 10, 99.0));
        // Eleven samples: the smallest is the only one with ten beyond.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&v).expect("non-empty");
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[2.0, 7.0, 5.0]).expect("non-empty");
        assert_eq!((t.value, t.beyond, t.percentile), (7.0, 0, 100.0));
        assert!(tail(&[]).is_none());
    }
}
