//! Order statistics with sample floors.
//!
//! A median of ten samples or a p99 read off its largest sample is noise
//! with a name. The helpers here refuse such numbers: a p50 needs
//! [`P50_FLOOR`] samples and a tail percentile needs [`TAIL_FLOOR`]
//! samples beyond it. Smoke and probe code that only needs *a* number
//! says so explicitly with [`Floors::Relaxed`].

/// Fewest samples a reported p50 may rest on.
pub const P50_FLOOR: usize = 200;
/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_FLOOR: usize = 10;

/// Whether the sample floors are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Floors {
    /// Refuse (`None`) below the floors: committed-size runs.
    Enforced,
    /// Best available order statistic: smoke runs and per-layer probes,
    /// which print their `n` instead.
    Relaxed,
}

/// Sort a sample ascending (total order; the inputs are finite timings).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank index of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of an ascending sample; `None` when empty or under the floor.
pub fn p50(sorted: &[f64], floors: Floors) -> Option<f64> {
    if sorted.is_empty() || (floors == Floors::Enforced && sorted.len() < P50_FLOOR) {
        return None;
    }
    Some(sorted[rank(sorted.len(), 0.5)])
}

/// Nearest-rank percentile `q` of an ascending sample. Enforced, it is
/// `None` unless at least [`TAIL_FLOOR`] samples lie beyond the order
/// statistic (a p99 needs n ≥ 1000). Relaxed, it falls back to the
/// highest order statistic that still has [`TAIL_FLOOR`] samples beyond
/// it, or the plain nearest rank of a sample too small even for that.
pub fn tail(sorted: &[f64], q: f64, floors: Floors) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let idx = rank(n, q);
    if n - 1 - idx >= TAIL_FLOOR {
        return Some(sorted[idx]);
    }
    match floors {
        Floors::Enforced => None,
        Floors::Relaxed if n > TAIL_FLOOR => Some(sorted[n - TAIL_FLOOR - 1]),
        Floors::Relaxed => Some(sorted[idx]),
    }
}

/// Median of an unsorted, non-empty sample, without floors (used for
/// medians over a handful of repeated set-ups or probe repetitions,
/// where the count is fixed by construction and printed).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them: the driver judges spread with that function, so the
/// noise gate must too. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(999), 0.99, Floors::Enforced), None);
        assert_eq!(tail(&ramp(1000), 0.99, Floors::Enforced), Some(990.0));
        assert_eq!(tail(&ramp(5000), 0.99, Floors::Enforced), Some(4950.0));
        assert_eq!(tail(&[], 0.99, Floors::Relaxed), None);
    }

    #[test]
    fn relaxed_tail_uses_the_highest_supported_order_statistic() {
        // n = 500: p99 would sit at index 494 with 5 beyond; relaxed
        // steps back to index 489 (10 beyond).
        assert_eq!(tail(&ramp(500), 0.99, Floors::Relaxed), Some(490.0));
        assert_eq!(tail(&ramp(4), 0.99, Floors::Relaxed), Some(4.0));
    }

    #[test]
    fn p50_needs_two_hundred_samples() {
        assert_eq!(p50(&ramp(199), Floors::Enforced), None);
        assert_eq!(p50(&ramp(200), Floors::Enforced), Some(100.0));
        assert_eq!(p50(&ramp(3), Floors::Relaxed), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10));
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
