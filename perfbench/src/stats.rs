//! Order statistics over latency samples.

use std::time::Duration;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` of `xs`, or `None` unless at least
/// [`MIN_BEYOND_TAIL`] samples lie strictly beyond its rank.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank: the smallest k with k/n >= q/100.
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND_TAIL).then(|| s[rank - 1])
}

/// The highest of p99.9, p99 and p90 that [`tail`] reports, with its
/// label.
pub fn highest_tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    TAILS
        .iter()
        .zip(["p99.9", "p99", "p90"])
        .find_map(|(&q, label)| tail(xs, q).map(|v| (label, v)))
}

/// How much slower the median traced op is than the median untraced
/// one, in percent; 0 when either side has no samples.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    100.0 * (median(traced) / median(untraced) - 1.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90, with exactly 10 beyond it.
        assert_eq!(tail(&ramp(100), 90.0), Some(90.0));
        // With 99 samples the rank is still 90, leaving only 9 beyond.
        assert_eq!(tail(&ramp(99), 90.0), None);
        // p99 needs 1000 samples; p99.9 needs 10 000.
        assert_eq!(tail(&ramp(999), 99.0), None);
        assert_eq!(tail(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(tail(&ramp(9999), 99.9), None);
        assert_eq!(tail(&[], 90.0), None);
    }

    #[test]
    fn highest_tail_falls_back_to_lower_percentiles() {
        assert_eq!(highest_tail(&ramp(1000)), Some(("p99", 990.0)));
        assert_eq!(highest_tail(&ramp(150)), Some(("p90", 135.0)));
        assert_eq!(highest_tail(&ramp(50)), None);
    }
}
