//! Order statistics for timing samples.
//!
//! The reporting rule: a timing is summarised by its median, and a tail
//! percentile is reported only when at least [`TAIL_MIN_BEYOND`] samples lie
//! beyond it — with fewer, the "tail" would be one or two samples, which is
//! noise rather than a tail.

/// Samples that must lie strictly beyond a tail percentile for it to count.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Median (mean of the two middle samples for an even count). Panics on an
/// empty sample set: every reported metric has at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) together with the number of
/// samples strictly beyond its rank.
fn nearest_rank(v: &[f64], q: f64) -> (f64, usize) {
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (v[rank - 1], n - rank)
}

/// The `q`-quantile when at least [`TAIL_MIN_BEYOND`] samples lie beyond it,
/// `None` otherwise.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let (value, beyond) = nearest_rank(&sorted(samples), q);
    (beyond >= TAIL_MIN_BEYOND).then_some(value)
}

/// Smallest sample count for which [`tail`] reports the `q`-quantile.
pub fn samples_for_tail(q: f64) -> usize {
    (1..)
        .find(|&n| n - ((q * n as f64).ceil() as usize).clamp(1, n) >= TAIL_MIN_BEYOND)
        .expect("some count satisfies the rule")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: the p90 rank is 90, leaving 9 beyond — not a tail.
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&s, 0.9), None);
        // 100 samples: rank 90, exactly 10 beyond — reported.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.9), Some(90.0));
        assert_eq!(samples_for_tail(0.9), 100);
        // p99 needs a thousand samples.
        assert_eq!(tail(&s, 0.99), None);
        assert_eq!(samples_for_tail(0.99), 1000);
    }

    #[test]
    fn tail_ignores_sample_order() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        assert_eq!(tail(&s, 0.9), Some(180.0));
        assert_eq!(tail(&[], 0.5), None);
    }
}
