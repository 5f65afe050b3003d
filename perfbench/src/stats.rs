//! The percentile rule: a timing is reported at a percentile only when
//! at least [`MIN_BEYOND`] samples lie beyond it. Failed requests enter
//! the samples as `+∞`, so they push every percentile up and are never
//! dropped.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn nearest_rank(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).map(|&v| (v, n - rank))
}

/// Nearest-rank percentile `q` of `samples` (for the median; tails go
/// through [`quantile`]).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    nearest_rank(samples, q).map(|(v, _)| v)
}

/// Nearest-rank quantile `q` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    nearest_rank(samples, q)
        .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
        .map(|(v, _)| v)
}

/// Quantile `q`, or the highest quantile below it that the sample
/// supports. Per-layer tails use this: a layer that saw few operations
/// reports the tail it can.
pub fn supported_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    quantile(samples, q.min((n - MIN_BEYOND) as f64 / n as f64))
}

/// Median of a non-empty list of finite values, interpolating between
/// the middle pair (used to summarise repeated measurements, not tails).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), None, "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0; 10], 0.5), None);
        assert_eq!(quantile(&[1.0; 20], 0.5), Some(1.0));
        // The median itself is always reported.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(1980.0));
        // 30 failures: the p99 rank now falls inside them.
        v.extend(std::iter::repeat_n(f64::INFINITY, 30));
        assert_eq!(quantile(&v, 0.99), Some(f64::INFINITY));
        // Failures are never dropped: p50 moves up by their share too.
        let p50 = percentile(&v, 0.5).unwrap();
        assert!(p50 > 1000.0, "{p50}");
    }

    #[test]
    fn supported_quantile_falls_back_to_the_tail_the_sample_has() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_quantile(&v, 0.99), Some(90.0));
        assert_eq!(supported_quantile(&v[..10], 0.99), None);
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(supported_quantile(&v, 0.99), Some(4950.0));
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
