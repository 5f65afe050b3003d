//! Output statistics for steady-state simulation.
//!
//! * [`Tally`] — observation-based statistics (e.g. per-message network
//!   latencies): mean, variance, extremes.
//! * [`TimeWeighted`] — time-integrated statistics (utilizations, queue
//!   lengths): the integral of a piecewise-constant signal divided by
//!   elapsed time.
//! * [`BatchMeans`] — steady-state confidence intervals by the method of
//!   non-overlapping batch means, with Student-t critical values.

/// A point estimate with a 95% confidence half-width (the unit in which
/// the simulators report every measure).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Batch-means point estimate.
    pub mean: f64,
    /// 95% CI half-width.
    pub ci: f64,
}

impl Estimate {
    /// Summarize a set of batch means.
    pub fn from_batches(b: &BatchMeans) -> Self {
        Estimate {
            mean: b.mean(),
            ci: b.ci_half_width(),
        }
    }

    /// Whether `value` lies inside the interval widened by `slack`.
    pub fn covers(&self, value: f64, slack: f64) -> bool {
        (value - self.mean).abs() <= self.ci + slack
    }
}

/// Observation-based statistics.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            // lt-lint: allow(LT04, fold seed: the documented min of an empty tally is +inf)
            min: f64::INFINITY,
            max: f64::NEG_INFINITY, // lt-lint: allow(LT04, fold seed for the running max)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Time-weighted statistics of a piecewise-constant signal.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: f64,
    last_time: f64,
    value: f64,
    area: f64,
}

impl TimeWeighted {
    /// Start integrating `initial` at time `start`.
    pub fn new(start: f64, initial: f64) -> Self {
        TimeWeighted {
            start,
            last_time: start,
            value: initial,
            area: 0.0,
        }
    }

    /// The signal changes to `value` at time `now`.
    pub fn set(&mut self, now: f64, value: f64) {
        debug_assert!(now >= self.last_time);
        self.area += self.value * (now - self.last_time);
        self.last_time = now;
        self.value = value;
    }

    /// Add `delta` to the signal at time `now`.
    pub fn add(&mut self, now: f64, delta: f64) {
        let v = self.value;
        self.set(now, v + delta);
    }

    /// Current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Time average over `[start, now]`.
    pub fn mean(&self, now: f64) -> f64 {
        let elapsed = now - self.start;
        if elapsed <= 0.0 {
            return self.value;
        }
        (self.area + self.value * (now - self.last_time)) / elapsed
    }

    /// Discard history before `now`: restart the integral with the current
    /// value (used for warm-up truncation).
    pub fn reset(&mut self, now: f64) {
        self.start = now;
        self.last_time = now;
        self.area = 0.0;
    }
}

/// Two-sided Student-t critical value at 95% confidence.
fn t_critical_95(df: u64) -> f64 {
    // Table for small df; normal quantile beyond.
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        // lt-lint: allow(LT04, df = 0 means no replicate data: the honest half-width is unbounded)
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=60 => 2.02,
        61..=120 => 2.0,
        _ => 1.96,
    }
}

/// Non-overlapping batch means with fixed batch *duration* (for
/// time-weighted signals) or fixed batch *count* (for tallies).
///
/// Feed per-batch means with [`BatchMeans::push_batch`]; the 95% CI uses
/// Student-t with `batches − 1` degrees of freedom.
#[derive(Debug, Clone, Default)]
pub struct BatchMeans {
    batches: Vec<f64>,
}

impl BatchMeans {
    /// An empty accumulator.
    pub fn new() -> Self {
        BatchMeans::default()
    }

    /// Record the mean of one completed batch.
    pub fn push_batch(&mut self, mean: f64) {
        self.batches.push(mean);
    }

    /// Number of completed batches.
    pub fn count(&self) -> usize {
        self.batches.len()
    }

    /// Grand mean over batches.
    pub fn mean(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.batches.iter().sum::<f64>() / self.batches.len() as f64
    }

    /// Half-width of the 95% confidence interval (0 with < 2 batches).
    pub fn ci_half_width(&self) -> f64 {
        let n = self.batches.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        t_critical_95((n - 1) as u64) * (var / n as f64).sqrt()
    }

    /// The 95% confidence interval `(lo, hi)`.
    pub fn ci(&self) -> (f64, f64) {
        let hw = self.ci_half_width();
        (self.mean() - hw, self.mean() + hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basics() {
        let mut t = Tally::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 4);
        assert_eq!(t.mean(), 2.5);
        assert!((t.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.sum(), 10.0);
    }

    #[test]
    fn tally_empty_and_single() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        let mut t = Tally::new();
        t.record(5.0);
        assert_eq!(t.mean(), 5.0);
        assert_eq!(t.variance(), 0.0);
    }

    #[test]
    fn time_weighted_square_wave() {
        // 0 for [0,1), 1 for [1,3), 0 for [3,4): mean = 2/4 = 0.5.
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(1.0, 1.0);
        tw.set(3.0, 0.0);
        assert!((tw.mean(4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_and_value() {
        let mut tw = TimeWeighted::new(0.0, 2.0);
        tw.add(1.0, 3.0);
        assert_eq!(tw.value(), 5.0);
        tw.add(2.0, -5.0);
        assert_eq!(tw.value(), 0.0);
        // 2 for [0,1), 5 for [1,2): mean over [0,2] = 3.5.
        assert!((tw.mean(2.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_reset_discards_warmup() {
        let mut tw = TimeWeighted::new(0.0, 100.0);
        tw.set(10.0, 1.0);
        tw.reset(10.0);
        assert!((tw.mean(20.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_with_pending_segment() {
        let tw = TimeWeighted::new(0.0, 3.0);
        // No changes recorded: mean is just the constant value.
        assert!((tw.mean(7.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_means_ci_shrinks_with_batches() {
        let mut few = BatchMeans::new();
        let mut many = BatchMeans::new();
        // Same alternating values; more batches -> narrower CI.
        for i in 0..4 {
            few.push_batch(if i % 2 == 0 { 1.0 } else { 2.0 });
        }
        for i in 0..64 {
            many.push_batch(if i % 2 == 0 { 1.0 } else { 2.0 });
        }
        assert!((few.mean() - 1.5).abs() < 1e-12);
        assert!((many.mean() - 1.5).abs() < 1e-12);
        assert!(many.ci_half_width() < few.ci_half_width());
        let (lo, hi) = many.ci();
        assert!(lo < 1.5 && 1.5 < hi);
    }

    #[test]
    fn batch_means_degenerate() {
        let mut b = BatchMeans::new();
        assert_eq!(b.mean(), 0.0);
        assert_eq!(b.ci_half_width(), 0.0);
        b.push_batch(2.0);
        assert_eq!(b.ci_half_width(), 0.0, "one batch has no CI");
    }

    #[test]
    fn t_table_monotone_toward_normal() {
        assert!(t_critical_95(1) > t_critical_95(5));
        assert!(t_critical_95(5) > t_critical_95(30));
        assert_eq!(t_critical_95(1_000_000), 1.96);
    }
}
