//! Streaming quantile estimation — the P² algorithm (Jain & Chlamtac,
//! 1985).
//!
//! Latency *tails* matter as much as means when judging whether a latency
//! is tolerated; storing every observation of a 100k-cycle run is wasteful,
//! and the P² estimator tracks any single quantile in O(1) space by
//! maintaining five markers whose heights are adjusted with a piecewise-
//! parabolic prediction.

/// Streaming estimator of one quantile `q ∈ (0, 1)`.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (sorted observations / interpolated).
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Estimator for quantile `q` (e.g. `0.95`). Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must lie strictly in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Which quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;

        // Find the cell k with heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers.
        for i in 1..4 {
            let delta = self.desired[i] - self.positions[i];
            let step_right = self.positions[i + 1] - self.positions[i];
            let step_left = self.positions[i - 1] - self.positions[i];
            if (delta >= 1.0 && step_right > 1.0) || (delta <= -1.0 && step_left < -1.0) {
                let d = delta.signum();
                let parabolic = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate (exact order statistic below 5 samples;
    /// 0 when empty).
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count < 5 {
            let mut v: Vec<f64> = self.heights[..self.count].to_vec();
            v.sort_by(f64::total_cmp);
            let rank = (self.q * (self.count - 1) as f64).round() as usize;
            return v[rank];
        }
        self.heights[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn exponential_p95_converges() {
        // Exponential(mean 1): p95 = -ln(0.05) = 2.9957.
        let mut est = P2Quantile::new(0.95);
        let mut rng = SimRng::new(3);
        for _ in 0..200_000 {
            est.record(rng.exponential(1.0));
        }
        let p95 = est.estimate();
        assert!((p95 - 2.9957).abs() < 0.1, "p95 = {p95}");
    }

    #[test]
    fn median_of_uniform() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = SimRng::new(5);
        for _ in 0..100_000 {
            est.record(rng.uniform01());
        }
        assert!((est.estimate() - 0.5).abs() < 0.02);
    }

    #[test]
    fn small_samples_use_order_statistics() {
        let mut est = P2Quantile::new(0.5);
        est.record(3.0);
        assert_eq!(est.estimate(), 3.0);
        est.record(1.0);
        est.record(2.0);
        assert_eq!(est.estimate(), 2.0, "median of {{1,2,3}}");
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn empty_estimator_reports_zero() {
        assert_eq!(P2Quantile::new(0.9).estimate(), 0.0);
    }

    #[test]
    fn monotone_in_quantile() {
        let mut rng = SimRng::new(7);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exponential(2.0)).collect();
        let mut p50 = P2Quantile::new(0.5);
        let mut p90 = P2Quantile::new(0.9);
        let mut p99 = P2Quantile::new(0.99);
        for &x in &samples {
            p50.record(x);
            p90.record(x);
            p99.record(x);
        }
        assert!(p50.estimate() < p90.estimate());
        assert!(p90.estimate() < p99.estimate());
    }

    #[test]
    fn deterministic_stream_is_exact_enough() {
        // Feed 1..=1000 in order: p90 should land near 900.
        let mut est = P2Quantile::new(0.9);
        for i in 1..=1000 {
            est.record(i as f64);
        }
        let e = est.estimate();
        assert!((e - 900.0).abs() < 20.0, "p90 = {e}");
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn rejects_degenerate_quantiles() {
        let _ = P2Quantile::new(1.0);
    }
}
