//! Order statistics over latency samples.

/// A sorted sample set with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a bug in the caller and sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.total_cmp(b));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q` quantile, `q` in `(0, 1)`, by the Bernstein-polynomial
    /// estimator: a binomially weighted mean of the order statistics around
    /// rank `q·n`. It estimates the same percentile as the nearest-rank
    /// sample with much less run-to-run jitter when the samples near that
    /// rank are sparse. `0.0` for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => return 0.0,
            1 => return self.sorted[0],
            _ if q <= 0.0 => return self.sorted[0],
            _ if q >= 1.0 => return self.sorted[n - 1],
            _ => {}
        }
        // Weight of the i-th order statistic: C(n-1, i) q^i (1-q)^(n-1-i),
        // accumulated in logs so large n cannot overflow.
        let (lq, lp) = (q.ln(), (1.0 - q).ln());
        let mut ln_choose = 0.0;
        let mut sum = 0.0;
        for (i, x) in self.sorted.iter().enumerate() {
            let k = (n - 1 - i) as f64;
            sum += x * (ln_choose + i as f64 * lq + k * lp).exp();
            ln_choose += (k / (i as f64 + 1.0)).ln();
        }
        sum
    }

    /// Whether at least ten samples lie strictly beyond the `q` percentile:
    /// the rule a tail percentile must meet before it is reported as one.
    pub fn tail_counts(&self, q: f64) -> bool {
        self.rank(q)
            .is_some_and(|i| self.sorted.len() - (i + 1) >= 10)
    }

    /// The samples, ascending.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Arithmetic mean; `0.0` for an empty set.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let r = (q * n as f64).ceil() as usize;
        Some(r.clamp(1, n) - 1)
    }
}

/// Median of a small list (the set-up repetitions): the middle value, or
/// the mean of the two middle values, so that one disturbed repetition
/// does not set it. `0.0` for an empty list.
pub fn median(values: &[f64]) -> f64 {
    let s = Samples::new(values.to_vec()).sorted;
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Milliseconds in a [`std::time::Duration`].
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_the_ranks() {
        let s = Samples::new((1..=100).map(f64::from).rev().collect());
        assert!((s.quantile(0.5) - 50.5).abs() < 1e-9);
        assert!((s.quantile(0.9) - 90.1).abs() < 0.5);
        assert!((s.quantile(0.99) - 99.0).abs() < 1.0);
        assert!(s.tail_counts(0.9));
        assert!(!s.tail_counts(0.99));
        assert_eq!(Samples::default().quantile(0.5), 0.0);
        assert_eq!(Samples::new(vec![3.0]).quantile(0.9), 3.0);
        let big = Samples::new((0..5000).map(f64::from).collect());
        assert!((big.quantile(0.99) - 4949.0).abs() < 2.0);
        assert_eq!(median(&[3.0, 1.0, 9.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
    }
}
