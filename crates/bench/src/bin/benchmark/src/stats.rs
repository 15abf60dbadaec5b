//! Order statistics for the runner: medians, quartiles (the same rule
//! as Python's `statistics.quantiles(v, n=4)`, which is what the
//! acceptance check uses), and the tail-percentile rule.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    v
}

/// Median; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `(q1, q2, q3)` by the exclusive method; needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Exact integer distance past `j`; negative or above 4 when the
        // clamp moved `j`, which extrapolates exactly as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The highest of p50 / p90 / p99 / p99.9 / p99.99 / p99.999 that still
/// has at least ten of `n` samples beyond it; `None` below 20 samples.
pub fn tail_percentile(n: u64) -> Option<f64> {
    // (percentile, samples beyond it per 100 000), in integers so that
    // exactly ten beyond counts as ten.
    [
        (99.999, 1u64),
        (99.99, 10),
        (99.9, 100),
        (99.0, 1_000),
        (90.0, 10_000),
        (50.0, 50_000),
    ]
    .into_iter()
    .find(|&(_, beyond)| n.saturating_mul(beyond) >= 10 * 100_000)
    .map(|(p, _)| p)
}

/// Median, quartiles and count of one host-clock metric's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let (q1, _, q3) = quartiles(values).unwrap_or((median, median, median));
        Some(Summary {
            n: values.len(),
            median,
            q1,
            q3,
        })
    }

    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.999));
    }

    #[test]
    fn summary_degrades_to_the_single_sample() {
        let s = Summary::of(&[7.0]).expect("one sample");
        assert_eq!((s.n, s.median, s.q1, s.q3), (1, 7.0, 7.0, 7.0));
        assert_eq!(s.iqr_share(), 0.0);
        assert_eq!(Summary::of(&[]), None);
    }
}
