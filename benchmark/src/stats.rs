//! Order statistics for timings and run-to-run spreads.
//!
//! Percentiles are nearest-rank and expressed in per-mille so that the
//! rank arithmetic is exact: `ceil(0.9 · 100)` in floating point is 91,
//! not 90.

/// The tail percentiles a timing may be reported at, in per-mille.
pub const TAILS: [u32; 4] = [500, 900, 990, 999];

/// An ascending sample of timings (or any finite values).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values`; non-finite values are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "sample holds a non-finite value");
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile at `permille`; 0 for an empty sample.
    pub fn pct(&self, permille: u32) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = rank(self.sorted.len(), permille);
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.pct(500)
    }

    /// Arithmetic mean; 0 for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// How a reader should read this sample's tail: the highest
    /// percentile with at least ten samples beyond it, and the count.
    pub fn tail_note(&self) -> String {
        match supported_tail(self.len()) {
            Some((p, n)) => format!("{} samples, p{} has {n} beyond", self.len(), p as f64 / 10.0),
            None => format!("{} samples, too few for any tail", self.len()),
        }
    }

    /// Sum of the values.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

/// Nearest rank (1-based) of the `permille` percentile among `n` values.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000)
}

/// Samples strictly beyond the nearest-rank `permille` percentile of `n`.
pub fn beyond(n: usize, permille: u32) -> usize {
    n - rank(n, permille).min(n)
}

/// The highest percentile in [`TAILS`] that has at least ten samples
/// beyond it among `n`, with that count; `None` below 20 samples.
pub fn supported_tail(n: usize) -> Option<(u32, usize)> {
    TAILS.iter().rev().map(|&p| (p, beyond(n, p))).find(|&(_, b)| b >= 10)
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (the spread the
/// benchmark's bounds are checked against); `None` below two values.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_use_exact_ranks() {
        let s = Sample::new((1..=100).map(f64::from).collect());
        assert_eq!(s.pct(900), 90.0);
        assert_eq!(s.pct(990), 99.0);
        assert_eq!(s.median(), 50.0);
        assert_eq!(Sample::new(vec![]).pct(500), 0.0);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some((500, 10)));
        assert_eq!(supported_tail(99), Some((500, 49)));
        assert_eq!(supported_tail(100), Some((900, 10)));
        assert_eq!(supported_tail(999), Some((900, 99)));
        assert_eq!(supported_tail(1000), Some((990, 10)));
        assert_eq!(supported_tail(10_000), Some((999, 10)));
        assert_eq!(beyond(2000, 990), 20);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
    }
}
