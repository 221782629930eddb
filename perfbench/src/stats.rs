//! Order statistics the benchmark reports: medians, quartiles, tail
//! percentiles that are backed by enough samples, and ratios printed with
//! both bases.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own spread matches the one a checker computes from
/// its output. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    // Python clamps j into 1..len-1 and lets delta go negative (or past
    // 4) at the edges, extrapolating from the two end samples.
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile `p` (in percent) of an ascending-sorted sample,
/// with the number of samples that lie strictly beyond the returned rank.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    let rank = rank(sorted.len(), p)?;
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize)
}

/// The samples a tail percentile must leave beyond itself before it is
/// reported: fewer, and the "p99" of a short run is just its maximum.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The highest of `candidates` (percent, ascending or not) that leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it in a sample of `n`.
pub fn highest_backed_percentile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| rank(n, p).is_some_and(|r| n - r >= MIN_TAIL_SAMPLES))
        .reduce(f64::max)
}

/// Per-call latency samples in nanoseconds.
#[derive(Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample with room for `n` values.
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.values.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64
    }

    /// Nearest-rank percentile `p`; `None` when `p` leaves fewer than
    /// [`MIN_TAIL_SAMPLES`] samples beyond it (the median is always
    /// reported for a non-empty sample).
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        let (value, beyond) = percentile_sorted(&self.values, p)?;
        (p <= 50.0 || beyond >= MIN_TAIL_SAMPLES).then_some(value as f64)
    }
}

/// A ratio `num / den` that prints both of its bases, so "1.7×" never
/// appears without what it is 1.7× of.
#[derive(Clone, Copy, Debug)]
pub struct Ratio {
    /// Numerator value.
    pub num: f64,
    /// Denominator (base) value.
    pub den: f64,
}

impl Ratio {
    /// `num / den`, or 0 when the base is 0.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// The ratio with both bases: `"1.750x (a 1750 / b 1000)"`.
    pub fn describe(&self, num_label: &str, den_label: &str) -> String {
        format!(
            "{:.3}x ({num_label} {:.6} / {den_label} {:.6})",
            self.value(),
            self.num,
            self.den
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_reports_samples_beyond_its_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some((500, 500)));
        assert_eq!(percentile_sorted(&v, 99.0), Some((990, 10)));
        assert_eq!(percentile_sorted(&v, 100.0), Some((1000, 0)));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(highest_backed_percentile(1000, &candidates), Some(99.0));
        // 999 samples: p99 is rank 990, leaving 9 — fall back to p90.
        assert_eq!(highest_backed_percentile(999, &candidates), Some(90.0));
        assert_eq!(highest_backed_percentile(100_000, &candidates), Some(99.9));
        assert_eq!(highest_backed_percentile(10, &candidates), None);
        assert_eq!(highest_backed_percentile(0, &candidates), None);
    }

    #[test]
    fn samples_withhold_unbacked_tails() {
        let mut s = Samples::with_capacity(999);
        for v in (1..=999).rev() {
            s.push(v);
        }
        assert_eq!(s.len(), 999);
        assert_eq!(s.percentile(50.0), Some(500.0));
        assert_eq!(s.percentile(90.0), Some(900.0));
        assert_eq!(s.percentile(99.0), None);
        s.push(1000);
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_prints_both_bases() {
        let r = Ratio {
            num: 1750.0,
            den: 1000.0,
        };
        assert!((r.value() - 1.75).abs() < 1e-12);
        let text = r.describe("2shard", "1shard");
        assert!(text.starts_with("1.750x"), "{text}");
        assert!(text.contains("2shard 1750"), "{text}");
        assert!(text.contains("1shard 1000"), "{text}");
        assert_eq!(Ratio { num: 1.0, den: 0.0 }.value(), 0.0);
    }
}
