//! Sample statistics: medians, the percentile rule and quartile spread.

/// Equal epochs every measured window is split into. A rate is the
/// median of the epochs' rates; the spread of the epochs is the run's
/// own record of how steady the machine was.
pub const EPOCHS: usize = 5;

/// Samples that must lie beyond a percentile for it to be reported as
/// supported (choosing-metrics §1).
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    s
}

/// Nearest rank (1-based) of the `p`-th percentile in a sample of `len`
/// (at least 1). The epsilon keeps `99.9% of 10 000` at 9 990 although
/// the product is not exact in floating point.
fn rank(len: usize, p: f64) -> usize {
    ((p / 100.0 * len as f64 - 1e-9).ceil() as usize).clamp(1, len)
}

/// Nearest-rank percentile (`p` in `0..=100`); 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sorted(samples)[rank(samples.len(), p) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of a
/// sample of `len`.
pub fn beyond(len: usize, p: f64) -> usize {
    if len == 0 {
        return 0;
    }
    len - rank(len, p)
}

/// Whether a sample of `len` supports reporting its `p`-th percentile:
/// at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(len: usize, p: f64) -> bool {
    beyond(len, p) >= MIN_BEYOND
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), which the acceptance check uses.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (0 for fewer than
/// two samples or a zero median).
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(beyond(3600, 99.0), 36);
        assert!(!supports(19, 50.0));
        assert!(supports(20, 50.0));
        assert_eq!(beyond(10_000, 99.9), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
