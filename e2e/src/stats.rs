//! Order statistics for latency samples.
//!
//! Two rules from the metrics guide are enforced here rather than left
//! to each caller: a tail percentile is only reported when at least ten
//! samples lie beyond it, and a tail is taken per time window and the
//! windows' median reported, which is what makes a p99 repeat.

/// Fewest samples that must lie beyond a reported percentile.
pub const SAMPLES_BEYOND: usize = 10;

/// The percentiles a tail may fall back to, highest first.
const TAILS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Windows a run is cut into when every window can carry the tail.
pub const WINDOWS: usize = 10;

/// Nearest-rank percentile of an ascending slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile not above `want` with at least
/// [`SAMPLES_BEYOND`] samples beyond it among `n`; the median when even
/// that has too few.
pub fn supported_tail(n: usize, want: f64) -> f64 {
    TAILS
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| (n as f64 * (1.0 - p)).floor() as usize >= SAMPLES_BEYOND)
        .unwrap_or(0.50)
}

/// A reported tail: which percentile it really is, over how many
/// samples, cut into how many windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub windows: usize,
}

/// The p99 of `(offset, value)` samples taken over `span` (same unit as
/// the offsets): the run is cut into up to [`WINDOWS`] equal windows —
/// as many as leave ten samples beyond the p99 of a window of average
/// size — and the median of the per-window tails is reported. With too
/// few samples for even one such window the tail falls back to the
/// highest supported percentile of the whole run.
pub fn windowed_p99(samples: &[(f64, f64)], span: f64) -> Tail {
    let n = samples.len();
    let per_window_need = (SAMPLES_BEYOND as f64 / (1.0 - 0.99)).ceil() as usize;
    let windows = (n / per_window_need).clamp(1, WINDOWS);
    let p = supported_tail(n / windows, 0.99);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, value) in samples {
        let idx = if span > 0.0 {
            ((at / span) * windows as f64) as usize
        } else {
            0
        };
        buckets[idx.min(windows - 1)].push(value);
    }
    let tails: Vec<f64> = buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            b.sort_by(f64::total_cmp);
            percentile(b, p)
        })
        .collect();
    Tail {
        value: median(&tails),
        percentile: p,
        samples: n,
        windows,
    }
}

/// Median of the values alone (offsets ignored).
pub fn p50(samples: &[(f64, f64)]) -> f64 {
    let values: Vec<f64> = samples.iter().map(|s| s.1).collect();
    median(&values)
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// benchmark driver uses for a metric's spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    Some((at(0.25), at(0.75)))
}

/// Interquartile distance as a share of the median; `None` with fewer
/// than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly ten beyond; 999 does not.
        assert_eq!(supported_tail(1000, 0.99), 0.99);
        assert_eq!(supported_tail(999, 0.99), 0.95);
        assert_eq!(supported_tail(200, 0.99), 0.95);
        assert_eq!(supported_tail(199, 0.99), 0.90);
        assert_eq!(supported_tail(40, 0.99), 0.75);
        assert_eq!(supported_tail(20, 0.99), 0.50);
        assert_eq!(supported_tail(3, 0.99), 0.50);
        // Never above what was asked for.
        assert_eq!(supported_tail(1_000_000, 0.95), 0.95);
    }

    #[test]
    fn windowed_tail_is_the_median_of_per_window_tails() {
        // Ten windows of 1000 samples; window w holds values w*1000+1..
        // so its p99 is w*1000+990. One window is an outlier burst.
        let mut samples = Vec::new();
        for w in 0..10 {
            for i in 0..1000 {
                let at = w as f64 + i as f64 / 1000.0;
                let value = if w == 3 { 1e9 } else { (i + 1) as f64 };
                samples.push((at, value));
            }
        }
        let tail = windowed_p99(&samples, 10.0);
        assert_eq!(tail.windows, 10);
        assert_eq!(tail.percentile, 0.99);
        assert_eq!(tail.samples, 10_000);
        // Nine windows agree on 990; the burst window cannot move the
        // median of ten.
        assert_eq!(tail.value, 990.0);
    }

    #[test]
    fn windowed_tail_uses_fewer_windows_before_a_weaker_percentile() {
        // 2500 samples carry two windows of p99, not ten of p90.
        let samples: Vec<(f64, f64)> = (0..2500).map(|i| (i as f64, i as f64)).collect();
        let tail = windowed_p99(&samples, 2500.0);
        assert_eq!((tail.windows, tail.percentile), (2, 0.99));
        // 300 samples: one window, and the tail drops to p95.
        let tail = windowed_p99(&samples[..300], 300.0);
        assert_eq!((tail.windows, tail.percentile), (1, 0.95));
        assert_eq!(tail.value, 284.0);
        // Nothing at all is NaN, not a panic.
        assert!(windowed_p99(&[], 1.0).value.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ramp(10)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
