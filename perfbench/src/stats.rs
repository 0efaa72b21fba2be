//! Order statistics over timing samples.

/// Percentiles the benchmark can report, lowest first.
pub const PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The `q` quantile (0..=1) of `samples`, interpolating linearly between
/// the two closest ranks. `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The lower quartile over the windows of one run of each window's `q`
/// quantile: the figure of the quarter of the run that the host's other
/// tenants disturbed least. Their load comes in spells of seconds to
/// minutes that slow the server's replies up to 1.7 times and stretch its
/// tail further; a quantile of the pooled samples, or of the median
/// window, moves with the share of the run they covered, and the best
/// window with whether one lucky window occurred.
pub fn window_quartile(windows: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_window: Vec<f64> = windows.iter().filter_map(|w| quantile(w, q)).collect();
    quantile(&per_window, 0.25)
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// How many of `n` samples lie beyond the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of [`PERCENTILES`] that has at least ten samples beyond
/// it, so a tail figure is never read off one or two stragglers.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        let windows = vec![vec![3.0, 5.0, 4.0], vec![2.0, 9.0, 3.0], vec![]];
        assert_eq!(window_quartile(&windows, 0.5), Some(3.25));
        assert_eq!(window_quartile(&windows, 1.0), Some(6.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in 1..3000 {
            if let Some(q) = highest_supported(n) {
                assert!(samples_beyond(n, q) >= 10, "n {n} q {q}");
            }
            let next = PERCENTILES
                .iter()
                .find(|&&p| Some(p) > highest_supported(n));
            if let Some(&p) = next {
                assert!(samples_beyond(n, p) < 10, "n {n} could report {p}");
            }
        }
    }
}
