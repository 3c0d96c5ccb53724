//! Order statistics over raw samples.

/// Minimum number of samples that must lie strictly beyond a reported
/// tail percentile for it to mean anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `q·N`
/// samples at or below it (1-based rank `⌈q·N⌉`). `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank `⌈q·n⌉`, clamped to `1..=n` (`n ≥ 1`).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// The `q` percentile, only if at least [`MIN_BEYOND`] samples lie past it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if beyond(samples.len(), q) >= MIN_BEYOND {
        percentile(samples, q)
    } else {
        None
    }
}

/// The median (nearest rank). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Arithmetic mean. `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), Some(90.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Odd and even counts: the nearest rank, never an interpolation.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of n samples has n − ⌈0.99·n⌉ samples beyond it.
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.99), 0);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.99), None);
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&long, 0.99), Some(989.0));
        // p90 needs only 100 samples.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
