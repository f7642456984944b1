//! Order statistics for latency samples.

/// A percentile read from a sample set: the percentile actually
/// reported, the value there and how many samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile reported (may be lower than the one asked for).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `want` percentile of `samples`, lowered to the
/// highest percentile that still has at least [`MIN_BEYOND`] samples
/// beyond it. `None` when there are too few samples for any percentile.
pub fn percentile(samples: &[f64], want: f64) -> Option<Pct> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cap = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    let pct = want.min(cap);
    // The epsilon keeps float noise in `pct * n` from rounding a whole
    // rank up past the cap.
    let rank = ((pct * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize;
    Some(Pct {
        pct,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_lowers_to_keep_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        let p = percentile(&samples, 99.0).unwrap();
        assert_eq!(p.pct, 98.0);
        assert_eq!(p.value, 490.0);
        let beyond = samples.iter().filter(|&&s| s > p.value).count();
        assert_eq!(beyond, MIN_BEYOND);
        // With enough samples the asked-for percentile stands.
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        let p = percentile(&many, 99.0).unwrap();
        assert_eq!((p.pct, p.value), (99.0, 1980.0));
        assert!(many.iter().filter(|&&s| s > p.value).count() >= MIN_BEYOND);
    }

    #[test]
    fn percentile_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(percentile(&ten, 50.0).is_none());
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let p = percentile(&eleven, 50.0).unwrap();
        assert_eq!(p.value, 1.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
