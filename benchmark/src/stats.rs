//! Order statistics over the timed repetitions.

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median, min, max and sample count of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// The highest whole percentile (nearest rank) that still has at least
/// ten samples beyond it, with its value — the only tail a sample of
/// this size supports. `None` below 21 samples, where not even the 51st
/// percentile qualifies.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    (51..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = summarize(&[5.0, 1.0, 9.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 1.0, 9.0, 3));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=255).map(f64::from).collect();
        // 255 samples: p96 is rank 245, leaving exactly 10 beyond; p97
        // (rank 248) would leave 7.
        assert_eq!(tail_percentile(&v), Some((96, 245.0)));
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 1980.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((52, 11.0)));
    }
}
