//! Small statistics toolkit used by the measurement analyses: empirical
//! CDFs (Figs. 3 and 6), Pearson correlation and linear fits (Fig. 4),
//! and the mean.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples; non-finite samples are discarded.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }
}

/// Mean of a slice; `None` when empty or any value is non-finite.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| !x.is_finite()) {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Pearson correlation coefficient between paired samples.
///
/// Returns `None` if the slices differ in length, have fewer than two
/// points, or either side has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Least-squares line `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
}

/// Fits a least-squares line through the paired samples.
///
/// Returns `None` under the same conditions as [`pearson`].
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut cov = 0.0;
    let mut vx = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
    }
    if vx == 0.0 {
        return None;
    }
    let slope = cov / vx;
    Some(LinearFit {
        slope,
        intercept: my - slope * mx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_basics() {
        let c = Cdf::from_samples([3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.5), 0.5);
        assert_eq!(c.at(10.0), 1.0);
    }

    #[test]
    fn cdf_discards_non_finite() {
        let c = Cdf::from_samples([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cdf_empty() {
        let c = Cdf::from_samples(std::iter::empty());
        assert!(c.is_empty());
        assert_eq!(c.at(1.0), 0.0);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[3.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None, "zero variance");
    }

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 5.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[f64::NAN]), None);
    }
}
