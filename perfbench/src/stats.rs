//! Order statistics used by every metric.

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]`; `0.0` for an empty slice.
/// Infinite samples (failed requests) sort last.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Geometric mean of positive samples; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The highest percentile of `xs` with at least ten samples beyond it,
/// chosen from a fixed ladder: the tail a timing can honestly report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile (e.g. `99.0`); `0.0` when fewer than 11 samples.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = xs.len();
    for p in LADDER {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        if n >= 11 && n - rank >= 10 {
            return Tail {
                percentile: p,
                value: quantile(xs, p / 100.0),
                n,
            };
        }
    }
    Tail {
        percentile: 0.0,
        value: 0.0,
        n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.0);
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 95.0);
        assert_eq!(tail(&[1.0; 5]).percentile, 0.0);
    }
}
