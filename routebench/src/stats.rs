//! Order statistics over timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (any order).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Fewest samples a tail is taken over.
pub const TAIL_MIN: usize = 40;

/// Samples a tail leaves beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has at least 10 samples beyond it:
/// `(value, percentile)`, or `None` below [`TAIL_MIN`] samples, where such
/// a percentile would be no tail.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < TAIL_MIN {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - TAIL_BEYOND - 1;
    let pct = 100.0 * (v.len() - TAIL_BEYOND) as f64 / v.len() as f64;
    Some((v[idx], pct))
}

/// Geometric mean of positive values (0 when there are none).
pub fn geomean(xs: &[f64]) -> f64 {
    let pos: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs).expect("100 samples");
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..39]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
