//! Quantiles of timing samples.

/// The `p`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; `NaN` for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}
