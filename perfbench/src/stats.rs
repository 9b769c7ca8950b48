//! Order statistics and the exact binomial test used by the SMC
//! known-answer check.

/// The `q`-quantile (`0 <= q <= 1`) by linear interpolation between
/// order statistics; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Whether `p` lies in the exact (Clopper–Pearson) two-sided interval at
/// level `1 - alpha` for `successes` out of `runs`: neither binomial tail
/// at `p` is below `alpha / 2`. `0 < p < 1`.
pub fn binomial_contains(runs: u64, successes: u64, p: f64, alpha: f64) -> bool {
    // `P(X = k)` term by term, in log space, from `P(X = 0) = (1 - p)^n`.
    let (step, mut ln_pmf) = ((p / (1.0 - p)).ln(), runs as f64 * (-p).ln_1p());
    let (mut lower_tail, mut upper_tail) = (0.0, 0.0);
    for k in 0..=runs {
        let pmf = ln_pmf.exp();
        if k <= successes {
            lower_tail += pmf;
        }
        if k >= successes {
            upper_tail += pmf;
        }
        ln_pmf += ((runs - k) as f64 / (k + 1) as f64).ln() + step;
    }
    upper_tail >= alpha / 2.0 && lower_tail >= alpha / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
    }

    #[test]
    fn binomial_test_brackets_plausible_counts_only() {
        // 100 runs at p = 1e-3: up to a handful of hits is plausible,
        // twenty is not.
        assert!(binomial_contains(100, 0, 1e-3, 1e-6));
        assert!(binomial_contains(100, 3, 1e-3, 1e-6));
        assert!(!binomial_contains(100, 20, 1e-3, 1e-6));
        // 0 hits out of 100 is implausible when p = 0.5.
        assert!(!binomial_contains(100, 0, 0.5, 1e-6));
        // Pooled over 20 000 runs, 0 hits and tenfold the expected count
        // are both implausible at p = 1e-3.
        assert!(binomial_contains(20_000, 20, 1e-3, 1e-6));
        assert!(!binomial_contains(20_000, 0, 1e-3, 1e-6));
        assert!(!binomial_contains(20_000, 200, 1e-3, 1e-6));
    }
}
