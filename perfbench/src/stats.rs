//! Order statistics the benchmark reports: medians, quartiles, and the
//! rule that decides how far into a latency tail a sample supports.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        let hi = v.swap_remove(n / 2);
        (v[n / 2 - 1] + hi) / 2.0
    })
}

/// First, second and third quartile by the "exclusive" method — the
/// default of Python's `statistics.quantiles(values, n=4)`, which is how
/// run-to-run spreads of this benchmark are judged. `None` below two
/// values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The lower quartile of repeated host times, clamped to the samples'
/// range (the exclusive method extrapolates below the minimum for very
/// few samples); the single value for one sample, `None` for none.
///
/// The benchmark reports this rather than the median because interference
/// from other work on the host only ever slows a repetition down: on a
/// shared machine the median drifts with the neighbours' load, while the
/// faster quarter of the repetitions tracks the program's own cost.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    let lo = values.iter().copied().reduce(f64::min)?;
    let hi = values.iter().copied().reduce(f64::max)?;
    Some(quartiles(values).map_or(lo, |[q1, _, _]| q1.clamp(lo, hi)))
}

/// The upper quartile, clamped like [`lower_quartile`]: the counterpart
/// for rates, where interference only ever lowers a repetition's value.
pub fn upper_quartile(values: &[f64]) -> Option<f64> {
    let lo = values.iter().copied().reduce(f64::min)?;
    let hi = values.iter().copied().reduce(f64::max)?;
    Some(quartiles(values).map_or(hi, |[_, _, q3]| q3.clamp(lo, hi)))
}

/// Interquartile range as a share of the median: the spread measure the
/// benchmark's bounds are stated in. `None` below two values or at a zero
/// median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The highest of `candidates` (percentiles, ascending) that still leaves
/// at least `beyond` samples above it out of `samples` — e.g. p99 needs
/// 1,000 samples for 10 beyond it. A tail estimate resting on fewer
/// samples is one or two outliers, not a percentile. `None` when even the
/// lowest candidate is unsupported.
pub fn highest_supported_percentile(samples: u64, candidates: &[f64], beyond: u64) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| samples as f64 * (1.0 - p / 100.0) >= beyond as f64 - 1e-9)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // Two values extrapolate past the ends: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn outer_quartiles_stay_inside_the_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), Some(2.75));
        assert_eq!(upper_quartile(&v), Some(8.25));
        // quantiles([1, 2]) starts at 0.75 and ends at 2.25: clamped.
        assert_eq!(lower_quartile(&[2.0, 1.0]), Some(1.0));
        assert_eq!(upper_quartile(&[2.0, 1.0]), Some(2.0));
        assert_eq!(lower_quartile(&[4.0]), Some(4.0));
        assert_eq!(upper_quartile(&[4.0]), Some(4.0));
        assert_eq!(lower_quartile(&[]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0; 10]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let c = [50.0, 95.0, 99.0];
        assert_eq!(highest_supported_percentile(1_000, &c, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &c, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(200, &c, 10), Some(95.0));
        assert_eq!(highest_supported_percentile(199, &c, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(20, &c, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(19, &c, 10), None);
        assert_eq!(highest_supported_percentile(5_000, &[], 10), None);
    }
}
