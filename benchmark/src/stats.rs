//! Order statistics the benchmark reports: medians, quartiles, and the
//! highest percentile a sample can support.

/// Quartiles `(q1, median, q3)` by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (the exclusive method), so
/// the spreads `check` computes are the ones the driver computes.
/// A sample of one is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The highest percentile of `values` that still has at least ten
/// samples beyond it, as `(percentile, value)`, from the ladder
/// 50/75/90/95/99/99.9. `None` below twenty samples, where even the
/// median has fewer than ten samples above it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Per mille, so the nearest-rank ceiling is exact integer maths.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find_map(|pm| {
            // Nearest rank: the smallest value with at least that share
            // of the sample at or below it.
            let rank = (pm * n).div_ceil(1000);
            (rank >= 1 && n - rank >= 10).then(|| (pm as f64 / 10.0, sorted[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(19)), None);
        assert_eq!(tail_percentile(&v(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&v(40)), Some((75.0, 30.0)));
        assert_eq!(tail_percentile(&v(100)), Some((90.0, 90.0)));
        assert_eq!(tail_percentile(&v(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&v(10_000)), Some((99.9, 9990.0)));
    }
}
