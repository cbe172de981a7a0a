//! Order statistics and rank correlation used by every report.

/// Sorts a copy of `values` ascending (NaNs last, so they surface as a
/// non-finite metric instead of a panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0.0..=1.0`) of `values` with linear interpolation
/// between the two closest ranks. `NaN` on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread rule the benchmark's bounds
/// are judged by. `0.0` with fewer than two samples.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        // Exclusive method: position k*(n+1)/4, 1-based; the weight is
        // taken after clamping, as CPython does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

/// Ranks with ties sharing the average of the ranks they span.
fn average_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = rank;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation of two equally long samples (Pearson on
/// tie-averaged ranks). `NaN` when either side is constant or shorter
/// than two.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "spearman needs paired samples");
    if xs.len() < 2 {
        return f64::NAN;
    }
    let (rx, ry) = (average_ranks(xs), average_ranks(ys));
    let n = xs.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    cov / (vx * vy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((quartile_spread(&[16.0, 1.0, 4.0, 2.0, 8.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn spearman_sees_monotone_not_linear() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((spearman(&x, &[1.0, 8.0, 27.0, 64.0, 125.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&x, &[5.0, 4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // One swapped pair out of five: rho = 1 - 6*2/(5*24) = 0.9.
        assert!((spearman(&x, &[1.0, 3.0, 2.0, 4.0, 5.0]) - 0.9).abs() < 1e-12);
        // Ties share the average rank.
        assert!((spearman(&[1.0, 1.0, 2.0], &[3.0, 3.0, 9.0]) - 1.0).abs() < 1e-12);
        assert!(spearman(&x, &[2.0; 5]).is_nan());
    }
}
