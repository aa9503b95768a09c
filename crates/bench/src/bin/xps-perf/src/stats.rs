//! Order statistics over repeated measurements.

/// Sorted copy of `xs` (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method), so spreads read the same as the
/// acceptance check computes them. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    match v.len() {
        0 => return None,
        1 => return Some((v[0], v[0])),
        _ => {}
    }
    let ld = v.len();
    // Signed, because `delta` goes negative when the clamp lifts `j`.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        (lo * (n as f64 - delta) + hi * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// Interquartile range, `q3 - q1`.
pub fn iqr(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|(q1, q3)| q3 - q1)
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it. Returns `(percentile, value)`, or
/// `None` when fewer than eleven samples exist.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let v = sorted(xs);
    let n = v.len();
    if n <= BEYOND {
        return None;
    }
    let at = n - 1 - BEYOND;
    Some((100.0 * (n - BEYOND) as f64 / n as f64, v[at]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), Some((1.5, 8.0)));
        assert_eq!(iqr(&xs), Some(5.5));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(iqr(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("eleven samples have a tail");
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("tail");
        assert_eq!((pct, v), (90.0, 90.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }
}
