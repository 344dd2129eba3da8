//! Order statistics for timings.

/// The tail percentile reported for every timing.
pub const TAIL_PERCENTILE: f64 = 99.0;
/// Samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest nearest-rank percentile, at most [`TAIL_PERCENTILE`], that
/// leaves at least [`TAIL_BEYOND`] samples beyond it, as
/// `(percentile, value)`; `None` with too few samples for any.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p99_rank = ((TAIL_PERCENTILE / 100.0) * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_BEYOND);
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(v: &[f64], value: f64) -> usize {
        v.iter().filter(|&&x| x > value).count()
    }

    #[test]
    fn tail_is_p99_once_it_has_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = tail(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(beyond(&v, value), 10);
        // More samples never push it past p99.
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        let (p, value) = tail(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!(beyond(&v, value), 50);
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        for n in [11, 60, 500, 999] {
            let v: Vec<f64> = (1..=n).rev().map(f64::from).collect();
            let (p, value) = tail(&v).unwrap();
            assert_eq!(beyond(&v, value), 10, "n = {n}");
            assert!(p < 99.0 && p >= 100.0 * (n - 10) as f64 / n as f64 - 1e-9);
        }
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
