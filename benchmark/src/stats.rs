//! Order statistics for the reported numbers.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer it is one or two outliers, not a
/// measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `sorted` (ascending).
///
/// Returns `None` for an empty slice, and for a percentile above the
/// median that has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if q > 0.5 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `values` ascending (total order, so a NaN cannot panic).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The best of a run's per-round values: the highest when higher is
/// better, else the lowest. The rest of the machine only ever slows a
/// round down, and on a shared machine it does so in bursts, so the
/// least-disturbed round is the steadiest estimate of the program itself.
pub fn best(values: &[f64], higher: bool) -> Option<f64> {
    let pick = if higher { f64::max } else { f64::min };
    values.iter().copied().reduce(pick)
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so the spreads this
/// benchmark prints are the ones its bounds are checked with.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return s.first().map(|&v| [v; 3]);
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_a_tail() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // p99.9 of 1,000 samples has one sample beyond it.
        assert_eq!(percentile(&v, 0.999), None);
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.999), Some(9_990.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn best_picks_the_better_end() {
        assert_eq!(best(&[3.0, 9.0, 1.0], true), Some(9.0));
        assert_eq!(best(&[3.0, 9.0, 1.0], false), Some(1.0));
        assert_eq!(best(&[], true), None);
    }
}
