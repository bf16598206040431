//! Order statistics shared by every workload: medians, percentiles, and
//! the quartile spread the benchmark's stability rule is stated in.

/// Sort a sample ascending (NaN-free by construction: every sample is a
/// measured duration or ratio).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` in `[0, 1]` of a sample, interpolating linearly between
/// the two closest ranks (the "linear" method of NumPy's `percentile`).
/// Panics on an empty sample: every caller measured at least one value.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let s = sorted(values);
    let rank = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Rounds that each replay the same sequence of work, timed item by item:
/// item `j` of the result is the fastest of the rounds' `j`-th times, over
/// the items every round reached. Contention from other tenants of a
/// shared host comes in phases of seconds; rounds seconds apart rarely
/// all land in one.
pub fn fastest_per_item(rounds: &[Vec<f64>]) -> Vec<f64> {
    let common = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..common).map(|j| rounds.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min)).collect()
}

/// The three cut points of `statistics.quantiles(values, n=4)` in Python
/// (its default "exclusive" method), so a spread computed here matches the
/// one the stability rule is checked with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, cut) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread each end-to-end metric must keep below its bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 1.0), 4.0));
        assert!(close(percentile(&v, 0.5), 2.5));
        assert!(close(percentile(&v, 0.9), 3.7));
        assert!(close(median(&[7.0]), 7.0));
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(q[0], 1.25) && close(q[1], 2.5) && close(q[2], 3.75), "{q:?}");
        // Two values: the cut points clamp to the only pair.
        let q = quartiles(&[10.0, 20.0]);
        assert!(close(q[0], 7.5) && close(q[1], 15.0) && close(q[2], 22.5), "{q:?}");
        // Order of input does not matter.
        let q = quartiles(&[105.0, 98.0, 101.0, 99.0, 102.0, 100.0, 97.0, 103.0, 104.0, 96.0]);
        assert!(close(q[0], 97.75) && close(q[1], 100.5) && close(q[2], 103.25), "{q:?}");
    }

    #[test]
    fn fastest_per_item_takes_each_slot_minimum_over_common_slots() {
        let rounds = vec![vec![3.0, 1.0, 4.0], vec![2.0, 5.0], vec![6.0, 0.5, 1.0, 1.0]];
        assert_eq!(fastest_per_item(&rounds), vec![2.0, 0.5]);
        assert_eq!(fastest_per_item(&[vec![1.0, 2.0]]), vec![1.0, 2.0]);
        assert!(fastest_per_item(&[]).is_empty());
    }

    #[test]
    fn spread_is_interquartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&v), (8.25 - 2.75) / 5.5));
        assert!(close(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0));
    }
}
