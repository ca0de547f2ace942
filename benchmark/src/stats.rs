//! The benchmark's own arithmetic: quantiles, quartiles, per-second slices
//! and span self time.

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Candidate tail quantiles, highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// A tail quantile is only reported when at least ten samples lie beyond
/// it; otherwise step down the ladder to the highest one that has them.
/// Returns `(value, quantile actually used)`.
pub fn supported_quantile(sorted: &[u64], wanted: f64) -> (u64, f64) {
    let n = sorted.len() as f64;
    let q =
        LADDER.into_iter().filter(|&q| q <= wanted).find(|&q| n * (1.0 - q) >= 10.0).unwrap_or(0.5);
    (quantile(sorted, q), q)
}

pub fn median_f64(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them, so the spreads printed here are the
/// ones the acceptance procedure sees. Fewer than two values: all three are
/// that value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Which one-second slice of the measured window an event at `at_ns` (since
/// the window opened) falls in; `None` outside the window.
pub fn slice_index(at_ns: u64, slice_ns: u64, slices: usize) -> Option<usize> {
    let idx = (at_ns / slice_ns) as usize;
    (idx < slices).then_some(idx)
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover. Children may overlap each other and may stick out of
/// the parent; only covered time inside the parent is subtracted.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(p0), e.min(p1))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.5), 51);
        assert_eq!(quantile(&v, 0.95), 95);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        // 199 samples: 5 % beyond p95 is 9.95 < 10, so p95 steps down to p90.
        let v: Vec<u64> = (0..199).collect();
        assert_eq!(supported_quantile(&v, 0.95).1, 0.9);
        // 200 samples: exactly ten beyond p95.
        let v: Vec<u64> = (0..200).collect();
        assert_eq!(supported_quantile(&v, 0.95).1, 0.95);
        // p99 needs 1 000 samples.
        let v: Vec<u64> = (0..999).collect();
        assert_eq!(supported_quantile(&v, 0.99).1, 0.95);
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(supported_quantile(&v, 0.99), (quantile(&v, 0.99), 0.99));
        // Too few samples for any tail: the median.
        let v: Vec<u64> = (0..15).collect();
        assert_eq!(supported_quantile(&v, 0.99).1, 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn slices_bucket_by_completion_time() {
        let s = 1_000_000_000;
        assert_eq!(slice_index(0, s, 3), Some(0));
        assert_eq!(slice_index(s - 1, s, 3), Some(0));
        assert_eq!(slice_index(s, s, 3), Some(1));
        assert_eq!(slice_index(3 * s - 1, s, 3), Some(2));
        assert_eq!(slice_index(3 * s, s, 3), None);
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        // Sequential children.
        assert_eq!(self_time((0, 100), &[(10, 30), (40, 60)]), 60);
        // Overlapping children are not double counted.
        assert_eq!(self_time((0, 100), &[(10, 50), (30, 60)]), 50);
        // A child sticking out of the parent is clipped; one outside is ignored.
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 120), (200, 300)]), 70);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }
}
