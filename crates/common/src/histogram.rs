//! A log-bucketed latency histogram.
//!
//! Used by the load generator to report percentiles alongside the mean
//! response times the paper plots. Buckets grow geometrically (~7.2 % per
//! bucket, 64 buckets per decade), bounding the relative quantile error to
//! under one bucket width while keeping the footprint fixed.

/// Fixed-footprint histogram over positive values (e.g. milliseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// bucket i covers [BASE * GROWTH^i, BASE * GROWTH^(i+1))
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

const BASE: f64 = 1e-3; // smallest tracked value
const BUCKETS: usize = 448; // covers 1e-3 .. ~1e4 with 64 buckets/decade
const GROWTH: f64 = 1.0366329284377976; // 10^(1/64)

enum Bucket {
    Under,
    In(usize),
    Over,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS], underflow: 0, overflow: 0, total: 0 }
    }

    fn bucket_of(value: f64) -> Bucket {
        if value < BASE {
            return Bucket::Under;
        }
        let idx = (value / BASE).log(GROWTH).floor() as usize;
        if idx >= BUCKETS {
            Bucket::Over
        } else {
            Bucket::In(idx)
        }
    }

    /// Lower bound of bucket `i`.
    fn bucket_low(i: usize) -> f64 {
        BASE * GROWTH.powi(i as i32)
    }

    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite() && value >= 0.0);
        self.total += 1;
        match Self::bucket_of(value) {
            Bucket::In(i) => self.counts[i] += 1,
            Bucket::Under => self.underflow += 1,
            Bucket::Over => self.overflow += 1,
        }
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples below [`BASE`] (reported as 0 by quantiles).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the tracked range (~1e4). Quantiles landing here
    /// report the range's upper edge — check this counter to know a tail
    /// quantile is a lower bound rather than an estimate.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate quantile `q` in [0, 1]; returns the lower edge of the
    /// bucket containing the q-th sample. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return f64::NAN;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if seen >= target {
            return 0.0;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(i);
            }
        }
        // The target lands among overflow samples: report the upper edge of
        // the tracked range (the true value is at least this large).
        Self::bucket_low(BUCKETS)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

// ======================================================================
// Wire form (telemetry scrapes).
// ======================================================================

use crate::wire::{Wire, WireError, WireReader};

/// Sparse canonical encoding: `(bucket, count)` pairs for the non-zero
/// buckets in strictly increasing bucket order, then the underflow,
/// overflow and total counters. Decode re-derives the dense bucket array
/// and rejects anything non-canonical (out-of-range or unordered buckets,
/// zero-count pairs, a total that disagrees with the parts), so a decoded
/// histogram re-encodes bit-identically and its quantile math can trust
/// `total` without re-summing. Hand-written for that check.
impl Wire for Histogram {
    fn encode(&self, out: &mut Vec<u8>) {
        let nonzero: Vec<(u32, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| (i as u32, c))
            .collect();
        nonzero.encode(out);
        self.underflow.encode(out);
        self.overflow.encode(out);
        self.total.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let pairs = Vec::<(u32, u64)>::decode(r)?;
        let underflow = u64::decode(r)?;
        let overflow = u64::decode(r)?;
        let total = u64::decode(r)?;
        let mut h = Histogram::new();
        let mut last: Option<u32> = None;
        let mut in_range: u64 = 0;
        for (idx, count) in pairs {
            if idx as usize >= BUCKETS {
                return Err(WireError::Corrupt("histogram bucket index"));
            }
            if last.is_some_and(|l| idx <= l) {
                return Err(WireError::Corrupt("histogram bucket order"));
            }
            if count == 0 {
                return Err(WireError::Corrupt("histogram empty bucket"));
            }
            last = Some(idx);
            h.counts[idx as usize] = count;
            in_range = in_range
                .checked_add(count)
                .ok_or(WireError::Corrupt("histogram count overflow"))?;
        }
        let sum = in_range
            .checked_add(underflow)
            .and_then(|s| s.checked_add(overflow))
            .ok_or(WireError::Corrupt("histogram count overflow"))?;
        if sum != total {
            return Err(WireError::Corrupt("histogram total mismatch"));
        }
        h.underflow = underflow;
        h.overflow = overflow;
        h.total = total;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64); // uniform 1..1000
        }
        assert_eq!(h.count(), 1000);
        let med = h.median();
        assert!((med - 500.0).abs() / 500.0 < 0.08, "median {med}");
        let p99 = h.p99();
        assert!((p99 - 990.0).abs() / 990.0 < 0.08, "p99 {p99}");
    }

    #[test]
    fn empty_histogram_reports_nan() {
        let h = Histogram::new();
        assert!(h.median().is_nan());
    }

    #[test]
    fn underflow_counts_toward_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(0.0);
        }
        h.record(100.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(1.0) > 0.0);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10.0);
        b.record(20.0);
        b.record(30.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn huge_values_count_as_overflow() {
        let mut h = Histogram::new();
        h.record(1e12);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.count(), 1);
        // The quantile is still finite — the upper edge of the tracked
        // range, flagged as a lower bound by the overflow counter.
        let q = h.quantile(1.0);
        assert!(q.is_finite() && q >= 9e3, "q = {q}");
    }

    #[test]
    fn overflow_does_not_distort_in_range_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=99 {
            h.record(i as f64);
        }
        h.record(1e9); // one stray overflow sample
        let med = h.median();
        assert!((med - 50.0).abs() / 50.0 < 0.08, "median {med}");
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn merge_sums_overflow() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1e11);
        b.record(1e11);
        b.record(0.0);
        a.merge(&b);
        assert_eq!(a.overflow(), 2);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        let h = Histogram::new();
        let _ = h.quantile(1.5);
    }

    fn round_trip(h: &Histogram) {
        let bytes = h.to_wire();
        let back = Histogram::from_wire(&bytes).expect("decode");
        assert_eq!(&back, h);
        assert_eq!(back.to_wire(), bytes, "re-encode must be bit-identical");
    }

    #[test]
    fn wire_round_trips() {
        round_trip(&Histogram::new());
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(f64::from(i));
        }
        h.record(0.0); // underflow
        h.record(1e12); // overflow
        round_trip(&h);
        // Quantiles survive the trip.
        let back = Histogram::from_wire(&h.to_wire()).unwrap();
        assert_eq!(back.median().to_bits(), h.median().to_bits());
        assert_eq!(back.count(), h.count());
    }

    #[test]
    fn wire_truncation_rejected() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(250.0);
        let bytes = h.to_wire();
        for cut in 0..bytes.len() {
            assert!(Histogram::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Hand-build a frame from parts: `pairs` + underflow/overflow/total.
    fn frame(pairs: &[(u32, u64)], under: u64, over: u64, total: u64) -> Vec<u8> {
        let mut out = Vec::new();
        pairs.to_vec().encode(&mut out);
        under.encode(&mut out);
        over.encode(&mut out);
        total.encode(&mut out);
        out
    }

    #[test]
    fn wire_non_canonical_rejected() {
        use crate::wire::WireError;
        type Case = (&'static [(u32, u64)], u64, u64, u64, &'static str);
        let cases: [Case; 5] = [
            (&[(BUCKETS as u32, 1)], 0, 0, 1, "histogram bucket index"),
            (&[(5, 1), (5, 1)], 0, 0, 2, "histogram bucket order"),
            (&[(9, 2), (3, 1)], 0, 0, 3, "histogram bucket order"),
            (&[(4, 0)], 0, 0, 0, "histogram empty bucket"),
            (&[(4, 1)], 1, 1, 2, "histogram total mismatch"),
        ];
        for (pairs, under, over, total, why) in cases {
            let got = Histogram::from_wire(&frame(pairs, under, over, total));
            assert_eq!(got.unwrap_err(), WireError::Corrupt(why));
        }
    }

    #[test]
    fn wire_count_overflow_rejected() {
        let got = Histogram::from_wire(&frame(&[(0, u64::MAX), (1, 1)], 0, 0, u64::MAX));
        assert!(got.is_err());
    }
}
