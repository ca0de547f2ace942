//! Cheap atomic event counters for protocol instrumentation.
//!
//! The evaluation section quotes several event-rate figures that don't show
//! up in any plot: TPC-W abort rates "far below 1 %" (§6.1), holes present at
//! "around 4–8 % of the times a transaction wants to start" (§6.3), and
//! writeset-application retries after database deadlocks (§4.2). The
//! middleware increments these counters on the hot path (relaxed atomics,
//! no locks) and the harnesses read them at the end of a run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters shared by one middleware replica (or the centralized middleware).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Update transactions committed (writesets validated and applied).
    pub commits_update: AtomicU64,
    /// Read-only transactions committed (empty writeset fast path).
    pub commits_readonly: AtomicU64,
    /// Aborts due to middleware validation (local or global certification).
    pub aborts_validation: AtomicU64,
    /// Aborts due to the database-internal version check.
    pub aborts_serialization: AtomicU64,
    /// Aborts due to database deadlock (local transactions only; remote
    /// writesets are retried instead).
    pub aborts_deadlock: AtomicU64,
    /// Client-requested rollbacks.
    pub aborts_user: AtomicU64,
    /// Remote writeset applications retried after a deadlock abort.
    pub ws_apply_retries: AtomicU64,
    /// Transaction begins that found holes in the commit order and waited
    /// (adjustment 3).
    pub begins_delayed_by_holes: AtomicU64,
    /// Total transaction begins (denominator for the hole rate).
    pub begins_total: AtomicU64,
    /// Commits throttled because locals were waiting to start (adjustment 3
    /// liveness rule).
    pub commits_delayed_for_holes: AtomicU64,
    /// Writesets received via total-order multicast (remote + own).
    pub ws_delivered: AtomicU64,
    /// Writesets discarded at global validation.
    pub ws_discarded: AtomicU64,
}

impl Clone for Metrics {
    /// Snapshot clone: copies the current counter values.
    fn clone(&self) -> Self {
        let m = Metrics::new();
        m.merge(self);
        m
    }
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed increment; all counters are independent event counts.
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Total committed transactions.
    pub fn commits(&self) -> u64 {
        Self::get(&self.commits_update) + Self::get(&self.commits_readonly)
    }

    /// Total aborted transactions (all causes except user rollback).
    pub fn forced_aborts(&self) -> u64 {
        Self::get(&self.aborts_validation)
            + Self::get(&self.aborts_serialization)
            + Self::get(&self.aborts_deadlock)
    }

    /// Abort rate over completed transactions, in [0, 1]. NaN if nothing ran.
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.forced_aborts() as f64;
        let total = aborts + self.commits() as f64;
        aborts / total
    }

    /// Fraction of transaction begins that had to wait for holes to close.
    pub fn hole_rate(&self) -> f64 {
        Self::get(&self.begins_delayed_by_holes) as f64 / Self::get(&self.begins_total) as f64
    }

    /// Fraction of delivered writesets discarded at global validation.
    pub fn ws_discard_rate(&self) -> f64 {
        Self::get(&self.ws_discarded) as f64 / Self::get(&self.ws_delivered) as f64
    }

    /// The derived event rates the evaluation section quotes, in one
    /// [`Copy`] bundle — what the fig5/fig7 harnesses print next to the
    /// latency curves. Each rate is in [0, 1], or NaN when its denominator
    /// is zero.
    pub fn rates(&self) -> Rates {
        Rates {
            abort_rate: self.abort_rate(),
            hole_rate: self.hole_rate(),
            ws_discard_rate: self.ws_discard_rate(),
        }
    }

    /// Fold another replica's counters into this one (fleet-wide totals).
    pub fn merge(&self, other: &Metrics) {
        macro_rules! fold {
            ($($f:ident),*) => {
                $(self.$f.fetch_add(Self::get(&other.$f), Ordering::Relaxed);)*
            };
        }
        fold!(
            commits_update,
            commits_readonly,
            aborts_validation,
            aborts_serialization,
            aborts_deadlock,
            aborts_user,
            ws_apply_retries,
            begins_delayed_by_holes,
            begins_total,
            commits_delayed_for_holes,
            ws_delivered,
            ws_discarded
        );
    }

    /// All counters as stable (name, value) pairs, in declaration order —
    /// the single source of truth for renderers (Prometheus, JSON) so a new
    /// counter can't be silently missing from exports.
    pub fn counters(&self) -> [(&'static str, u64); 12] {
        [
            ("commits_update", Self::get(&self.commits_update)),
            ("commits_readonly", Self::get(&self.commits_readonly)),
            ("aborts_validation", Self::get(&self.aborts_validation)),
            ("aborts_serialization", Self::get(&self.aborts_serialization)),
            ("aborts_deadlock", Self::get(&self.aborts_deadlock)),
            ("aborts_user", Self::get(&self.aborts_user)),
            ("ws_apply_retries", Self::get(&self.ws_apply_retries)),
            ("begins_delayed_by_holes", Self::get(&self.begins_delayed_by_holes)),
            ("begins_total", Self::get(&self.begins_total)),
            ("commits_delayed_for_holes", Self::get(&self.commits_delayed_for_holes)),
            ("ws_delivered", Self::get(&self.ws_delivered)),
            ("ws_discarded", Self::get(&self.ws_discarded)),
        ]
    }

    /// One-line human-readable summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "commits={} (upd={}, ro={}) aborts: validation={} serialization={} deadlock={} \
             | ws retries={} | holes: delayed-begins={}/{} ({:.1}%)",
            self.commits(),
            Self::get(&self.commits_update),
            Self::get(&self.commits_readonly),
            Self::get(&self.aborts_validation),
            Self::get(&self.aborts_serialization),
            Self::get(&self.aborts_deadlock),
            Self::get(&self.ws_apply_retries),
            Self::get(&self.begins_delayed_by_holes),
            Self::get(&self.begins_total),
            100.0 * self.hole_rate().max(0.0)
        )
    }
}

/// Wire form (telemetry scrapes): the 12 counter values in `counters()`
/// declaration order. A decoded `Metrics` is a snapshot — its atomics carry
/// the scraped values and can be merged like any local snapshot.
/// Hand-written: the fields are atomic counters, read and stored by value.
impl crate::wire::Wire for Metrics {
    fn encode(&self, out: &mut Vec<u8>) {
        for (_, value) in self.counters() {
            value.encode(out);
        }
    }

    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        let m = Metrics::new();
        macro_rules! read {
            ($($f:ident),*) => {
                $(m.$f.store(u64::decode(r)?, Ordering::Relaxed);)*
            };
        }
        // Must mirror `counters()` order exactly.
        read!(
            commits_update,
            commits_readonly,
            aborts_validation,
            aborts_serialization,
            aborts_deadlock,
            aborts_user,
            ws_apply_retries,
            begins_delayed_by_holes,
            begins_total,
            commits_delayed_for_holes,
            ws_delivered,
            ws_discarded
        );
        Ok(m)
    }
}

/// Derived protocol event rates (see [`Metrics::rates`]).
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Forced aborts over completed transactions ("far below 1 %", §6.1).
    pub abort_rate: f64,
    /// Begins delayed by commit-order holes ("around 4–8 %", §6.3).
    pub hole_rate: f64,
    /// Delivered writesets discarded at global validation.
    pub ws_discard_rate: f64,
}

impl std::fmt::Display for Rates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = |r: f64| if r.is_nan() { 0.0 } else { 100.0 * r };
        write!(
            f,
            "abort={:.2}% holes={:.2}% ws-discard={:.2}%",
            pct(self.abort_rate),
            pct(self.hole_rate),
            pct(self.ws_discard_rate)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_compute_correctly() {
        let m = Metrics::new();
        for _ in 0..98 {
            Metrics::inc(&m.commits_update);
        }
        Metrics::inc(&m.aborts_validation);
        Metrics::inc(&m.aborts_deadlock);
        assert_eq!(m.commits(), 98);
        assert_eq!(m.forced_aborts(), 2);
        assert!((m.abort_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn hole_rate() {
        let m = Metrics::new();
        for _ in 0..100 {
            Metrics::inc(&m.begins_total);
        }
        for _ in 0..6 {
            Metrics::inc(&m.begins_delayed_by_holes);
        }
        assert!((m.hole_rate() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn rates_bundle_matches_scalar_helpers() {
        let m = Metrics::new();
        for _ in 0..50 {
            Metrics::inc(&m.commits_update);
            Metrics::inc(&m.begins_total);
            Metrics::inc(&m.ws_delivered);
        }
        Metrics::inc(&m.begins_delayed_by_holes);
        Metrics::inc(&m.ws_discarded);
        Metrics::inc(&m.aborts_validation);
        let r = m.rates();
        assert_eq!(r.abort_rate, m.abort_rate());
        assert_eq!(r.hole_rate, m.hole_rate());
        assert_eq!(r.ws_discard_rate, m.ws_discard_rate());
        assert!((r.ws_discard_rate - 0.02).abs() < 1e-12);
        let s = format!("{r}");
        assert!(s.contains("abort=") && s.contains("holes=") && s.contains("ws-discard="));
    }

    #[test]
    fn merge_accumulates() {
        let a = Metrics::new();
        let b = Metrics::new();
        Metrics::inc(&a.commits_update);
        Metrics::inc(&b.commits_update);
        Metrics::inc(&b.ws_delivered);
        a.merge(&b);
        assert_eq!(Metrics::get(&a.commits_update), 2);
        assert_eq!(Metrics::get(&a.ws_delivered), 1);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let m = Metrics::new();
        Metrics::inc(&m.commits_readonly);
        let s = m.summary();
        assert!(s.contains("commits=1"));
        assert!(s.contains("holes"));
    }

    #[test]
    fn wire_round_trips_every_counter() {
        use crate::wire::Wire;
        let m = Metrics::new();
        // Distinct value per counter so a field-order mixup can't cancel out.
        m.commits_update.store(1, Ordering::Relaxed);
        m.commits_readonly.store(2, Ordering::Relaxed);
        m.aborts_validation.store(3, Ordering::Relaxed);
        m.aborts_serialization.store(4, Ordering::Relaxed);
        m.aborts_deadlock.store(5, Ordering::Relaxed);
        m.aborts_user.store(6, Ordering::Relaxed);
        m.ws_apply_retries.store(7, Ordering::Relaxed);
        m.begins_delayed_by_holes.store(8, Ordering::Relaxed);
        m.begins_total.store(9, Ordering::Relaxed);
        m.commits_delayed_for_holes.store(10, Ordering::Relaxed);
        m.ws_delivered.store(11, Ordering::Relaxed);
        m.ws_discarded.store(12, Ordering::Relaxed);
        let bytes = m.to_wire();
        let back = Metrics::from_wire(&bytes).expect("decode");
        assert_eq!(back.counters(), m.counters());
        assert_eq!(back.to_wire(), bytes);
        for cut in 0..bytes.len() {
            assert!(Metrics::from_wire(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
