//! Renderers for the observability layer: Chrome-Trace/Perfetto JSON from
//! the protocol event journals, and Prometheus text exposition from a
//! [`ClusterReport`].
//!
//! Both are hand-rolled string builders — the workspace has no JSON
//! dependency, and both formats are line/array-oriented enough that a
//! serializer would buy nothing. Every string that reaches the output comes
//! from a `Display` impl or a `name()` table under our control (no client
//! data), so no escaping is needed.

use crate::cluster::ClusterReport;
use sirep_common::{Event, EventKind, ReplicaId, Stage, XactId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Render per-replica journals as one Chrome Trace Event Format document —
/// load it at `ui.perfetto.dev` or `chrome://tracing`.
///
/// Layout: one "process" per replica (pid = replica id). Track 0 carries an
/// instant event per journal record; track 1 carries transaction spans
/// (begin → commit, abort or read-only commit at the same replica); track 2
/// carries writeset
/// application spans (apply_start → apply_done). Timestamps are
/// microseconds from the journals' shared epoch, so replicas align.
pub fn perfetto_trace_json(journals: &[(ReplicaId, Vec<Event>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
    };
    for (replica, _) in journals {
        emit(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"replica {}\"}}}}",
                replica.raw(),
                replica
            ),
            &mut out,
        );
    }
    // Open spans keyed by (replica, xact, track): value is the start ts in µs.
    let mut open: HashMap<(u64, XactId, u8), f64> = HashMap::new();
    for (replica, events) in journals {
        let pid = replica.raw();
        for e in events {
            let ts = e.at_ns as f64 / 1000.0;
            emit(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"protocol\",\"ph\":\"i\",\"ts\":{ts:.3},\
                     \"pid\":{pid},\"tid\":0,\"s\":\"t\",\"args\":{{{}}}}}",
                    e.kind.name(),
                    event_args(&e.kind)
                ),
                &mut out,
            );
            let (track, xact, opens) = match e.kind {
                EventKind::TxBegin { xact, .. } => (1u8, xact, true),
                EventKind::Commit { xact, .. }
                | EventKind::Abort { xact }
                | EventKind::LocalReadOnly { xact, .. } => (1, xact, false),
                EventKind::ApplyStart { xact, .. } => (2, xact, true),
                EventKind::ApplyDone { xact, .. } => (2, xact, false),
                _ => continue,
            };
            if opens {
                open.insert((pid, xact, track), ts);
            } else if let Some(start) = open.remove(&(pid, xact, track)) {
                let (cat, name) = match e.kind {
                    EventKind::ApplyDone { tid, .. } => ("apply", format!("apply {tid}")),
                    _ => ("tx", format!("tx {xact}")),
                };
                let dur = (ts - start).max(0.0);
                emit(
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{start:.3},\
                         \"dur\":{dur:.3},\"pid\":{pid},\"tid\":{track}}}"
                    ),
                    &mut out,
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// The `args` object body (without braces) for one event.
fn event_args(kind: &EventKind) -> String {
    match *kind {
        EventKind::TxBegin { xact, gated } => format!("\"xact\":\"{xact}\",\"gated\":{gated}"),
        EventKind::CertCapture { xact, cert, .. } => {
            format!("\"xact\":\"{xact}\",\"cert\":{}", cert.raw())
        }
        EventKind::Multicast { xact } => format!("\"xact\":\"{xact}\""),
        EventKind::TotalOrderDeliver { xact, cert } => {
            format!("\"xact\":\"{xact}\",\"cert\":{}", cert.raw())
        }
        EventKind::ValidationVerdict { xact, cert, tid, ref keys } => {
            let tid = tid.map_or_else(|| "null".to_string(), |t| t.raw().to_string());
            format!(
                "\"xact\":\"{xact}\",\"cert\":{},\"tid\":{tid},\"keys\":{}",
                cert.raw(),
                keys.len()
            )
        }
        EventKind::HoleOpened { tid } | EventKind::HoleClosed { tid } => {
            format!("\"tid\":{}", tid.raw())
        }
        EventKind::WsListPruned { watermark, removed } => {
            format!("\"watermark\":{},\"removed\":{removed}", watermark.raw())
        }
        EventKind::Commit { xact, tid } => {
            format!("\"xact\":\"{xact}\",\"tid\":{}", tid.raw())
        }
        EventKind::Abort { xact } => format!("\"xact\":\"{xact}\""),
        EventKind::ApplyStart { xact, tid } | EventKind::ApplyDone { xact, tid } => {
            format!("\"xact\":\"{xact}\",\"tid\":{}", tid.raw())
        }
        EventKind::ViewChange { members } => format!("\"members\":{members}"),
        EventKind::ClientFailover { from } => format!("\"from\":\"{from}\""),
        EventKind::FaultInjected { fault, msg, member } => {
            format!("\"fault\":\"{}\",\"msg\":{msg},\"member\":{member}", fault.name())
        }
        EventKind::PartitionStarted { isolated } => format!("\"isolated\":{isolated}"),
        EventKind::PartitionHealed { flushed } => format!("\"flushed\":{flushed}"),
        EventKind::CrashPointFired { point } => format!("\"point\":\"{}\"", point.name()),
        EventKind::LocalReadOnly { xact, snapshot, gated, .. } => {
            format!("\"xact\":\"{xact}\",\"snapshot\":{},\"gated\":{gated}", snapshot.raw())
        }
        EventKind::ReplicaReset { last_validated, max_committed } => format!(
            "\"last_validated\":{},\"max_committed\":{}",
            last_validated.raw(),
            max_committed.raw()
        ),
    }
}

/// Render a [`ClusterReport`] in the Prometheus text exposition format
/// (version 0.0.4): every protocol counter (cluster total unlabeled, plus a
/// `replica="k"` labeled series per node), the queue-depth gauges with
/// their high-water marks, stage-latency quantiles, and the auditor's
/// violation count.
pub fn prometheus_text(report: &ClusterReport) -> String {
    let mut out = String::new();
    // --- counters ---------------------------------------------------------
    let totals = report.metrics.counters();
    for (i, (name, total)) in totals.iter().enumerate() {
        let _ = writeln!(out, "# HELP sirep_{name}_total Protocol event counter {name}.");
        let _ = writeln!(out, "# TYPE sirep_{name}_total counter");
        let _ = writeln!(out, "sirep_{name}_total {total}");
        for node in &report.per_node {
            let (n, v) = node.metrics.counters()[i];
            debug_assert_eq!(n, *name);
            let _ = writeln!(out, "sirep_{name}_total{{replica=\"{}\"}} {v}", node.replica.raw());
        }
    }
    // --- gauges -----------------------------------------------------------
    let cluster_fields = report.gauges.fields();
    for (i, (name, reading)) in cluster_fields.iter().enumerate() {
        let _ = writeln!(out, "# HELP sirep_{name} Protocol gauge {name}.");
        let _ = writeln!(out, "# TYPE sirep_{name} gauge");
        let _ = writeln!(out, "sirep_{name} {}", reading.current);
        for node in &report.per_node {
            let (_, r) = node.gauges.fields()[i];
            let _ =
                writeln!(out, "sirep_{name}{{replica=\"{}\"}} {}", node.replica.raw(), r.current);
        }
        let _ = writeln!(out, "# HELP sirep_{name}_high_water High-water mark of {name}.");
        let _ = writeln!(out, "# TYPE sirep_{name}_high_water gauge");
        let _ = writeln!(out, "sirep_{name}_high_water {}", reading.high_water);
        for node in &report.per_node {
            let (_, r) = node.gauges.fields()[i];
            let _ = writeln!(
                out,
                "sirep_{name}_high_water{{replica=\"{}\"}} {}",
                node.replica.raw(),
                r.high_water
            );
        }
    }
    // --- liveness ---------------------------------------------------------
    let _ = writeln!(out, "# HELP sirep_replica_alive 1 while the replica serves transactions.");
    let _ = writeln!(out, "# TYPE sirep_replica_alive gauge");
    for node in &report.per_node {
        let _ = writeln!(
            out,
            "sirep_replica_alive{{replica=\"{}\"}} {}",
            node.replica.raw(),
            node.alive as u8
        );
    }
    // --- stage latencies --------------------------------------------------
    let mut latency = String::new();
    let mut samples = String::new();
    let mut overflow = String::new();
    for stage in Stage::ALL {
        let count = report.stages.count(stage);
        if count == 0 {
            continue;
        }
        for q in [0.5, 0.95, 0.99] {
            let v = report.stages.quantile(stage, q);
            if v.is_finite() {
                let _ = writeln!(
                    latency,
                    "sirep_stage_latency_ms{{stage=\"{}\",quantile=\"{q}\"}} {v:.6}",
                    stage.name()
                );
            }
        }
        let _ =
            writeln!(samples, "sirep_stage_samples_total{{stage=\"{}\"}} {count}", stage.name());
        let _ = writeln!(
            overflow,
            "sirep_stage_overflow_total{{stage=\"{}\"}} {}",
            stage.name(),
            report.stages.overflow(stage)
        );
    }
    if !latency.is_empty() {
        let _ = writeln!(out, "# HELP sirep_stage_latency_ms Stage latency quantiles (ms).");
        let _ = writeln!(out, "# TYPE sirep_stage_latency_ms gauge");
        out.push_str(&latency);
    }
    if !samples.is_empty() {
        let _ = writeln!(out, "# HELP sirep_stage_samples_total Stage latency sample counts.");
        let _ = writeln!(out, "# TYPE sirep_stage_samples_total counter");
        out.push_str(&samples);
        let _ = writeln!(
            out,
            "# HELP sirep_stage_overflow_total Samples beyond the histogram range (lower bounds)."
        );
        let _ = writeln!(out, "# TYPE sirep_stage_overflow_total counter");
        out.push_str(&overflow);
    }
    // --- transport --------------------------------------------------------
    // Wire-level counters from the TCP tier (all zero on the sim transport,
    // which never serializes); emitted unconditionally so dashboards see a
    // stable series set.
    for (name, value) in report.transport.counters() {
        let _ = writeln!(out, "# HELP sirep_transport_{name}_total Transport counter {name}.");
        let _ = writeln!(out, "# TYPE sirep_transport_{name}_total counter");
        let _ = writeln!(out, "sirep_transport_{name}_total {value}");
    }
    for (name, reading) in report.transport.gauges() {
        let _ = writeln!(out, "# HELP sirep_transport_{name} Transport gauge {name}.");
        let _ = writeln!(out, "# TYPE sirep_transport_{name} gauge");
        let _ = writeln!(out, "sirep_transport_{name} {}", reading.current);
        let _ = writeln!(out, "sirep_transport_{name}_high_water {}", reading.high_water);
    }
    // --- auditor ----------------------------------------------------------
    let _ = writeln!(
        out,
        "# HELP sirep_audit_violations_total Invariant violations found by the 1-copy-SI auditor."
    );
    let _ = writeln!(out, "# TYPE sirep_audit_violations_total counter");
    let _ = writeln!(out, "sirep_audit_violations_total {}", report.violations.len());
    out
}

/// Shift every event's timestamp by a signed nanosecond offset (saturating
/// at both ends). The `report` role measures each node's clock offset
/// against the sequencer via the time-probe handshake and shifts its
/// journal onto the sequencer's timeline before rendering the merged
/// Perfetto trace — without this, spans from different processes interleave
/// nonsensically.
pub fn shift_events(events: &mut [Event], offset_ns: i64) {
    for e in events.iter_mut() {
        e.at_ns = e.at_ns.saturating_add_signed(offset_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_common::{GlobalTid, Journal};
    use std::sync::Arc;
    use std::time::Instant;

    fn r(k: u64) -> ReplicaId {
        ReplicaId::new(k)
    }

    #[test]
    fn perfetto_document_has_spans_and_instants() {
        let epoch = Instant::now();
        let j = Journal::with_epoch(r(0), epoch, 64);
        let x = XactId::new(r(0), 1);
        j.record(EventKind::TxBegin { xact: x, gated: true });
        j.record(EventKind::CertCapture { xact: x, cert: GlobalTid::ZERO, reads: Arc::default() });
        j.record(EventKind::Multicast { xact: x });
        j.record(EventKind::Commit { xact: x, tid: GlobalTid::new(1) });
        let doc = perfetto_trace_json(&[(r(0), j.snapshot())]);
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"process_name\""));
        if cfg!(feature = "trace") {
            assert!(doc.contains("\"name\":\"tx_begin\""));
            // The begin/commit pair produced a complete ("X") span.
            assert!(doc.contains("\"ph\":\"X\""));
            assert!(doc.contains("\"name\":\"tx R0.0#1\""));
        }
    }

    fn spans(doc: &str) -> usize {
        doc.matches("\"ph\":\"X\"").count()
    }

    #[test]
    fn read_only_transactions_get_a_span() {
        let ev = |seq: u64, kind| Event { seq, at_ns: seq * 1000, replica: r(0), kind };
        let snapshot = GlobalTid::ZERO;
        let ro =
            |xact| EventKind::LocalReadOnly { xact, snapshot, gated: true, reads: Arc::default() };
        let x = XactId::new(r(0), 1);
        let doc = perfetto_trace_json(&[(
            r(0),
            vec![ev(0, EventKind::TxBegin { xact: x, gated: true }), ev(1, ro(x))],
        )]);
        assert_eq!(spans(&doc), 1);
        assert!(doc.contains(
            "\"name\":\"tx R0.0#1\",\"cat\":\"tx\",\"ph\":\"X\",\"ts\":0.000,\"dur\":1.000"
        ));

        let mut events = Vec::new();
        for seq in 0..1000 {
            let xact = XactId::new(r(0), seq);
            events.push(ev(2 * seq, EventKind::TxBegin { xact, gated: true }));
            events.push(ev(2 * seq + 1, ro(xact)));
        }
        assert_eq!(spans(&perfetto_trace_json(&[(r(0), events)])), 1000);
    }

    #[test]
    fn unmatched_span_starts_do_not_emit_spans() {
        let j = Journal::with_epoch(r(0), Instant::now(), 64);
        j.record(EventKind::ApplyStart { xact: XactId::new(r(1), 7), tid: GlobalTid::new(3) });
        let doc = perfetto_trace_json(&[(r(0), j.snapshot())]);
        assert!(!doc.contains("\"ph\":\"X\""));
    }

    #[test]
    fn shift_events_is_signed_and_saturating() {
        let ev = |seq: u64, members| Event {
            seq,
            at_ns: seq * 1000,
            replica: r(0),
            kind: EventKind::ViewChange { members },
        };
        let mut events = vec![ev(0, 1), ev(5, 2)];
        shift_events(&mut events, 100);
        assert_eq!(events[0].at_ns, 100);
        assert_eq!(events[1].at_ns, 5100);
        shift_events(&mut events, -200);
        assert_eq!(events[0].at_ns, 0, "saturates at zero");
        assert_eq!(events[1].at_ns, 4900);
        shift_events(&mut events, i64::MAX);
        shift_events(&mut events, i64::MAX);
        assert_eq!(events[1].at_ns, u64::MAX, "saturates at the top");
    }
}
