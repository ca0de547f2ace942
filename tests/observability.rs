//! Observability-layer tests: the metrics accounting invariant, per-stage
//! coverage for committed transactions, and stages as gaps between journal
//! stamps.
//!
//! These pin down the three contracts the harnesses depend on:
//! 1. every `begin_local` ends in exactly one terminal counter, so
//!    `begins_total == commits_* + aborts_*` holds after a quiesce;
//! 2. a committed update transaction samples every lifecycle stage, on the
//!    origin replica and on the remote appliers, so the fig5/fig7
//!    breakdown tables never show a silently-missing stage;
//! 3. a stage is the gap between two stamps of the replica's journal, so
//!    the origin's stages tile its `total`, and at a remote `validate_queue`
//!    and `apply` are the gaps from its `total_order_deliver` to its
//!    `apply_start` and on to its `apply_done`.

use si_rep::common::Metrics;
use si_rep::core::{Cluster, ClusterConfig, Connection};
use std::sync::Arc;
use std::time::Duration;

#[cfg(feature = "trace")]
use si_rep::common::{Stage, StageSnapshot};

const Q: Duration = Duration::from_secs(20);

fn cluster(n: usize) -> Arc<Cluster> {
    let c = Arc::new(Cluster::new(ClusterConfig::builder().replicas(n).build()));
    c.execute_ddl("CREATE TABLE acc (id INT, bal INT, PRIMARY KEY (id))").unwrap();
    c
}

/// Seed rows through a session; returns how many update commits that took.
fn seed_rows(c: &Cluster, rows: i64) -> u64 {
    let mut s = c.session(0);
    for id in 0..rows {
        s.execute(&format!("INSERT INTO acc VALUES ({id}, 1000)")).unwrap();
    }
    s.commit().unwrap();
    1
}

/// Every transaction begin must end in exactly one terminal counter:
/// commit (update or read-only) or abort (validation, serialization,
/// deadlock, or user rollback). Drives all five terminal paths, then
/// checks the books balance cluster-wide.
#[test]
fn metrics_accounting_invariant() {
    let c = cluster(2);
    let mut update_commits = seed_rows(&c, 10);

    let mut s = c.session(0);
    // Committed updates.
    for id in 0..5 {
        s.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}")).unwrap();
        s.commit().unwrap();
        update_commits += 1;
    }
    // Committed read-only transactions (empty-writeset fast path).
    for _ in 0..3 {
        s.execute("SELECT SUM(bal) FROM acc").unwrap();
        s.commit().unwrap();
    }
    // User rollbacks.
    for _ in 0..2 {
        s.execute("UPDATE acc SET bal = 0 WHERE id = 1").unwrap();
        s.rollback();
    }
    // A database-level serialization failure: t1 snapshots, a rival updates
    // and commits the row, then t1's write of the same row must abort
    // (first-committer-wins inside the engine).
    s.execute("SELECT bal FROM acc WHERE id = 3").unwrap();
    {
        let mut rival = c.session(0);
        rival.execute("UPDATE acc SET bal = bal + 7 WHERE id = 3").unwrap();
        rival.commit().unwrap();
        update_commits += 1;
    }
    let err = s.execute("UPDATE acc SET bal = bal + 9 WHERE id = 3").unwrap_err();
    assert!(err.is_abort(), "stale write should abort, got {err:?}");

    assert!(c.quiesce(Q), "cluster failed to drain");
    let report = c.metrics();

    // ClusterReport derefs to Metrics, so counter reads go straight through.
    let begins = Metrics::get(&report.begins_total);
    let terminal = Metrics::get(&report.commits_update)
        + Metrics::get(&report.commits_readonly)
        + Metrics::get(&report.aborts_validation)
        + Metrics::get(&report.aborts_serialization)
        + Metrics::get(&report.aborts_deadlock)
        + Metrics::get(&report.aborts_user);
    assert_eq!(
        begins,
        terminal,
        "begins_total must equal the sum of terminal outcomes \
         (summary: {})",
        report.summary()
    );

    assert_eq!(Metrics::get(&report.commits_update), update_commits);
    assert_eq!(Metrics::get(&report.commits_readonly), 3);
    assert_eq!(Metrics::get(&report.aborts_user), 2);
    assert_eq!(Metrics::get(&report.aborts_serialization), 1);

    // The derived-rates bundle is consistent with the raw counters: no
    // forced aborts besides the serialization failure occurred.
    let rates = report.rates();
    assert!(rates.abort_rate > 0.0 && rates.abort_rate < 0.2);
    assert_eq!(rates.ws_discard_rate, 0.0);
}

/// A committed update transaction leaves a sample in every lifecycle stage
/// it passes through: execute/ws-extract/deliver/validate/commit/total on
/// the origin, deliver/validate/apply/commit on the remote replica.
#[cfg(feature = "trace")]
#[test]
fn committed_txns_mark_every_stage() {
    let c = cluster(2);
    let updates = 20 + seed_rows(&c, 8);
    let readonly = 4u64;

    let mut s = c.session(0);
    for i in 0..20 {
        s.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {}", i % 8)).unwrap();
        s.commit().unwrap();
    }
    for _ in 0..readonly {
        s.execute("SELECT COUNT(id) FROM acc").unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q), "cluster failed to drain");

    let report = c.metrics();
    let origin = &report.per_node[0].stages;
    let remote = &report.per_node[1].stages;

    // Origin replica: the full local lifecycle. Read-only commits skip the
    // writeset stages but still mark execute/commit/total.
    assert_eq!(origin.count(Stage::Execute), updates + readonly);
    assert_eq!(origin.count(Stage::WsExtract), updates);
    assert_eq!(origin.count(Stage::GcsDeliver), updates);
    assert_eq!(origin.count(Stage::ValidateQueue), updates);
    assert_eq!(origin.count(Stage::Commit), updates + readonly);
    assert_eq!(origin.count(Stage::Total), updates + readonly);
    assert_eq!(origin.count(Stage::Apply), 0, "origin never remote-applies its own writesets");

    // Remote replica: the applier-side lifecycle, one sample per writeset.
    assert_eq!(remote.count(Stage::GcsDeliver), updates);
    assert_eq!(remote.count(Stage::ValidateQueue), updates);
    assert_eq!(remote.count(Stage::Apply), updates);
    assert_eq!(remote.count(Stage::Commit), updates);
    assert_eq!(remote.count(Stage::Execute), 0);
    assert_eq!(remote.count(Stage::Total), 0, "total is a client-side latency");

    // The merged cluster-wide snapshot is the per-node sum.
    assert_eq!(report.stages.count(Stage::Commit), 2 * updates + readonly);
    assert!(!report.stages.is_empty());
    // And the human-readable table renders a line per stage with samples.
    let table = report.breakdown_table();
    assert!(table.contains("apply") && table.contains("execute"), "table:\n{table}");
}

/// The protocol event journal captures the full lifecycle of an update
/// transaction: begin/cert/multicast/deliver/verdict/commit at the origin,
/// deliver/verdict/apply/commit at the remotes.
#[cfg(feature = "trace")]
#[test]
fn journal_records_the_protocol_lifecycle() {
    let c = cluster(2);
    seed_rows(&c, 4);
    let mut s = c.session(0);
    s.execute("UPDATE acc SET bal = bal + 1 WHERE id = 2").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q), "cluster failed to drain");

    let journals = c.journal_events();
    assert_eq!(journals.len(), 2);
    let names =
        |k: usize| -> Vec<&'static str> { journals[k].1.iter().map(|e| e.kind.name()).collect() };
    let origin = names(0);
    for expected in [
        "tx_begin",
        "cert_capture",
        "multicast",
        "total_order_deliver",
        "validation_verdict",
        "commit",
    ] {
        assert!(origin.contains(&expected), "origin journal missing {expected}: {origin:?}");
    }
    let remote = names(1);
    for expected in
        ["total_order_deliver", "validation_verdict", "apply_start", "apply_done", "commit"]
    {
        assert!(remote.contains(&expected), "remote journal missing {expected}: {remote:?}");
    }
    assert!(!remote.contains(&"tx_begin"), "remote never begins the origin's transaction");

    // Events carry the shared epoch: per-journal sequence numbers are
    // strictly increasing and timestamps are monotone.
    for (_, events) in &journals {
        for w in events.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].at_ns >= w[0].at_ns);
        }
    }
}

/// With tracing compiled out, the journal API still exists but records
/// nothing; with it on, records are kept up to the bounded capacity.
#[test]
fn journal_stub_has_same_api() {
    use si_rep::common::{EventKind, Journal, ReplicaId, XactId};
    let j = Journal::with_epoch(ReplicaId::new(0), std::time::Instant::now(), 4);
    for seq in 0..6 {
        j.record(EventKind::TxBegin { xact: XactId::new(ReplicaId::new(0), seq), gated: true });
    }
    let events = j.snapshot();
    if cfg!(feature = "trace") {
        assert_eq!(events.len(), 4, "ring keeps the newest `capacity` events");
        assert_eq!(j.dropped(), 2);
        assert_eq!(events[0].kind.name(), "tx_begin");
    } else {
        assert!(events.is_empty());
        assert_eq!(j.dropped(), 0);
    }
}

/// The Perfetto/Chrome-trace export is well-formed JSON (checked with the
/// workspace's one validator, `sirep_common::json_lint` — there is no JSON
/// dependency) and contains a process per replica.
#[test]
fn perfetto_export_is_valid_json() {
    let c = cluster(2);
    seed_rows(&c, 4);
    let mut s = c.session(0);
    for id in 0..4 {
        s.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}")).unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q), "cluster failed to drain");

    let doc = c.perfetto_json();
    si_rep::common::json_lint(&doc).unwrap_or_else(|e| panic!("invalid JSON ({e}): {doc}"));
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"replica R0\"") && doc.contains("\"replica R1\""));
    if cfg!(feature = "trace") {
        assert!(doc.contains("\"ph\":\"X\""), "expected complete spans in {doc}");
    }
}

/// The Prometheus rendering follows the text exposition format: every
/// non-comment line is `name[{labels}] value`, each family has HELP/TYPE,
/// and the key protocol series are present.
#[test]
fn prometheus_export_is_well_formed() {
    let c = cluster(2);
    seed_rows(&c, 4);
    let mut s = c.session(0);
    s.execute("UPDATE acc SET bal = bal + 1 WHERE id = 1").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q), "cluster failed to drain");

    let text = c.metrics().prometheus_text();
    let mut families = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            families.insert(rest.split_whitespace().next().unwrap().to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        // name{labels} value | name value
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line: {line}"));
        assert!(value.parse::<f64>().is_ok(), "non-numeric value in: {line}");
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '_'),
            "bad metric name in: {line}"
        );
        assert!(name.starts_with("sirep_"), "unprefixed metric: {line}");
        // Every sample's family was declared with a TYPE line first.
        let family = name.strip_suffix("_high_water").unwrap_or(name);
        assert!(
            families.contains(name) || families.contains(family),
            "sample before TYPE declaration: {line}"
        );
    }
    for needed in [
        "sirep_commits_update_total",
        "sirep_tocommit_depth",
        "sirep_ready_len",
        "sirep_cert_index_keys",
        "sirep_replica_alive",
        "sirep_audit_violations_total",
    ] {
        assert!(families.contains(needed), "missing family {needed} in:\n{text}");
    }
    assert!(text.contains("sirep_commits_update_total{replica=\"0\"}"));
    assert!(text.trim_end().ends_with("sirep_audit_violations_total 0"));
}

/// Queue-depth gauges: high-water marks never sit below a current reading,
/// and a run that certified writesets leaves a nonzero ws_list high-water.
#[cfg(feature = "trace")]
#[test]
fn gauges_track_queue_depths() {
    let c = cluster(2);
    seed_rows(&c, 6);
    let mut s = c.session(0);
    for id in 0..6 {
        s.execute(&format!("UPDATE acc SET bal = bal + 1 WHERE id = {id}")).unwrap();
        s.commit().unwrap();
    }
    assert!(c.quiesce(Q), "cluster failed to drain");

    let report = c.metrics();
    for node in &report.per_node {
        for (name, r) in node.gauges.fields() {
            assert!(
                r.high_water >= r.current,
                "{name} high-water below current at {}",
                node.replica
            );
        }
        assert!(node.gauges.ws_list_len.high_water > 0, "certification never ran?");
        assert!(node.gauges.cert_index_keys.high_water > 0, "index never held a key?");
        // After a quiesce nothing is eligible-but-unclaimed.
        assert_eq!(node.gauges.ready_len.current, 0, "ready set must drain");
    }
    // The cluster rollup maxes high-water marks over replicas.
    let max_hw = report.per_node.iter().map(|n| n.gauges.tocommit_depth.high_water).max().unwrap();
    assert_eq!(report.gauges.tocommit_depth.high_water, max_hw);
}

/// One update transaction on a fresh 2-replica cluster. At the origin its
/// stages tile its `total` — they are consecutive gaps between journal
/// stamps — within one histogram bucket per stage; at the remote,
/// `validate_queue` is the gap between the `total_order_deliver` and
/// `apply_start` stamps, and `apply` the gap on to `apply_done`.
#[cfg(feature = "trace")]
#[test]
fn stages_are_the_journals_gaps() {
    /// How far a quantile (a bucket's lower edge) can sit below the sample:
    /// one ~3.7 % bucket, or 1 µs for samples below the tracked range.
    fn bucket(ms: f64) -> f64 {
        ms * (10f64.powf(1.0 / 64.0) - 1.0) + 1e-3
    }
    /// What a histogram holding the one sample `ns` reports for `stage`.
    fn reported(stage: Stage, ns: u64) -> f64 {
        let mut one = StageSnapshot::default();
        one.record_ns(stage, ns);
        one.median(stage)
    }
    let c = cluster(2);
    let mut s = c.session(0);
    s.execute("INSERT INTO acc VALUES (1, 1000)").unwrap();
    s.commit().unwrap();
    assert!(c.quiesce(Q), "cluster failed to drain");
    let report = c.metrics();
    let journals = c.journal_events();
    let at = |k: usize, name: &str| -> u64 {
        let mut hits = journals[k].1.iter().filter(|e| e.kind.name() == name);
        let e = hits.next().unwrap_or_else(|| panic!("R{k} journal has no {name}"));
        assert!(hits.next().is_none(), "R{k} journal has two {name}");
        e.at_ns
    };

    let origin = &report.per_node[0].stages;
    assert_eq!(origin.count(Stage::BeginWait), 0, "nothing to wait for");
    let tiles =
        [Stage::Execute, Stage::WsExtract, Stage::GcsDeliver, Stage::ValidateQueue, Stage::Commit];
    for stage in tiles.into_iter().chain([Stage::Total]) {
        assert_eq!(origin.count(stage), 1, "{stage}");
    }
    let total = origin.median(Stage::Total);
    assert_eq!(total, reported(Stage::Total, at(0, "commit") - at(0, "tx_begin")));
    let sum: f64 = tiles.iter().map(|&st| origin.median(st)).sum();
    let slack: f64 = tiles.iter().map(|&st| bucket(origin.median(st))).sum::<f64>() + bucket(total);
    assert!((sum - total).abs() <= slack, "stages sum to {sum} ms, total {total} ms");

    let remote = &report.per_node[1].stages;
    let gaps = [
        (Stage::ValidateQueue, "total_order_deliver", "apply_start"),
        (Stage::Apply, "apply_start", "apply_done"),
    ];
    for (stage, from, to) in gaps {
        assert_eq!(remote.count(stage), 1, "{stage}");
        let gap_ns = at(1, to) - at(1, from);
        let median = remote.median(stage);
        assert_eq!(median, reported(stage, gap_ns), "{stage}");
        let gap = gap_ns as f64 / 1e6;
        assert!(median <= gap && gap - median <= bucket(median), "{stage}");
    }
    assert_eq!(c.node(1).journal.stages(), report.per_node[1].stages);
}
