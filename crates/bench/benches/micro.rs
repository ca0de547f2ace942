//! Micro-benchmarks of the building blocks (engineering measurements —
//! the paper has no corresponding table; these guard the hot paths the
//! protocol depends on).
//!
//! - writeset intersection (the certification inner loop);
//! - validation against a populated `ws_list`;
//! - recording a journal event, with and without a stage sample;
//! - storage point reads/writes and snapshot scans;
//! - SQL parsing.
//!
//! Each case prints the median nanoseconds per call over `reps` timed runs
//! ([`sirep_bench::time_ns`]); `SIREP_QUICK=1` shortens every run.

use sirep_bench::{quick, time_ns};
use sirep_common::{AbortReason, EventKind, GlobalTid, Journal, ReplicaId, Stage};
use sirep_core::{WsList, XactId};
use sirep_sql::parse;
use sirep_storage::{Column, ColumnType, Database, Key, TableSchema, Value, WriteSet, WsOp};
use std::hint::black_box;
use std::sync::Arc;

fn ws_of(keys: std::ops::Range<i64>) -> WriteSet {
    let mut ws = WriteSet::new();
    for k in keys {
        ws.push(Arc::from("t"), Key::single(k), WsOp::Put(vec![Value::Int(k)]));
    }
    ws
}

/// ws_list with 1000 entries of 10 tuples each (validation benches check a
/// fresh writeset against the most recent 100).
fn populated_wslist() -> WsList {
    let mut list = WsList::new();
    for i in 0..1000i64 {
        let ws = ws_of(i * 10..i * 10 + 10);
        list.append(XactId { origin: ReplicaId::new(0), seq: i as u64 }, Arc::new(ws));
    }
    list
}

fn kv_db(rows: i64) -> Database {
    let db = Database::in_memory();
    db.create_table(
        TableSchema::new(
            "kv",
            vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Int)],
            &["k"],
        )
        .unwrap(),
    )
    .unwrap();
    let t = db.begin().unwrap();
    for k in 0..rows {
        t.insert("kv", vec![Value::Int(k), Value::Int(k)]).unwrap();
    }
    t.commit().unwrap();
    db
}

fn main() {
    let (reps, iters) = if quick() { (3, 100) } else { (11, 2000) };
    let case = |name: &str, ns: f64| println!("{name:<36} {ns:>12.1} ns/iter");

    let a = ws_of(0..10);
    let disjoint = ws_of(100..110);
    let overlapping = ws_of(5..15);
    let ns = time_ns(reps, iters, || a.intersects(black_box(&disjoint)));
    case("writeset/intersect_disjoint_10x10", ns);
    let ns = time_ns(reps, iters, || a.intersects(black_box(&overlapping)));
    case("writeset/intersect_overlap_10x10", ns);

    let list = populated_wslist();
    let cert = GlobalTid::new(900);
    let candidate = ws_of(20_000..20_010);
    let ns = time_ns(reps, iters, || list.passes(black_box(cert), black_box(&candidate)));
    case("validation/pass_window_100", ns);
    let conflicting = ws_of(9_995..10_005);
    let ns = time_ns(reps, iters, || list.passes(black_box(cert), black_box(&conflicting)));
    case("validation/conflict_window_100", ns);

    // The per-transition cost of the one journal: every protocol event
    // takes the journal's ring lock and stamps `at_ns`, and an event that
    // ends a stage also buckets the stage's latency in the same hold. An
    // update transaction records six events at its origin (plus three
    // stage-only holds, `Journal::stage`) and five at each remote replica.
    // Once the ring is full each record also evicts the oldest event.
    let journal = Journal::new(ReplicaId::new(0));
    let xact = XactId { origin: ReplicaId::new(0), seq: 1 };
    let tid = GlobalTid::new(1);
    let ns = time_ns(reps, iters, || journal.record(black_box(EventKind::Commit { xact, tid })));
    case("journal/record_event", ns);
    let mut last = journal.now_ns();
    let ns = time_ns(reps, iters, || {
        let ends = [(Stage::Commit, last)];
        last = journal.record_ending(black_box(EventKind::Commit { xact, tid }), &ends);
    });
    case("journal/record_event_with_stage", ns);

    // Each case's reader transaction ends with the case: an open snapshot
    // would hold back version pruning for the cases after it.
    let db = kv_db(10_000);
    let (t, key) = (db.begin().unwrap(), Key::single(4321));
    case("storage/point_read", time_ns(reps, iters, || t.read("kv", black_box(&key)).unwrap()));
    drop(t);
    let mut k = 0i64;
    let ns = time_ns(reps, iters, || {
        k = (k + 1) % 10_000;
        let t = db.begin().unwrap();
        t.update_key("kv", Key::single(k), vec![Value::Int(k), Value::Int(k + 1)]).unwrap();
        t.commit().unwrap();
    });
    case("storage/update_commit", ns);
    let t = db.begin().unwrap();
    let ns = time_ns(reps, iters / 10, || {
        t.scan("kv", |r| r[1].as_int().unwrap() % 97 == 0).unwrap().len()
    });
    case("storage/scan_10k", ns);
    drop(t);
    // Setup stays outside the timed region: each run first opens its
    // transactions, each inserting ten keys no other touches, then times
    // only their writeset extraction (and abort).
    let mut next = 1_000_000i64;
    let mut runs: Vec<f64> = (0..reps)
        .map(|_| {
            let mut txns: Vec<_> = (0..iters)
                .map(|_| {
                    let t = db.begin().unwrap();
                    for k in next..next + 10 {
                        t.insert("kv", vec![Value::Int(k), Value::Int(0)]).unwrap();
                    }
                    next += 10;
                    t
                })
                .collect();
            time_ns(1, iters, || {
                let t = txns.pop().unwrap();
                black_box(t.writeset());
                t.abort(AbortReason::UserRequested);
            })
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    case("storage/writeset_extract_10", runs[runs.len() / 2]);

    let q = "SELECT i_id, i_title FROM item WHERE i_cost > 5 AND i_id <> 3 \
             ORDER BY i_cost DESC LIMIT 10";
    case("sql/parse_select", time_ns(reps, iters, || parse(black_box(q))));
    let u = "UPDATE item SET i_stock = i_stock - 3, i_total_sold = i_total_sold + 3 \
             WHERE i_id = 77";
    case("sql/parse_update", time_ns(reps, iters, || parse(black_box(u))));
    let db = kv_db(1_000);
    let t = db.begin().unwrap();
    let ns = time_ns(reps, iters, || {
        sirep_sql::execute_sql(&db, &t, "SELECT v FROM kv WHERE k = 500").unwrap()
    });
    case("sql/point_select_end_to_end", ns);
}
