//! Criterion micro-benchmarks of the building blocks (engineering
//! measurements — the paper has no corresponding table; these guard the
//! hot paths the protocol depends on).
//!
//! - writeset intersection (the certification inner loop);
//! - validation against a populated `ws_list`;
//! - recording a journal event, with and without a stage sample;
//! - storage point reads/writes and snapshot scans;
//! - SQL parsing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sirep_common::{EventKind, GlobalTid, Journal, ReplicaId, Stage};
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

fn bench_writeset_intersection(c: &mut Criterion) {
    let a = ws_of(0..10);
    let disjoint = ws_of(100..110);
    let overlapping = ws_of(5..15);
    c.bench_function("writeset/intersect_disjoint_10x10", |b| {
        b.iter(|| black_box(a.intersects(black_box(&disjoint))));
    });
    c.bench_function("writeset/intersect_overlap_10x10", |b| {
        b.iter(|| black_box(a.intersects(black_box(&overlapping))));
    });
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

fn bench_validation(c: &mut Criterion) {
    let list = populated_wslist();
    let cert = GlobalTid::new(900);
    let candidate = ws_of(20_000..20_010);
    c.bench_function("validation/pass_window_100", |b| {
        b.iter(|| black_box(list.passes(black_box(cert), black_box(&candidate))));
    });
    let conflicting = ws_of(9_995..10_005);
    c.bench_function("validation/conflict_window_100", |b| {
        b.iter(|| black_box(list.passes(black_box(cert), black_box(&conflicting))));
    });
}

fn bench_journal(c: &mut Criterion) {
    // The per-transition cost of the one recorder: every protocol event
    // takes the journal's ring lock and stamps `at_ns`, and an event that
    // ends a stage also buckets the stage's latency in the same hold. An
    // update transaction records six events at its origin (plus three
    // stage-only holds, `Journal::stage`) and five at each remote replica.
    // Once the ring is full each record also evicts the oldest event.
    let journal = Journal::new(ReplicaId::new(0));
    let xact = XactId { origin: ReplicaId::new(0), seq: 1 };
    let tid = GlobalTid::new(1);
    c.bench_function("journal/record_event", |b| {
        b.iter(|| black_box(journal.record(black_box(EventKind::Commit { xact, tid }))));
    });
    c.bench_function("journal/record_event_with_stage", |b| {
        let mut last = journal.now_ns();
        b.iter(|| {
            let ends = [(Stage::Commit, last)];
            last = journal.record_ending(black_box(EventKind::Commit { xact, tid }), &ends);
            black_box(last)
        });
    });
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

fn bench_storage(c: &mut Criterion) {
    let db = kv_db(10_000);
    c.bench_function("storage/point_read", |b| {
        let t = db.begin().unwrap();
        let key = Key::single(4321);
        b.iter(|| black_box(t.read("kv", black_box(&key)).unwrap()));
    });
    c.bench_function("storage/update_commit", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 1) % 10_000;
            let t = db.begin().unwrap();
            t.update_key("kv", Key::single(k), vec![Value::Int(k), Value::Int(k + 1)]).unwrap();
            t.commit().unwrap();
        });
    });
    c.bench_function("storage/scan_10k", |b| {
        let t = db.begin().unwrap();
        b.iter(|| black_box(t.scan("kv", |r| r[1].as_int().unwrap() % 97 == 0).unwrap().len()));
    });
    c.bench_function("storage/writeset_extract_10", |b| {
        // Criterion pre-builds a whole batch of setup transactions before
        // running the routine, so every setup must touch DISJOINT keys —
        // otherwise the second setup blocks on the first's tuple locks.
        use std::sync::atomic::{AtomicI64, Ordering};
        static NEXT: AtomicI64 = AtomicI64::new(1_000_000);
        b.iter_batched(
            || {
                let base = NEXT.fetch_add(10, Ordering::Relaxed);
                let t = db.begin().unwrap();
                for k in base..base + 10 {
                    t.insert("kv", vec![Value::Int(k), Value::Int(0)]).unwrap();
                }
                t
            },
            |t| {
                black_box(t.writeset());
                t.abort(sirep_common::AbortReason::UserRequested);
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_sql(c: &mut Criterion) {
    let q = "SELECT i_id, i_title FROM item WHERE i_cost > 5 AND i_id <> 3 \
             ORDER BY i_cost DESC LIMIT 10";
    c.bench_function("sql/parse_select", |b| b.iter(|| black_box(parse(black_box(q)))));
    let u = "UPDATE item SET i_stock = i_stock - 3, i_total_sold = i_total_sold + 3 \
             WHERE i_id = 77";
    c.bench_function("sql/parse_update", |b| b.iter(|| black_box(parse(black_box(u)))));

    let db = kv_db(1_000);
    c.bench_function("sql/point_select_end_to_end", |b| {
        let t = db.begin().unwrap();
        b.iter(|| {
            black_box(sirep_sql::execute_sql(&db, &t, "SELECT v FROM kv WHERE k = 500").unwrap())
        });
    });
}

criterion_group!(
    benches,
    bench_writeset_intersection,
    bench_validation,
    bench_journal,
    bench_storage,
    bench_sql
);
criterion_main!(benches);
