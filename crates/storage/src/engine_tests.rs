//! Behavioural tests for the engine: snapshot isolation semantics,
//! first-updater-wins, blocking, deadlocks, writeset extraction/application.

use crate::*;
use sirep_common::{AbortReason, DbError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn db_with_kv() -> Database {
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
    db
}

fn put(db: &Database, k: i64, v: i64) {
    let t = db.begin().unwrap();
    t.insert("kv", vec![Value::Int(k), Value::Int(v)]).unwrap();
    t.commit().unwrap();
}

fn get(db: &Database, k: i64) -> Option<i64> {
    let t = db.begin().unwrap();
    let r = t.read("kv", &Key::single(k)).unwrap().map(|row| row[1].as_int().unwrap());
    t.commit().unwrap();
    r
}

#[test]
fn insert_read_roundtrip() {
    let db = db_with_kv();
    put(&db, 1, 10);
    assert_eq!(get(&db, 1), Some(10));
    assert_eq!(get(&db, 2), None);
    assert_eq!(db.table_len("kv"), 1);
}

#[test]
fn snapshot_reads_ignore_later_commits() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let reader = db.begin().unwrap();
    // Writer commits a new version after the reader's snapshot.
    let w = db.begin().unwrap();
    w.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(20)]).unwrap();
    w.commit().unwrap();
    // Reader still sees the old version (reads from its snapshot).
    let row = reader.read("kv", &Key::single(1)).unwrap().unwrap();
    assert_eq!(row[1], Value::Int(10));
    reader.commit().unwrap();
    assert_eq!(get(&db, 1), Some(20));
}

#[test]
fn snapshot_does_not_see_concurrent_insert() {
    let db = db_with_kv();
    let reader = db.begin().unwrap();
    put(&db, 5, 50);
    assert_eq!(reader.read("kv", &Key::single(5)).unwrap(), None);
    assert!(reader.scan("kv", |_| true).unwrap().is_empty());
    reader.commit().unwrap();
}

#[test]
fn read_your_own_writes_and_deletes() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t = db.begin().unwrap();
    t.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(99)]).unwrap();
    assert_eq!(t.read("kv", &Key::single(1)).unwrap().unwrap()[1], Value::Int(99));
    t.delete_key("kv", Key::single(1)).unwrap();
    assert_eq!(t.read("kv", &Key::single(1)).unwrap(), None);
    t.commit().unwrap();
    assert_eq!(get(&db, 1), None);
}

#[test]
fn scan_sees_own_inserts_in_key_order() {
    let db = db_with_kv();
    put(&db, 2, 20);
    let t = db.begin().unwrap();
    t.insert("kv", vec![Value::Int(1), Value::Int(10)]).unwrap();
    t.insert("kv", vec![Value::Int(3), Value::Int(30)]).unwrap();
    let rows = t.scan("kv", |_| true).unwrap();
    let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(keys, vec![1, 2, 3]);
    t.commit().unwrap();
}

#[test]
fn first_updater_wins_immediate_abort() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    t1.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();
    t1.commit().unwrap();
    // t2 is concurrent with t1 and t1 committed a newer version → abort.
    let err = t2.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(12)]).unwrap_err();
    assert_eq!(err, DbError::Aborted(AbortReason::SerializationFailure));
    assert_eq!(get(&db, 1), Some(11));
}

#[test]
fn aborted_txn_rejects_further_operations() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    t1.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();
    t1.commit().unwrap();
    let _ = t2.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(12)]);
    // Any further statement fails with the same abort reason.
    let err = t2.read("kv", &Key::single(1)).unwrap_err();
    assert_eq!(err, DbError::Aborted(AbortReason::SerializationFailure));
    let err = t2.commit().unwrap_err();
    assert_eq!(err, DbError::Aborted(AbortReason::SerializationFailure));
}

#[test]
fn blocked_writer_aborts_when_holder_commits() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t1 = db.begin().unwrap();
    t1.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();

    let db2 = db.clone();
    let blocked = Arc::new(AtomicBool::new(true));
    let blocked2 = Arc::clone(&blocked);
    let h = thread::spawn(move || {
        let t2 = db2.begin().unwrap();
        // Blocks behind t1's lock; after t1 commits, fails the version check.
        let r = t2.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(12)]);
        blocked2.store(false, Ordering::SeqCst);
        r
    });
    thread::sleep(Duration::from_millis(50));
    assert!(blocked.load(Ordering::SeqCst), "writer must block while lock held");
    t1.commit().unwrap();
    let r = h.join().unwrap();
    assert_eq!(r, Err(DbError::Aborted(AbortReason::SerializationFailure)));
    assert_eq!(get(&db, 1), Some(11));
}

#[test]
fn blocked_writer_proceeds_when_holder_aborts() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t1 = db.begin().unwrap();
    t1.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();

    let db2 = db.clone();
    let h = thread::spawn(move || {
        let t2 = db2.begin().unwrap();
        t2.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(12)])?;
        t2.commit().map(|_| ())
    });
    thread::sleep(Duration::from_millis(30));
    t1.abort(AbortReason::UserRequested);
    assert_eq!(h.join().unwrap(), Ok(()));
    assert_eq!(get(&db, 1), Some(12));
}

#[test]
fn write_write_deadlock_detected() {
    let db = db_with_kv();
    put(&db, 1, 10);
    put(&db, 2, 20);
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    t1.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();
    t2.update_key("kv", Key::single(2), vec![Value::Int(2), Value::Int(21)]).unwrap();

    let h = thread::spawn(move || {
        // t2 blocks on key 1 (held by t1).
        let r = t2.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(12)]);
        match r {
            Ok(()) => t2.commit().map(|_| ()),
            Err(e) => Err(e),
        }
    });
    thread::sleep(Duration::from_millis(50));
    // t1 requests key 2 → cycle → t1 aborted as the closer.
    let r = t1.update_key("kv", Key::single(2), vec![Value::Int(2), Value::Int(22)]);
    assert_eq!(r, Err(DbError::Aborted(AbortReason::Deadlock)));
    // t2 then acquires key 1; version check passes because t1 aborted.
    assert_eq!(h.join().unwrap(), Ok(()));
    assert_eq!(get(&db, 1), Some(12));
    assert_eq!(get(&db, 2), Some(21));
}

#[test]
fn si_allows_write_skew() {
    // The classic SI anomaly must be allowed (SI, not serializability):
    // both transactions read both keys, each writes a different one.
    let db = db_with_kv();
    put(&db, 1, 50);
    put(&db, 2, 50);
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    let sum1: i64 = [1, 2]
        .iter()
        .map(|&k| t1.read("kv", &Key::single(k)).unwrap().unwrap()[1].as_int().unwrap())
        .sum();
    let sum2: i64 = [1, 2]
        .iter()
        .map(|&k| t2.read("kv", &Key::single(k)).unwrap().unwrap()[1].as_int().unwrap())
        .sum();
    assert_eq!(sum1, 100);
    assert_eq!(sum2, 100);
    t1.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(sum1 - 100)]).unwrap();
    t2.update_key("kv", Key::single(2), vec![Value::Int(2), Value::Int(sum2 - 100)]).unwrap();
    t1.commit().unwrap();
    t2.commit().unwrap(); // no w/w conflict → both commit under SI
    assert_eq!(get(&db, 1), Some(0));
    assert_eq!(get(&db, 2), Some(0));
}

#[test]
fn duplicate_key_insert_rejected() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t = db.begin().unwrap();
    let err = t.insert("kv", vec![Value::Int(1), Value::Int(99)]).unwrap_err();
    assert!(matches!(err, DbError::DuplicateKey(_)));
}

#[test]
fn insert_after_delete_in_same_txn() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t = db.begin().unwrap();
    t.delete_key("kv", Key::single(1)).unwrap();
    t.insert("kv", vec![Value::Int(1), Value::Int(77)]).unwrap();
    t.commit().unwrap();
    assert_eq!(get(&db, 1), Some(77));
}

#[test]
fn concurrent_inserts_same_key_conflict() {
    let db = db_with_kv();
    let t1 = db.begin().unwrap();
    let t2 = db.begin().unwrap();
    t1.insert("kv", vec![Value::Int(9), Value::Int(1)]).unwrap();

    let h = thread::spawn(move || t2.insert("kv", vec![Value::Int(9), Value::Int(2)]));
    thread::sleep(Duration::from_millis(30));
    t1.commit().unwrap();
    let r = h.join().unwrap();
    assert_eq!(r, Err(DbError::Aborted(AbortReason::SerializationFailure)));
    assert_eq!(get(&db, 9), Some(1));
}

#[test]
fn writeset_extraction_pre_commit() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t = db.begin().unwrap();
    t.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();
    t.insert("kv", vec![Value::Int(2), Value::Int(20)]).unwrap();
    t.delete_key("kv", Key::single(1)).unwrap();
    let ws = t.writeset(); // before commit!
    assert_eq!(ws.len(), 2); // key 1 collapsed to delete, key 2 put
    assert!(ws.contains("kv", &Key::single(1)));
    assert!(ws.contains("kv", &Key::single(2)));
    t.commit().unwrap();
}

#[test]
fn writeset_apply_reproduces_state() {
    let src = db_with_kv();
    let dst = db_with_kv();
    put(&src, 1, 10);
    put(&dst, 1, 10);

    let t = src.begin().unwrap();
    t.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(42)]).unwrap();
    t.insert("kv", vec![Value::Int(2), Value::Int(7)]).unwrap();
    let ws = t.writeset();
    t.commit().unwrap();

    let r = dst.begin().unwrap();
    r.apply_writeset(&ws).unwrap();
    r.commit().unwrap();

    for k in [1, 2] {
        assert_eq!(get(&src, k), get(&dst, k), "divergence at key {k}");
    }
}

#[test]
fn remote_apply_blocks_behind_local_writer() {
    // §4.2 first case: a remote writeset is blocked by a local transaction
    // holding the tuple lock, and proceeds once the local aborts.
    let db = db_with_kv();
    put(&db, 1, 10);
    let local = db.begin().unwrap();
    local.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();

    let mut ws = WriteSet::new();
    ws.push(Arc::from("kv"), Key::single(1), WsOp::Put(vec![Value::Int(1), Value::Int(99)]));

    let db2 = db.clone();
    let h = thread::spawn(move || {
        let remote = db2.begin().unwrap();
        remote.apply_writeset(&ws)?;
        remote.commit().map(|_| ())
    });
    thread::sleep(Duration::from_millis(30));
    local.abort(AbortReason::ValidationFailure); // middleware aborts it
    assert_eq!(h.join().unwrap(), Ok(()));
    assert_eq!(get(&db, 1), Some(99));
}

#[test]
fn a_nowait_apply_behind_a_local_writer_rolls_back_holding_nothing() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let local = db.begin().unwrap();
    local.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();

    // Key 2 is free and taken first; key 1 is the local's.
    let mut ws = WriteSet::new();
    ws.push(Arc::from("kv"), Key::single(2), WsOp::Put(vec![Value::Int(2), Value::Int(7)]));
    ws.push(Arc::from("kv"), Key::single(1), WsOp::Put(vec![Value::Int(1), Value::Int(99)]));
    let remote = db.begin().unwrap();
    let probed = remote.apply_writeset_nowait(&ws);
    assert_eq!(probed, Err(DbError::Aborted(AbortReason::Deadlock)));
    let other = db.begin().unwrap();
    other.insert("kv", vec![Value::Int(2), Value::Int(8)]).unwrap();
    other.commit().unwrap();
    assert_eq!(get(&db, 2), Some(8), "the probe released the lock it took");
    drop(remote);
    local.abort(AbortReason::ValidationFailure);
    let retry = db.begin().unwrap();
    retry.apply_writeset_nowait(&ws).unwrap();
    retry.commit().unwrap();
    assert_eq!((get(&db, 1), get(&db, 2)), (Some(99), Some(7)));
}

#[test]
fn drop_aborts_transaction() {
    let db = db_with_kv();
    {
        let t = db.begin().unwrap();
        t.insert("kv", vec![Value::Int(1), Value::Int(10)]).unwrap();
        // dropped without commit
    }
    assert_eq!(get(&db, 1), None);
    assert_eq!(db.active_txns(), 0);
}

#[test]
fn kill_wakes_blocked_transaction() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let holder = db.begin().unwrap();
    holder.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(11)]).unwrap();

    let db2 = db.clone();
    let h = thread::spawn(move || {
        let victim = db2.begin().unwrap();
        let id = victim.id();
        let r = victim.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(12)]);
        (id, r)
    });
    thread::sleep(Duration::from_millis(30));
    // Find and kill the blocked txn.
    let ids: Vec<_> = (1..=10).map(sirep_common::TxnId::new).collect();
    for id in ids {
        if id != holder.id() {
            db.kill(id);
        }
    }
    let (_, r) = h.join().unwrap();
    assert_eq!(r, Err(DbError::Aborted(AbortReason::Shutdown)));
    holder.commit().unwrap();
}

#[test]
fn crash_closes_database() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t = db.begin().unwrap();
    db.crash();
    assert!(db.is_closed());
    assert!(db.begin().is_err());
    let err = t.read("kv", &Key::single(1)).unwrap_err();
    assert_eq!(err, DbError::Aborted(AbortReason::Shutdown));
}

/// A `begin` racing `crash` must not slip a live, undoomed transaction into
/// the closed database: once `crash` has returned, every transaction that
/// ever began there fails its next operation.
#[test]
fn no_transaction_survives_a_crash_it_raced() {
    for _ in 0..200 {
        let db = db_with_kv();
        let beginner = {
            let db = db.clone();
            thread::spawn(move || {
                let mut begun = Vec::new();
                while let Ok(t) = db.begin() {
                    begun.push(t);
                }
                begun
            })
        };
        thread::yield_now();
        db.crash();
        for t in beginner.join().unwrap() {
            let err = t.read("kv", &Key::single(1)).unwrap_err();
            assert_eq!(err, DbError::Aborted(AbortReason::Shutdown));
        }
    }
}

#[test]
fn version_gc_prunes_dead_versions() {
    let db = db_with_kv();
    put(&db, 1, 0);
    for v in 1..50 {
        let t = db.begin().unwrap();
        t.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(v)]).unwrap();
        t.commit().unwrap();
    }
    // With no concurrent readers, chains stay short.
    assert!(db.stored_versions("kv") <= 2, "versions: {}", db.stored_versions("kv"));
}

#[test]
fn version_gc_respects_active_snapshots() {
    let db = db_with_kv();
    put(&db, 1, 0);
    let reader = db.begin().unwrap(); // pins the old snapshot
    for v in 1..10 {
        let t = db.begin().unwrap();
        t.update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(v)]).unwrap();
        t.commit().unwrap();
    }
    // The reader's version must survive.
    assert_eq!(reader.read("kv", &Key::single(1)).unwrap().unwrap()[1], Value::Int(0));
    reader.commit().unwrap();
}

#[test]
fn unknown_table_and_type_errors_do_not_abort() {
    let db = db_with_kv();
    let t = db.begin().unwrap();
    assert!(matches!(t.read("nope", &Key::single(1)), Err(DbError::UnknownTable(_))));
    let bad = t.insert("kv", vec![Value::Text("x".into()), Value::Int(1)]);
    assert!(matches!(bad, Err(DbError::TypeMismatch { .. })));
    // Transaction still usable.
    t.insert("kv", vec![Value::Int(1), Value::Int(1)]).unwrap();
    t.commit().unwrap();
}

#[test]
fn update_pk_rejected() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let t = db.begin().unwrap();
    let r = t.update_key("kv", Key::single(1), vec![Value::Int(2), Value::Int(10)]);
    assert!(matches!(r, Err(DbError::Unsupported(_))));
}

#[test]
fn readonly_commit_consumes_no_timestamp() {
    let db = db_with_kv();
    put(&db, 1, 10);
    let before = db.last_committed();
    let t = db.begin().unwrap();
    let _ = t.read("kv", &Key::single(1)).unwrap();
    assert!(t.is_readonly());
    t.commit().unwrap();
    assert_eq!(db.last_committed(), before);
}

#[test]
fn many_concurrent_disjoint_writers() {
    let db = db_with_kv();
    let mut handles = Vec::new();
    for i in 0..8i64 {
        let db2 = db.clone();
        handles.push(thread::spawn(move || {
            for j in 0..50i64 {
                let t = db2.begin().unwrap();
                t.insert("kv", vec![Value::Int(i * 1000 + j), Value::Int(j)]).unwrap();
                t.commit().unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.table_len("kv"), 400);
    assert_eq!(db.last_committed(), CommitTs(400));
}

#[test]
fn contended_counter_conflicts_resolve_consistently() {
    // Many threads increment one counter; aborted attempts retry. The final
    // value must equal the number of successful commits.
    let db = db_with_kv();
    put(&db, 1, 0);
    let success = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let db2 = db.clone();
        let success2 = Arc::clone(&success);
        handles.push(thread::spawn(move || {
            for _ in 0..25 {
                loop {
                    let t = db2.begin().unwrap();
                    let cur = t.read("kv", &Key::single(1)).unwrap().unwrap()[1].as_int().unwrap();
                    let r = t
                        .update_key("kv", Key::single(1), vec![Value::Int(1), Value::Int(cur + 1)])
                        .and_then(|_| t.commit().map(|_| ()));
                    if r.is_ok() {
                        success2.fetch_add(1, Ordering::SeqCst);
                        break;
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(success.load(Ordering::SeqCst), 100);
    assert_eq!(get(&db, 1), Some(100));
}
