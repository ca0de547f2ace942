//! Tests for secondary-index planning and execution.

use crate::exec::execute_sql;
use proptest::prelude::*;
use sirep_common::DbError;
use sirep_storage::{Database, Row, Value};
use std::collections::BTreeMap;

fn setup(indexed: bool) -> Database {
    let db = Database::in_memory();
    let t = db.begin().unwrap();
    execute_sql(&db, &t, "CREATE TABLE item (id INT, grp INT, val INT, PRIMARY KEY (id))").unwrap();
    for id in 0..100 {
        execute_sql(
            &db,
            &t,
            &format!("INSERT INTO item VALUES ({id}, {grp}, {val})", grp = id % 10, val = id * 2),
        )
        .unwrap();
    }
    t.commit().unwrap();
    if indexed {
        let t = db.begin().unwrap();
        execute_sql(&db, &t, "CREATE INDEX ON item (grp)").unwrap();
        t.commit().unwrap();
    }
    db
}

fn grp_ids(db: &Database, grp: i64) -> Vec<i64> {
    let t = db.begin().unwrap();
    let r = execute_sql(db, &t, &format!("SELECT id FROM item WHERE grp = {grp}")).unwrap();
    let out = r.rows().iter().map(|row| row[0].as_int().unwrap()).collect();
    t.commit().unwrap();
    out
}

#[test]
fn index_lookup_matches_scan() {
    let plain = setup(false);
    let indexed = setup(true);
    for grp in 0..10 {
        assert_eq!(grp_ids(&plain, grp), grp_ids(&indexed, grp), "grp {grp}");
    }
    // Missing value.
    assert!(grp_ids(&indexed, 99).is_empty());
}

#[test]
fn index_sees_committed_updates() {
    let db = setup(true);
    let t = db.begin().unwrap();
    execute_sql(&db, &t, "UPDATE item SET grp = 55 WHERE id = 7").unwrap();
    t.commit().unwrap();
    assert_eq!(grp_ids(&db, 55), vec![7]);
    // The old posting is rechecked away.
    assert!(!grp_ids(&db, 7).contains(&7));
}

#[test]
fn index_respects_snapshots() {
    let db = setup(true);
    let reader = db.begin().unwrap();
    {
        let w = db.begin().unwrap();
        execute_sql(&db, &w, "UPDATE item SET grp = 77 WHERE id = 3").unwrap();
        w.commit().unwrap();
    }
    // The reader's snapshot predates the move: id 3 still in grp 3.
    let r = execute_sql(&db, &reader, "SELECT id FROM item WHERE grp = 3").unwrap();
    let ids: Vec<i64> = r.rows().iter().map(|row| row[0].as_int().unwrap()).collect();
    assert!(ids.contains(&3), "snapshot must still see id 3 in grp 3: {ids:?}");
    let r = execute_sql(&db, &reader, "SELECT id FROM item WHERE grp = 77").unwrap();
    assert!(r.rows().is_empty(), "snapshot must not see the later move");
    reader.commit().unwrap();
}

#[test]
fn index_sees_own_uncommitted_writes() {
    let db = setup(true);
    let t = db.begin().unwrap();
    execute_sql(&db, &t, "INSERT INTO item VALUES (500, 42, 0)").unwrap();
    execute_sql(&db, &t, "UPDATE item SET grp = 42 WHERE id = 1").unwrap();
    let r = execute_sql(&db, &t, "SELECT id FROM item WHERE grp = 42").unwrap();
    let ids: Vec<i64> = r.rows().iter().map(|row| row[0].as_int().unwrap()).collect();
    assert!(ids.contains(&500), "own insert invisible through index: {ids:?}");
    assert!(ids.contains(&1), "own update invisible through index: {ids:?}");
    t.abort(sirep_common::AbortReason::UserRequested);
}

#[test]
fn index_with_deletes() {
    let db = setup(true);
    let t = db.begin().unwrap();
    execute_sql(&db, &t, "DELETE FROM item WHERE grp = 4").unwrap();
    t.commit().unwrap();
    assert!(grp_ids(&db, 4).is_empty());
}

#[test]
fn duplicate_index_rejected_and_unknown_column() {
    let db = setup(true);
    let t = db.begin().unwrap();
    assert!(matches!(
        execute_sql(&db, &t, "CREATE INDEX ON item (grp)"),
        Err(DbError::Internal(_))
    ));
    assert!(matches!(
        execute_sql(&db, &t, "CREATE INDEX ON item (nope)"),
        Err(DbError::UnknownColumn(_))
    ));
}

#[test]
fn extra_conjuncts_recheck_on_index_path() {
    let db = setup(true);
    let t = db.begin().unwrap();
    let r = execute_sql(&db, &t, "SELECT id FROM item WHERE grp = 5 AND val > 100").unwrap();
    for row in r.rows() {
        let id = row[0].as_int().unwrap();
        assert_eq!(id % 10, 5);
        assert!(id * 2 > 100);
    }
    t.commit().unwrap();
}

/// One committed step of the index property.
#[derive(Debug, Clone)]
enum Op {
    /// Many UPDATE (`grp`) or DELETE (`true`) statements over all ids in
    /// one transaction: a buffer of more than 8 entries, some keys written
    /// more than once, is read back and committed in one go.
    Batch(Vec<(i64, i64, bool)>),
    /// Move a row to another group (a no-op on a deleted row).
    Move(i64, i64),
    /// Rewrite a row's other column: the indexed value stays.
    Touch(i64),
    Delete(i64),
    /// Delete a row, then insert it again into a group, one commit each.
    DeleteReinsert(i64, i64),
    /// Open a snapshot and hold it across the commits that follow.
    Hold,
    /// Close one held snapshot (`n` modulo how many are held).
    Release(usize),
}

fn op() -> impl Strategy<Value = Op> {
    // Few ids, so keys are written again while older versions are retained.
    let id = 0i64..16;
    let batch = prop::collection::vec((0i64..100, 0i64..12, any::<bool>()), 9..40);
    prop_oneof![
        1 => batch.prop_map(Op::Batch),
        3 => (id.clone(), 0i64..12).prop_map(|(id, grp)| Op::Move(id, grp)),
        3 => id.clone().prop_map(Op::Touch),
        1 => id.clone().prop_map(Op::Delete),
        1 => (id, 0i64..12).prop_map(|(id, grp)| Op::DeleteReinsert(id, grp)),
        1 => Just(Op::Hold),
        1 => any::<usize>().prop_map(Op::Release),
    ]
}

/// The ids of `rows`, in order.
fn ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// The ids the model places in group `grp`, in order.
fn model_ids(model: &BTreeMap<i64, i64>, grp: i64) -> Vec<i64> {
    model.iter().filter(|&(_, &g)| g == grp).map(|(&id, _)| id).collect()
}

fn run(db: &Database, sql: &str) {
    let t = db.begin().unwrap();
    execute_sql(db, &t, sql).unwrap();
    t.commit().unwrap();
}

/// Through the index and by a scan, the rows of group `grp` that `t` sees.
fn both_ways(t: &sirep_storage::TxnHandle, grp: i64) -> (Vec<Row>, Vec<Row>) {
    let value = Value::Int(grp);
    let indexed = t.index_lookup("item", 1, &value).unwrap().expect("grp is indexed");
    (indexed, t.scan("item", |r| r[1] == value).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Commits that keep, change, delete and re-insert indexed values, with
    /// snapshots held across them: at every held snapshot the index returns
    /// what a scan returns, the indexed and the scan plans agree at the end,
    /// and the index holds no posting its retained versions do not carry.
    #[test]
    fn indexed_and_scan_plans_agree_after_mutations(ops in prop::collection::vec(op(), 1..40)) {
        let indexed = setup(true);
        let plain = setup(false);
        let mut held = Vec::new();
        // What the table holds: the group of each live id.
        let mut model: BTreeMap<i64, i64> = (0..100).map(|id| (id, id % 10)).collect();
        for op in &ops {
            let sqls = match op {
                Op::Batch(writes) => {
                    for &(id, grp, delete) in writes {
                        if delete {
                            model.remove(&id);
                        } else if let Some(g) = model.get_mut(&id) {
                            *g = grp;
                        }
                    }
                    for db in [&indexed, &plain] {
                        let t = db.begin().unwrap();
                        for (id, grp, delete) in writes {
                            let sql = if *delete {
                                format!("DELETE FROM item WHERE id = {id}")
                            } else {
                                format!("UPDATE item SET grp = {grp} WHERE id = {id}")
                            };
                            execute_sql(db, &t, &sql).unwrap();
                        }
                        // Before the commit, the transaction reads its own
                        // writes back, through the index where there is one.
                        for grp in 0..12 {
                            let scanned = t.scan("item", |r| r[1] == Value::Int(grp)).unwrap();
                            prop_assert_eq!(ids(&scanned), model_ids(&model, grp), "grp {}", grp);
                            if let Some(found) = t.index_lookup("item", 1, &Value::Int(grp)).unwrap() {
                                prop_assert_eq!(ids(&found), ids(&scanned), "grp {}", grp);
                            }
                        }
                        t.commit().unwrap();
                    }
                    vec![]
                }
                Op::Move(id, grp) => {
                    if let Some(g) = model.get_mut(id) {
                        *g = *grp;
                    }
                    vec![format!("UPDATE item SET grp = {grp} WHERE id = {id}")]
                }
                Op::Touch(id) => vec![format!("UPDATE item SET val = val + 1 WHERE id = {id}")],
                Op::Delete(id) => {
                    model.remove(id);
                    vec![format!("DELETE FROM item WHERE id = {id}")]
                }
                Op::DeleteReinsert(id, grp) => {
                    model.insert(*id, *grp);
                    vec![
                        format!("DELETE FROM item WHERE id = {id}"),
                        format!("INSERT INTO item VALUES ({id}, {grp}, 0)"),
                    ]
                }
                Op::Hold => {
                    held.push(indexed.begin().unwrap());
                    continue;
                }
                Op::Release(n) => {
                    if !held.is_empty() {
                        let i = n % held.len();
                        held.swap_remove(i).commit().unwrap();
                    }
                    continue;
                }
            };
            for sql in &sqls {
                run(&indexed, sql);
                run(&plain, sql);
            }
            for t in &held {
                for grp in 0..12 {
                    let (through_index, scanned) = both_ways(t, grp);
                    prop_assert_eq!(through_index, scanned, "grp {} after {:?}", grp, op);
                }
            }
        }
        for grp in 0..12 {
            prop_assert_eq!(grp_ids(&indexed, grp), grp_ids(&plain, grp), "grp {}", grp);
            let mut found = grp_ids(&indexed, grp);
            found.sort_unstable();
            prop_assert_eq!(found, model_ids(&model, grp), "grp {}", grp);
        }
        // With every snapshot closed, one more write to each key prunes it
        // down to its newest versions, which all carry its current value
        // (a retained older version keeps its posting until then).
        for t in held.drain(..) {
            t.commit().unwrap();
        }
        for id in 0..100 {
            run(&indexed, &format!("UPDATE item SET val = val WHERE id = {id}"));
            let t = indexed.begin().unwrap();
            let live = t.read("item", &sirep_storage::Key::single(id)).unwrap().is_some();
            t.commit().unwrap();
            if !live {
                run(&indexed, &format!("INSERT INTO item VALUES ({id}, 0, 0)"));
            }
        }
        prop_assert_eq!(indexed.index_postings("item", 1), Some(indexed.table_len("item")));
    }
}

#[test]
fn index_recovery_via_fork_loses_nothing() {
    // fork_latest flattens versions; an index rebuilt on the fork matches.
    let db = setup(true);
    {
        let t = db.begin().unwrap();
        execute_sql(&db, &t, "UPDATE item SET grp = 3 WHERE id = 50").unwrap();
        t.commit().unwrap();
    }
    let fork = db.fork_latest(sirep_storage::CostModel::free());
    fork.create_index("item", "grp").unwrap();
    for grp in 0..10 {
        let t = fork.begin().unwrap();
        let r = execute_sql(&fork, &t, &format!("SELECT id FROM item WHERE grp = {grp}")).unwrap();
        let fork_ids: Vec<i64> = r.rows().iter().map(|row| row[0].as_int().unwrap()).collect();
        t.commit().unwrap();
        assert_eq!(fork_ids, grp_ids(&db, grp), "grp {grp}");
    }
    assert_eq!(fork.table_len("item"), db.table_len("item"));
}

#[test]
fn value_display_roundtrip_for_floats() {
    // Guard: Float display via {:?} stays parseable (proptest relies on it).
    let db = Database::in_memory();
    let t = db.begin().unwrap();
    execute_sql(&db, &t, "CREATE TABLE f (a INT, b FLOAT, PRIMARY KEY (a))").unwrap();
    execute_sql(&db, &t, "INSERT INTO f VALUES (1, 0.125)").unwrap();
    let r = execute_sql(&db, &t, "SELECT b FROM f WHERE a = 1").unwrap();
    assert_eq!(r.rows()[0][0], Value::Float(0.125));
    t.commit().unwrap();
}
