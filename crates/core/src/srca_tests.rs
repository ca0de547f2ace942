//! Behavioural tests for the centralized Fig. 1 SRCA and the [20]
//! table-lock baseline. Adjustments 1–3 run on a `Cluster`: concurrent
//! replication is `cluster_tests::many_writers_converge_identically`, a
//! contended `v = v + 1` is `cluster_tests::contended_counter_full_cluster`.

use crate::session::{Connection, System, TxnTemplate};
use crate::srca::Srca;
use crate::tablelock::{TableLockCluster, TableLockConfig};
use sirep_storage::Value;
use std::time::Duration;

const Q: Duration = Duration::from_secs(10);

fn srca(n: usize) -> Srca {
    let s = Srca::new(n);
    s.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    s
}

fn get(sys: &Srca, k: usize, key: i64) -> Option<i64> {
    let mut s = sys.session(k);
    let r = s.execute(&format!("SELECT v FROM kv WHERE k = {key}")).unwrap();
    let out = r.rows().first().map(|row| row[0].as_int().unwrap());
    s.commit().unwrap();
    out
}

#[test]
fn serial_variant_replicates() {
    let sys = srca(3);
    let mut s = sys.session(0);
    s.execute("INSERT INTO kv VALUES (1, 10)").unwrap();
    s.commit().unwrap();
    assert!(sys.quiesce(Q));
    for k in 0..3 {
        assert_eq!(get(&sys, k, 1), Some(10));
    }
}

#[test]
fn serial_variant_certification_aborts_conflicts() {
    let sys = srca(2);
    {
        let mut s = sys.session(0);
        s.execute("INSERT INTO kv VALUES (1, 0)").unwrap();
        s.commit().unwrap();
    }
    assert!(sys.quiesce(Q));
    let mut a = sys.session(0);
    let mut b = sys.session(1);
    a.execute("UPDATE kv SET v = 1 WHERE k = 1").unwrap();
    b.execute("UPDATE kv SET v = 2 WHERE k = 1").unwrap();
    let ra = a.commit();
    let rb = b.commit();
    assert!(ra.is_ok() ^ rb.is_ok(), "{ra:?} / {rb:?}");
    assert!(sys.quiesce(Q));
    let v = get(&sys, 0, 1);
    assert_eq!(v, get(&sys, 1, 1));
}

// ---------------------------------------------------------------------------
// Table-lock baseline
// ---------------------------------------------------------------------------

fn tl(n: usize) -> TableLockCluster {
    let c = TableLockCluster::new(TableLockConfig::test(n));
    c.execute_ddl("CREATE TABLE kv (k INT, v INT, PRIMARY KEY (k))").unwrap();
    c
}

fn upd_template(statements: Vec<String>) -> TxnTemplate {
    TxnTemplate { statements, tables: vec!["kv".into()], readonly: false }
}

#[test]
fn tablelock_replicates_updates() {
    let c = tl(3);
    let mut conn = c.connect().unwrap();
    conn.run_template(&upd_template(vec!["INSERT INTO kv VALUES (1, 10)".into()])).unwrap();
    assert!(c.quiesce(Q));
    for k in 0..3 {
        let t = c.database(k).begin().unwrap();
        let r = sirep_sql::execute_sql(c.database(k), &t, "SELECT v FROM kv WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(10), "replica {k}");
        t.commit().unwrap();
    }
}

#[test]
fn tablelock_serializes_conflicting_updates() {
    let c = std::sync::Arc::new(tl(2));
    {
        let mut conn = c.connect().unwrap();
        conn.run_template(&upd_template(vec!["INSERT INTO kv VALUES (1, 0)".into()])).unwrap();
    }
    assert!(c.quiesce(Q));
    let mut handles = Vec::new();
    for _ in 0..2 {
        let c2 = std::sync::Arc::clone(&c);
        handles.push(std::thread::spawn(move || {
            let mut conn = c2.connect().unwrap();
            for _ in 0..20 {
                // Table locks serialize these; no aborts ever.
                conn.run_template(&upd_template(
                    vec!["UPDATE kv SET v = v + 1 WHERE k = 1".into()],
                ))
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(c.quiesce(Q));
    for k in 0..2 {
        let t = c.database(k).begin().unwrap();
        let r = sirep_sql::execute_sql(c.database(k), &t, "SELECT v FROM kv WHERE k = 1").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int(40), "replica {k} lost updates");
        t.commit().unwrap();
    }
    let m = c.metrics();
    assert_eq!(m.forced_aborts(), 0, "table locks must prevent all conflicts");
}

#[test]
fn tablelock_readonly_runs_locally() {
    let c = tl(2);
    {
        let mut conn = c.connect().unwrap();
        conn.run_template(&upd_template(vec!["INSERT INTO kv VALUES (1, 5)".into()])).unwrap();
    }
    assert!(c.quiesce(Q));
    let mut conn = c.connect().unwrap();
    let ro = TxnTemplate {
        statements: vec!["SELECT v FROM kv WHERE k = 1".into()],
        tables: vec!["kv".into()],
        readonly: true,
    };
    conn.run_template(&ro).unwrap();
    let m = c.metrics();
    assert_eq!(sirep_common::Metrics::get(&m.commits_readonly), 1);
}

#[test]
fn tablelock_rejects_statementwise_use() {
    let c = tl(1);
    let mut conn = c.connect().unwrap();
    assert!(conn.execute("SELECT * FROM kv").is_err());
}
