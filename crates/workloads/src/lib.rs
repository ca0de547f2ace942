//! # sirep-workloads
//!
//! The three workloads of the paper's evaluation (§6) plus the closed-loop
//! load generator that drives them:
//!
//! - [`Tpcw`] — TPC-W bookstore, ordering mix (Fig. 5);
//! - [`LargeDb`] — 10-table I/O-bound database, 20/80 update/query mix
//!   (Fig. 6);
//! - [`UpdateIntensive`] — small database, 100 % update transactions of 10
//!   updates each (Fig. 7);
//! - [`runner`] — clients submitting statements back-to-back inside a
//!   transaction and sleeping between transactions to hit a target
//!   system-wide load, exactly as §6 describes.
//!
//! Workloads produce [`TxnTemplate`]s so the same generator can drive both
//! the statement-transparent systems (SI-Rep, centralized) and the
//! [20] baseline that needs whole pre-declared transactions.

pub mod largedb;
pub mod runner;
pub mod tpcw;
pub mod updint;

use rand::rngs::SmallRng;
use sirep_common::DbError;
use sirep_core::TxnTemplate;
use sirep_storage::Database;

pub use largedb::LargeDb;
pub use runner::{run, InteractionStyle, RunConfig, RunResult};
pub use tpcw::Tpcw;
pub use updint::UpdateIntensive;

/// A workload: schema, deterministic population, and a transaction stream.
pub trait Workload: Send + Sync {
    fn name(&self) -> &'static str;
    /// CREATE TABLE statements.
    fn ddl(&self) -> Vec<String>;
    /// Deterministic initial population — must produce identical state at
    /// every replica it is applied to.
    fn populate(&self, db: &Database) -> Result<(), DbError>;
    /// The next transaction for `client`.
    fn next(&self, rng: &mut SmallRng, client: usize) -> TxnTemplate;
}

/// Install a workload's schema + data into an SRCA-Rep cluster.
pub fn setup_cluster(cluster: &sirep_core::Cluster, w: &dyn Workload) -> Result<(), DbError> {
    for ddl in w.ddl() {
        cluster.execute_ddl(&ddl)?;
    }
    cluster.load_with(|db| w.populate(db))
}

/// Install a workload into the centralized baseline.
pub fn setup_centralized(sys: &sirep_core::Centralized, w: &dyn Workload) -> Result<(), DbError> {
    let db = sys.database();
    for ddl in w.ddl() {
        let t = db.begin()?;
        sirep_sql::execute_sql(db, &t, &ddl)?;
        t.commit()?;
    }
    // Bulk load without service-time charges.
    db.cost_model().set_suspended(true);
    let r = w.populate(db);
    db.cost_model().set_suspended(false);
    r
}

/// Install a workload into the [20] table-lock baseline.
pub fn setup_tablelock(
    sys: &sirep_core::tablelock::TableLockCluster,
    w: &dyn Workload,
) -> Result<(), DbError> {
    for ddl in w.ddl() {
        sys.execute_ddl(&ddl)?;
    }
    sys.load_with(|db| w.populate(db))
}

#[cfg(test)]
mod runner_tests {
    use super::*;
    use sirep_common::TimeScale;
    use sirep_core::{Centralized, Cluster, ClusterConfig};
    use sirep_storage::CostModel;

    #[test]
    fn runner_drives_centralized_system() {
        let w = UpdateIntensive {
            tables: 3,
            rows_per_table: 200,
            tables_per_txn: 2,
            updates_per_txn: 3,
        };
        let sys = Centralized::new(CostModel::free());
        setup_centralized(&sys, &w).unwrap();
        let mut cfg = RunConfig::quick(4, 500.0);
        // The clock and warm-up of the cluster test below: on `quick`'s
        // 2 µs model ms the window is 2 ms of wall time, which a busy host
        // can leave without a single client scheduled.
        cfg.scale = TimeScale::compressed(10.0);
        cfg.duration_ms = 1_000.0;
        cfg.warmup_ms = 100.0;
        let res = run(&sys, &w, &cfg);
        assert!(res.committed > 0, "no transactions committed");
        assert!(res.update_rt.count() > 0);
        assert!(res.achieved_tps > 0.0);
        assert!(res.csv_row().contains("centralized"));
    }

    #[test]
    fn runner_drives_cluster_with_mixed_workload() {
        let w = LargeDb {
            tables: 2,
            rows_per_table: 100,
            update_fraction: 0.3,
            query_span: 10,
            ..LargeDb::default()
        };
        let cluster = Cluster::new(ClusterConfig::builder().replicas(2).build());
        setup_cluster(&cluster, &w).unwrap();
        let mut cfg = RunConfig::quick(4, 400.0);
        // Mild compression: the cluster does real work per transaction, so
        // an over-compressed clock would leave too few model-ms to commit
        // anything.
        cfg.scale = TimeScale::compressed(10.0);
        cfg.duration_ms = 1_000.0;
        cfg.warmup_ms = 100.0;
        let res = run(&cluster, &w, &cfg);
        assert!(res.committed > 10, "committed = {}", res.committed);
        assert!(res.readonly_rt.count() > 0, "no read-only samples");
        assert!(res.update_rt.count() > 0, "no update samples");
        // Replicas converge after the run.
        assert!(cluster.quiesce(std::time::Duration::from_secs(10)));
        let a = cluster.node(0).database().table_len("big0");
        let b = cluster.node(1).database().table_len("big0");
        assert_eq!(a, b);
    }

    #[test]
    fn runner_link_latency_increases_response_time() {
        let w = UpdateIntensive {
            tables: 2,
            rows_per_table: 100,
            tables_per_txn: 1,
            updates_per_txn: 2,
        };
        let sys = Centralized::new(CostModel::free());
        setup_centralized(&sys, &w).unwrap();
        let mut cfg = RunConfig::quick(2, 100.0);
        cfg.duration_ms = 600.0;
        cfg.scale = TimeScale::compressed(100.0);
        let fast = run(&sys, &w, &cfg);
        cfg.link_ms = 5.0; // 3 statements incl. commit → ≥ 30 model ms RT
        let slow = run(&sys, &w, &cfg);
        assert!(
            slow.update_rt.mean() > fast.update_rt.mean() + 20.0,
            "link latency not reflected: fast={} slow={}",
            fast.update_rt.mean(),
            slow.update_rt.mean()
        );
    }
}
