//! Ablation benches for the design choices DESIGN.md calls out (no
//! counterpart figure in the paper — these quantify *why* the adjustments
//! matter on our substrate):
//!
//! - **applier concurrency** (adjustment 2): 1 applier = serial writeset
//!   application (the Fig. 1 regime); more appliers let non-conflicting
//!   writesets commit concurrently;
//! - **group-communication latency**: how the total-order delay (Spread's
//!   ~3 ms) shows up in update response times;
//! - **hole synchronization** (adjustment 3): SRCA-Rep vs SRCA-Opt at one
//!   saturating load point (the full sweep is Fig. 7).

use sirep_bench as bench;
use sirep_core::{Centralized, Cluster, ClusterConfig, ReplicationMode};
use sirep_gcs::GroupConfig;
use sirep_workloads::{
    run, setup_centralized, setup_cluster, InteractionStyle, LargeDb, RunConfig, UpdateIntensive,
};

fn point(load: f64, scale: sirep_common::TimeScale) -> RunConfig {
    RunConfig {
        clients: bench::clients_for(load),
        target_tps: load,
        duration_ms: bench::duration_ms() / 2.0,
        warmup_ms: bench::warmup_ms(),
        scale,
        link_ms: 0.3,
        style: InteractionStyle::PerStatement,
        max_retries: 5,
        seed: 0xAB1A,
    }
}

fn main() {
    let scale = bench::scale();
    let workload = UpdateIntensive::default();
    let load = if bench::quick() { 50.0 } else { 100.0 };
    let mut results = Vec::new();

    // --- applier concurrency ---------------------------------------------
    for appliers in [1usize, 2, 6] {
        let cluster = Cluster::new(
            ClusterConfig::builder()
                .replicas(5)
                .mode(ReplicationMode::SrcaRep)
                .cost(bench::updint_cost(scale))
                .gcs(bench::lan(scale))
                .appliers(appliers)
                .build(),
        );
        setup_cluster(&cluster, &workload).expect("setup");
        let mut r = run(&cluster, &workload, &point(load, scale));
        r.system = format!("SRCA-Rep appliers={appliers}");
        eprintln!("  appliers={appliers} done ({} committed)", r.committed);
        results.push(r);
    }

    // --- GCS total-order latency -------------------------------------------
    for delay_ms in [0.0, 3.0, 10.0] {
        let gcs = GroupConfig {
            total_order_delay_ms: delay_ms,
            fifo_delay_ms: delay_ms / 3.0,
            detection_delay_ms: 1000.0,
            scale,
        };
        let cluster = Cluster::new(
            ClusterConfig::builder()
                .replicas(5)
                .mode(ReplicationMode::SrcaRep)
                .cost(bench::updint_cost(scale))
                .gcs(gcs)
                .appliers(6)
                .build(),
        );
        setup_cluster(&cluster, &workload).expect("setup");
        let mut r = run(&cluster, &workload, &point(load, scale));
        r.system = format!("SRCA-Rep gcs={delay_ms}ms");
        eprintln!("  gcs delay={delay_ms}ms done ({} committed)", r.committed);
        results.push(r);
    }

    // --- hole synchronization (one point; the sweep is Fig. 7) --------------
    for mode in [ReplicationMode::SrcaRep, ReplicationMode::SrcaOpt] {
        let cluster = Cluster::new(
            ClusterConfig::builder()
                .replicas(5)
                .mode(mode)
                .cost(bench::updint_cost(scale))
                .gcs(bench::lan(scale))
                .appliers(6)
                .build(),
        );
        setup_cluster(&cluster, &workload).expect("setup");
        let hi = load * 1.5;
        let mut r = run(&cluster, &workload, &point(hi, scale));
        r.system = format!("{} @{hi}tps", r.system);
        eprintln!("  {} done ({} committed)", r.system, r.committed);
        results.push(r);
    }

    // --- secondary indexes (the paper ran §6.2 without any) -----------------
    // Equality-group queries on the large database, centralized, with and
    // without an index on `grp`: the no-index configuration is why the
    // paper's centralized system capped out around 4 tps.
    let ldb = LargeDb { equality_queries: true, ..LargeDb::default() };
    let idx_load = if bench::quick() { 6.0 } else { 10.0 };
    for with_index in [false, true] {
        let sys = Centralized::new(bench::largedb_cost(scale));
        setup_centralized(&sys, &ldb).expect("setup");
        if with_index {
            for ddl in ldb.index_ddl() {
                let db = sys.database();
                let t = db.begin().expect("begin");
                sirep_sql::execute_sql(db, &t, &ddl).expect("create index");
                t.commit().expect("commit");
            }
        }
        let mut cfg = point(idx_load, scale);
        cfg.clients = 32;
        let mut r = run(&sys, &ldb, &cfg);
        r.system = format!(
            "centralized largedb {}",
            if with_index { "with index" } else { "no index (paper)" }
        );
        eprintln!("  {} done ({} committed)", r.system, r.committed);
        results.push(r);
    }

    bench::print_table("Ablations: appliers / GCS latency / hole sync / indexes", &results);
    bench::write_csv("ablation", &results).expect("write csv");
    bench::write_json("ablation", &results).expect("write json");
}
