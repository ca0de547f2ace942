//! **T-2** (§6.3 text claim) — *"Applying writesets takes only around 20 %
//! of the time it takes to execute the entire transaction."*
//!
//! Measured from the transaction-lifecycle stage stats of a live 2-replica
//! SRCA-Rep cluster (not ad-hoc timers): update transactions run through
//! sessions on replica 0, whose `execute` stage captures the full SQL path
//! (parse → plan → read → write), while replica 1's `apply` stage captures
//! the remote writeset application. The ratio of the two stage medians is
//! the paper's claim.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sirep_bench as bench;
use sirep_common::Stage;
use sirep_core::{Cluster, ClusterConfig, Connection, ReplicationMode};
use sirep_workloads::{setup_cluster, UpdateIntensive, Workload};
use std::time::Duration;

fn main() {
    let scale = bench::scale();
    let workload = UpdateIntensive::default();
    let cluster = Cluster::new(
        ClusterConfig::builder()
            .replicas(2)
            .mode(ReplicationMode::SrcaRep)
            .cost(bench::updint_cost(scale))
            .gcs(bench::lan(scale))
            .appliers(2)
            .build(),
    );
    setup_cluster(&cluster, &workload).expect("setup cluster");

    let iterations = if bench::quick() { 50 } else { 400 };
    let mut rng = SmallRng::seed_from_u64(0x715);
    let mut session = cluster.session(0);
    for i in 0..iterations {
        let tmpl = workload.next(&mut rng, i);
        for sql in &tmpl.statements {
            session.execute(sql).unwrap();
        }
        session.commit().unwrap();
    }
    assert!(cluster.quiesce(Duration::from_secs(30)), "cluster failed to drain");

    // Replica 0 executed every transaction locally; replica 1 applied every
    // writeset remotely. Compare the stage medians.
    let report = cluster.metrics();
    let local = &report.per_node[0].stages;
    let remote = &report.per_node[1].stages;
    if local.is_empty() && remote.is_empty() {
        println!("T-2 skipped: tracing compiled out (build with the `trace` feature)");
        return;
    }
    let exec_ms = local.median(Stage::Execute);
    let apply_ms = remote.median(Stage::Apply);
    assert!(local.count(Stage::Execute) as usize >= iterations, "missing execute samples");
    assert!(remote.count(Stage::Apply) as usize >= iterations, "missing apply samples");

    let ratio = apply_ms / exec_ms;
    let model_per_wall = scale.model_ms(Duration::from_millis(1));
    println!("\n== T-2: writeset application vs full execution (update-intensive txn) ==");
    println!("(stage medians from the journal; wall ms × {model_per_wall:.1} = model ms)");
    println!(
        "full execution : {:>8.2} wall ms = {:>8.2} model ms (n={})",
        exec_ms,
        exec_ms * model_per_wall,
        local.count(Stage::Execute)
    );
    println!(
        "writeset apply : {:>8.2} wall ms = {:>8.2} model ms (n={})",
        apply_ms,
        apply_ms * model_per_wall,
        remote.count(Stage::Apply)
    );
    println!("ratio          : {:>8.1} %   (paper: \"around 20%\")", 100.0 * ratio);
    println!("\nper-stage breakdown, local replica (wall ms):");
    print!("{}", local.breakdown_table());
    println!("\nper-stage breakdown, remote replica (wall ms):");
    print!("{}", remote.breakdown_table());
    bench::write_json_str(
        "writeset_cost",
        &format!(
            "{{\"bench\":\"writeset_cost\",\"iterations\":{iterations},\
             \"exec_median_wall_ms\":{exec_ms:.4},\"apply_median_wall_ms\":{apply_ms:.4},\
             \"apply_over_exec_ratio\":{ratio:.4},\"paper_claim\":0.20}}"
        ),
    )
    .expect("write json");
    assert!(
        (0.10..0.45).contains(&ratio),
        "ratio {ratio} far outside the paper's regime — cost model drifted"
    );
}
