//! # sirep-bench
//!
//! Harness utilities shared by the figure benchmarks. Each figure of the
//! paper's evaluation has its own bench target (`cargo bench -p sirep-bench
//! --bench fig5_tpcw`, `fig6_largedb`, `fig7_update_intensive`, plus
//! `writeset_cost` for the §6.3 writeset-application claim and the `micro`,
//! `gcs_micro` and `certification` micro-benches, timed by [`time_ns`]).
//! Results are printed as a table and written as CSV under `results/`.
//!
//! ## Calibration
//!
//! The cost models below translate the paper's 2005 testbed (Pentium-4
//! PCs, on-disk PostgreSQL, 100 Mbit LAN, Spread) into model-millisecond
//! service times. We do **not** attempt to match absolute milliseconds —
//! the claim being reproduced is the *shape* of each figure: who saturates
//! first, roughly where, and how the curves order. EXPERIMENTS.md records
//! paper-vs-measured values for every figure.
//!
//! Environment knobs:
//! - `SIREP_QUICK=1` — fewer load points, shorter windows (smoke run);
//! - `SIREP_SCALE=<factor>` — time compression (default 25×);
//! - `SIREP_DURATION_MS=<model ms>` — measurement window per point.

use sirep_common::TimeScale;
use sirep_gcs::GroupConfig;
use sirep_storage::CostModel;
use sirep_workloads::RunResult;
use std::io::Write;

/// Median nanoseconds per call of `f` over `iters` calls × `reps` samples.
pub fn time_ns<R>(reps: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Smoke-run mode (used by CI and the test suite).
pub fn quick() -> bool {
    std::env::var("SIREP_QUICK").is_ok_and(|v| v != "0")
}

/// The time compression factor for bench runs.
///
/// Default 2.5×: sleep-based service times on stock Linux carry ~80 µs of
/// jitter per operation, so the smallest model costs (~0.3 ms) must map to
/// ≥100 µs wall for the *mean* to stay faithful. Raise this only on
/// machines with many cores and a high-resolution tick.
pub fn scale() -> TimeScale {
    let factor =
        std::env::var("SIREP_SCALE").ok().and_then(|v| v.parse::<f64>().ok()).unwrap_or(2.5);
    TimeScale::compressed(factor)
}

/// Measurement window per load point, model milliseconds.
pub fn duration_ms() -> f64 {
    std::env::var("SIREP_DURATION_MS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if quick() { 4_000.0 } else { 15_000.0 })
}

/// Warm-up per load point, model milliseconds.
pub fn warmup_ms() -> f64 {
    if quick() {
        500.0
    } else {
        2_000.0
    }
}

/// Pick load points, thinning in quick mode.
pub fn thin(points: &[f64]) -> Vec<f64> {
    if quick() && points.len() > 3 {
        vec![points[0], points[points.len() / 2], points[points.len() - 1]]
    } else {
        points.to_vec()
    }
}

/// The paper's LAN: ≤3 ms uniform total-order multicast (§5.2).
pub fn lan(scale: TimeScale) -> GroupConfig {
    GroupConfig::lan(scale)
}

// ---------------------------------------------------------------------------
// Cost models (see module docs; rationale in EXPERIMENTS.md)
// ---------------------------------------------------------------------------

/// Fig. 5 — TPC-W on a 200 MB database: short indexed statements, log-force
/// commits; a single replica saturates a bit above 50 tps.
pub fn tpcw_cost(scale: TimeScale) -> CostModel {
    CostModel {
        scale,
        servers: 1,
        begin_ms: 0.0,
        read_ms: 1.2,
        scan_row_ms: 0.02,
        write_ms: 2.0,
        apply_write_ms: 0.5,
        // Entry + flush = the old 4 ms commit; the flush dominates, so a
        // full group commit amortizes most of it.
        commit_entry_ms: 1.0,
        commit_flush_ms: 3.0,
        stmt_overhead_ms: 0.8,
    }
}

/// Fig. 6 — the 1.1 GB I/O-bound database, no indexes: queries are long
/// scans, updates are expensive; the paper's centralized system saturates
/// around 4 tps.
pub fn largedb_cost(scale: TimeScale) -> CostModel {
    // The paper ran without indexes, so the medium query is a full scan:
    // 5000 rows × 0.05 ms ≈ 250 ms. An update transaction is 10 indexed
    // row updates ≈ 115 ms. That yields (queueing math in EXPERIMENTS.md)
    // saturation at ≈4.5 tps centralized, ≈20 tps with 5 replicas and
    // ≈35 tps with 10 — the paper's reported points.
    CostModel {
        scale,
        servers: 1,
        begin_ms: 0.0,
        read_ms: 1.5,
        scan_row_ms: 0.05,
        write_ms: 9.0,
        apply_write_ms: 2.5,
        commit_entry_ms: 2.0,
        commit_flush_ms: 8.0,
        stmt_overhead_ms: 1.5,
    }
}

/// Fig. 7 — the small, update-intensive stress database: short statements;
/// applying a writeset costs ≈20 % of executing the transaction (§6.3).
pub fn updint_cost(scale: TimeScale) -> CostModel {
    CostModel {
        scale,
        servers: 1,
        begin_ms: 0.0,
        read_ms: 0.5,
        scan_row_ms: 0.01,
        write_ms: 1.0,
        apply_write_ms: 0.26,
        commit_entry_ms: 0.5,
        commit_flush_ms: 1.5,
        stmt_overhead_ms: 0.3,
    }
}

/// Clients needed to offer `tps` with headroom.
pub fn clients_for(tps: f64) -> usize {
    ((tps * 0.6).ceil() as usize).clamp(8, 400)
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Print one figure's results as an aligned table.
pub fn print_table(title: &str, results: &[RunResult]) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>8} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "system", "load", "achieved", "upd RT ms", "ro RT ms", "upd p95", "aborts%"
    );
    for r in results {
        println!(
            "{:<28} {:>8.0} {:>9.1} {:>12.1} {:>12.1} {:>12.1} {:>8.2}%",
            r.system,
            r.target_tps,
            r.achieved_tps,
            r.update_rt.mean(),
            r.readonly_rt.mean(),
            r.update_hist.quantile(0.95),
            100.0 * r.abort_rate()
        );
    }
}

/// Append results as CSV under `results/<name>.csv` (header included).
pub fn write_csv(name: &str, results: &[RunResult]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", RunResult::csv_header())?;
    for r in results {
        writeln!(f, "{}", r.csv_row())?;
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// A finite float for JSON, or `null` (JSON has no NaN/Infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// One [`RunResult`] as a JSON object: identity, throughput, abort rates,
/// response-time quantiles, and the per-stage lifecycle latency breakdown
/// (p50/p95/p99 wall ms — empty object when tracing is compiled out).
pub fn result_json(r: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut stages = String::new();
    for stage in sirep_common::Stage::ALL {
        let count = r.stages.count(stage);
        if count == 0 {
            continue;
        }
        if !stages.is_empty() {
            stages.push(',');
        }
        let _ = write!(
            stages,
            "\"{}\":{{\"count\":{count},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"overflow\":{}}}",
            stage.name(),
            json_num(r.stages.quantile(stage, 0.5)),
            json_num(r.stages.quantile(stage, 0.95)),
            json_num(r.stages.quantile(stage, 0.99)),
            r.stages.overflow(stage)
        );
    }
    format!(
        "{{\"system\":\"{}\",\"workload\":\"{}\",\"target_tps\":{},\"achieved_tps\":{},\
         \"committed\":{},\"forced_aborts\":{},\"given_up\":{},\"abort_rate\":{},\
         \"update_rt_ms\":{{\"mean\":{},\"p95\":{},\"p99\":{}}},\
         \"readonly_rt_ms\":{{\"mean\":{},\"p95\":{},\"p99\":{}}},\
         \"stages\":{{{stages}}}}}",
        r.system,
        r.workload,
        json_num(r.target_tps),
        json_num(r.achieved_tps),
        r.committed,
        r.forced_aborts,
        r.given_up,
        json_num(r.abort_rate()),
        json_num(r.update_rt.mean()),
        json_num(r.update_hist.quantile(0.95)),
        json_num(r.update_hist.quantile(0.99)),
        json_num(r.readonly_rt.mean()),
        json_num(r.readonly_hist.quantile(0.95)),
        json_num(r.readonly_hist.quantile(0.99)),
    )
}

/// Write a machine-readable summary of a figure run to
/// `results/BENCH_<name>.json`.
pub fn write_json(name: &str, results: &[RunResult]) -> std::io::Result<()> {
    let rows: Vec<String> = results.iter().map(result_json).collect();
    write_json_str(name, &format!("{{\"bench\":\"{name}\",\"results\":[{}]}}", rows.join(",")))
}

/// Write an arbitrary pre-rendered JSON document to
/// `results/BENCH_<name>.json` (for benches whose shape doesn't fit
/// [`write_json`], e.g. the T-2 writeset-cost ratio).
pub fn write_json_str(name: &str, json: &str) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_models_have_sane_ratios() {
        let c = updint_cost(TimeScale::REAL_TIME);
        // §6.3: applying a writeset ≈ 20 % of executing the transaction.
        let exec_per_row = c.stmt_overhead_ms + c.write_ms;
        let apply_per_row = c.apply_write_ms;
        let ratio = apply_per_row / exec_per_row;
        assert!((0.15..0.30).contains(&ratio), "apply/exec ratio {ratio}");
    }

    #[test]
    fn thinning_keeps_endpoints() {
        std::env::set_var("SIREP_QUICK", "1");
        let t = thin(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.first(), Some(&1.0));
        assert_eq!(t.last(), Some(&5.0));
        std::env::remove_var("SIREP_QUICK");
    }

    #[test]
    fn result_json_is_well_formed() {
        let mut update_rt = sirep_common::OnlineStats::new();
        update_rt.record(12.0);
        let r = RunResult {
            system: "srca-rep-5".into(),
            workload: "tpcw".into(),
            target_tps: 50.0,
            achieved_tps: 48.7,
            update_rt,
            readonly_rt: sirep_common::OnlineStats::new(),
            update_hist: sirep_common::Histogram::new(),
            readonly_hist: sirep_common::Histogram::new(),
            committed: 100,
            forced_aborts: 3,
            given_up: 0,
            metrics: sirep_common::Metrics::new(),
            stages: Default::default(),
        };
        let json = result_json(&r);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"system\":\"srca-rep-5\""));
        assert!(json.contains("\"achieved_tps\":48.7000"));
        assert!(json.contains("\"update_rt_ms\":{\"mean\":12.0000"));
        // NaN quantiles of the empty read-only histogram must become null.
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"stages\":{"));
    }

    #[test]
    fn clients_scale_with_load() {
        assert!(clients_for(25.0) >= 8);
        assert!(clients_for(150.0) >= 60);
        assert!(clients_for(10_000.0) <= 400);
    }
}
