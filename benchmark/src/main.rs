//! `sirep-benchmark` — the repository's standing benchmark.
//!
//! ```text
//! sirep-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]
//! sirep-benchmark compare <result-dir-A> <result-dir-B>
//! ```
//!
//! Run from the repository root. One invocation measures one workload
//! against a fresh 1-sequencer + 3-node deployment of the shipped
//! `sirep-cluster` binary and ends its standard output with one JSON line:
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). See README.md.

mod calibrate;
mod client;
mod compare;
mod deploy;
mod json;
mod probes;
mod procfs;
mod run;
mod stats;
mod workload;

use run::{RunOptions, RunResult};
use std::path::{Path, PathBuf};
use workload::Workload;

const USAGE: &str = "\
usage: sirep-benchmark --workload <transfer_wide|transfer_hot|read_only|mixed_rw10>
                       --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]
       sirep-benchmark compare <result-dir-A> <result-dir-B>
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => cmd_compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => cmd_run(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("sirep-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("benchmark/results/last");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} expects a number, got {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(RunOptions {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn metrics_json(result: &RunResult) -> String {
    let items: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                json::num(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// The last line of standard output: exactly these four keys.
fn result_line(result: &RunResult) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics_json(result)
    )
}

/// The run record `compare` reads back: the result line's content plus how
/// the run was made and how steady it was inside.
fn record_json(opts: &RunOptions, result: &RunResult) -> String {
    let slices: Vec<String> = result
        .slices
        .iter()
        .map(|s| {
            let values: Vec<String> = s.values.iter().map(|v| json::num(*v)).collect();
            format!(
                "{}:{{\"unit\":{},\"values\":[{}]}}",
                json::quote(s.name),
                json::quote(s.unit),
                values.join(",")
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"clients\":{},\"cores\":{},\"pinned_cpu\":{},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"host_noise_pct\":{},\"noisy\":{},\
         \"per_slice\":{{{}}},\"metrics\":{}}}\n",
        json::quote(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        result.clients,
        result.cores,
        result.pinned_cpu,
        result.correct,
        result.attempted,
        result.failed,
        json::num(result.host_noise_pct),
        result.noisy,
        slices.join(","),
        metrics_json(result)
    )
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let opts = parse_run_options(args)?;
    let result = run::run(&opts)?;
    let mode = if opts.trace { "trace" } else { "e2e" };

    println!(
        "== {} seed {} · {} s window · {} clients · all on cpu {} of {} · {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        result.clients,
        result.pinned_cpu,
        result.cores,
        if opts.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        }
    );
    for m in &result.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("-- per-second slices of this window: q1 / median / q3");
    for s in &result.slices {
        let (q1, med, q3) = stats::quartiles(&s.values);
        println!("{:<44} {q1:>12.4} / {med:.4} / {q3:.4} {}", s.name, s.unit);
    }
    println!(
        "attempted {} · failed {} ({:.4} %) · host_noise_pct {:.2}{}",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64 * 100.0,
        result.host_noise_pct,
        if result.noisy {
            " · NOISY: the spin calibrations before and after differ by > 10 %"
        } else {
            ""
        }
    );
    if let Some(budget) = &result.budget {
        print!("{budget}");
    }
    match &result.first_failure {
        Some(why) => println!("correctness gate: FAILED: {why}"),
        None => println!("correctness gate: passed"),
    }

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let stem = format!("{}.{}.{mode}", opts.workload.name(), opts.seed);
    write_file(&opts.out_dir.join(format!("{stem}.json")), &record_json(&opts, &result))?;
    if let Some(spans) = &result.spans_json {
        write_file(&opts.out_dir.join(format!("{stem}.spans.json")), spans)?;
    }
    println!("{}", result_line(&result));
    Ok(result.correct)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| compare::declared_end_to_end(&text))?;
    let a = compare::ResultSet::load(Path::new(a))?;
    let b = compare::ResultSet::load(Path::new(b))?;
    let (table, regressed) = compare::compare(&a, &b, &declared);
    print!("{table}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` at the repository root and the tables in `run.rs`
    /// must name the same metrics with the same units, and the same four
    /// workloads.
    #[test]
    fn benchmark_json_declares_what_the_binary_emits() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        let declared = |list: &str| -> Vec<(String, String)> {
            doc.get(list)
                .and_then(Json::as_arr)
                .expect("list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let emitted = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), emitted(&run::END_TO_END));
        assert_eq!(declared("per_layer"), emitted(&run::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![run::Metric { name: "commit_tps", unit: "1/s", value: 1234.5678 }],
            slices: vec![run::SliceSeries {
                name: "commit_tps",
                unit: "1/s",
                values: vec![1.0, 2.0, 3.0],
            }],
            host_noise_pct: 1.5,
            noisy: false,
            clients: 2,
            cores: 2,
            pinned_cpu: 1,
            budget: None,
            spans_json: None,
            first_failure: None,
        };
        let Json::Obj(pairs) = Json::parse(&result_line(&result)).expect("parses") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let opts = parse_run_options(
            &["--workload", "read_only", "--seed", "3", "--seconds", "5", "--trace", "0"]
                .map(String::from),
        )
        .expect("options");
        let record = Json::parse(&record_json(&opts, &result)).expect("record parses");
        assert_eq!(record.get("workload").and_then(Json::as_str), Some("read_only"));
        assert_eq!(record.get("trace").and_then(Json::as_bool), Some(false));
        assert!(parse_run_options(&["--workload".to_string(), "nope".to_string()]).is_err());
    }
}
