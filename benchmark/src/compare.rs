//! `compare`: two result sets (directories of run records) → one row per
//! (end-to-end metric, workload) with both medians and quartiles, the bound,
//! and a verdict.

use crate::json::Json;
use crate::stats::quartiles;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so a change
    /// of the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The `end_to_end` list of `BENCHMARK.json`: the one place names,
/// directions and bounds are written down.
pub fn declared_end_to_end(benchmark_json: &str) -> Result<Vec<Declared>, String> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text =
                |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("metric without {k}"));
            Ok(Declared {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The verdict on one (metric, workload) pair. `a` is the parent's runs,
/// `b` the change's. Worse: the median moved the wrong way by more than the
/// bound. Better: it moved the right way by more than the parent's own
/// inter-quartile spread. Unresolved: either side's spread exceeds the bound.
pub fn verdict(a: &[f64], b: &[f64], m: &Declared) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    if am == 0.0 {
        return Verdict::Unresolved;
    }
    let spread = (a3 - a1).max(b3 - b1) / am.abs();
    if spread > m.bound {
        return Verdict::Unresolved;
    }
    let gain = if m.higher_is_better { bm - am } else { am - bm } / am.abs();
    if gain < -m.bound {
        Verdict::Worse
    } else if gain > (a3 - a1) / am.abs() && gain > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side's untraced runs: per workload, per metric, the values; plus
/// failures and attempts per workload.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed_attempted: BTreeMap<String, (f64, f64)>,
}

impl ResultSet {
    pub fn add_record(&mut self, record: &Json) -> Result<(), String> {
        if record.get("trace").and_then(Json::as_bool) != Some(false) {
            return Ok(()); // end-to-end metrics come from untraced runs only
        }
        let workload =
            record.get("workload").and_then(Json::as_str).ok_or("record without workload")?;
        let num =
            |k: &str| record.get(k).and_then(Json::as_f64).ok_or(format!("record without {k}"));
        let totals = self.failed_attempted.entry(workload.to_string()).or_default();
        totals.0 += num("failed")?;
        totals.1 += num("attempted")?;
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            return Err("record without metrics".into());
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
            self.values.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
        Ok(())
    }

    pub fn load(dir: &Path) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            let is_record = path.extension().is_some_and(|e| e == "json")
                && !path.to_string_lossy().ends_with(".spans.json");
            if !is_record {
                continue;
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let record = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            set.add_record(&record).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if set.values.is_empty() {
            return Err(format!("{}: no untraced run records", dir.display()));
        }
        Ok(set)
    }

    fn failed_pct(&self, workload: &str) -> f64 {
        self.failed_attempted
            .get(workload)
            .map_or(0.0, |(f, a)| if *a > 0.0 { f / a * 100.0 } else { 0.0 })
    }
}

/// The comparison table, and whether it carries a regression (`worse`
/// anywhere, or a higher `failed_pct`).
pub fn compare(a: &ResultSet, b: &ResultSet, declared: &[Declared]) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<18} {:>6} {:>36} {:>36} {:>7} {:>8}  verdict\n",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "bound",
        "B vs A"
    );
    let mut regressed = false;
    let side = |v: &[f64]| {
        let (q1, med, q3) = quartiles(v);
        format!("{med:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
    };
    for w in Workload::ALL {
        for m in declared {
            let key = (w.name().to_string(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                out.push_str(&format!("{:<14} {:<18} missing on one side\n", w.name(), m.name));
                regressed = true;
                continue;
            };
            let v = verdict(va, vb, m);
            regressed |= v == Verdict::Worse;
            let (am, bm) = (quartiles(va).1, quartiles(vb).1);
            out.push_str(&format!(
                "{:<14} {:<18} {:>6} {:>36} {:>36} {:>6.0}% {:>+7.1}%  {}\n",
                w.name(),
                m.name,
                m.unit,
                side(va),
                side(vb),
                m.bound * 100.0,
                if am == 0.0 { 0.0 } else { (bm - am) / am.abs() * 100.0 },
                v.label()
            ));
        }
        let (fa, fb) = (a.failed_pct(w.name()), b.failed_pct(w.name()));
        let v = if fb > fa { Verdict::Worse } else { Verdict::Same };
        regressed |= v == Verdict::Worse;
        out.push_str(&format!(
            "{:<14} {:<18} {:>6} {:>36} {:>36} {:>7} {:>8}  {}\n",
            w.name(),
            "failed_pct",
            "%",
            format!("{fa:.4}"),
            format!("{fb:.4}"),
            "must=0",
            "",
            v.label()
        ));
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tps() -> Declared {
        Declared {
            name: "commit_tps".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: 0.10,
        }
    }

    fn p50() -> Declared {
        Declared {
            name: "txn_p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same commit measured twice.
        assert_eq!(verdict(&a, &[100.2, 99.8, 100.0, 100.9, 99.1], &tps()), Verdict::Same);
        // Throughput down 20 %: worse. Up 20 %: better.
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], &tps()), Verdict::Worse);
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], &tps()), Verdict::Better);
        // The same numbers as a latency mean the opposite.
        assert_eq!(verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], &p50()), Verdict::Better);
        assert_eq!(verdict(&a, &[120.0, 121.0, 119.0, 120.5, 119.5], &p50()), Verdict::Worse);
        // A 5 % loss is inside the bound: same, not worse.
        assert_eq!(verdict(&a, &[95.0, 96.0, 94.0, 95.5, 94.5], &tps()), Verdict::Same);
        // Spread wider than the bound on either side: unresolved, whatever the medians say.
        let wide = [70.0, 130.0, 100.0, 85.0, 115.0];
        assert_eq!(verdict(&wide, &a, &tps()), Verdict::Unresolved);
        assert_eq!(verdict(&a, &wide, &tps()), Verdict::Unresolved);
    }

    #[test]
    fn reads_declarations_and_records_and_flags_regressions() {
        let decl = declared_end_to_end(
            r#"{"end_to_end":[{"name":"commit_tps","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .expect("declared");
        assert_eq!(decl, [tps()]);
        let record = |tps: f64, failed: u64, trace: bool| {
            Json::parse(&format!(
                "{{\"workload\":\"read_only\",\"trace\":{trace},\"failed\":{failed},\
                 \"attempted\":1000,\"metrics\":{{\"commit_tps\":{{\"value\":{tps},\"unit\":\"1/s\"}}}}}}"
            ))
            .expect("record")
        };
        let mut a = ResultSet::default();
        let mut b = ResultSet::default();
        let mut c = ResultSet::default();
        for (i, base) in [100.0, 101.0, 99.0].into_iter().enumerate() {
            a.add_record(&record(base, 0, false)).expect("add");
            a.add_record(&record(1.0, 0, true)).expect("traced records are skipped");
            b.add_record(&record(base * 0.8, 0, false)).expect("add");
            c.add_record(&record(base, u64::from(i == 0), false)).expect("add");
        }
        assert_eq!(a.values[&("read_only".to_string(), "commit_tps".to_string())].len(), 3);
        // Only read_only has records, so the other workloads are "missing";
        // restrict the check to the rows that matter.
        let (table, regressed) = compare(&a, &b, &decl);
        assert!(regressed && table.contains("worse"), "{table}");
        let (table, _) = compare(&a, &c, &decl);
        let failed_row =
            table.lines().find(|l| l.starts_with("read_only") && l.contains("failed_pct"));
        assert!(failed_row.is_some_and(|l| l.ends_with("worse")), "{table}");
    }
}
