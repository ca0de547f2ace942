//! sirep-model CLI: exhaustively explore SRCA-Rep scopes, fail closed.
//!
//! ```text
//! sirep-model --quick                      # CI quick tier (2x2, 3x2)
//! sirep-model --full                       # all shipped scopes
//! sirep-model --scope 2x2 --scope 3x2      # explicit scopes
//! sirep-model --scope 2x2 --mutant skip-certification
//! sirep-model --self-check                 # every mutant must trip
//! sirep-model --emit results               # write MODEL_cex_*.txt on failure
//! ```
//!
//! Exit codes: 0 = all scopes explored exhaustively with zero violations;
//! 1 = violation found or exploration incomplete (fail closed); 2 = usage.

use sirep_model::{scope_by_name, Explorer, Mutation, Prop, Scope, SrcaModel, SCOPES};
use std::process::ExitCode;

struct Args {
    scopes: Vec<&'static Scope>,
    mutations: Vec<Mutation>,
    self_check: bool,
    list: bool,
    emit: Option<String>,
    depth: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scopes: Vec::new(),
        mutations: Vec::new(),
        self_check: false,
        list: false,
        emit: None,
        depth: Explorer::default().depth_bound,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scope" => {
                let name = it.next().ok_or("--scope needs a name")?;
                let scope =
                    scope_by_name(&name).ok_or_else(|| format!("unknown scope '{name}'"))?;
                args.scopes.push(scope);
            }
            "--quick" => args.scopes.extend(SCOPES.iter().filter(|s| s.quick)),
            "--full" => args.scopes.extend(SCOPES.iter()),
            "--mutant" => {
                let name = it.next().ok_or("--mutant needs a name")?;
                let m =
                    Mutation::from_name(&name).ok_or_else(|| format!("unknown mutant '{name}'"))?;
                args.mutations.push(m);
            }
            "--self-check" => args.self_check = true,
            "--list" => args.list = true,
            "--emit" => args.emit = Some(it.next().ok_or("--emit needs a directory")?),
            "--depth" => {
                args.depth =
                    it.next().and_then(|d| d.parse().ok()).ok_or("--depth needs an integer")?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.scopes.is_empty() && !args.self_check && !args.list {
        args.scopes.extend(SCOPES.iter().filter(|s| s.quick));
    }
    Ok(args)
}

fn emit_counterexample(dir: &str, tag: &str, body: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("sirep-model: cannot create {dir}: {e}");
        return;
    }
    let path = format!("{dir}/MODEL_cex_{tag}.txt");
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("sirep-model: counterexample written to {path}"),
        Err(e) => eprintln!("sirep-model: cannot write {path}: {e}"),
    }
}

/// Run one scope (with optional mutations); returns false on failure.
fn run_scope(
    scope: &Scope,
    mutations: &[Mutation],
    explorer: Explorer,
    emit: Option<&str>,
) -> bool {
    let mutation_names: Vec<String> = mutations.iter().map(|m| m.name().to_string()).collect();
    let scenarios = scope.scenarios();
    let mut states = 0usize;
    let mut transitions = 0usize;
    let mut terminals = 0usize;
    let mut max_depth = 0usize;
    for scenario in &scenarios {
        let desc = scenario.describe();
        let model = SrcaModel::with_mutations(scenario.clone(), mutations.iter().copied());
        let report = explorer.explore(&model, &desc, &mutation_names);
        states += report.states;
        transitions += report.transitions;
        terminals += report.terminals;
        max_depth = max_depth.max(report.max_depth);
        if report.depth_bound_hit {
            eprintln!(
                "scope {}: depth bound {} hit on [{desc}] — exploration incomplete, failing closed",
                scope.name, explorer.depth_bound
            );
            return false;
        }
        if let Some(cex) = report.violation {
            let rendered = cex.to_string();
            eprintln!("scope {}: VIOLATION on [{desc}]\n{rendered}", scope.name);
            if let Some(dir) = emit {
                emit_counterexample(dir, scope.name, &rendered);
            }
            return false;
        }
    }
    println!(
        "scope {:>10}: {:>3} scenarios, {:>8} states, {:>8} transitions, {:>6} terminals, max depth {:>3} — ok",
        scope.name,
        scenarios.len(),
        states,
        transitions,
        terminals,
        max_depth
    );
    true
}

/// Fail-closed proof: each seeded mutant must produce a counterexample of
/// the expected property on its designated scope.
fn self_check(explorer: Explorer, emit: Option<&str>) -> bool {
    let expectations: [(Mutation, &str, Prop); 6] = [
        (Mutation::SkipCertification, "2x2", Prop::FirstCommitterWins),
        (Mutation::BreakFirstCommitterWins, "2x2", Prop::FirstCommitterWins),
        (Mutation::NonatomicBeginSnapshot, "2x2", Prop::CaptureMismatch),
        (Mutation::DropHoleGate, "3x2", Prop::SnapshotPrefix),
        (Mutation::EagerInquire, "2x2-crash", Prop::SessionOrder),
        (Mutation::LateJoin, "2x2-crash", Prop::Liveness),
    ];
    let mut ok = true;
    for (mutant, scope_name, expect) in expectations {
        let scope = scope_by_name(scope_name).expect("self-check scope exists");
        let mutation_names = vec![mutant.name().to_string()];
        let mut found = None;
        for scenario in scope.scenarios() {
            let desc = scenario.describe();
            let model = SrcaModel::with_mutations(scenario, [mutant]);
            let report = explorer.explore(&model, &desc, &mutation_names);
            if let Some(cex) = report.violation {
                found = Some(cex);
                break;
            }
        }
        match found {
            Some(cex) if cex.violations.iter().any(|v| v.prop == expect) => {
                println!(
                    "self-check {:>28} on {:>9}: counterexample found ({}, {} steps) — ok",
                    mutant.name(),
                    scope_name,
                    expect.name(),
                    cex.steps.len()
                );
            }
            Some(cex) => {
                eprintln!(
                    "self-check {}: counterexample found but violates {:?}, expected {}",
                    mutant.name(),
                    cex.violations.iter().map(|v| v.prop.name()).collect::<Vec<_>>(),
                    expect.name()
                );
                if let Some(dir) = emit {
                    emit_counterexample(dir, mutant.name(), &cex.to_string());
                }
                ok = false;
            }
            None => {
                eprintln!(
                    "self-check {}: NO counterexample on scope {scope_name} — the explorer \
                     failed to detect a seeded protocol bug (not fail-closed)",
                    mutant.name()
                );
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sirep-model: {e}");
            eprintln!(
                "usage: sirep-model [--quick|--full] [--scope NAME]... [--mutant NAME]... \
                 [--self-check] [--emit DIR] [--depth N] [--list]"
            );
            return ExitCode::from(2);
        }
    };
    if args.list {
        for s in SCOPES {
            println!(
                "{:>10}: {} txns x {} replicas, {} keys, crashes<={}{}{}",
                s.name,
                s.txns,
                s.replicas,
                s.keys,
                s.max_crashes,
                if s.allow_recover { " +recover" } else { "" },
                if s.quick { " [quick]" } else { " [full]" }
            );
        }
        return ExitCode::SUCCESS;
    }
    let explorer = Explorer { depth_bound: args.depth };
    let emit = args.emit.as_deref();
    let mut ok = true;
    for scope in &args.scopes {
        ok &= run_scope(scope, &args.mutations, explorer, emit);
    }
    if args.self_check {
        ok &= self_check(explorer, emit);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
