//! sirep-model CLI: exhaustively explore SRCA-Rep scopes and the
//! sequencer scope, fail closed.
//!
//! ```text
//! sirep-model --quick                      # CI quick tier (2x2, 3x2, seq)
//! sirep-model --full                       # all shipped scopes
//! sirep-model --scope 2x2 --scope 3x2      # explicit scopes
//! sirep-model --scope seq                  # the sequencer model
//! sirep-model --scope 2x2 --mutant skip-certification
//! sirep-model --self-check                 # every mutant must trip
//! sirep-model --emit results               # write MODEL_cex_*.txt on failure
//! ```
//!
//! Exit codes: 0 = all scopes explored exhaustively with zero violations;
//! 1 = violation found or exploration incomplete (fail closed); 2 = usage.

#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use sirep_model::{
    scope_by_name, seq_scenarios, Counterexample, Explorer, Mutation, Prop, ProtocolModel, Scope,
    SeqModel, SrcaModel, SCOPES,
};
use std::process::ExitCode;

/// The sequencer model's scope name.
const SEQ: &str = "seq";

struct Args {
    scopes: Vec<&'static Scope>,
    seq: bool,
    mutations: Vec<Mutation>,
    self_check: bool,
    list: bool,
    emit: Option<String>,
    depth: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scopes: Vec::new(),
        seq: false,
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
                if name == SEQ {
                    args.seq = true;
                    continue;
                }
                let scope =
                    scope_by_name(&name).ok_or_else(|| format!("unknown scope '{name}'"))?;
                args.scopes.push(scope);
            }
            "--quick" => {
                args.scopes.extend(SCOPES.iter().filter(|s| s.quick));
                args.seq = true;
            }
            "--full" => {
                args.scopes.extend(SCOPES.iter());
                args.seq = true;
            }
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
    if args.scopes.is_empty() && !args.seq && !args.self_check && !args.list {
        args.scopes.extend(SCOPES.iter().filter(|s| s.quick));
        args.seq = true;
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

/// The SRCA-Rep models of one scope, each with its scenario's description.
fn srca_models(scope: &Scope, mutations: &[Mutation]) -> Vec<(String, SrcaModel)> {
    let model = |sc: sirep_model::Scenario| {
        (sc.describe(), SrcaModel::with_mutations(sc, mutations.iter().copied()))
    };
    scope.scenarios().into_iter().map(model).collect()
}

/// The sequencer models, one per scenario.
fn seq_models(mutations: &[Mutation]) -> Vec<(String, SeqModel)> {
    let model = |jobs| SeqModel { jobs, mutations: mutations.iter().copied().collect() };
    seq_scenarios().into_iter().map(model).map(|m| (format!("{:?}", m.jobs), m)).collect()
}

/// Run one scope (with optional mutations); returns false on failure.
fn run_scope<M: ProtocolModel>(
    name: &str,
    models: Vec<(String, M)>,
    mutations: &[Mutation],
    explorer: Explorer,
    emit: Option<&str>,
) -> bool {
    let mutation_names: Vec<String> = mutations.iter().map(|m| m.name().to_string()).collect();
    let scenarios = models.len();
    let mut states = 0usize;
    let mut transitions = 0usize;
    let mut terminals = 0usize;
    let mut max_depth = 0usize;
    for (desc, model) in models {
        let report = explorer.explore(&model, &desc, &mutation_names);
        states += report.states;
        transitions += report.transitions;
        terminals += report.terminals;
        max_depth = max_depth.max(report.max_depth);
        if report.depth_bound_hit {
            eprintln!(
                "scope {name}: depth bound {} hit on [{desc}] — exploration incomplete, failing closed",
                explorer.depth_bound
            );
            return false;
        }
        if let Some(cex) = report.violation {
            let rendered = cex.to_string();
            eprintln!("scope {name}: VIOLATION on [{desc}]\n{rendered}");
            if let Some(dir) = emit {
                emit_counterexample(dir, name, &rendered);
            }
            return false;
        }
    }
    println!(
        "scope {name:>10}: {scenarios:>3} scenarios, {states:>8} states, {transitions:>8} transitions, {terminals:>6} terminals, max depth {max_depth:>3} — ok"
    );
    true
}

/// The first counterexample over `models`, scenario by scenario.
fn first_violation<M: ProtocolModel>(
    models: Vec<(String, M)>,
    explorer: Explorer,
    mutant: Mutation,
) -> Option<Counterexample> {
    let names = vec![mutant.name().to_string()];
    models.into_iter().find_map(|(desc, model)| explorer.explore(&model, &desc, &names).violation)
}

/// Fail-closed proof: each seeded mutant must produce a counterexample of
/// the expected property on its designated scope.
fn self_check(explorer: Explorer, emit: Option<&str>) -> bool {
    let expectations: [(Mutation, &str, Prop); 9] = [
        (Mutation::SkipCertification, "2x2", Prop::FirstCommitterWins),
        (Mutation::BreakFirstCommitterWins, "2x2", Prop::FirstCommitterWins),
        (Mutation::NonatomicBeginSnapshot, "2x2", Prop::CaptureMismatch),
        (Mutation::DropHoleGate, "3x2", Prop::SnapshotPrefix),
        (Mutation::EagerInquire, "2x2-crash", Prop::SessionOrder),
        (Mutation::LateJoin, "2x2-crash", Prop::Liveness),
        (Mutation::SkipClaim, SEQ, Prop::Owned),
        (Mutation::DoubleClaim, SEQ, Prop::OneWriter),
        (Mutation::ReleaseBeforeCarry, SEQ, Prop::StreamSlice),
    ];
    let mut ok = true;
    for (mutant, scope_name, expect) in expectations {
        let found = match scope_by_name(scope_name) {
            Some(scope) => first_violation(srca_models(scope, &[mutant]), explorer, mutant),
            None => first_violation(seq_models(&[mutant]), explorer, mutant),
        };
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
        println!("{SEQ:>10}: sequencer, 2 members + 1 joiner, 2 appends, 1 eviction [quick]");
        return ExitCode::SUCCESS;
    }
    let explorer = Explorer { depth_bound: args.depth };
    let emit = args.emit.as_deref();
    let mut ok = true;
    for scope in &args.scopes {
        let models = srca_models(scope, &args.mutations);
        ok &= run_scope(scope.name, models, &args.mutations, explorer, emit);
    }
    if args.seq {
        ok &= run_scope(SEQ, seq_models(&args.mutations), &args.mutations, explorer, emit);
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
