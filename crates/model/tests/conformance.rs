//! Conformance self-tests for the explorer (ISSUE 9 satellite 4).
//!
//! Fail-closed proof: each seeded mutant of the abstract protocol must
//! produce a counterexample of the expected property, the unmutated model
//! must explore the acceptance scopes clean, and two runs must be
//! bit-identical (state counts and rendered traces).

use sirep_model::{scope_by_name, seq_scenarios, Explorer, Mutation, Prop, SeqModel, SrcaModel};

/// Explore a whole scope under a mutation set; return the first
/// counterexample (if any) rendered to a string plus its properties.
fn explore_scope(
    scope: &str,
    mutations: &[Mutation],
) -> (usize, usize, Option<(Vec<Prop>, String)>) {
    let scope = scope_by_name(scope).expect("scope exists");
    let explorer = Explorer::default();
    let names: Vec<String> = mutations.iter().map(|m| m.name().to_string()).collect();
    let mut states = 0;
    let mut transitions = 0;
    for scenario in scope.scenarios() {
        let desc = scenario.describe();
        let model = SrcaModel::with_mutations(scenario, mutations.iter().copied());
        let report = explorer.explore(&model, &desc, &names);
        assert!(!report.depth_bound_hit, "depth bound hit on [{desc}] — not exhaustive");
        states += report.states;
        transitions += report.transitions;
        if let Some(cex) = report.violation {
            let props = cex.violations.iter().map(|v| v.prop).collect();
            return (states, transitions, Some((props, cex.to_string())));
        }
    }
    (states, transitions, None)
}

/// The same over the sequencer scope.
fn explore_seq(mutations: &[Mutation]) -> (usize, Option<(Vec<Prop>, String)>) {
    let explorer = Explorer::default();
    let names: Vec<String> = mutations.iter().map(|m| m.name().to_string()).collect();
    let mut states = 0;
    for jobs in seq_scenarios() {
        let desc = format!("{jobs:?}");
        let model = SeqModel { jobs, mutations: mutations.iter().copied().collect() };
        let report = explorer.explore(&model, &desc, &names);
        assert!(!report.depth_bound_hit, "depth bound hit on [{desc}] — not exhaustive");
        states += report.states;
        if let Some(cex) = report.violation {
            let props = cex.violations.iter().map(|v| v.prop).collect();
            return (states, Some((props, cex.to_string())));
        }
    }
    (states, None)
}

#[test]
fn base_model_2x2_is_clean() {
    let (states, _, cex) = explore_scope("2x2", &[]);
    assert!(cex.is_none(), "violation in unmutated 2x2: {:?}", cex.map(|c| c.1));
    assert!(states > 1000, "suspiciously small state space: {states}");
}

#[test]
fn base_model_3x2_is_clean() {
    let (states, _, cex) = explore_scope("3x2", &[]);
    assert!(cex.is_none(), "violation in unmutated 3x2: {:?}", cex.map(|c| c.1));
    assert!(states > 50_000, "suspiciously small state space: {states}");
}

#[test]
fn straddle_batches_cannot_break_the_smallest_tid_gate() {
    // ISSUE 9 satellite 3: batches whose tids straddle a blocked smaller
    // tid commit atomically under one state-lock hold, so gating on the
    // smallest tid is sound. The explorer proves it for every
    // interleaving of the hand-built straddle family.
    let (_, _, cex) = explore_scope("straddle", &[]);
    assert!(cex.is_none(), "straddle violation: {:?}", cex.map(|c| c.1));
}

fn assert_mutant_trips(mutant: Mutation, scope: &str, expect: Prop) {
    let (_, _, cex) = explore_scope(scope, &[mutant]);
    let (props, rendered) = cex.unwrap_or_else(|| {
        panic!(
            "mutant {} produced no counterexample on {scope} — explorer is not fail-closed",
            mutant.name()
        )
    });
    assert!(
        props.contains(&expect),
        "mutant {} tripped {:?}, expected {:?}:\n{rendered}",
        mutant.name(),
        props,
        expect
    );
}

#[test]
fn mutant_skip_certification_trips_first_committer_wins() {
    assert_mutant_trips(Mutation::SkipCertification, "2x2", Prop::FirstCommitterWins);
}

#[test]
fn mutant_break_fcw_trips_first_committer_wins() {
    assert_mutant_trips(Mutation::BreakFirstCommitterWins, "2x2", Prop::FirstCommitterWins);
}

#[test]
fn mutant_nonatomic_begin_trips_capture_agreement() {
    // This mutant is the exact shape of the real pre-fix SrcaOpt begin
    // bug (db.begin() outside the state lock) — see tests/model_replay.rs
    // for the replay against the real node.
    assert_mutant_trips(Mutation::NonatomicBeginSnapshot, "2x2", Prop::CaptureMismatch);
}

#[test]
fn mutant_drop_hole_gate_trips_snapshot_prefix() {
    assert_mutant_trips(Mutation::DropHoleGate, "3x2", Prop::SnapshotPrefix);
}

#[test]
fn mutant_eager_inquire_trips_session_order() {
    // The exact shape of the real pre-fix inquire bug (answering
    // Committed from the validation-time outcome log) — see
    // tests/model_replay.rs for the replay against the real node.
    assert_mutant_trips(Mutation::EagerInquire, "2x2-crash", Prop::SessionOrder);
}

#[test]
fn mutant_late_join_trips_liveness() {
    // A joiner admitted at the log's end instead of at its donor's cursor
    // misses what the donor had not yet read: the live replicas end
    // on different frontiers.
    assert_mutant_trips(Mutation::LateJoin, "2x2-crash", Prop::Liveness);
}

#[test]
fn sequencer_model_is_clean() {
    let (states, cex) = explore_seq(&[]);
    assert!(cex.is_none(), "violation in the unmutated sequencer: {:?}", cex.map(|c| c.1));
    assert!(states > 10_000, "suspiciously small state space: {states}");
}

fn assert_seq_mutant_trips(mutant: Mutation, expect: Prop) {
    let (_, cex) = explore_seq(&[mutant]);
    let (props, rendered) = cex.unwrap_or_else(|| {
        panic!("mutant {} produced no counterexample on seq — not fail-closed", mutant.name())
    });
    assert!(props.contains(&expect), "mutant {} tripped {props:?}:\n{rendered}", mutant.name());
}

#[test]
fn mutant_skip_claim_trips_owned() {
    // An append that claims nobody leaves the members it gave frames to
    // behind with no owner.
    assert_seq_mutant_trips(Mutation::SkipClaim, Prop::Owned);
}

#[test]
fn mutant_double_claim_trips_one_writer() {
    // The second appender takes for members the first still owns.
    assert_seq_mutant_trips(Mutation::DoubleClaim, Prop::OneWriter);
}

#[test]
fn mutant_release_before_carry_trips_stream_slice() {
    // A short write's leftover dropped at release: the member's stream has
    // a gap between its socket and its cursor.
    assert_seq_mutant_trips(Mutation::ReleaseBeforeCarry, Prop::StreamSlice);
}

#[test]
fn exploration_is_deterministic() {
    // Two full runs of a clean scope and of a violating one must agree on
    // every count and on the rendered counterexample, byte for byte.
    let a = explore_scope("2x2", &[]);
    let b = explore_scope("2x2", &[]);
    assert_eq!(a, b, "clean 2x2 exploration is nondeterministic");

    let a = explore_scope("2x2", &[Mutation::NonatomicBeginSnapshot]);
    let b = explore_scope("2x2", &[Mutation::NonatomicBeginSnapshot]);
    assert_eq!(a.0, b.0, "state counts differ between runs");
    assert_eq!(a.2, b.2, "counterexample traces differ between runs");
}

#[test]
fn counterexamples_are_minimal_and_in_journal_vocabulary() {
    let (_, _, cex) = explore_scope("2x2", &[Mutation::NonatomicBeginSnapshot]);
    let (_, rendered) = cex.expect("mutant trips");
    // BFS guarantees minimal depth; the known-minimal schedule for this
    // bug is 8 steps (begin, record, submit, begin, deliver, local
    // commit, record, ro-commit).
    assert!(rendered.contains("trace (8 steps"), "not minimal:\n{rendered}");
    // Events are rendered in the journal's vocabulary so the trace maps
    // 1:1 onto a replay test against the real node.
    for ev in [
        "TxBegin",
        "Multicast",
        "TotalOrderDeliver",
        "ValidationVerdict",
        "Commit",
        "LocalReadOnly",
    ] {
        assert!(rendered.contains(ev), "missing journal event {ev}:\n{rendered}");
    }
}
