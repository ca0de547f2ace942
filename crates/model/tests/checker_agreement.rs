//! Model ↔ checker agreement: sirep-model's traces are `EventKind` streams,
//! so they go through the very checker (`sirep_core::Checker`) that audits
//! the running system, unchanged. Clean runs of the model must raise
//! nothing; each seeded mutant's counterexample must be caught — or be
//! provably outside what the journal vocabulary can express.

use sirep_common::ReplicaId;
use sirep_core::{AuditKind, AuditViolation, Checker};
use sirep_model::{
    scope_by_name, Counterexample, Explorer, Mutation, ProtocolModel, Scope, SrcaModel, SCOPES,
};

/// The mutant's minimal counterexample on its self-check scope.
fn counterexample(mutant: Mutation, scope: &str) -> Counterexample {
    let names = [mutant.name().to_string()];
    scope_by_name(scope)
        .expect("scope exists")
        .scenarios()
        .into_iter()
        .find_map(|scenario| {
            let desc = scenario.describe();
            let model = SrcaModel::with_mutations(scenario, [mutant]);
            Explorer::default().explore(&model, &desc, &names).violation
        })
        .unwrap_or_else(|| panic!("{} yields no counterexample on {scope}", mutant.name()))
}

/// Feed a counterexample's events to the checker. Not `finish`ed: a
/// counterexample stops at the violating step, not at a quiesced point.
fn audit(cex: &Counterexample) -> Vec<AuditViolation> {
    let mut checker = Checker::default();
    for e in cex.steps.iter().flat_map(|s| &s.events) {
        checker.observe(ReplicaId::new(u64::from(e.replica)), &e.kind);
    }
    checker.violations().to_vec()
}

fn kinds(v: &[AuditViolation]) -> Vec<AuditKind> {
    v.iter().map(|v| v.kind).collect()
}

/// Certification skipped: two concurrent conflicting writers both pass —
/// the model's P2 and the checker's first-committer-wins are the same
/// statement, read off each verdict's `cert`, `tid` and key digest.
#[test]
fn skip_certification_raises_first_committer_wins() {
    let v = audit(&counterexample(Mutation::SkipCertification, "2x2"));
    assert_eq!(kinds(&v), [AuditKind::FirstCommitterWins], "{v:?}");
}

/// Hole gate dropped: a begin that claims to be gated happens with a
/// validated tid uncommitted below the frontier — the model's P1
/// (snapshot-prefix) is the checker's adjustment-3 rule.
#[test]
fn drop_hole_gate_raises_hole_sync_violation() {
    let v = audit(&counterexample(Mutation::DropHoleGate, "3x2"));
    assert_eq!(kinds(&v), [AuditKind::HoleSyncViolation], "{v:?}");
    assert!(v[0].detail.contains("local begin while hole open"), "{v:?}");
}

/// **Not visible.** The engine's first-updater-wins is skipped: T_b began
/// before T_a committed, writes the same key, and *requests* its commit
/// after — so its certification watermark already covers T_a and
/// certification rightly passes it. The model sees the conflict through the
/// begin-time `db_snapshot`; the journal has no such thing for an update
/// transaction (`TxBegin` carries no snapshot, and `cert` is captured at
/// commit request), so in the journal the two are serialized. Catching this
/// is the storage engine's job, below the middleware's vocabulary.
#[test]
fn break_first_committer_wins_is_invisible_in_the_journal() {
    let cex = counterexample(Mutation::BreakFirstCommitterWins, "2x2");
    assert_eq!(audit(&cex), Vec::new());
}

/// **Not visible.** The watermark is recorded after the engine snapshot was
/// taken, so the journaled `LocalReadOnly` snapshot is *newer* than what the
/// reads saw. The journal carries only the recorded watermark — which is a
/// perfectly valid one (at or below the frontier, hole-free) — and nothing
/// about what the engine actually read, so the lie is consistent. The
/// replay test in `tests/model_replay.rs` pins the fix instead.
#[test]
fn nonatomic_begin_snapshot_is_invisible_in_the_journal() {
    let cex = counterexample(Mutation::NonatomicBeginSnapshot, "2x2");
    assert_eq!(audit(&cex), Vec::new());
}

/// **Not visible.** In-doubt resolution answers "committed" before the
/// writeset is committed at the answering replica. `inquire` is a client
/// conversation: it journals nothing, so the stream of a run with the bug
/// and of one without are the same stream.
#[test]
fn eager_inquire_is_invisible_in_the_journal() {
    let cex = counterexample(Mutation::EagerInquire, "2x2-crash");
    assert!(cex.steps.last().is_some_and(|s| s.events.is_empty()), "resolve journals nothing");
    assert_eq!(audit(&cex), Vec::new());
}

/// **Not visible.** The recovering replica joins the log at its end, not at
/// its donor's cursor, so the writeset the donor had yet to deliver never
/// reaches it. Its journal is a `ReplicaReset` at the donor's frontier and
/// then the views it does deliver: the stream of a replica that is merely
/// behind. A journal names no log position, so the skipped entry shows only
/// once the joiner validates a later writeset under another tid — and the
/// minimal run ends before any does; the model's convergence check (L1)
/// compares the live replicas' frontiers instead.
#[test]
fn late_join_is_invisible_in_the_journal() {
    let cex = counterexample(Mutation::LateJoin, "2x2-crash");
    assert_eq!(audit(&cex), Vec::new());
}

/// Clean runs raise nothing: seeded random schedules of every scenario of
/// the quick scopes, plus the crash-and-recover scope (where a rejoining
/// replica announces itself with `ReplicaReset`), each run to a terminal
/// state and every live replica's stream `finish`ed there.
#[test]
fn clean_scopes_raise_nothing() {
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut resets = 0;
    let scopes = SCOPES.iter().filter(|s| s.quick || s.name == "2x2-crash");
    for scenario in scopes.flat_map(Scope::scenarios) {
        let model = SrcaModel::new(scenario);
        for walk in 0..25 {
            let mut checker = Checker::default();
            let mut state = model.initial();
            loop {
                let labels = model.enabled(&state);
                if labels.is_empty() {
                    break;
                }
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let label = &labels[(rng % labels.len() as u64) as usize];
                let (next, violations, events) = model.apply(&state, label);
                assert!(violations.is_empty(), "the unmutated model is clean: {violations:?}");
                for e in &events {
                    resets += usize::from(e.kind.name() == "replica_reset");
                    checker.observe(ReplicaId::new(u64::from(e.replica)), &e.kind);
                }
                state = next;
            }
            for k in 0..model.scenario.replicas {
                if state.alive(k) {
                    checker.finish(ReplicaId::new(u64::from(k)));
                }
            }
            let v = checker.violations();
            assert!(v.is_empty(), "[{}] walk {walk}: {v:?}", model.scenario.describe());
        }
    }
    assert!(resets > 0, "no walk exercised recovery");
}
