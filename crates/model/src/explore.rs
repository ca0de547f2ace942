//! Breadth-first exhaustive exploration with canonical-state memoization.
//!
//! BFS (rather than the classic DFS) costs the same number of state
//! visits but guarantees the first violation found lies at minimal depth,
//! so every counterexample trace is already minimal — no separate
//! shrinking pass. The memo set is a `BTreeSet` of the states' canonical
//! keys ([`ProtocolModel::key`]); only the frontier holds whole states,
//! and the arena keeps each visited state's parent and label, from which
//! a trace is rebuilt by replay.

use crate::{ProtocolModel, TraceEvent, Violation};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Exploration driver. `depth_bound` is an *exhaustiveness assertion*,
/// not a truncation device: hitting it is reported and treated as a
/// failure by the CLI, because it would mean the scope was not fully
/// explored.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    pub depth_bound: usize,
}

impl Default for Explorer {
    fn default() -> Explorer {
        // Far above any reachable depth of the shipped scopes (the deepest,
        // 3x2-crash, terminates well under 100 steps); a cycle introduced
        // by a future model edit trips this instead of hanging CI.
        Explorer { depth_bound: 256 }
    }
}

/// One step of a counterexample: the transition description plus the
/// journal events it corresponds to.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub description: String,
    pub events: Vec<TraceEvent>,
}

/// A minimal violating run: the schedule from the initial state to the
/// violation, in the journal's event vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    pub scenario: String,
    pub mutations: Vec<String>,
    pub violations: Vec<Violation>,
    pub steps: Vec<Step>,
    /// True when the violation came from `terminal_check` (the last step
    /// is then the one that led into the terminal state).
    pub at_terminal: bool,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# sirep-model counterexample")?;
        writeln!(f, "scenario: {}", self.scenario)?;
        if self.mutations.is_empty() {
            writeln!(f, "mutations: (none — this is a real protocol bug)")?;
        } else {
            writeln!(f, "mutations: [{}]", self.mutations.join(", "))?;
        }
        for v in &self.violations {
            writeln!(f, "violated: {} — {}", v.prop.name(), v.detail)?;
        }
        let kind =
            if self.at_terminal { "to violating terminal state" } else { "last step violates" };
        writeln!(f, "trace ({} steps, minimal, {kind}):", self.steps.len())?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {:>2}. {}", i + 1, s.description)?;
            for e in &s.events {
                writeln!(f, "        R{}  {:?}", e.replica, e.kind)?;
            }
        }
        Ok(())
    }
}

/// Exploration result for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub scenario: String,
    pub states: usize,
    pub transitions: usize,
    pub terminals: usize,
    pub max_depth: usize,
    pub depth_bound_hit: bool,
    pub violation: Option<Counterexample>,
}

impl Report {
    /// The scope failed: either a property violation or an incomplete
    /// exploration (depth bound hit).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.violation.is_some() || self.depth_bound_hit
    }
}

/// Arena entry: a visited state's parent index and the label that
/// reached it (`None` only for the root).
type ArenaEntry<M> = (usize, Option<<M as ProtocolModel>::Label>);

impl Explorer {
    /// Exhaustively explore `model`, stopping at the first (minimal)
    /// violation. Fully deterministic: same model ⇒ same report.
    pub fn explore<M: ProtocolModel>(
        &self,
        model: &M,
        scenario: &str,
        mutations: &[String],
    ) -> Report {
        // Back-pointers of the visited states, for trace rebuild.
        let mut arena: Vec<ArenaEntry<M>> = Vec::new();
        let mut memo: BTreeSet<M::Key> = BTreeSet::new();
        let mut frontier: VecDeque<(M::State, usize, usize)> = VecDeque::new();

        let init = model.initial();
        memo.insert(model.key(&init));
        arena.push((usize::MAX, None));
        frontier.push_back((init, 0, 0));

        let mut report = Report {
            scenario: scenario.to_string(),
            states: 1,
            transitions: 0,
            terminals: 0,
            max_depth: 0,
            depth_bound_hit: false,
            violation: None,
        };

        while let Some((state, idx, depth)) = frontier.pop_front() {
            report.max_depth = report.max_depth.max(depth);
            let labels = model.enabled(&state);
            if labels.is_empty() {
                report.terminals += 1;
                let viols = model.terminal_check(&state);
                if !viols.is_empty() {
                    report.violation = Some(build_counterexample(
                        model, &arena, idx, None, viols, scenario, mutations, true,
                    ));
                    return report;
                }
                continue;
            }
            if depth >= self.depth_bound {
                report.depth_bound_hit = true;
                continue;
            }
            for label in labels {
                let (succ, viols, _events) = model.apply(&state, &label);
                report.transitions += 1;
                if !viols.is_empty() {
                    report.violation = Some(build_counterexample(
                        model,
                        &arena,
                        idx,
                        Some(label),
                        viols,
                        scenario,
                        mutations,
                        false,
                    ));
                    return report;
                }
                if memo.insert(model.key(&succ)) {
                    report.states += 1;
                    arena.push((idx, Some(label)));
                    frontier.push_back((succ, arena.len() - 1, depth + 1));
                }
            }
        }
        report
    }
}

/// Rebuild the schedule from the arena back-pointers, then replay it from
/// the initial state to regenerate descriptions and journal events.
#[allow(clippy::too_many_arguments)]
fn build_counterexample<M: ProtocolModel>(
    model: &M,
    arena: &[ArenaEntry<M>],
    end: usize,
    extra: Option<M::Label>,
    violations: Vec<Violation>,
    scenario: &str,
    mutations: &[String],
    at_terminal: bool,
) -> Counterexample {
    let mut labels: Vec<M::Label> = Vec::new();
    let mut cur = end;
    while cur != 0 {
        let (parent, label) = &arena[cur];
        labels.push(label.clone().expect("non-root arena entries carry a label"));
        cur = *parent;
    }
    labels.reverse();
    labels.extend(extra);

    let mut steps = Vec::new();
    let mut state = model.initial();
    for label in &labels {
        let (succ, _viols, events) = model.apply(&state, label);
        steps.push(Step { description: model.describe(label), events });
        state = succ;
    }
    Counterexample {
        scenario: scenario.to_string(),
        mutations: mutations.to_vec(),
        violations,
        steps,
        at_terminal,
    }
}
