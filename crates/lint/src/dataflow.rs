//! Fixed-point guard-liveness dataflow over [`crate::cfg`] blocks.
//!
//! Two forward analyses run in one worklist pass over the same transfer
//! function:
//!
//! - **may-held** (union at joins): a guard is may-held at a point if
//!   *some* path reaches it with the guard live. Rules that *forbid* work
//!   under a lock (`no-io-under-lock`, `no-blocking-under-lock`,
//!   `lock-ordering`) use this set — one bad path is a real bad path.
//! - **must-held** (intersection at joins): a guard is must-held if
//!   *every* path holds it. A rule that *requires* a lock
//!   (`journal-gauge-under-lock`) uses this set — a single lock-free path
//!   is the bug.
//!
//! A diverging path (early `return`, `?`, a branch ending in `break`)
//! contributes nothing to the join, which is what fixes the linear
//! walker's two classic mistakes: `if bad { drop(st); return; }` no
//! longer strips the guard from the fall-through, and a guard dropped in
//! one `match` arm is no longer assumed dropped in its siblings.
//!
//! The lattice is finite (sets of static acquire sites) and the transfer
//! is monotone (may only grows, must only shrinks), so the worklist
//! terminates; loops converge in at most |sites| passes.

use crate::cfg::{Cfg, Op};
use std::collections::BTreeSet;

/// Per-block input state. `None` = unreachable (never visited).
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub may: BTreeSet<usize>,
    pub must: BTreeSet<usize>,
}

impl State {
    fn empty() -> State {
        State { may: BTreeSet::new(), must: BTreeSet::new() }
    }

    /// Join `other` into `self`; true if anything changed.
    fn join(&mut self, other: &State) -> bool {
        let may_before = self.may.len();
        self.may.extend(other.may.iter().copied());
        let must_before = self.must.len();
        self.must.retain(|s| other.must.contains(s));
        self.may.len() != may_before || self.must.len() != must_before
    }
}

pub struct Flow {
    /// Input state per block; `None` for unreachable blocks.
    pub in_states: Vec<Option<State>>,
}

fn transfer(state: &mut State, op: &Op, cfg: &Cfg) {
    match op {
        Op::Acquire { site, .. } => {
            state.may.insert(*site);
            state.must.insert(*site);
        }
        Op::DropName { name } => {
            let dead: Vec<usize> = state
                .may
                .iter()
                .copied()
                .filter(|&s| cfg.sites[s].name.as_deref() == Some(name))
                .collect();
            for s in dead {
                state.may.remove(&s);
                state.must.remove(&s);
            }
        }
        Op::Kill { sites } => {
            for s in sites {
                state.may.remove(s);
                state.must.remove(s);
            }
        }
        Op::AcquireEvent { .. }
        | Op::Call { .. }
        | Op::Macro { .. }
        | Op::Index { .. }
        | Op::Try => {}
    }
}

/// Solve the liveness fixed point for one CFG.
pub fn solve(cfg: &Cfg) -> Flow {
    let mut in_states: Vec<Option<State>> = vec![None; cfg.blocks.len()];
    in_states[cfg.entry] = Some(State::empty());
    let mut work = vec![cfg.entry];
    while let Some(b) = work.pop() {
        let mut out = in_states[b].clone().expect("queued blocks have input state");
        for op in &cfg.blocks[b].ops {
            transfer(&mut out, op, cfg);
        }
        for &succ in &cfg.blocks[b].succ {
            let changed = match &mut in_states[succ] {
                Some(existing) => existing.join(&out),
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if changed && !work.contains(&succ) {
                work.push(succ);
            }
        }
    }
    Flow { in_states }
}

/// What the analysis saw at one point, with both held-sets resolved to
/// lock-class names (ambient evidence included in both).
#[derive(Debug)]
pub enum Event {
    /// A lock acquisition (guard-producing expr or an acquire-fn call).
    Acquire {
        class: String,
        line: u32,
        held_may: BTreeSet<String>,
        held_must: BTreeSet<String>,
    },
    Call {
        path: Vec<String>,
        line: u32,
        held_may: BTreeSet<String>,
        held_must: BTreeSet<String>,
    },
    Macro {
        name: String,
        line: u32,
    },
    Index {
        line: u32,
    },
}

/// Replay every reachable block against its solved input state, emitting
/// [`Event`]s with class-level held sets. `ambient` classes (param-type /
/// impl evidence) are added to both sets at every event.
pub fn events(cfg: &Cfg, flow: &Flow, ambient: &BTreeSet<String>, mut emit: impl FnMut(Event)) {
    let classes = |sites: &BTreeSet<usize>| -> BTreeSet<String> {
        let mut out = ambient.clone();
        out.extend(sites.iter().map(|&s| cfg.sites[s].class.clone()));
        out
    };
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(in_state) = &flow.in_states[b] else { continue };
        let mut state = in_state.clone();
        for op in &block.ops {
            match op {
                Op::Acquire { site, line } => {
                    emit(Event::Acquire {
                        class: cfg.sites[*site].class.clone(),
                        line: *line,
                        held_may: classes(&state.may),
                        held_must: classes(&state.must),
                    });
                }
                Op::AcquireEvent { class, line } => {
                    emit(Event::Acquire {
                        class: class.clone(),
                        line: *line,
                        held_may: classes(&state.may),
                        held_must: classes(&state.must),
                    });
                }
                Op::Call { path, line } => {
                    emit(Event::Call {
                        path: path.clone(),
                        line: *line,
                        held_may: classes(&state.may),
                        held_must: classes(&state.must),
                    });
                }
                Op::Macro { name, line } => emit(Event::Macro { name: name.clone(), line: *line }),
                Op::Index { line } => emit(Event::Index { line: *line }),
                Op::DropName { .. } | Op::Kill { .. } | Op::Try => {}
            }
            transfer(&mut state, op, cfg);
        }
    }
}
