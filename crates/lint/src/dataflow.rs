//! Fixed-point guard-liveness dataflow over [`crate::cfg`] blocks.
//!
//! One forward analysis, **may-held** (union at joins): a guard is
//! may-held at a point if *some* path reaches it with the guard live. Every
//! rule that reads it *forbids* work under a lock (`no-io-under-lock`,
//! `no-blocking-under-lock`, `lock-ordering`), so one bad path is a real
//! bad path.
//!
//! A diverging path (early `return`, a branch ending in `break`)
//! contributes nothing to the join, which is what fixes the linear
//! walker's classic mistake: a guard still held in a `match` arm that
//! returns no longer counts as held after the `match`, and a guard dropped
//! in one arm is not assumed dropped in its siblings.
//!
//! The lattice is finite (sets of static acquire sites) and the transfer
//! is monotone (the set only grows at joins), so the worklist terminates;
//! loops converge in at most |sites| passes.

use crate::cfg::{Cfg, Op};
use std::collections::BTreeSet;

/// Per-block input state: the may-held acquire sites. `None` = unreachable
/// (never visited).
pub struct Flow {
    pub in_states: Vec<Option<BTreeSet<usize>>>,
}

fn transfer(held: &mut BTreeSet<usize>, op: &Op, cfg: &Cfg) {
    match op {
        Op::Acquire { site, .. } => {
            held.insert(*site);
        }
        Op::DropName { name } => held.retain(|&s| cfg.sites[s].name.as_deref() != Some(name)),
        Op::Kill { sites } => held.retain(|s| !sites.contains(s)),
        Op::AcquireEvent { .. } | Op::Call { .. } | Op::Index { .. } => {}
    }
}

/// Solve the liveness fixed point for one CFG.
pub fn solve(cfg: &Cfg) -> Flow {
    let mut in_states: Vec<Option<BTreeSet<usize>>> = vec![None; cfg.blocks.len()];
    in_states[cfg.entry] = Some(BTreeSet::new());
    let mut work = vec![cfg.entry];
    while let Some(b) = work.pop() {
        let mut out = in_states[b].clone().unwrap_or_default();
        for op in &cfg.blocks[b].ops {
            transfer(&mut out, op, cfg);
        }
        for &succ in &cfg.blocks[b].succ {
            let changed = match &mut in_states[succ] {
                Some(existing) => {
                    let before = existing.len();
                    existing.extend(out.iter().copied());
                    existing.len() != before
                }
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

/// What the analysis saw at one point, with the may-held set resolved to
/// lock-class names (ambient evidence included).
#[derive(Debug)]
pub enum Event {
    /// A lock acquisition (guard-producing expr or an acquire-fn call).
    Acquire {
        class: String,
        line: u32,
        held: BTreeSet<String>,
    },
    Call {
        path: Vec<String>,
        line: u32,
        held: BTreeSet<String>,
    },
    Index {
        line: u32,
    },
}

/// Replay every reachable block against its solved input state, emitting
/// [`Event`]s with class-level held sets. `ambient` classes (param-type /
/// impl evidence) are added at every event.
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
                Op::Acquire { site, line } => emit(Event::Acquire {
                    class: cfg.sites[*site].class.clone(),
                    line: *line,
                    held: classes(&state),
                }),
                Op::AcquireEvent { class, line } => {
                    emit(Event::Acquire {
                        class: class.clone(),
                        line: *line,
                        held: classes(&state),
                    });
                }
                Op::Call { path, line } => {
                    emit(Event::Call { path: path.clone(), line: *line, held: classes(&state) });
                }
                Op::Index { line } => emit(Event::Index { line: *line }),
                Op::DropName { .. } | Op::Kill { .. } => {}
            }
            transfer(&mut state, op, cfg);
        }
    }
}
