//! The outcome log (§5.4): the verdict on every writeset delivered here,
//! the newest `cap` of them, for in-doubt resolution.
//!
//! Its index is a hash map, probed by key only: every delivery looks an
//! outcome up and records one, and with tens of thousands of entries an
//! ordered map cost `transfer_wide` ≈ 5 % of its commit rate
//! (EXPERIMENTS_RUNS.md, ISSUE 30). Whatever enumerates the log goes
//! through `order`, so nothing decided from it depends on the map's
//! iteration order.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::msg::{Outcome, XactId};
use std::collections::{HashMap, VecDeque};

/// Bounded log of transaction outcomes. Copied by a state transfer so a
/// recovered replica can (a) answer in-doubt inquiries about pre-recovery
/// transactions and (b) recognize — and skip — buffered deliveries the
/// transferred state already covers.
#[derive(Clone)]
pub(crate) struct OutcomeLog {
    map: HashMap<XactId, Outcome>,
    order: VecDeque<XactId>,
    cap: usize,
}

impl OutcomeLog {
    pub(crate) fn new(cap: usize) -> OutcomeLog {
        OutcomeLog { map: HashMap::new(), order: VecDeque::new(), cap }
    }

    pub(crate) fn record(&mut self, xact: XactId, outcome: Outcome) {
        if self.map.insert(xact, outcome).is_none() {
            self.order.push_back(xact);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    pub(crate) fn get(&self, xact: XactId) -> Option<Outcome> {
        self.map.get(&xact).copied()
    }

    /// The outcomes, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (XactId, Outcome)> + '_ {
        self.order.iter().filter_map(|&xact| Some((xact, self.get(xact)?)))
    }
}
