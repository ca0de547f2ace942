//! The paper's formal model (§2): SI-schedules, SI-equivalence, and the
//! **1-copy-SI** correctness criterion, with an exact checker.
//!
//! A schedule here is the paper's reduced form: a sequence of `b_i` / `c_i`
//! events over transactions given by their readsets and writesets. `b_i`
//! fixes when all of `T_i`'s reads (logically) happen; `c_i` fixes its
//! writes.
//!
//! The 1-copy-SI checker ([`check_one_copy_si`]) follows the structure of
//! the paper's Theorem 1 proof, but as a decision procedure: all of
//! Definition 3's conditions — plus the requirement that the global schedule
//! `S` itself be an SI-schedule — reduce to *precedence constraints* between
//! the `2·|T|` events of `S`:
//!
//! 1. `b_i < c_i` for every transaction;
//! 2. (ii.a) conflicting writesets commit in the same order in `S` as in
//!    every replica schedule — and the replicas must agree with each other;
//! 3. (ii.b) for a transaction local at replica `k` and any update
//!    transaction `T_j` with `WS_j ∩ RS_i ≠ ∅`:
//!    `c_j^k < b_i^k  ⇔  c_j < b_i`; because this is an iff, both the
//!    positive and the negative direction become directed edges;
//! 4. the SI-schedule property of `S`: for `WS_i ∩ WS_j ≠ ∅`, not
//!    `b_i < c_j < c_i`; given the commit order from (2) is fixed, this
//!    derives the edge `c_j < b_i` whenever `c_j` precedes `c_i`.
//!
//! `S` exists **iff** the resulting event digraph is acyclic; a topological
//! order *is* a witness schedule. This makes the checker exact and
//! polynomial — no search — which lets the test suite verify real executions
//! with hundreds of transactions.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// An abstract object identifier (a tuple in the real system).
pub type Obj = String;

/// A transaction given by its readset and writeset.
#[derive(Debug, Clone, Default)]
pub struct TxSpec {
    pub readset: BTreeSet<Obj>,
    pub writeset: BTreeSet<Obj>,
}

impl TxSpec {
    pub fn new<R, W, S>(reads: R, writes: W) -> TxSpec
    where
        R: IntoIterator<Item = S>,
        W: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TxSpec {
            readset: reads.into_iter().map(Into::into).collect(),
            writeset: writes.into_iter().map(Into::into).collect(),
        }
    }

    pub fn is_update(&self) -> bool {
        !self.writeset.is_empty()
    }

    pub fn ww_conflicts(&self, other: &TxSpec) -> bool {
        self.writeset.intersection(&other.writeset).next().is_some()
    }

    /// `WS_self ∩ RS_other ≠ ∅` — other reads something self writes.
    pub fn wr_conflicts(&self, other: &TxSpec) -> bool {
        self.writeset.intersection(&other.readset).next().is_some()
    }
}

/// One schedule event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op<T> {
    Begin(T),
    Commit(T),
}

impl<T: Copy> Op<T> {
    pub fn txn(&self) -> T {
        match self {
            Op::Begin(t) | Op::Commit(t) => *t,
        }
    }
}

/// A schedule: a sequence of begin/commit events over transaction ids.
pub type Schedule<T> = Vec<Op<T>>;

/// Why a schedule or execution fails a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `b_i` missing, `c_i` missing, duplicated, or out of order.
    MalformedSchedule(String),
    /// Def. 1 (ii): a conflicting commit falls between `b_i` and `c_i`.
    NotSiSchedule { holder: String, intruder: String },
    /// Replicas commit two conflicting transactions in different orders.
    DivergentCommitOrder { a: String, b: String },
    /// Property (i) of Def. 3: replicas committed different sets of update
    /// transactions, or a read-only transaction appears remotely.
    NotRowa(String),
    /// The constraint graph has a cycle: no global SI-schedule exists.
    NoGlobalSchedule { cycle_hint: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MalformedSchedule(m) => write!(f, "malformed schedule: {m}"),
            Violation::NotSiSchedule { holder, intruder } => write!(
                f,
                "not an SI-schedule: {intruder} commits between begin and commit of {holder} \
                 with overlapping writesets"
            ),
            Violation::DivergentCommitOrder { a, b } => {
                write!(f, "replicas disagree on the commit order of {a} and {b}")
            }
            Violation::NotRowa(m) => write!(f, "not a ROWA mapping: {m}"),
            Violation::NoGlobalSchedule { cycle_hint } => {
                write!(f, "no global SI-schedule exists (constraint cycle: {cycle_hint})")
            }
        }
    }
}

/// Check the paper's Definition 1: is `s` an SI-schedule over `txs`?
///
/// (i) every transaction has `b_i` before `c_i` (and exactly one of each);
/// (ii) if `b_i < c_j < c_i` then `WS_i ∩ WS_j = ∅`.
pub fn is_si_schedule<T>(txs: &BTreeMap<T, TxSpec>, s: &Schedule<T>) -> Result<(), Violation>
where
    T: Copy + Ord + fmt::Debug,
{
    let mut begin_pos: BTreeMap<T, usize> = BTreeMap::new();
    let mut commit_pos: BTreeMap<T, usize> = BTreeMap::new();
    for (pos, op) in s.iter().enumerate() {
        let (map, other) = match op {
            Op::Begin(t) => (&mut begin_pos, *t),
            Op::Commit(t) => (&mut commit_pos, *t),
        };
        if map.insert(other, pos).is_some() {
            return Err(Violation::MalformedSchedule(format!("duplicate event for {other:?}")));
        }
    }
    for t in txs.keys() {
        let (Some(&b), Some(&c)) = (begin_pos.get(t), commit_pos.get(t)) else {
            return Err(Violation::MalformedSchedule(format!("missing events for {t:?}")));
        };
        if b >= c {
            return Err(Violation::MalformedSchedule(format!("commit before begin for {t:?}")));
        }
    }
    if begin_pos.len() != txs.len() || commit_pos.len() != txs.len() {
        return Err(Violation::MalformedSchedule("events for unknown transactions".into()));
    }
    for (i, spec_i) in txs {
        let (b_i, c_i) = (begin_pos[i], commit_pos[i]);
        for (j, spec_j) in txs {
            if i == j {
                continue;
            }
            let c_j = commit_pos[j];
            if b_i < c_j && c_j < c_i && spec_i.ww_conflicts(spec_j) {
                return Err(Violation::NotSiSchedule {
                    holder: format!("{i:?}"),
                    intruder: format!("{j:?}"),
                });
            }
        }
    }
    Ok(())
}

/// Check the paper's Definition 2: are two SI-schedules over the same
/// transactions SI-equivalent?
///
/// (i) conflicting writesets commit in the same order;
/// (ii) `WS_i ∩ RS_j ≠ ∅` implies `(c_i < b_j)` agrees between schedules.
pub fn si_equivalent<T>(
    txs: &BTreeMap<T, TxSpec>,
    s1: &Schedule<T>,
    s2: &Schedule<T>,
) -> Result<bool, Violation>
where
    T: Copy + Ord + fmt::Debug + std::hash::Hash,
{
    is_si_schedule(txs, s1)?;
    is_si_schedule(txs, s2)?;
    let pos = |s: &Schedule<T>| -> HashMap<Op<T>, usize> {
        s.iter().enumerate().map(|(i, &op)| (op, i)).collect()
    };
    let (p1, p2) = (pos(s1), pos(s2));
    for (i, spec_i) in txs {
        for (j, spec_j) in txs {
            if i == j {
                continue;
            }
            if spec_i.ww_conflicts(spec_j) {
                let o1 = p1[&Op::Commit(*i)] < p1[&Op::Commit(*j)];
                let o2 = p2[&Op::Commit(*i)] < p2[&Op::Commit(*j)];
                if o1 != o2 {
                    return Ok(false);
                }
            }
            if spec_i.wr_conflicts(spec_j) {
                let o1 = p1[&Op::Commit(*i)] < p1[&Op::Begin(*j)];
                let o2 = p2[&Op::Commit(*i)] < p2[&Op::Begin(*j)];
                if o1 != o2 {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// The execution of a replicated system: one schedule per replica
/// plus, for every transaction, the replica it was local at.
///
/// Update transactions must appear in every replica's schedule (ROWA);
/// read-only transactions only in their local replica's.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedExecution<T: Ord> {
    /// Per-replica schedules, indexed by replica number.
    pub schedules: Vec<Schedule<T>>,
    /// Transaction → index of its local replica.
    pub locality: BTreeMap<T, usize>,
}

/// Check 1-copy-SI (Definition 3) and return a witness global SI-schedule.
pub fn check_one_copy_si<T>(
    txs: &BTreeMap<T, TxSpec>,
    exec: &ReplicatedExecution<T>,
) -> Result<Schedule<T>, Violation>
where
    T: Copy + Ord + fmt::Debug + std::hash::Hash,
{
    // --- Property (i): the execution is a ROWA mapping. -------------------
    let mut per_replica_events: Vec<HashMap<Op<T>, usize>> = Vec::new();
    for (k, s) in exec.schedules.iter().enumerate() {
        // Build position maps; validate that each replica schedule is an
        // SI-schedule over exactly the transactions it should run.
        let mut expected: BTreeMap<T, TxSpec> = BTreeMap::new();
        for (t, spec) in txs {
            let local = exec.locality.get(t) == Some(&k);
            if spec.is_update() || local {
                // Remote update transactions have empty readsets (rmap).
                let spec_k = if local {
                    spec.clone()
                } else {
                    TxSpec { readset: BTreeSet::new(), writeset: spec.writeset.clone() }
                };
                expected.insert(*t, spec_k);
            }
        }
        let present: BTreeSet<T> = s.iter().map(Op::txn).collect();
        let expected_set: BTreeSet<T> = expected.keys().copied().collect();
        if present != expected_set {
            return Err(Violation::NotRowa(format!(
                "replica {k} ran {present:?}, expected {expected_set:?}"
            )));
        }
        is_si_schedule(&expected, s)?;
        per_replica_events.push(s.iter().enumerate().map(|(i, &op)| (op, i)).collect());
    }
    for t in exec.locality.keys() {
        if !txs.contains_key(t) {
            return Err(Violation::NotRowa(format!("locality for unknown txn {t:?}")));
        }
    }
    for t in txs.keys() {
        if !exec.locality.contains_key(t) {
            return Err(Violation::NotRowa(format!("no local replica recorded for {t:?}")));
        }
    }

    // --- Build the event constraint graph. --------------------------------
    // Events are indexed 0..2n: Begin(i) = 2*pos(i), Commit(i) = 2*pos(i)+1.
    let ids: Vec<T> = txs.keys().copied().collect();
    let idx: BTreeMap<T, usize> = ids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let n = ids.len();
    let ev_b = |i: usize| 2 * i;
    let ev_c = |i: usize| 2 * i + 1;
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); 2 * n];
    let mut add = |from: usize, to: usize| {
        edges[from].insert(to);
    };

    // 1. b_i < c_i.
    for i in 0..n {
        add(ev_b(i), ev_c(i));
    }

    // 2. (ii.a) consistent conflicting-commit order across replicas → edges.
    //    Also records the global commit order for rule 4.
    for (ai, &a) in ids.iter().enumerate() {
        for (bi, &b) in ids.iter().enumerate() {
            if ai >= bi {
                continue;
            }
            let (sa, sb) = (&txs[&a], &txs[&b]);
            if !sa.ww_conflicts(sb) {
                continue;
            }
            // Find the order at each replica that committed both.
            let mut order: Option<bool> = None; // true: a before b
            for events in &per_replica_events {
                let (Some(&ca), Some(&cb)) =
                    (events.get(&Op::Commit(a)), events.get(&Op::Commit(b)))
                else {
                    continue;
                };
                let this = ca < cb;
                match order {
                    None => order = Some(this),
                    Some(prev) if prev != this => {
                        return Err(Violation::DivergentCommitOrder {
                            a: format!("{a:?}"),
                            b: format!("{b:?}"),
                        });
                    }
                    _ => {}
                }
            }
            if let Some(a_first) = order {
                let (first, second) = if a_first { (ai, bi) } else { (bi, ai) };
                add(ev_c(first), ev_c(second));
                // 4. SI property of S: the loser's begin must follow the
                //    winner's commit (otherwise b < c' < c with WW overlap).
                add(ev_c(first), ev_b(second));
            }
        }
    }

    // 3. (ii.b) reads-from agreement for local transactions.
    for (&t, spec_t) in txs {
        let k = exec.locality[&t];
        let events = &per_replica_events[k];
        let b_t_pos = events[&Op::Begin(t)];
        for (&u, spec_u) in txs {
            if u == t || !spec_u.wr_conflicts(spec_t) {
                continue;
            }
            // u is an update txn (it writes something t reads) → it ran at k.
            let Some(&c_u_pos) = events.get(&Op::Commit(u)) else {
                return Err(Violation::NotRowa(format!("update txn {u:?} missing at replica {k}")));
            };
            let (ti, ui) = (idx[&t], idx[&u]);
            if c_u_pos < b_t_pos {
                add(ev_c(ui), ev_b(ti));
            } else {
                add(ev_b(ti), ev_c(ui));
            }
        }
    }

    // --- Topological sort (Kahn). -----------------------------------------
    let mut indegree = vec![0usize; 2 * n];
    for out in &edges {
        for &to in out {
            indegree[to] += 1;
        }
    }
    let mut ready: BTreeSet<usize> = (0..2 * n).filter(|&e| indegree[e] == 0).collect();
    let mut order = Vec::with_capacity(2 * n);
    while let Some(&e) = ready.iter().next() {
        ready.remove(&e);
        order.push(e);
        for &to in &edges[e] {
            indegree[to] -= 1;
            if indegree[to] == 0 {
                ready.insert(to);
            }
        }
    }
    if order.len() != 2 * n {
        let stuck: Vec<String> = (0..2 * n)
            .filter(|&e| indegree[e] > 0)
            .take(6)
            .map(|e| {
                let t = ids[e / 2];
                if e % 2 == 0 {
                    format!("b({t:?})")
                } else {
                    format!("c({t:?})")
                }
            })
            .collect();
        return Err(Violation::NoGlobalSchedule { cycle_hint: stuck.join(", ") });
    }
    let witness: Schedule<T> = order
        .into_iter()
        .map(|e| {
            let t = ids[e / 2];
            if e % 2 == 0 {
                Op::Begin(t)
            } else {
                Op::Commit(t)
            }
        })
        .collect();
    // Defence in depth: the witness must itself be an SI-schedule.
    debug_assert!(is_si_schedule(txs, &witness).is_ok());
    Ok(witness)
}

/// Conflict-serializability of an SI-schedule (Adya-style direct
/// serialization graph over the begin/commit event semantics: reads happen
/// logically at `b_i`, writes at `c_i`).
///
/// Edges for `i ≠ j`:
/// - **wr** `i → j`: `c_i < b_j` and `WS_i ∩ RS_j ≠ ∅` (j reads i's write);
/// - **ww** `i → j`: `c_i < c_j` and `WS_i ∩ WS_j ≠ ∅` (version order);
/// - **rw** `i → j`: `b_i < c_j` and `RS_i ∩ WS_j ≠ ∅` (anti-dependency:
///   i read a version that j overwrote).
///
/// The schedule is conflict-serializable iff the graph is acyclic. SI
/// permits non-serializable schedules (write skew: two rw edges closing a
/// cycle) — this checker makes the gap between the paper's 1-copy-SI and
/// 1-copy-serializability concrete and testable; cf. the paper's reference
/// [14] (Fekete et al., "Making snapshot isolation serializable").
pub fn is_conflict_serializable<T>(
    txs: &BTreeMap<T, TxSpec>,
    s: &Schedule<T>,
) -> Result<bool, Violation>
where
    T: Copy + Ord + fmt::Debug,
{
    is_si_schedule(txs, s)?;
    let pos: BTreeMap<Op<T>, usize> = s.iter().enumerate().map(|(i, &op)| (op, i)).collect();
    let ids: Vec<T> = txs.keys().copied().collect();
    let idx: BTreeMap<T, usize> = ids.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let n = ids.len();
    let mut adj = vec![BTreeSet::new(); n];
    for (&a, sa) in txs {
        for (&b, sb) in txs {
            if a == b {
                continue;
            }
            let (ca, cb) = (pos[&Op::Commit(a)], pos[&Op::Commit(b)]);
            let (ba, _bb) = (pos[&Op::Begin(a)], pos[&Op::Begin(b)]);
            let mut edge = false;
            // wr: b reads a's write.
            if sa.wr_conflicts(sb) && ca < pos[&Op::Begin(b)] {
                edge = true;
            }
            // ww: version order.
            if sa.ww_conflicts(sb) && ca < cb {
                edge = true;
            }
            // rw anti-dependency: a read a version that b overwrote (b
            // committed after a's snapshot, so a did not see b's write).
            if sb.wr_conflicts(sa) && ba < cb {
                edge = true;
            }
            if edge {
                adj[idx[&a]].insert(idx[&b]);
            }
        }
    }
    // Cycle check (iterative DFS with colors).
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, adj[start].iter().copied().collect::<Vec<_>>())];
        color[start] = 1;
        while let Some((node, rest)) = stack.last_mut() {
            match rest.pop() {
                Some(next) => match color[next] {
                    0 => {
                        color[next] = 1;
                        let children = adj[next].iter().copied().collect();
                        stack.push((next, children));
                    }
                    1 => return Ok(false), // back edge → cycle
                    _ => {}
                },
                None => {
                    color[*node] = 2;
                    stack.pop();
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txs3() -> BTreeMap<u32, TxSpec> {
        // The paper's §2.1 example: T1 = r(x) w(x); T2 = r(y) r(x) w(y);
        // T3 = w(x).
        let mut m = BTreeMap::new();
        m.insert(1, TxSpec::new(["x"], ["x"]));
        m.insert(2, TxSpec::new(["y", "x"], ["y"]));
        m.insert(3, TxSpec::new([] as [&str; 0], ["x"]));
        m
    }

    use Op::{Begin as B, Commit as C};

    #[test]
    fn paper_example_se_is_si_schedule() {
        // SE = b1 b2 c1 b3 c3 c2
        let s = vec![B(1), B(2), C(1), B(3), C(3), C(2)];
        assert!(is_si_schedule(&txs3(), &s).is_ok());
    }

    #[test]
    fn paper_example_non_si_schedule() {
        // b1 b2 b3 c1 c2 c3: b3 < c1 < c3 and WS1 ∩ WS3 = {x} → not SI.
        let s = vec![B(1), B(2), B(3), C(1), C(2), C(3)];
        let err = is_si_schedule(&txs3(), &s).unwrap_err();
        assert!(matches!(err, Violation::NotSiSchedule { .. }));
    }

    #[test]
    fn malformed_schedules_rejected() {
        let s = vec![B(1), C(1), B(2), C(2)]; // missing T3
        assert!(matches!(is_si_schedule(&txs3(), &s), Err(Violation::MalformedSchedule(_))));
        let s = vec![C(1), B(1), B(2), C(2), B(3), C(3)]; // commit before begin
        assert!(matches!(is_si_schedule(&txs3(), &s), Err(Violation::MalformedSchedule(_))));
        let s = vec![B(1), B(1), C(1), B(2), C(2), B(3), C(3)]; // dup begin
        assert!(matches!(is_si_schedule(&txs3(), &s), Err(Violation::MalformedSchedule(_))));
    }

    #[test]
    fn paper_equivalence_examples() {
        let txs = txs3();
        let se = vec![B(1), B(2), C(1), B(3), C(3), C(2)];
        // The paper: SE is SI-equivalent to b2 b1 c1 b3 c2 c3.
        let s2 = vec![B(2), B(1), C(1), B(3), C(2), C(3)];
        assert!(si_equivalent(&txs, &se, &s2).unwrap());
        // But moving b2 after c1 changes T2's reads-from on x.
        let s3 = vec![B(1), C(1), B(2), B(3), C(3), C(2)];
        assert!(!si_equivalent(&txs, &se, &s3).unwrap());
    }

    /// Build a simple replicated execution for 2 replicas.
    fn two_replica_exec(
        s0: Schedule<u32>,
        s1: Schedule<u32>,
        locality: &[(u32, usize)],
    ) -> ReplicatedExecution<u32> {
        ReplicatedExecution {
            schedules: vec![s0, s1],
            locality: locality.iter().copied().collect(),
        }
    }

    #[test]
    fn one_copy_si_accepts_correct_execution() {
        // T1 (local R0) writes x; T2 (local R1) reads x, writes y.
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"]));
        txs.insert(2, TxSpec::new(["x"], ["y"]));
        // R0: b1 c1 b2r c2r ; R1: b1r c1r b2 c2 (T2 starts after T1 applied).
        let exec = two_replica_exec(
            vec![B(1), C(1), B(2), C(2)],
            vec![B(1), C(1), B(2), C(2)],
            &[(1, 0), (2, 1)],
        );
        let witness = check_one_copy_si(&txs, &exec).unwrap();
        assert_eq!(witness.len(), 4);
    }

    #[test]
    fn one_copy_si_rejects_divergent_commit_order() {
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"]));
        txs.insert(2, TxSpec::new([] as [&str; 0], ["x"]));
        let exec = two_replica_exec(
            vec![B(1), C(1), B(2), C(2)],
            vec![B(2), C(2), B(1), C(1)],
            &[(1, 0), (2, 1)],
        );
        let err = check_one_copy_si(&txs, &exec).unwrap_err();
        assert!(matches!(err, Violation::DivergentCommitOrder { .. }));
    }

    #[test]
    fn one_copy_si_rejects_the_section_4_3_2_counterexample() {
        // The paper's §4.3.2 scenario: WS_i = {x}, WS_j = {y} (disjoint, so
        // commit order may differ), T_a local at R^k reads {x, y} between
        // c_i^k and c_j^k; T_b local at R^m reads {x, y} between c_j^m and
        // c_i^m. No global SI-schedule can satisfy both reads-from
        // relations: ci < ba < cj < bb < ci is a cycle.
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"])); // T_i
        txs.insert(2, TxSpec::new([] as [&str; 0], ["y"])); // T_j
        txs.insert(3, TxSpec::new(["x", "y"], [] as [&str; 0])); // T_a @ R0
        txs.insert(4, TxSpec::new(["x", "y"], [] as [&str; 0])); // T_b @ R1
        let exec = two_replica_exec(
            // R0: c_i < b_a < c_j
            vec![B(1), C(1), B(3), C(3), B(2), C(2)],
            // R1: c_j < b_b < c_i
            vec![B(2), C(2), B(4), C(4), B(1), C(1)],
            &[(1, 0), (2, 1), (3, 0), (4, 1)],
        );
        let err = check_one_copy_si(&txs, &exec).unwrap_err();
        assert!(matches!(err, Violation::NoGlobalSchedule { .. }), "got {err:?}");
    }

    #[test]
    fn one_copy_si_allows_disjoint_commit_reorder_without_observers() {
        // Same T_i/T_j as above but nobody observes the difference → fine.
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"]));
        txs.insert(2, TxSpec::new([] as [&str; 0], ["y"]));
        let exec = two_replica_exec(
            vec![B(1), C(1), B(2), C(2)],
            vec![B(2), C(2), B(1), C(1)],
            &[(1, 0), (2, 1)],
        );
        assert!(check_one_copy_si(&txs, &exec).is_ok());
    }

    #[test]
    fn one_copy_si_rejects_missing_remote_execution() {
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"]));
        let exec = two_replica_exec(
            vec![B(1), C(1)],
            vec![], // update txn missing at R1
            &[(1, 0)],
        );
        assert!(matches!(check_one_copy_si(&txs, &exec), Err(Violation::NotRowa(_))));
    }

    #[test]
    fn one_copy_si_readonly_txns_stay_local() {
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new(["x"], [] as [&str; 0]));
        // read-only appearing at a remote replica → not ROWA.
        let exec = two_replica_exec(vec![B(1), C(1)], vec![B(1), C(1)], &[(1, 0)]);
        assert!(matches!(check_one_copy_si(&txs, &exec), Err(Violation::NotRowa(_))));
        // Local only → fine.
        let exec = two_replica_exec(vec![B(1), C(1)], vec![], &[(1, 0)]);
        assert!(check_one_copy_si(&txs, &exec).is_ok());
    }

    #[test]
    fn write_skew_is_si_but_not_serializable() {
        // The classic anomaly: both read {x, y}, one writes x, the other y,
        // concurrently. SI admits it; conflict-serializability does not.
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new(["x", "y"], ["x"]));
        txs.insert(2, TxSpec::new(["x", "y"], ["y"]));
        let skew = vec![B(1), B(2), C(1), C(2)];
        assert!(is_si_schedule(&txs, &skew).is_ok());
        assert!(!is_conflict_serializable(&txs, &skew).unwrap());
        // Run serially and it is serializable again.
        let serial = vec![B(1), C(1), B(2), C(2)];
        assert!(is_conflict_serializable(&txs, &serial).unwrap());
    }

    #[test]
    fn serializability_checker_handles_wr_and_ww_chains() {
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"]));
        txs.insert(2, TxSpec::new(["x"], ["y"]));
        txs.insert(3, TxSpec::new(["y"], [] as [&str; 0]));
        // T1 → T2 (wr on x) → T3 (wr on y): a chain, serializable.
        let s = vec![B(1), C(1), B(2), C(2), B(3), C(3)];
        assert!(is_conflict_serializable(&txs, &s).unwrap());
        // T3 reads y before T2 commits it while T2 read x after T1: the rw
        // edge T3 → T2 plus wr T1 → T2 stays acyclic → still serializable.
        let s = vec![B(1), C(1), B(2), B(3), C(2), C(3)];
        assert!(is_conflict_serializable(&txs, &s).unwrap());
    }

    #[test]
    fn one_copy_si_witness_respects_reads_from() {
        // T1 writes x, commits; T2 (local R1) begins before T1's writeset
        // is applied at R1 → T2 must read pre-T1 x. The witness schedule
        // must therefore place b2 before c1.
        let mut txs = BTreeMap::new();
        txs.insert(1, TxSpec::new([] as [&str; 0], ["x"]));
        txs.insert(2, TxSpec::new(["x"], ["y"]));
        let exec = two_replica_exec(
            vec![B(1), C(1), B(2), C(2)],
            vec![B(2), B(1), C(1), C(2)], // T2 began before T1 committed at R1
            &[(1, 0), (2, 1)],
        );
        let witness = check_one_copy_si(&txs, &exec).unwrap();
        let pos: HashMap<Op<u32>, usize> =
            witness.iter().enumerate().map(|(i, &op)| (op, i)).collect();
        assert!(pos[&B(2)] < pos[&C(1)], "witness: {witness:?}");
    }
}
