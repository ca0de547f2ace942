//! Writesets: the unit of replication.
//!
//! The paper (§3): *"Writesets contain the changed objects and their
//! identifiers."* A [`WriteSet`] is extracted from a transaction **before
//! commit** (the paper's patched PostgreSQL exports modified tuples
//! pre-commit) and applied at remote replicas through the normal write path,
//! so remote application exhibits the same blocking/abort behaviour as local
//! execution.
//!
//! The middleware's validation step is a writeset **intersection test**
//! (`WS_i ∩ WS_j ≠ ∅`); it is the hot path of certification, so each
//! writeset carries a pre-built probe index of its [`TupleId`]s.

use crate::value::{Key, Row};
use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// The new state of one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum WsOp {
    /// Insert-or-update with the full new row image.
    Put(Row),
    /// Tuple deletion.
    Delete,
}

/// One modified tuple: identifier + after-image.
#[derive(Debug, Clone, PartialEq)]
pub struct WsEntry {
    pub table: Arc<str>,
    pub key: Key,
    pub op: WsOp,
}

/// The identity of one tuple as certification and locking see it: table
/// name plus primary key, built once per write and shared by every conflict
/// structure that keys on it — the writeset's probe index, the lock table
/// and each transaction's lock list, the ws_list's last-certifier map and
/// the tocommit queue's waiter lists ([`IdMap`]s all).
///
/// - *Why the hash is cached.* Each of those maps would otherwise hash the
///   table name and key again, and every replica certifies and applies every
///   writeset. The id is an `Arc`, so a clone is a reference-count increment,
///   and an [`IdMap`] reads the cached hash instead of hashing.
/// - *Why it is keyed per process.* Clients choose keys. The hash comes from
///   one process-wide [`RandomState`], as std's maps seed theirs, so a client
///   cannot aim keys at one bucket; a fixed function would give that up.
/// - *Why nothing outside the process sees it.* It differs between
///   processes, so what is compared across them — the audit's key digests —
///   hashes `(table, key)` with a fixed function instead.
#[derive(Clone)]
pub struct TupleId(Arc<IdInner>);

struct IdInner {
    table: Arc<str>,
    key: Key,
    hash: u64,
}

impl TupleId {
    pub fn new(table: Arc<str>, key: Key) -> TupleId {
        let hash = hash_of(&table, &key);
        TupleId(Arc::new(IdInner { table, key, hash }))
    }

    pub fn table(&self) -> &Arc<str> {
        &self.0.table
    }

    pub fn key(&self) -> &Key {
        &self.0.key
    }
}

/// The process-wide keyed hash of a tuple's identity.
fn hash_of(table: &str, key: &Key) -> u64 {
    static SEED: OnceLock<RandomState> = OnceLock::new();
    SEED.get_or_init(RandomState::new).hash_one((table, key))
}

impl PartialEq for TupleId {
    fn eq(&self, other: &TupleId) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.probe() == other.probe()
    }
}

impl Eq for TupleId {}

impl Hash for TupleId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.0.table, self.0.key)
    }
}

/// A tuple's identity borrowed from its parts, so a `(table, key)` pair can
/// probe an [`IdMap`] without building a [`TupleId`]. Equal to an id exactly
/// when the id is equal to the pair, and hashes as the id does.
#[derive(Clone, Copy, PartialEq)]
struct Probe<'a> {
    hash: u64,
    table: &'a str,
    key: &'a Key,
}

/// [`Probe`] behind a trait object: what a [`TupleId`] borrows as, so
/// `HashMap::get` takes a probe built from borrowed parts.
trait AsProbe {
    fn probe(&self) -> Probe<'_>;
}

impl AsProbe for TupleId {
    fn probe(&self) -> Probe<'_> {
        Probe { hash: self.0.hash, table: &self.0.table, key: &self.0.key }
    }
}

impl AsProbe for Probe<'_> {
    fn probe(&self) -> Probe<'_> {
        *self
    }
}

impl<'a> Borrow<dyn AsProbe + 'a> for TupleId {
    fn borrow(&self) -> &(dyn AsProbe + 'a) {
        self
    }
}

impl PartialEq for dyn AsProbe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.probe() == other.probe()
    }
}

impl Eq for dyn AsProbe + '_ {}

impl Hash for dyn AsProbe + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.probe().hash);
    }
}

/// The hasher of an [`IdMap`]: passes a [`TupleId`]'s cached hash through.
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("an IdMap hashes only TupleIds, through write_u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`TupleId`] that never hashes a tuple: it reads the hash
/// the id cached when it was built.
pub type IdMap<V> = HashMap<TupleId, V, BuildHasherDefault<IdHasher>>;

/// The set of tuples a transaction wrote, in statement order (last write per
/// tuple wins; earlier writes to the same tuple are collapsed).
#[derive(Debug, Clone, Default)]
pub struct WriteSet {
    entries: Vec<WsEntry>,
    /// `ids[i]` identifies `entries[i]`.
    ids: Vec<TupleId>,
    /// Tuple id → index into `entries`, for O(1) probes.
    index: IdMap<usize>,
}

impl WriteSet {
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// Record a write. A later write to the same tuple replaces the earlier
    /// after-image but keeps its original position (the paper's simplifying
    /// "writes each object at most once" assumption is *not* imposed, per
    /// its footnote 1).
    pub fn push(&mut self, table: Arc<str>, key: Key, op: WsOp) {
        self.push_id(TupleId::new(table, key), op);
    }

    /// [`WriteSet::push`] for a tuple whose id the caller already built.
    pub fn push_id(&mut self, id: TupleId, op: WsOp) {
        match self.index.entry(id) {
            Entry::Occupied(o) => self.entries[*o.get()].op = op,
            Entry::Vacant(v) => {
                let id = v.key().clone();
                v.insert(self.entries.len());
                self.entries.push(WsEntry { table: id.table().clone(), key: id.key().clone(), op });
                self.ids.push(id);
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[WsEntry] {
        &self.entries
    }

    /// The entries, by value (commit moves each after-image into its
    /// version).
    pub fn into_entries(self) -> Vec<WsEntry> {
        self.entries
    }

    pub fn contains(&self, table: &str, key: &Key) -> bool {
        self.get(table, key).is_some()
    }

    /// Look up the after-image this writeset holds for a tuple, if any.
    /// Used for read-your-writes inside the engine (a scan under an open
    /// update asks once per row). Allocates nothing. A set of up to 8
    /// entries is scanned: the probe must first SipHash `(table, key)`,
    /// which costs more than comparing 8 entries (`micro`'s
    /// `writeset/get_2` and `get_8` run 2–5× slower probing). A larger
    /// set is probed by the tuple's hash.
    pub fn get(&self, table: &str, key: &Key) -> Option<&WsOp> {
        if self.entries.len() <= 8 {
            return self
                .entries
                .iter()
                .find(|e| &*e.table == table && &e.key == key)
                .map(|e| &e.op);
        }
        let probe = Probe { hash: hash_of(table, key), table, key };
        self.index.get(&probe as &dyn AsProbe).map(|&i| &self.entries[i].op)
    }

    /// [`WriteSet::get`] by id: one probe on the cached hash (none while
    /// the set is empty: the map returns before probing).
    pub fn get_id(&self, id: &TupleId) -> Option<&WsOp> {
        self.index.get(id).map(|&i| &self.entries[i].op)
    }

    /// The certification test: do two writesets touch a common tuple?
    /// Iterates the smaller set, probes the larger — O(min(|a|, |b|)).
    pub fn intersects(&self, other: &WriteSet) -> bool {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small.ids.iter().any(|id| large.index.contains_key(id))
    }

    /// The [`TupleId`]s this writeset touches, in first-write order — one
    /// per entry, so `tuple_ids().zip(entries())` pairs each entry with its
    /// id. The key-indexed conflict structures probe and clone from here.
    pub fn tuple_ids(&self) -> impl ExactSizeIterator<Item = &TupleId> {
        self.ids.iter()
    }
}

impl fmt::Display for WriteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let op = match e.op {
                WsOp::Put(_) => "put",
                WsOp::Delete => "del",
            };
            write!(f, "{}:{}{}", e.table, e.key, if op == "del" { "†" } else { "" })?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    #[test]
    fn push_and_len() {
        let mut ws = WriteSet::new();
        assert!(ws.is_empty());
        ws.push(t("a"), Key::single(1), WsOp::Put(vec![Value::Int(1)]));
        ws.push(t("a"), Key::single(2), WsOp::Delete);
        assert_eq!(ws.len(), 2);
        assert!(ws.contains("a", &Key::single(1)));
        assert!(!ws.contains("b", &Key::single(1)));
    }

    #[test]
    fn rewrite_same_tuple_collapses() {
        let mut ws = WriteSet::new();
        ws.push(t("a"), Key::single(1), WsOp::Put(vec![Value::Int(1)]));
        ws.push(t("b"), Key::single(7), WsOp::Delete);
        ws.push(t("a"), Key::single(1), WsOp::Put(vec![Value::Int(2)]));
        ws.push(t("a"), Key::single(0), WsOp::Delete);
        ws.push(t("b"), Key::single(7), WsOp::Delete);
        assert_eq!(ws.len(), 3);
        match &ws.entries()[0].op {
            WsOp::Put(row) => assert_eq!(row[0], Value::Int(2)),
            WsOp::Delete => panic!("expected put"),
        }
        // Each tuple once, in the order it was first written.
        let ids: Vec<String> = ws.tuple_ids().map(|id| format!("{id:?}")).collect();
        assert_eq!(ids, ["a:(1)", "b:(7)", "a:(0)"]);
        for (id, e) in ws.tuple_ids().zip(ws.entries()) {
            assert_eq!((&**id.table(), id.key()), (&*e.table, &e.key));
        }
    }

    #[test]
    fn ids_are_equal_exactly_when_table_and_key_are() {
        use std::collections::hash_map::RandomState;
        let id = |table: &str, k: i64| TupleId::new(t(table), Key::single(k));
        let (a, b) = (id("a", 1), id("a", 1));
        assert!(!Arc::ptr_eq(&a.0, &b.0), "built separately");
        assert_eq!(a, b);
        let std_hash = RandomState::new();
        assert_eq!(std_hash.hash_one(&a), std_hash.hash_one(&b));
        let mut pass_through = IdHasher::default();
        a.hash(&mut pass_through);
        assert_eq!(pass_through.finish(), a.0.hash);
        assert_ne!(a, id("b", 1), "another table");
        assert_ne!(a, id("a", 2), "another key");
        // An id and the parts it was built from probe alike.
        let mut ws = WriteSet::new();
        for k in 0..20 {
            ws.push(t("a"), Key::single(k), WsOp::Delete);
        }
        assert_eq!(ws.get_id(&a), ws.get("a", &Key::single(1)));
        assert!(ws.get_id(&a).is_some());
        assert!(ws.get("b", &Key::single(1)).is_none());
        assert!(WriteSet::new().get_id(&a).is_none());
    }

    #[test]
    fn delete_after_put_keeps_delete() {
        let mut ws = WriteSet::new();
        ws.push(t("a"), Key::single(1), WsOp::Put(vec![Value::Int(1)]));
        ws.push(t("a"), Key::single(1), WsOp::Delete);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.entries()[0].op, WsOp::Delete);
    }

    #[test]
    fn intersection_requires_same_table_and_key() {
        let mut a = WriteSet::new();
        a.push(t("x"), Key::single(1), WsOp::Delete);
        let mut b = WriteSet::new();
        b.push(t("y"), Key::single(1), WsOp::Delete);
        assert!(!a.intersects(&b));
        b.push(t("x"), Key::single(1), WsOp::Delete);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn empty_writesets_never_intersect() {
        let a = WriteSet::new();
        let mut b = WriteSet::new();
        b.push(t("x"), Key::single(1), WsOp::Delete);
        assert!(!a.intersects(&b));
        assert!(!a.intersects(&WriteSet::new()));
    }

    #[test]
    fn display_lists_tuples() {
        let mut ws = WriteSet::new();
        ws.push(t("stock"), Key::single(3), WsOp::Put(vec![]));
        assert!(ws.to_string().contains("stock:(3)"));
    }
}
