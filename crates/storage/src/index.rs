//! Secondary (non-unique) equality indexes.
//!
//! The paper ran its large-database experiment **without** indexes and
//! notes the resulting PostgreSQL performance "is rather limited" (§6.2) —
//! queries there are full scans, which is exactly what makes the
//! centralized system saturate at ~4 tps. This module supplies the thing
//! being withheld, so the ablation bench can show the gap.
//!
//! Design: a multi-version-safe *candidate* index. The index maps a column
//! value to the set of primary keys that have carried that value in any
//! version that might still be visible. Lookups therefore **recheck**: the
//! caller fetches each candidate row through normal snapshot visibility and
//! re-applies the predicate (the same heap-recheck discipline PostgreSQL
//! uses). Stale entries — keys whose visible row no longer matches — are
//! skipped by the recheck and physically removed when the engine prunes
//! their versions away.
//!
//! Maintenance happens at commit install time (committed data only;
//! uncommitted writes live in the transaction's buffer, which readers merge
//! separately), so the index never exposes dirty data and needs no locks
//! beyond the table's. It touches the index only where the postings change:
//!
//! - *Insert on change.* A new version posts `(value, key)` only when the
//!   previous newest version of the key was missing, a delete, or carried a
//!   different value. Otherwise that posting already stands: the previous
//!   version posted it when it was installed, and a posting is removed only
//!   when no retained version carries its value — and the previous version
//!   is retained. The prune at commit `ts` keeps every version from the
//!   newest one at or below `min_snap`, and `min_snap ≤ last_committed < ts`,
//!   so the previous newest version (committed at or before
//!   `last_committed`) is that version or a later one.
//! - *Remove from what was dropped.* Only versions the prune dropped can
//!   orphan a posting, so stale postings are computed from them alone, and
//!   only when something was dropped: a dropped version's value is stale
//!   exactly when no retained version of the key carries it.
//!
//! So the postings of a key are always exactly the non-NULL values its
//! retained versions carry.

use crate::value::{Key, Value};
use crate::version::Version;
use std::collections::{BTreeSet, HashMap};

/// One secondary index over a single column.
#[derive(Debug, Default)]
pub struct SecondaryIndex {
    /// Column position in the table schema.
    pub column: usize,
    /// value → candidate primary keys (superset of the truth; recheck!).
    entries: HashMap<Value, BTreeSet<Key>>,
}

impl SecondaryIndex {
    pub fn new(column: usize) -> SecondaryIndex {
        SecondaryIndex { column, entries: HashMap::new() }
    }

    /// Record that `key`'s row carries `value` in some (new) version.
    pub fn insert(&mut self, value: Value, key: Key) {
        if value.is_null() {
            return; // NULL never matches an equality predicate
        }
        self.entries.entry(value).or_default().insert(key);
    }

    /// Candidate keys for `value` (must be rechecked against visibility).
    pub fn candidates(&self, value: &Value) -> impl Iterator<Item = &Key> + '_ {
        self.entries.get(value).into_iter().flatten()
    }

    /// Drop `key`'s postings whose value only `dropped` versions carried,
    /// not any of the `retained` ones (called when version pruning discards
    /// old images).
    pub fn remove_dropped(&mut self, key: &Key, dropped: &[Version], retained: &[Version]) {
        let col = self.column;
        for row in dropped.iter().filter_map(|v| v.row.as_deref()) {
            let value = &row[col];
            if retained.iter().any(|v| v.row.as_ref().is_some_and(|r| &r[col] == value)) {
                continue;
            }
            if let Some(set) = self.entries.get_mut(value) {
                set.remove(key);
                if set.is_empty() {
                    self.entries.remove(value);
                }
            }
        }
    }

    /// Total candidate entries (tests / introspection).
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeSet::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: i64) -> Key {
        Key::single(n)
    }

    #[test]
    fn insert_and_lookup() {
        let mut idx = SecondaryIndex::new(1);
        idx.insert(Value::Int(5), k(1));
        idx.insert(Value::Int(5), k(2));
        idx.insert(Value::Int(7), k(3));
        let got: Vec<&Key> = idx.candidates(&Value::Int(5)).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(idx.candidates(&Value::Int(9)).count(), 0);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let mut idx = SecondaryIndex::new(0);
        idx.insert(Value::Null, k(1));
        assert!(idx.is_empty());
    }

    #[test]
    fn duplicate_inserts_are_idempotent() {
        let mut idx = SecondaryIndex::new(0);
        idx.insert(Value::Int(5), k(1));
        idx.insert(Value::Int(5), k(1));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn stale_removal() {
        use crate::version::CommitTs;
        use std::sync::Arc;
        let version = |ts: u64, v: Option<i64>| Version {
            commit_ts: CommitTs(ts),
            row: v.map(|v| Arc::new(vec![Value::Int(v)])),
        };
        let mut idx = SecondaryIndex::new(0);
        idx.insert(Value::Int(5), k(1));
        idx.insert(Value::Int(6), k(1));
        idx.insert(Value::Int(7), k(1));
        // 5 and 7 were dropped; 7 is still carried by a retained version.
        let dropped = [version(1, Some(5)), version(2, None), version(3, Some(7))];
        idx.remove_dropped(&k(1), &dropped, &[version(4, Some(7)), version(5, Some(6))]);
        assert_eq!(idx.candidates(&Value::Int(5)).count(), 0);
        assert_eq!(idx.candidates(&Value::Int(6)).count(), 1);
        assert_eq!(idx.candidates(&Value::Int(7)).count(), 1);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn int_float_equality_unifies_postings() {
        // Key-side Int(5) and query-side Float(5.0) hash/compare equal.
        let mut idx = SecondaryIndex::new(0);
        idx.insert(Value::Int(5), k(1));
        assert_eq!(idx.candidates(&Value::Float(5.0)).count(), 1);
    }
}
