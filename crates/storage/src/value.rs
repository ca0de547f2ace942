//! Values, rows and keys.
//!
//! The engine is dynamically typed at runtime (like a tuple store seen
//! through JDBC): a [`Row`] is a vector of [`Value`]s positionally matching
//! the table schema, and a [`Key`] is the row's primary-key projection.
//! Keys must be totally ordered and hashable so they can serve as BTree map
//! keys and as writeset elements; floats use IEEE `total_cmp` for that.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
}

impl Value {
    /// Human-oriented type name, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL-style three-valued comparison: NULL compares as unknown (`None`).
    /// Int/Float compare numerically; other cross-type comparisons are
    /// unknown.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Float(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            _ => None,
        }
    }

    /// Total order used for keys and ORDER BY: NULL sorts first, then by a
    /// fixed type rank, then by value. Unlike [`Value::sql_cmp`] this is
    /// total, so it can back `Ord` for [`Key`].
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Text(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and Float that compare equal must hash equal.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// A tuple: one value per schema column, positionally.
pub type Row = Vec<Value>;

/// A primary key: the PK-column projection of a row. Composite keys are
/// supported (e.g. TPC-W `order_line(ol_o_id, ol_id)`). Shared, so a clone —
/// into the writeset entry, the version map, an index posting — copies no
/// values. It hashes and encodes as a `Vec<Value>` does, which the audit
/// digests and the wire bytes rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Key(pub Arc<[Value]>);

impl Key {
    pub fn single(v: impl Into<Value>) -> Key {
        Key(Arc::new([v.into()]))
    }

    pub fn composite(vs: Vec<Value>) -> Key {
        Key(vs.into())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        let mut it_a = self.0.iter();
        let mut it_b = other.0.iter();
        loop {
            match (it_a.next(), it_b.next()) {
                (Some(a), Some(b)) => match a.total_cmp(b) {
                    Ordering::Equal => {}
                    non_eq => return non_eq,
                },
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
            }
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.0)), Some(Ordering::Equal));
        assert_eq!(Value::Float(1.5).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn int_float_equality_consistent_with_hash() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn text_int_not_comparable_in_sql() {
        assert_eq!(Value::Text("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = [Value::Text("a".into()), Value::Int(5), Value::Null, Value::Float(1.0)];
        vs.sort_by(Value::total_cmp);
        assert!(vs[0].is_null());
        assert_eq!(vs[1], Value::Float(1.0));
        assert_eq!(vs[2], Value::Int(5));
        assert_eq!(vs[3], Value::Text("a".into()));
    }

    #[test]
    fn composite_key_ordering_is_lexicographic() {
        let a = Key::composite(vec![Value::Int(1), Value::Int(2)]);
        let b = Key::composite(vec![Value::Int(1), Value::Int(3)]);
        let c = Key::composite(vec![Value::Int(2), Value::Int(0)]);
        assert!(a < b);
        assert!(b < c);
        let shorter = Key::composite(vec![Value::Int(1)]);
        assert!(shorter < a);
    }

    #[test]
    fn key_equality_and_hash_in_map() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Key::single(42), "x");
        assert_eq!(m.get(&Key::single(42)), Some(&"x"));
        assert_eq!(m.get(&Key::single(43)), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Text("x".into()).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Text("a".into()).to_string(), "'a'");
        assert_eq!(
            Key::composite(vec![Value::Int(1), Value::Text("b".into())]).to_string(),
            "(1, 'b')"
        );
    }
}
