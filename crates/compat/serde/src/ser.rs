//! The serialisation half of the vendored serde stand-in.
//!
//! Values lower into a [`Value`] tree (a minimal JSON data model); the
//! vendored `serde_json` crate renders that tree as text. This indirection
//! keeps the derive macro trivial and the printer in one place.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A JSON-like value tree: the intermediate representation every
/// [`Serialize`] impl lowers into.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for `None` and non-finite floats).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    String(String),
    /// Ordered array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys (matches derive field order).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Renders the value as a JSON object key (objects require string keys).
    pub fn into_object_key(self) -> String {
        match self {
            Value::String(s) => s,
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::UInt(u) => u.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Null => "null".to_string(),
            Value::Array(_) | Value::Object(_) => {
                panic!("composite values cannot be used as JSON object keys")
            }
        }
    }
}

/// Lowers `self` into a [`Value`] tree.
///
/// This replaces serde's visitor-based `Serialize` trait with the simplest
/// API that supports the workspace's needs (JSON report files).
pub trait Serialize {
    /// Converts `self` into the JSON-like intermediate representation.
    fn to_value(&self) -> Value;
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}

impl_serialize_uint!(u8, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_value().into_object_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_value().into_object_key(), v.to_value()))
            .collect();
        // Sort for deterministic output; HashMap iteration order is random.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

macro_rules! impl_serialize_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
    )*};
}

impl_serialize_tuple! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_lower_to_expected_variants() {
        assert_eq!(3u32.to_value(), Value::UInt(3));
        assert_eq!(1.5f64.to_value(), Value::Float(1.5));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::String("x".into()));
        assert_eq!(Option::<u8>::None.to_value(), Value::Null);
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)])
        );
    }

    #[test]
    fn hash_map_output_is_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 1u8);
        m.insert("a".to_string(), 2u8);
        let Value::Object(entries) = m.to_value() else {
            panic!("expected object");
        };
        assert_eq!(entries[0].0, "a");
        assert_eq!(entries[1].0, "b");
    }
}
