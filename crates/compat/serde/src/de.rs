//! The deserialisation half of the vendored serde stand-in.
//!
//! Mirrors [`crate::ser`]: text is first parsed (by the vendored
//! `serde_json`) into the same [`Value`] tree the serialiser lowers into,
//! and [`Deserialize`] impls lift values back out of that tree. Because
//! both directions share one intermediate representation and one set of
//! conventions (externally-tagged enums, `null` for `None`), a
//! derive-generated round trip is the identity for every finite value.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::ser::Value;

/// Deserialisation error: a human-readable description of the mismatch
/// between the expected shape and the [`Value`] actually found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// An error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }

    /// `expected` shape, but found a value of a different kind.
    pub fn mismatch(expected: &str, found: &Value) -> Self {
        DeError::new(format!("expected {expected}, found {}", found.kind()))
    }

    /// A required field was absent from an object.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        DeError::new(format!("missing field `{field}` for `{ty}`"))
    }

    /// An enum tag named no known variant.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        DeError::new(format!("unknown variant `{tag}` for enum `{ty}`"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

impl Value {
    /// A short name for the value's kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Lifts `Self` back out of a [`Value`] tree.
///
/// This replaces serde's visitor-based `Deserialize` trait with the inverse
/// of [`crate::ser::Serialize::to_value`]: the simplest API that supports
/// the workspace's needs (reading back its own JSON report/corpus files).
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from the JSON-like intermediate representation.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] when `value`'s shape does not match `Self`.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

/// Views `value` as an object's entry list (derive-macro helper).
///
/// # Errors
///
/// Errors unless `value` is [`Value::Object`].
pub fn as_object<'a>(value: &'a Value, ty: &str) -> Result<&'a [(String, Value)], DeError> {
    match value {
        Value::Object(entries) => Ok(entries),
        other => Err(DeError::mismatch(&format!("object for `{ty}`"), other)),
    }
}

/// Views `value` as an array of exactly `len` elements (derive-macro helper).
///
/// # Errors
///
/// Errors unless `value` is a [`Value::Array`] of length `len`.
pub fn as_array<'a>(value: &'a Value, len: usize, ty: &str) -> Result<&'a [Value], DeError> {
    match value {
        Value::Array(items) if items.len() == len => Ok(items),
        Value::Array(items) => Err(DeError::new(format!(
            "expected array of {len} elements for `{ty}`, found {}",
            items.len()
        ))),
        other => Err(DeError::mismatch(&format!("array for `{ty}`"), other)),
    }
}

/// Extracts and deserialises the field `name` from an object's entries
/// (derive-macro helper). A missing key deserialises from [`Value::Null`],
/// so `Option` fields absent from the text default to `None` while any
/// other type reports a missing field.
///
/// # Errors
///
/// Errors when the field is present but malformed, or absent and `T` does
/// not accept `null`.
pub fn field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    ty: &str,
) -> Result<T, DeError> {
    match entries.iter().find(|(key, _)| key == name) {
        Some((_, value)) => {
            T::from_value(value).map_err(|e| DeError::new(format!("field `{name}` of `{ty}`: {e}")))
        }
        None => T::from_value(&Value::Null).map_err(|_| DeError::missing_field(ty, name)),
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

fn uint_from_value(value: &Value) -> Result<u64, DeError> {
    match value {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) => {
            u64::try_from(*i).map_err(|_| DeError::new(format!("integer {i} is negative")))
        }
        other => Err(DeError::mismatch("integer", other)),
    }
}

macro_rules! impl_deserialize_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let u = uint_from_value(value)?;
                <$t>::try_from(u)
                    .map_err(|_| DeError::new(format!(
                        "integer {u} out of range for {}", stringify!($t)
                    )))
            }
        }
    )*};
}

impl_deserialize_uint!(u8, u32, u64, usize);

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            // The JSON layer prints non-finite floats as `null` (matching
            // real serde_json), so reading `null` back as NaN keeps the
            // round trip total.
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::mismatch("number", other)),
        }
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::mismatch("bool", other)),
        }
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::mismatch("string", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

fn seq_from_value<T: Deserialize>(value: &Value) -> Result<Vec<T>, DeError> {
    match value {
        Value::Array(items) => items.iter().map(T::from_value).collect(),
        other => Err(DeError::mismatch("array", other)),
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        seq_from_value(value)
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        seq_from_value(value).map(VecDeque::from)
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        seq_from_value(value).map(|v| v.into_iter().collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = as_array(value, N, "array")?;
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError::new("array length changed during deserialisation"))
    }
}

/// Reconstructs a map key from the string form
/// [`Value::into_object_key`](crate::ser::Value::into_object_key) rendered
/// it into: first as a string value (covers `String` keys and unit-variant
/// enum keys), then re-tagged as a number or bool when the string parses as
/// one.
fn key_from_str<K: Deserialize>(key: &str) -> Result<K, DeError> {
    if let Ok(k) = K::from_value(&Value::String(key.to_string())) {
        return Ok(k);
    }
    let retagged = if key == "true" || key == "false" {
        Value::Bool(key == "true")
    } else if let Ok(u) = key.parse::<u64>() {
        Value::UInt(u)
    } else if let Ok(i) = key.parse::<i64>() {
        Value::Int(i)
    } else if let Ok(f) = key.parse::<f64>() {
        Value::Float(f)
    } else {
        return Err(DeError::new(format!("unusable map key {key:?}")));
    };
    K::from_value(&retagged)
}

fn map_entries_from_value<K: Deserialize, V: Deserialize>(
    value: &Value,
) -> Result<Vec<(K, V)>, DeError> {
    let entries = as_object(value, "map")?;
    entries
        .iter()
        .map(|(k, v)| Ok((key_from_str(k)?, V::from_value(v)?)))
        .collect()
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        map_entries_from_value(value).map(|v| v.into_iter().collect())
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        map_entries_from_value(value).map(|v| v.into_iter().collect())
    }
}

macro_rules! impl_deserialize_tuple {
    ($(($($name:ident : $idx:tt),+ ; $len:expr))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let items = as_array(value, $len, "tuple")?;
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_deserialize_tuple! {
    (A: 0, B: 1 ; 2)
    (A: 0, B: 1, C: 2 ; 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ser::Serialize;

    #[test]
    fn primitives_round_trip_through_values() {
        assert_eq!(u32::from_value(&3u32.to_value()).unwrap(), 3);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"x".to_value()).unwrap(), "x");
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Vec::<u8>::from_value(&vec![1u8, 2].to_value()).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn cross_kind_integers_convert_when_in_range() {
        assert_eq!(u8::from_value(&Value::Int(7)).unwrap(), 7);
        assert!(u8::from_value(&Value::Int(-1)).is_err());
        assert!(u8::from_value(&Value::UInt(400)).is_err());
        assert_eq!(f64::from_value(&Value::Int(-2)).unwrap(), -2.0);
        assert_eq!(f64::from_value(&Value::UInt(2)).unwrap(), 2.0);
    }

    #[test]
    fn missing_fields_default_options_but_fail_required_types() {
        let entries = vec![("present".to_string(), Value::UInt(1))];
        let opt: Option<u8> = field(&entries, "absent", "T").unwrap();
        assert_eq!(opt, None);
        assert!(field::<u8>(&entries, "absent", "T").is_err());
        let present: u8 = field(&entries, "present", "T").unwrap();
        assert_eq!(present, 1);
    }

    #[test]
    fn shape_mismatches_are_reported() {
        let err = bool::from_value(&Value::UInt(1)).unwrap_err();
        assert!(err.to_string().contains("expected bool"));
        assert!(as_array(&Value::Array(vec![Value::Null]), 2, "Pair").is_err());
        assert!(as_object(&Value::Null, "S").is_err());
    }
}
