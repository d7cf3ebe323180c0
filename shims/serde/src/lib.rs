//! Offline shim for `serde`.
//!
//! The build container cannot reach a cargo registry, so the workspace ships
//! a self-contained stand-in. Instead of real serde's visitor architecture,
//! everything round-trips through a small [`Value`] tree:
//!
//! * [`Serialize`] renders a type into a [`Value`];
//! * [`Deserialize`] rebuilds a type from a [`&Value`](Value);
//! * `serde_json` (the sibling shim) renders/parses `Value` as JSON text.
//!
//! The derive macros in `shims/serde_derive` target exactly this surface.
//! Object keys keep insertion order (a `Vec` of pairs, not a map), which
//! keeps `to_string_pretty` output stable across runs.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A parsed/serializable value tree — the interchange format between the
/// derive macros and `serde_json`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: a plain message, like `serde_json::Error`.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Helper used by derived code: fetch + deserialize a named object field.
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
    match v.get(name) {
        Some(inner) => T::from_value(inner),
        None => Err(Error::new(format!("missing field `{name}`"))),
    }
}

/// Helper used by derived code: fetch + deserialize an array element.
pub fn elem<T: Deserialize>(v: &Value, idx: usize) -> Result<T, Error> {
    match v {
        Value::Array(items) => match items.get(idx) {
            Some(inner) => T::from_value(inner),
            None => Err(Error::new(format!("missing tuple element {idx}"))),
        },
        _ => Err(Error::new("expected array")),
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    _ => Err(Error::new(concat!("expected unsigned integer (", stringify!($t), ")"))),
                }
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(concat!("out of range for ", stringify!($t)))),
                    _ => Err(Error::new(concat!("expected integer (", stringify!($t), ")"))),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            _ => Err(Error::new("expected number (f64)")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::new("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::new("expected array")),
        }
    }
}

/// A shared slice renders exactly as the `Vec` it was built from, so a type
/// can switch between the two without changing any serialized byte.
impl<T: Serialize> Serialize for std::sync::Arc<[T]> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::from_value(v).map(Self::from)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of length {N}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok((elem(v, 0)?, elem(v, 1)?))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok((elem(v, 0)?, elem(v, 1)?, elem(v, 2)?))
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), Value::U64(self.as_secs())),
            ("nanos".to_string(), Value::U64(self.subsec_nanos() as u64)),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let secs: u64 = field(v, "secs")?;
        let nanos: u64 = field(v, "nanos")?;
        Ok(std::time::Duration::new(secs, nanos as u32))
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_slice_round_trips_as_the_vec_it_came_from() {
        let vec: Vec<u64> = vec![3, 1, 4, 1, 5];
        let shared: Arc<[u64]> = Arc::from(vec.clone());
        assert_eq!(shared.to_value(), vec.to_value());
        let back = Arc::<[u64]>::from_value(&vec.to_value()).unwrap();
        assert_eq!(&*back, vec.as_slice());
        let empty = Arc::<[u64]>::from_value(&Value::Array(vec![])).unwrap();
        assert!(empty.is_empty());
        assert!(Arc::<[u64]>::from_value(&Value::U64(1)).is_err());
    }
}
