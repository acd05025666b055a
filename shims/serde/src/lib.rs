//! Offline stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! this crate provides the small slice of serde's surface the workspace
//! actually uses: `#[derive(Serialize, Deserialize)]` plus the trait pair,
//! realized over an owned JSON-like [`Value`] tree. The companion
//! `serde_json` shim prints and parses that tree.
//!
//! The data model intentionally mirrors serde's JSON mapping so swapping the
//! real crates back in later is a manifest-only change:
//!
//! * named structs → objects keyed by field name;
//! * newtype structs → the inner value, transparently;
//! * tuple structs → arrays;
//! * unit enum variants → the variant name as a string;
//! * data-carrying enum variants → externally tagged objects
//!   `{"Variant": payload}`;
//! * `Option` → the value or `null`; non-finite floats → `null`.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// An owned, ordered JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Integer (kept exact so `u64` seeds survive round trips).
    Int(i128),
    /// Finite floating-point number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key)
            .ok_or_else(|| Error(format!("missing field `{key}`")))
    }

    /// The object entries, or an error naming what was found instead.
    pub fn as_obj(&self) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Obj(fields) => Ok(fields),
            other => Err(Error(format!("expected object, found {}", other.kind()))),
        }
    }

    /// The array elements, or an error.
    pub fn as_arr(&self) -> Result<&[Value], Error> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(Error(format!("expected array, found {}", other.kind()))),
        }
    }

    /// The number, integer or not; `None` for every other kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// The string, or `None` for every other kind.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl Error {
    /// Helper for "expected X" errors.
    pub fn expected(what: &str) -> Self {
        Error(format!("expected {what}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the value tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `self` out of the value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- integers

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error(format!("integer {i} out of range for {}", stringify!($t)))),
                    Value::Num(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(Error(format!(
                        "expected integer for {}, found {}", stringify!($t), other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for i128 {
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}
impl Deserialize for i128 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Int(i) => Ok(*i),
            other => Err(Error(format!("expected integer, found {}", other.kind()))),
        }
    }
}

// ------------------------------------------------------------------ floats

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                if f.is_finite() { Value::Num(f) } else { Value::Null }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::Null => Ok(<$t>::NAN), // non-finite round trip
                    other => Err(Error(format!("expected number, found {}", other.kind()))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

// ---------------------------------------------------------------- scalars

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, found {}", other.kind()))),
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
            other => Err(Error(format!("expected string, found {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("checked")),
            other => Err(Error(format!(
                "expected single-char string, found {}",
                other.kind()
            ))),
        }
    }
}

// --------------------------------------------------------------- adapters

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
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

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_arr()?.iter().map(T::from_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Box<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Vec::into_boxed_slice)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        // JSON keys are strings; render non-string keys through their value
        Value::Obj(
            self.iter()
                .map(|(k, v)| {
                    let key = match k.to_value() {
                        Value::Str(s) => s,
                        Value::Int(i) => i.to_string(),
                        Value::Num(f) => f.to_string(),
                        other => format!("{other:?}"),
                    };
                    (key, v.to_value())
                })
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_obj()?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_arr()?;
                let want = [$($i),+].len();
                if items.len() != want {
                    return Err(Error(format!(
                        "expected {want}-tuple, found array of {}", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$i])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<T: Serialize> Serialize for std::ops::Range<T> {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
        ])
    }
}
impl<T: Deserialize> Deserialize for std::ops::Range<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(T::from_value(v.field("start")?)?..T::from_value(v.field("end")?)?)
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}
impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error(format!("expected null, found {}", other.kind()))),
        }
    }
}

// A value is its own tree, as `serde_json::Value` is in the real crates.
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

macro_rules! impl_value_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                x.to_value()
            }
        }
    )*};
}

impl_value_from!(usize, f64);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
