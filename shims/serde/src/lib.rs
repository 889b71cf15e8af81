//! Offline shim for the `serde` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! a minimal serde: [`Serialize`] and [`Deserialize`] convert through the
//! built-in JSON [`Value`] model instead of serde's visitor machinery.
//! The companion `serde_derive` shim generates impls for the struct and
//! enum shapes used in this repository, and the `serde_json` shim prints
//! and parses [`Value`]s. Both ends are under our control, so the
//! simplified data model round-trips everything the repo serializes.

#![forbid(unsafe_code)]

mod impls;
pub mod value;

pub use value::{Number, Value};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Serialization error (also used by the `serde_json` shim).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with a free-form message.
    pub fn msg(message: impl Into<String>) -> Error {
        Error(message.into())
    }

    /// Error for a struct field absent from the serialized object.
    pub fn missing_field(name: &str) -> Error {
        Error(format!("missing field `{name}`"))
    }

    /// Error for a value of the wrong JSON type.
    pub fn expected(what: &str, got: &Value) -> Error {
        Error(format!("expected {what}, got {}", got.kind()))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types convertible into the JSON [`Value`] model.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Types reconstructible from the JSON [`Value`] model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(value: &Value) -> Result<Self, Error>;
}
