//! Offline shim for the `serde_json` crate.
//!
//! Prints and parses the vendored `serde` shim's [`Value`] model. The
//! public surface matches what this workspace uses: [`to_string`],
//! [`to_string_pretty`], [`from_str`], [`Value`], and [`Error`].

#![forbid(unsafe_code)]

mod parse;
mod print;

pub use serde::value::Number;
pub use serde::{Error, Value};

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::print(&value.to_value(), None))
}

/// Serializes a value to human-readable JSON (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(print::print(&value.to_value(), Some(0)))
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse::parse(text)?;
    T::from_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_containers() {
        let v: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(to_string(&v).unwrap(), "[1,2,3]");
        let s: String = from_str(r#""a\nbA""#).unwrap();
        assert_eq!(s, "a\nbA");
        let f: f64 = from_str("-2.5e2").unwrap();
        assert_eq!(f, -250.0);
        let none: Option<u32> = from_str("null").unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn value_indexing_matches_serde_json() {
        let v: Value = from_str(r#"{"a": [1, {"b": "x"}], "n": 2.5}"#).unwrap();
        assert_eq!(v["a"][1]["b"], "x");
        assert_eq!(v["a"][0].as_u64(), Some(1));
        assert!((v["n"].as_f64().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn pretty_print_is_stable_and_reparsable() {
        let v: Value = from_str(r#"{"name":"first-aid","series":[[0.0,1.5],[0.25,0.0]]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"name\": \"first-aid\""), "{pretty}");
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<Value>("1 trailing").is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let s = "quote \" backslash \\ newline \n tab \t bell \u{7}";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
