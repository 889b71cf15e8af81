//! Offline shim for `serde_derive`.
//!
//! Generates `Serialize` / `Deserialize` impls against the vendored
//! `serde` shim's value-model traits. Implemented directly over
//! `proc_macro` token trees (the container has no `syn`/`quote`), so it
//! supports exactly the shapes this workspace derives on:
//!
//! * structs with named fields,
//! * tuple structs (a 1-field newtype delegates to its inner value, as
//!   real serde does),
//! * enums with unit and newtype variants (externally tagged).
//!
//! Generic types and other exotica are rejected with a compile error.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

enum Shape {
    /// Struct with named fields.
    Named(Vec<String>),
    /// Tuple struct with N unnamed fields.
    Tuple(usize),
    /// Enum variants: (name, has_newtype_payload).
    Enum(Vec<(String, bool)>),
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    match parse(input) {
        Ok((name, shape)) => generate(&name, &shape, mode).parse().unwrap(),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

/// Removes `#[...]` attribute pairs from a token list.
fn strip_attrs(tokens: Vec<TokenTree>) -> Vec<TokenTree> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut iter = tokens.into_iter().peekable();
    while let Some(tt) = iter.next() {
        if let TokenTree::Punct(p) = &tt {
            if p.as_char() == '#' {
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Bracket {
                        iter.next();
                        continue;
                    }
                }
            }
        }
        out.push(tt);
    }
    out
}

/// Splits a token list on commas at angle-bracket depth 0.
fn split_top_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut parts: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle = 0i32;
    for tt in tokens {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle = (angle - 1).max(0),
                ',' if angle == 0 => {
                    parts.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        parts.last_mut().unwrap().push(tt.clone());
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

/// Skips a leading visibility (`pub`, `pub(...)`) in a token list.
fn skip_vis(tokens: &[TokenTree]) -> &[TokenTree] {
    let mut rest = tokens;
    if let Some(TokenTree::Ident(id)) = rest.first() {
        if id.to_string() == "pub" {
            rest = &rest[1..];
            if let Some(TokenTree::Group(g)) = rest.first() {
                if g.delimiter() == Delimiter::Parenthesis {
                    rest = &rest[1..];
                }
            }
        }
    }
    rest
}

fn parse(input: TokenStream) -> Result<(String, Shape), String> {
    let tokens = strip_attrs(input.into_iter().collect());
    let mut iter = tokens.into_iter().peekable();

    // Visibility.
    let mut kw = None;
    for tt in iter.by_ref() {
        if let TokenTree::Ident(id) = &tt {
            let s = id.to_string();
            if s == "struct" || s == "enum" {
                kw = Some(s);
                break;
            }
        }
    }
    let kw = kw.ok_or("derive shim: expected `struct` or `enum`")?;

    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("derive shim: expected type name".into()),
    };

    let body = match iter.next() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!("derive shim: generic type `{name}` unsupported"));
        }
        Some(TokenTree::Group(g)) => g,
        Some(other) => {
            return Err(format!(
                "derive shim: unexpected token `{other}` after `{name}`"
            ))
        }
        None => return Err(format!("derive shim: missing body for `{name}`")),
    };

    let items = strip_attrs(body.stream().into_iter().collect());
    if kw == "struct" {
        match body.delimiter() {
            Delimiter::Brace => {
                let mut fields = Vec::new();
                for part in split_top_commas(&items) {
                    let part = skip_vis(&part);
                    match part.first() {
                        Some(TokenTree::Ident(id)) => fields.push(id.to_string()),
                        _ => return Err(format!("derive shim: bad field in `{name}`")),
                    }
                }
                Ok((name, Shape::Named(fields)))
            }
            Delimiter::Parenthesis => Ok((name, Shape::Tuple(split_top_commas(&items).len()))),
            _ => Err(format!("derive shim: unsupported struct body for `{name}`")),
        }
    } else {
        let mut variants = Vec::new();
        for part in split_top_commas(&items) {
            let mut part = part.as_slice();
            let vname = match part.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return Err(format!("derive shim: bad variant in `{name}`")),
            };
            part = &part[1..];
            let payload = match part.first() {
                None => false,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let inner = strip_attrs(g.stream().into_iter().collect());
                    if split_top_commas(&inner).len() != 1 {
                        return Err(format!(
                            "derive shim: variant `{name}::{vname}` must be unit or newtype"
                        ));
                    }
                    true
                }
                Some(other) => {
                    return Err(format!(
                        "derive shim: unsupported payload `{other}` in `{name}::{vname}`"
                    ))
                }
            };
            variants.push((vname, payload));
        }
        Ok((name, Shape::Enum(variants)))
    }
}

fn generate(name: &str, shape: &Shape, mode: Mode) -> String {
    match mode {
        Mode::Serialize => generate_serialize(name, shape),
        Mode::Deserialize => generate_deserialize(name, shape),
    }
}

fn generate_serialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named(fields) => {
            let members: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f})),"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{members}])")
        }
        Shape::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Tuple(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{items}])")
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|(v, payload)| {
                    if *payload {
                        format!(
                            "{name}::{v}(inner) => ::serde::Value::Object(::std::vec![(\
                             ::std::string::String::from({v:?}), \
                             ::serde::Serialize::to_value(inner))]),"
                        )
                    } else {
                        format!(
                            "{name}::{v} => \
                             ::serde::Value::String(::std::string::String::from({v:?})),"
                        )
                    }
                })
                .collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn generate_deserialize(name: &str, shape: &Shape) -> String {
    let body = match shape {
        Shape::Named(fields) => {
            let members: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: <_ as ::serde::Deserialize>::from_value(\
                         value.get_field({f:?}).unwrap_or(&::serde::Value::Null))?,"
                    )
                })
                .collect();
            format!("::std::result::Result::Ok({name} {{ {members} }})")
        }
        Shape::Tuple(1) => format!(
            "::std::result::Result::Ok({name}(<_ as ::serde::Deserialize>::from_value(value)?))"
        ),
        Shape::Tuple(n) => {
            let items: String = (0..*n)
                .map(|i| {
                    format!(
                        "<_ as ::serde::Deserialize>::from_value(\
                         items.get({i}).unwrap_or(&::serde::Value::Null))?,"
                    )
                })
                .collect();
            format!(
                "let items = value.as_array()\
                     .ok_or_else(|| ::serde::Error::expected(\"array\", value))?;\n\
                 if items.len() != {n} {{\n\
                     return ::std::result::Result::Err(::serde::Error::msg(\
                         ::std::format!(\"expected {n} elements, got {{}}\", items.len())));\n\
                 }}\n\
                 ::std::result::Result::Ok({name}({items}))"
            )
        }
        Shape::Enum(variants) => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, payload)| !payload)
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),"))
                .collect();
            let newtype_arms: String = variants
                .iter()
                .filter(|(_, payload)| *payload)
                .map(|(v, _)| {
                    format!(
                        "if let ::std::option::Option::Some(inner) = value.get_field({v:?}) {{\n\
                             return ::std::result::Result::Ok({name}::{v}(\
                                 <_ as ::serde::Deserialize>::from_value(inner)?));\n\
                         }}"
                    )
                })
                .collect();
            format!(
                "if let ::std::option::Option::Some(s) = value.as_str() {{\n\
                     return match s {{\n\
                         {unit_arms}\n\
                         other => ::std::result::Result::Err(::serde::Error::msg(\
                             ::std::format!(\"unknown variant {{other:?}} of {name}\"))),\n\
                     }};\n\
                 }}\n\
                 {newtype_arms}\n\
                 ::std::result::Result::Err(::serde::Error::expected(\"{name} variant\", value))"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}\n\
         }}"
    )
}
