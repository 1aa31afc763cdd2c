//! Vendored, offline stand-in for the `serde_derive` proc-macro crate.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shapes this workspace actually contains — non-generic structs (named,
//! tuple, unit) and enums (unit, tuple, and struct variants) — without any
//! dependency on `syn`/`quote`, which cannot be fetched in this offline
//! build environment. The generated `Serialize` impl lowers the type into
//! the `serde::ser::Value` tree following serde's externally-tagged JSON
//! conventions; the generated `Deserialize` impl inverts it, lifting the
//! type back out of the same tree so derived round trips are the identity.

#![deny(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` by lowering the type into `serde::ser::Value`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::Struct(fields) => serialize_struct_body(fields),
        Shape::Enum(variants) => serialize_enum_body(&item.name, variants),
    };
    format!(
        "impl ::serde::ser::Serialize for {} {{\n\
             fn to_value(&self) -> ::serde::ser::Value {{\n{}\n}}\n\
         }}",
        item.name, body
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize` by lifting the type out of
/// `serde::ser::Value`, inverting the derived `Serialize` conventions.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.shape {
        Shape::Struct(fields) => deserialize_struct_body(&item.name, fields),
        Shape::Enum(variants) => deserialize_enum_body(&item.name, variants),
    };
    format!(
        "impl ::serde::de::Deserialize for {name} {{\n\
             fn from_value(value: &::serde::ser::Value) \
                 -> ::core::result::Result<Self, ::serde::de::DeError> {{\n{body}\n}}\n\
         }}",
        name = item.name,
        body = body
    )
    .parse()
    .expect("generated Deserialize impl parses")
}

/// The field list of a struct or of one enum variant.
enum Fields {
    /// `struct S;` or `Variant`
    Unit,
    /// `struct S(A, B);` or `Variant(A, B)` — only the arity matters.
    Unnamed(usize),
    /// `struct S { a: A }` or `Variant { a: A }` — field names in order.
    Named(Vec<String>),
}

enum Shape {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn serialize_struct_body(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "::serde::ser::Value::Null".to_string(),
        Fields::Unnamed(1) => "::serde::ser::Serialize::to_value(&self.0)".to_string(),
        Fields::Unnamed(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::ser::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::ser::Value::Array(vec![{}])", items.join(", "))
        }
        Fields::Named(names) => {
            let entries: Vec<String> = names
                .iter()
                .map(|f| {
                    format!("(\"{f}\".to_string(), ::serde::ser::Serialize::to_value(&self.{f}))")
                })
                .collect();
            format!("::serde::ser::Value::Object(vec![{}])", entries.join(", "))
        }
    }
}

fn serialize_enum_body(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(vname, fields)| match fields {
            Fields::Unit => format!(
                "{name}::{vname} => ::serde::ser::Value::String(\"{vname}\".to_string()),"
            ),
            Fields::Unnamed(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                let payload = if *n == 1 {
                    "::serde::ser::Serialize::to_value(f0)".to_string()
                } else {
                    let items: Vec<String> = binds
                        .iter()
                        .map(|b| format!("::serde::ser::Serialize::to_value({b})"))
                        .collect();
                    format!("::serde::ser::Value::Array(vec![{}])", items.join(", "))
                };
                format!(
                    "{name}::{vname}({binds}) => ::serde::ser::Value::Object(vec![(\"{vname}\".to_string(), {payload})]),",
                    binds = binds.join(", ")
                )
            }
            Fields::Named(fnames) => {
                let entries: Vec<String> = fnames
                    .iter()
                    .map(|f| {
                        format!("(\"{f}\".to_string(), ::serde::ser::Serialize::to_value({f}))")
                    })
                    .collect();
                format!(
                    "{name}::{vname} {{ {fields} }} => ::serde::ser::Value::Object(vec![(\"{vname}\".to_string(), ::serde::ser::Value::Object(vec![{entries}]))]),",
                    fields = fnames.join(", "),
                    entries = entries.join(", ")
                )
            }
        })
        .collect();
    format!("match self {{\n{}\n}}", arms.join("\n"))
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        // Unit structs serialise to `Null`; accept any value so a bare
        // `null` in hand-edited JSON still round-trips.
        Fields::Unit => format!("let _ = value;\nOk({name})"),
        Fields::Unnamed(1) => {
            format!("Ok({name}(::serde::de::Deserialize::from_value(value)?))")
        }
        Fields::Unnamed(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::de::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "let items = ::serde::de::as_array(value, {n}, \"{name}\")?;\n\
                 Ok({name}({}))",
                items.join(", ")
            )
        }
        Fields::Named(names) => {
            let fields: Vec<String> = names
                .iter()
                .map(|f| format!("{f}: ::serde::de::field(entries, \"{f}\", \"{name}\")?"))
                .collect();
            format!(
                "let entries = ::serde::de::as_object(value, \"{name}\")?;\n\
                 Ok({name} {{ {} }})",
                fields.join(", ")
            )
        }
    }
}

fn deserialize_enum_body(name: &str, variants: &[(String, Fields)]) -> String {
    // Externally tagged: unit variants are a bare string, payload-carrying
    // variants a single-entry `{tag: payload}` object.
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|(_, fields)| matches!(fields, Fields::Unit))
        .map(|(vname, _)| format!("\"{vname}\" => Ok({name}::{vname}),"))
        .collect();
    let tagged_arms: Vec<String> = variants
        .iter()
        .filter_map(|(vname, fields)| {
            let body = match fields {
                Fields::Unit => return None,
                Fields::Unnamed(1) => {
                    format!("Ok({name}::{vname}(::serde::de::Deserialize::from_value(payload)?))")
                }
                Fields::Unnamed(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::de::Deserialize::from_value(&items[{i}])?"))
                        .collect();
                    format!(
                        "{{ let items = \
                             ::serde::de::as_array(payload, {n}, \"{name}::{vname}\")?;\n\
                         Ok({name}::{vname}({})) }}",
                        items.join(", ")
                    )
                }
                Fields::Named(fnames) => {
                    let fields: Vec<String> = fnames
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::de::field(fields, \"{f}\", \"{name}::{vname}\")?"
                            )
                        })
                        .collect();
                    format!(
                        "{{ let fields = \
                             ::serde::de::as_object(payload, \"{name}::{vname}\")?;\n\
                         Ok({name}::{vname} {{ {} }}) }}",
                        fields.join(", ")
                    )
                }
            };
            Some(format!("\"{vname}\" => {body},"))
        })
        .collect();
    format!(
        "match value {{\n\
             ::serde::ser::Value::String(tag) => match tag.as_str() {{\n\
                 {unit}\n\
                 other => Err(::serde::de::DeError::unknown_variant(\"{name}\", other)),\n\
             }},\n\
             ::serde::ser::Value::Object(entries) if entries.len() == 1 => {{\n\
                 let (tag, payload) = &entries[0];\n\
                 let _ = payload;\n\
                 match tag.as_str() {{\n\
                     {tagged}\n\
                     other => Err(::serde::de::DeError::unknown_variant(\"{name}\", other)),\n\
                 }}\n\
             }},\n\
             other => Err(::serde::de::DeError::mismatch(\n\
                 \"string or single-entry object for `{name}`\", other)),\n\
         }}",
        unit = unit_arms.join("\n"),
        tagged = tagged_arms.join("\n"),
        name = name
    )
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // `#` plus the bracketed attribute group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // `pub(crate)` and friends
                    }
                }
            }
            Some(TokenTree::Ident(id))
                if id.to_string() == "struct" || id.to_string() == "enum" =>
            {
                break id.to_string();
            }
            Some(_) => i += 1,
            None => panic!("serde derive: expected `struct` or `enum` in input"),
        }
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected type name, found {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde derive (vendored): generic types are not supported; type `{name}`");
        }
    }
    let shape = if kind == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(Fields::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Struct(Fields::Unnamed(count_tuple_fields(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Struct(Fields::Unit),
            other => panic!("serde derive: unexpected struct body for `{name}`: {other:?}"),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde derive: unexpected enum body for `{name}`: {other:?}"),
        }
    };
    Item { name, shape }
}

/// Skips `#[...]` attributes (including doc comments) at `tokens[i]`.
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() == '#' {
            *i += 2;
        } else {
            break;
        }
    }
}

/// Skips a `pub` / `pub(...)` visibility qualifier at `tokens[i]`.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advances `i` past tokens until (and including) a comma at angle-bracket
/// depth zero, or to the end of the token list.
fn skip_past_top_level_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut depth: i32 = 0;
    while let Some(tok) = tokens.get(*i) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        fields.push(id.to_string());
        i += 1; // field name
        i += 1; // `:`
        skip_past_top_level_comma(&tokens, &mut i);
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        count += 1;
        skip_past_top_level_comma(&tokens, &mut i);
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let vname = id.to_string();
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Unnamed(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip any `= discriminant` and the trailing comma.
        skip_past_top_level_comma(&tokens, &mut i);
        variants.push((vname, fields));
    }
    variants
}
