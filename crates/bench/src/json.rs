//! Minimal hand-rolled JSON emission for the committed `BENCH_*.json`
//! files (the workspace is offline; no serde). One builder shared by
//! every JSON-writing `scale` mode (`rtree`, `shard`, `faults`, …) so the
//! documents keep one stable, review-friendly shape: 2-space
//! indentation, insertion-ordered object fields, and fixed float
//! precision chosen per field.
//!
//! # Example
//!
//! ```
//! use drtree_bench::json::Json;
//!
//! let doc = Json::object()
//!     .field("bench", "demo")
//!     .field("samples", Json::Array(vec![
//!         Json::object().field("size", 1000u64).field("ns", Json::fixed(12.345, 1)),
//!     ]));
//! let rendered = doc.render();
//! assert!(rendered.contains("\"bench\": \"demo\""));
//! assert!(rendered.contains("{\"size\": 1000, \"ns\": 12.3}"));
//! ```

use std::fmt::Write as _;

/// A JSON value assembled programmatically and rendered with stable
/// formatting.
#[derive(Debug, Clone)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// An unsigned integer.
    Int(u64),
    /// A float rendered with a fixed number of decimals.
    Fixed {
        /// The value.
        value: f64,
        /// Decimal places to keep.
        decimals: usize,
    },
    /// An array; elements render one per line unless every element is
    /// scalar.
    Array(Vec<Json>),
    /// An object; fields keep insertion order. Renders multiline at the
    /// top levels and inline once every value is scalar.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::field`] chaining.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends a field to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn field(mut self, name: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Object(fields) => fields.push((name.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// A float rendered with `decimals` decimal places.
    pub fn fixed(value: f64, decimals: usize) -> Self {
        Json::Fixed { value, decimals }
    }

    /// Renders the document with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// `true` when the value renders on one line regardless of nesting
    /// depth: scalars always, containers once everything inside them is
    /// scalar.
    fn is_inline(&self) -> bool {
        match self {
            Json::Str(_) | Json::Int(_) | Json::Fixed { .. } => true,
            Json::Array(items) => items.iter().all(Json::is_scalar),
            Json::Object(fields) => fields.iter().all(|(_, v)| v.is_scalar()),
        }
    }

    fn is_scalar(&self) -> bool {
        matches!(self, Json::Str(_) | Json::Int(_) | Json::Fixed { .. })
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed { value, decimals } => {
                let _ = write!(out, "{value:.decimals$}");
            }
            Json::Array(items) if self.is_inline() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Json::Array(items) => {
                out.push_str("[\n");
                let inner = indent + 1;
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{:indent$}", "", indent = 2 * inner);
                    item.write(out, inner);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                let _ = write!(out, "{:indent$}]", "", indent = 2 * indent);
            }
            Json::Object(fields) if self.is_inline() => {
                out.push('{');
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{name}\": ");
                    value.write(out, indent);
                }
                out.push('}');
            }
            Json::Object(fields) => {
                out.push_str("{\n");
                let inner = indent + 1;
                for (i, (name, value)) in fields.iter().enumerate() {
                    let _ = write!(out, "{:indent$}\"{name}\": ", "", indent = 2 * inner);
                    value.write(out, inner);
                    out.push_str(if i + 1 == fields.len() { "\n" } else { ",\n" });
                }
                let _ = write!(out, "{:indent$}}}", "", indent = 2 * indent);
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Int(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as u64)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Array(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_documents_render_with_stable_shape() {
        let doc = Json::object()
            .field("bench", "t")
            .field(
                "sizes",
                Json::object().field(
                    "1000",
                    Json::Array(vec![
                        Json::object()
                            .field("a", 1u64)
                            .field("b", Json::fixed(2.5, 2)),
                        Json::object()
                            .field("a", 2u64)
                            .field("b", Json::fixed(0.149, 1)),
                    ]),
                ),
            )
            .field("speedup", Json::fixed(3.456, 2));
        let rendered = doc.render();
        assert_eq!(
            rendered,
            "{\n  \"bench\": \"t\",\n  \"sizes\": {\n    \"1000\": [\n      \
             {\"a\": 1, \"b\": 2.50},\n      {\"a\": 2, \"b\": 0.1}\n    ]\n  },\n  \
             \"speedup\": 3.46\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        // A flat object is inline; escaping applies either way.
        let doc = Json::object().field("s", "a \"quoted\" \\ line\nnext");
        assert_eq!(
            doc.render(),
            "{\"s\": \"a \\\"quoted\\\" \\\\ line\\nnext\"}\n"
        );
    }

    #[test]
    fn scalar_arrays_render_inline() {
        let doc = Json::Array(vec![Json::Int(1), Json::Int(2), Json::fixed(3.0, 1)]);
        assert_eq!(doc.render(), "[1, 2, 3.0]\n");
    }
}
