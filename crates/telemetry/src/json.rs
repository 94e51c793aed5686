//! Minimal deterministic JSON emission.
//!
//! The repository policy is byte-identical output for identical inputs
//! and no external dependencies, so JSON is hand-rolled: fields are
//! written in the order the caller chooses, integers as integers, floats
//! only at a fixed three decimals (shortest-representation formatting
//! would be another source of variation), and strings escaped per
//! RFC 8259.

use std::fmt::Write;

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters as `\u00XX`, plus `\n`, `\r`, `\t`).
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Returns `s` as a quoted, escaped JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// An append-only writer producing pretty-printed (two-space indented)
/// JSON with caller-controlled field order.
///
/// ```
/// use cmo_telemetry::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_obj(None);
/// w.field_str("schema", "cmo.report.v1");
/// w.begin_obj(Some("loader"));
/// w.field_u64("hits", 3);
/// w.end_obj();
/// w.end_obj();
/// let text = w.finish();
/// assert!(text.starts_with("{\n  \"schema\": \"cmo.report.v1\""));
/// assert!(text.ends_with("}\n"));
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container; `true` once it has a member.
    open: Vec<bool>,
}

impl JsonWriter {
    /// A writer with nothing emitted yet.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.open.len() {
            self.out.push_str("  ");
        }
    }

    /// Writes the comma/newline/key prelude for the next member.
    fn pre(&mut self, name: Option<&str>) {
        if let Some(has_members) = self.open.last_mut() {
            if *has_members {
                self.out.push(',');
            }
            *has_members = true;
            self.newline_indent();
        }
        if let Some(name) = name {
            self.out.push('"');
            escape_into(name, &mut self.out);
            self.out.push_str("\": ");
        }
    }

    /// Opens an object. `name` is `None` for the root value or for
    /// array elements.
    pub fn begin_obj(&mut self, name: Option<&str>) {
        self.pre(name);
        self.out.push('{');
        self.open.push(false);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        let had_members = self.open.pop().expect("end_obj without begin_obj");
        if had_members {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens an array member.
    pub fn begin_arr(&mut self, name: Option<&str>) {
        self.pre(name);
        self.out.push('[');
        self.open.push(false);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        let had_members = self.open.pop().expect("end_arr without begin_arr");
        if had_members {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Writes an unsigned-integer member.
    pub fn field_u64(&mut self, name: &str, value: u64) {
        self.pre(Some(name));
        let _ = write!(self.out, "{value}");
    }

    /// Writes a float member at a fixed three decimals (`{:.3}`).
    pub fn field_f64(&mut self, name: &str, value: f64) {
        self.pre(Some(name));
        let _ = write!(self.out, "{value:.3}");
    }

    /// Writes a boolean member.
    pub fn field_bool(&mut self, name: &str, value: bool) {
        self.pre(Some(name));
        let _ = write!(self.out, "{value}");
    }

    /// Writes a string member.
    pub fn field_str(&mut self, name: &str, value: &str) {
        self.pre(Some(name));
        self.out.push('"');
        escape_into(value, &mut self.out);
        self.out.push('"');
    }

    /// Writes a string array element.
    pub fn elem_str(&mut self, value: &str) {
        self.pre(None);
        self.out.push('"');
        escape_into(value, &mut self.out);
        self.out.push('"');
    }

    /// Returns the finished document with a trailing newline.
    #[must_use]
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "unclosed container in JsonWriter");
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("é🦀"), "\"é🦀\"");
    }

    #[test]
    fn writes_nested_structure() {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_str("schema", "s");
        w.begin_arr(Some("items"));
        w.begin_obj(None);
        w.field_u64("n", 1);
        w.field_f64("ms", 2.0 / 3.0);
        w.end_obj();
        w.elem_str("two");
        w.end_arr();
        w.begin_obj(Some("empty"));
        w.end_obj();
        w.end_obj();
        let text = w.finish();
        let expected = "{\n  \"schema\": \"s\",\n  \"items\": [\n    {\n      \"n\": 1,\n      \"ms\": 0.667\n    },\n    \"two\"\n  ],\n  \"empty\": {}\n}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let mut w = JsonWriter::new();
            w.begin_obj(None);
            w.field_bool("ok", true);
            w.field_u64("n", 7);
            w.end_obj();
            w.finish()
        };
        assert_eq!(build(), build());
    }
}
