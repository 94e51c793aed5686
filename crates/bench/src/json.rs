//! Versioned benchmark snapshots (`cmo.bench.v1`) and the minimal
//! JSON plumbing `bench-diff` needs to compare two of them.
//!
//! The figure binaries emit one [`BenchReport`] per run via
//! `--json-out`. A report carries three kinds of numbers:
//!
//! * **deterministic counters** (work-unit clock, loader work,
//!   peak accounted bytes) — integer metrics, identical run-to-run
//!   and machine-to-machine, the only thing `bench-diff` gates on;
//! * **wall-clock** milliseconds — informational, machine-dependent,
//!   never gated (keys start with `wall_`);
//! * **derived ratios** (speedups, reduction percentages) — also
//!   informational floats.
//!
//! Snapshots are written through the workspace's one JSON writer,
//! [`cmo_telemetry::json::JsonWriter`]. The parser below handles exactly
//! the JSON subset that writer emits (objects, arrays, strings, numbers,
//! booleans, null) so the harness stays dependency-free.

use cmo_telemetry::json::JsonWriter;
use std::path::Path;

/// Schema tag stamped into every benchmark snapshot.
pub const BENCH_SCHEMA: &str = "cmo.bench.v1";

/// One metric value: deterministic counter or informational float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BenchValue {
    /// Deterministic counter — gated by `bench-diff`.
    Int(u64),
    /// Informational measurement (wall-clock, ratio) — never gated.
    Float(f64),
}

/// One labelled row of a figure (a configuration, scale, or scenario).
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Stable row label (`"offload"`, `"8100-lines"`, `"warm"`, ...).
    pub name: String,
    /// Ordered metric key/value pairs.
    pub metrics: Vec<(String, BenchValue)>,
}

impl BenchRow {
    /// A row with no metrics yet.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        BenchRow {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends a deterministic counter metric.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.metrics.push((key.to_owned(), BenchValue::Int(value)));
        self
    }

    /// Appends an informational float metric (wall-clock, ratio).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics
            .push((key.to_owned(), BenchValue::Float(value)));
        self
    }
}

/// A complete `cmo.bench.v1` snapshot of one figure run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which figure produced this (`"fig4"`, `"fig5"`, `"fig7"`).
    pub figure: &'static str,
    /// `"smoke"` (CI sizes) or `"full"` (paper-scale sizes).
    pub mode: &'static str,
    /// One row per configuration/scale/scenario.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// An empty report for `figure` in the given mode.
    #[must_use]
    pub fn new(figure: &'static str, smoke: bool) -> Self {
        BenchReport {
            figure,
            mode: if smoke { "smoke" } else { "full" },
            rows: Vec::new(),
        }
    }

    /// Renders the snapshot as pretty-printed JSON.
    ///
    /// Integer metrics print as integers, floats with three decimals —
    /// enough for wall-clock milliseconds, and regular enough for the
    /// hand-rolled parser on the other end.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        w.field_str("schema", BENCH_SCHEMA);
        w.field_str("figure", self.figure);
        w.field_str("mode", self.mode);
        w.begin_arr(Some("rows"));
        for row in &self.rows {
            w.begin_obj(None);
            w.field_str("name", &row.name);
            w.begin_obj(Some("metrics"));
            for (key, value) in &row.metrics {
                match *value {
                    BenchValue::Int(v) => w.field_u64(key, v),
                    BenchValue::Float(v) => w.field_f64(key, v),
                }
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Writes the snapshot to `path`, creating parent directories.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (benches run in a writable checkout).
    pub fn write(&self, path: &Path) {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create json-out dir");
            }
        }
        std::fs::write(path, self.to_json()).expect("write bench json");
        eprintln!("wrote {}", path.display());
    }
}

/// Flags shared by the figure binaries.
#[derive(Debug, Default, Clone)]
pub struct BenchArgs {
    /// `--smoke`: CI-sized inputs instead of paper-scale ones.
    pub smoke: bool,
    /// `--json-out <path>`: where to write the `cmo.bench.v1` snapshot.
    pub json_out: Option<std::path::PathBuf>,
}

/// Parses `--smoke` and `--json-out <path>` from the process args.
///
/// # Panics
///
/// Panics on unknown flags or a missing `--json-out` operand, printing
/// usage — these binaries are run by hand or by CI, not as a library.
#[must_use]
pub fn bench_args() -> BenchArgs {
    let mut parsed = BenchArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--json-out" => {
                let path = args.next().unwrap_or_else(|| {
                    panic!("--json-out requires a path operand");
                });
                parsed.json_out = Some(path.into());
            }
            other => panic!("unknown flag {other:?}; supported: --smoke, --json-out <path>"),
        }
    }
    parsed
}

/// A parsed JSON value — just enough structure for `bench-diff`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are exact up to 2^53, ample for counters).
    Num(f64),
    /// A string (no escape handling beyond `\"` and `\\` — the writer
    /// never emits anything else).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input or trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_owned());
            }
            b'\\' => match bytes.get(*pos) {
                Some(&e @ (b'"' | b'\\' | b'/')) => {
                    out.push(e);
                    *pos += 1;
                }
                Some(b'n') => {
                    out.push(b'\n');
                    *pos += 1;
                }
                Some(b't') => {
                    out.push(b'\t');
                    *pos += 1;
                }
                _ => return Err(format!("unsupported escape at byte {}", *pos)),
            },
            _ => out.push(b),
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_parser() {
        let mut report = BenchReport::new("fig5", true);
        let mut row = BenchRow::new("offload");
        row.int("work_units", 123_456)
            .int("peak_bytes", 9_000)
            .float("wall_ms_j1", 12.5);
        report.rows.push(row);
        let json = report.to_json();
        let parsed = parse_json(&json).expect("parse");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(BENCH_SCHEMA)
        );
        assert_eq!(parsed.get("figure").and_then(Json::as_str), Some("fig5"));
        let rows = parsed.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 1);
        let metrics = rows[0].get("metrics").expect("metrics");
        assert_eq!(
            metrics.get("work_units").and_then(Json::as_num),
            Some(123_456.0)
        );
        assert_eq!(metrics.get("wall_ms_j1").and_then(Json::as_num), Some(12.5));
    }

    /// The snapshot layout, byte for byte, as the committed baselines
    /// were written.
    #[test]
    fn report_json_matches_the_golden_layout() {
        let mut report = BenchReport::new("fig7", false);
        let mut cold = BenchRow::new("cold");
        cold.int("work_units", 94_677).float("wall_ms", 12.5);
        let mut warm = BenchRow::new("warm");
        warm.float("speedup", 2.0 / 3.0)
            .int("repo_bytes_appended", 0);
        report.rows.extend([cold, warm]);
        let golden = concat!(
            "{\n",
            "  \"schema\": \"cmo.bench.v1\",\n",
            "  \"figure\": \"fig7\",\n",
            "  \"mode\": \"full\",\n",
            "  \"rows\": [\n",
            "    {\n",
            "      \"name\": \"cold\",\n",
            "      \"metrics\": {\n",
            "        \"work_units\": 94677,\n",
            "        \"wall_ms\": 12.500\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"warm\",\n",
            "      \"metrics\": {\n",
            "        \"speedup\": 0.667,\n",
            "        \"repo_bytes_appended\": 0\n",
            "      }\n",
            "    }\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(report.to_json(), golden);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
    }

    #[test]
    fn parser_handles_nesting_and_literals() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null], "b": {"c": "x"}}"#).expect("parse");
        let a = v.get("a").and_then(Json::as_arr).expect("a");
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].as_num(), Some(-2.5));
        assert_eq!(a[2], Json::Bool(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
    }
}
