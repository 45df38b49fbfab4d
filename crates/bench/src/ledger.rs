//! Append-only JSON ledgers shared by the perf baseline
//! (`bench_baseline` → `BENCH_engine.json`) and the conformance harness
//! (`harness` → `QUALITY_engine.json`).
//!
//! Both artifacts use the same storage convention: a checked-in **JSON
//! array of records** that successive PRs *append* to, leaving a
//! trajectory that CI and reviewers diff instead of re-deriving numbers.
//! The records themselves are rendered by the producers (this module is
//! schema-agnostic); this module owns the append mechanics, including
//! wrapping a legacy single-object file as the array's first entry and
//! refusing to touch a corrupt file.

use std::fmt::Write as _;

/// Appends `records` (each one rendered JSON value) to the JSON array in
/// `existing`, returning the new file contents. Creates the array if
/// `existing` is blank and wraps a legacy single-object file (the PR 3
/// `BENCH_engine.json` schema) as its first entry.
///
/// # Panics
/// Panics if `existing` holds neither a JSON array nor an object — a
/// truncated or corrupt file. Refusing to wrap garbage beats a confusing
/// parse error at the consumer.
pub fn append_records(existing: &str, records: &[String]) -> String {
    append_records_from(existing, records, "ledger")
}

/// [`append_records`] with a named source (the file path, for
/// [`append_to_file`]) so the corrupt-ledger panic says which file to
/// fix or delete.
fn append_records_from(existing: &str, records: &[String], source: &str) -> String {
    let new_block = records.join(",\n");
    let trimmed = existing.trim();
    if trimmed.is_empty() {
        return format!("[\n{new_block}\n]\n");
    }
    if let Some(body) = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .map(str::trim)
    {
        if body.is_empty() {
            format!("[\n{new_block}\n]\n")
        } else {
            format!("[\n{body},\n{new_block}\n]\n")
        }
    } else if trimmed.starts_with('{') && trimmed.ends_with('}') {
        // Legacy single-object schema: keep it as the first trajectory
        // point.
        format!("[\n{trimmed},\n{new_block}\n]\n")
    } else {
        panic!(
            "{source} holds neither a JSON array nor an object \
             (truncated write?); fix or delete it before appending"
        );
    }
}

/// Reads the ledger at `path` (missing file = empty ledger), appends
/// `records`, and writes it back. Returns the full new contents.
///
/// # Panics
/// Panics on a corrupt existing file (see [`append_records`]) or an
/// unwritable `path`.
pub fn append_to_file(path: &str, records: &[String]) -> String {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let json = append_records_from(&existing, records, path);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write ledger {path}: {e}"));
    json
}

/// The top-level records of a ledger, each trimmed, in file order: the
/// inverse of [`append_records`] up to outer whitespace. A blank ledger
/// has none, and a legacy single-object file is its one record. The split
/// tracks brackets and string literals, so commas inside records never
/// split them.
///
/// # Panics
/// Panics if `contents` holds neither a JSON array nor an object, like
/// [`append_records`].
pub fn records(contents: &str) -> Vec<&str> {
    let trimmed = contents.trim();
    if trimmed.is_empty() {
        return Vec::new();
    }
    if trimmed.starts_with('{') && trimmed.ends_with('}') {
        return vec![trimmed];
    }
    let body = trimmed
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .unwrap_or_else(|| panic!("ledger holds neither a JSON array nor an object"));
    let mut out = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0);
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(body[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = body[start..].trim();
    if !last.is_empty() {
        out.push(last);
    }
    out
}

/// Renders a flat JSON object from pre-rendered `"key": value` pairs,
/// indented to sit inside a ledger array. The values are the caller's
/// responsibility (use [`json_str`] for strings).
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let mut out = String::from("  {\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let comma = if i + 1 == pairs.len() { "" } else { "," };
        // Nested values arrive with their own leading indent (they were
        // rendered to sit in an array); strip it and re-indent the body
        // so `"key": {` lines up like the flat pairs.
        let v = v.trim_start().replace('\n', "\n    ");
        let _ = writeln!(out, "    \"{k}\": {v}{comma}");
    }
    out.push_str("  }");
    out
}

/// Renders a JSON string literal (quotes + minimal escaping; the ledgers
/// only carry identifier-like strings).
pub fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            _ => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_array_from_blank() {
        let out = append_records("", &["  { \"a\": 1 }".into()]);
        assert_eq!(out, "[\n  { \"a\": 1 }\n]\n");
        let out = append_records("  \n", &["  { \"a\": 1 }".into()]);
        assert!(out.starts_with("[\n"));
    }

    #[test]
    fn appends_to_existing_array() {
        let v1 = append_records("", &["  { \"a\": 1 }".into()]);
        let v2 = append_records(&v1, &["  { \"b\": 2 }".into(), "  { \"c\": 3 }".into()]);
        // The existing body is re-embedded trimmed (its outer indentation
        // is not preserved); records keep their own internal layout.
        assert_eq!(v2, "[\n{ \"a\": 1 },\n  { \"b\": 2 },\n  { \"c\": 3 }\n]\n");
    }

    #[test]
    fn records_split_what_append_joined() {
        assert!(records("").is_empty());
        assert!(records("[\n]\n").is_empty());
        let a = json_object(&[("k", json_str("a, [b] {c} \"d\"")), ("n", "1".into())]);
        let b = json_object(&[("nested", json_object(&[("x", "[1, 2]".into())]))]);
        let ledger = append_records(
            &append_records("", std::slice::from_ref(&a)),
            &[b.clone(), a.clone()],
        );
        assert_eq!(records(&ledger), vec![a.trim(), b.trim(), a.trim()]);
        assert_eq!(records("{ \"legacy\": 1 }"), vec!["{ \"legacy\": 1 }"]);
    }

    #[test]
    fn wraps_legacy_single_object() {
        let out = append_records("{ \"old\": true }", &["  { \"new\": 1 }".into()]);
        assert_eq!(out, "[\n{ \"old\": true },\n  { \"new\": 1 }\n]\n");
    }

    #[test]
    fn appends_to_empty_array() {
        let out = append_records("[]", &["  { \"a\": 1 }".into()]);
        assert_eq!(out, "[\n  { \"a\": 1 }\n]\n");
    }

    #[test]
    #[should_panic(expected = "neither a JSON array nor an object")]
    fn refuses_corrupt_ledger() {
        append_records("[ { \"trunc", &["  {}".into()]);
    }

    #[test]
    fn object_rendering_round_trips_shape() {
        let obj = json_object(&[
            ("name", json_str("a\"b")),
            ("n", "12".into()),
            ("flag", "true".into()),
        ]);
        assert_eq!(
            obj,
            "  {\n    \"name\": \"a\\\"b\",\n    \"n\": 12,\n    \"flag\": true\n  }"
        );
    }
}
