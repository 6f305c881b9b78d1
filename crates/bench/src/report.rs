//! Shared parsing helpers for the committed benchmark reports.
//!
//! Every bench writer in this crate emits the same hand-rolled JSON
//! shape (hermetic workspace — no serde): human-readable framing with
//! exactly one object per line inside the result arrays. That makes
//! line-wise key extraction exact, and the readers of all five suites
//! `flac-bench` gates ([`crate::suite::Suite`]) share this module
//! instead of each carrying its own copy of the same string surgery.
//! Line-wise extraction cannot see a report cut short, so
//! [`parse_quick`], which every reader calls first, also rejects a
//! document that does not end where its top-level object closes.

/// Extract the raw value token of `"key": value` from a one-line JSON
/// object fragment (quotes stripped, `,`/`}` terminated).
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Check that `json` is one whole document: a top-level object whose
/// brackets all close, followed by exactly the final newline every
/// writer emits. A document cut anywhere, even just before its last
/// `]`, `}` or newline, fails.
///
/// # Errors
///
/// Describes how the document is malformed or cut short.
fn check_complete(json: &str) -> Result<(), String> {
    let mut open: Vec<u8> = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for (i, b) in json.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => open.push(b'}'),
            b'[' => open.push(b']'),
            b'}' | b']' => {
                if open.pop() != Some(b) {
                    return Err(format!("unbalanced {:?} at byte {i}", b as char));
                }
                if open.is_empty() {
                    return match &json[i + 1..] {
                        "\n" => Ok(()),
                        rest => Err(format!(
                            "{rest:?} after the closing brace, want one newline"
                        )),
                    };
                }
            }
            _ => {}
        }
    }
    let open = open.len();
    Err(format!("report cut short with {open} bracket(s) open"))
}

/// Read the report-level `"quick"` flag (every report carries one on
/// its own line).
///
/// # Errors
///
/// Returns a description when the document is cut short or malformed
/// (see `check_complete`) or the field is absent.
pub fn parse_quick(json: &str) -> Result<bool, String> {
    check_complete(json)?;
    json.lines()
        .find_map(|l| field(l, "quick").filter(|_| l.trim_start().starts_with("\"quick\"")))
        .map(|v| v == "true")
        .ok_or_else(|| "missing \"quick\" field".into())
}

/// One result-array line, with typed field accessors that name the
/// offending key on failure.
#[derive(Debug, Clone, Copy)]
pub struct LineObject<'a> {
    line: &'a str,
}

impl<'a> LineObject<'a> {
    /// The raw token of `key`.
    ///
    /// # Errors
    ///
    /// Names the missing key and the line it was expected on.
    pub fn raw(&self, key: &str) -> Result<&'a str, String> {
        field(self.line, key).ok_or_else(|| format!("missing \"{key}\" in {}", self.line))
    }

    /// A string field.
    ///
    /// # Errors
    ///
    /// Propagates [`LineObject::raw`] failures.
    pub fn str_field(&self, key: &str) -> Result<String, String> {
        Ok(self.raw(key)?.to_string())
    }

    /// An unsigned integer field.
    ///
    /// # Errors
    ///
    /// Missing key or unparsable number.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.raw(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// An unsigned integer field as `usize`.
    ///
    /// # Errors
    ///
    /// Missing key or unparsable number.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        self.raw(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// A floating-point field.
    ///
    /// # Errors
    ///
    /// Missing key or unparsable number.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.raw(key)?.parse().map_err(|e| format!("{key}: {e}"))
    }

    /// A boolean field.
    ///
    /// # Errors
    ///
    /// Propagates [`LineObject::raw`] failures.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        Ok(self.raw(key)? == "true")
    }
}

/// Iterate the one-per-line result objects identified by a `marker`
/// key (e.g. every line containing `"impl":`).
pub fn objects_with<'a>(
    json: &'a str,
    marker: &'a str,
) -> impl Iterator<Item = LineObject<'a>> + 'a {
    let pat = format!("\"{marker}\":");
    json.lines()
        .filter(move |l| l.contains(&pat))
        .map(|line| LineObject { line })
}

/// The single line containing `marker`, for one-off objects.
///
/// # Errors
///
/// Returns a description when no line carries the marker.
pub fn object_with<'a>(json: &'a str, marker: &str) -> Result<LineObject<'a>, String> {
    let pat = format!("\"{marker}\":");
    json.lines()
        .find(|l| l.contains(&pat))
        .map(|line| LineObject { line })
        .ok_or_else(|| format!("missing \"{marker}\" object"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "sample",
  "quick": false,
  "results": [
    {"impl": "a", "threads": 4, "ratio": 1.25, "ok": true},
    {"impl": "b", "threads": 8, "ratio": 0.5, "ok": false}
  ]
}
"#;

    #[test]
    fn field_extracts_quoted_and_bare_tokens() {
        let line = r#"    {"impl": "a", "threads": 4, "ratio": 1.25, "ok": true},"#;
        assert_eq!(field(line, "impl"), Some("a"));
        assert_eq!(field(line, "threads"), Some("4"));
        assert_eq!(field(line, "ratio"), Some("1.25"));
        assert_eq!(field(line, "ok"), Some("true"));
        assert_eq!(field(line, "absent"), None);
    }

    #[test]
    fn typed_accessors_roundtrip_a_report() {
        assert!(!parse_quick(SAMPLE).unwrap());
        let objs: Vec<_> = objects_with(SAMPLE, "impl").collect();
        assert_eq!(objs.len(), 2);
        assert_eq!(objs[0].str_field("impl").unwrap(), "a");
        assert_eq!(objs[0].u64_field("threads").unwrap(), 4);
        assert!((objs[0].f64_field("ratio").unwrap() - 1.25).abs() < 1e-9);
        assert!(objs[0].bool_field("ok").unwrap());
        assert_eq!(objs[1].usize_field("threads").unwrap(), 8);
        assert!(!objs[1].bool_field("ok").unwrap());
    }

    #[test]
    fn failures_name_the_key() {
        let obj = objects_with(SAMPLE, "impl").next().unwrap();
        let err = obj.u64_field("missing").unwrap_err();
        assert!(err.contains("missing \"missing\""), "{err}");
        let err = obj.u64_field("impl").unwrap_err();
        assert!(err.starts_with("impl:"), "{err}");
        assert!(parse_quick("{}\n").is_err());
        assert!(object_with(SAMPLE, "nope").is_err());
        assert!(object_with(SAMPLE, "bench").is_ok());
    }

    #[test]
    fn check_complete_wants_one_closed_object_and_a_newline() {
        assert!(check_complete("{\"a\": [\"}]\\\"\"]}\n").is_ok());
        for bad in ["{}", "{}\n\n", "{]\n", "{\"a\": [1]\n", "{\"a\": \"}\n"] {
            assert!(check_complete(bad).is_err(), "{bad:?}");
        }
    }

    /// The five committed reports, by file name.
    const COMMITTED: [(&str, &str); 5] = [
        (
            "BENCH_cache.json",
            include_str!("../../../BENCH_cache.json"),
        ),
        (
            "BENCH_serve.json",
            include_str!("../../../BENCH_serve.json"),
        ),
        (
            "BENCH_store.json",
            include_str!("../../../BENCH_store.json"),
        ),
        ("BENCH_sync.json", include_str!("../../../BENCH_sync.json")),
        ("BENCH_topo.json", include_str!("../../../BENCH_topo.json")),
    ];

    /// `--check`'s verdict on `json` for each committed report.
    fn passes(file: &str, json: &str) -> bool {
        let suite = crate::suite::Suite::ALL
            .into_iter()
            .find(|s| s.default_path() == file)
            .expect(file);
        suite.check(json).is_empty()
    }

    #[test]
    fn only_the_whole_committed_report_passes_its_check() {
        for (file, json) in COMMITTED {
            assert!(passes(file, json), "{file} fails its own check");
            let cut: Vec<usize> = (0..json.len())
                .filter(|&k| json.is_char_boundary(k) && passes(file, &json[..k]))
                .collect();
            assert!(cut.is_empty(), "{file} cut to {cut:?} bytes still passes");
        }
    }

    /// Whether the suite parser for `file` accepts `json`.
    fn parses(file: &str, json: &str) -> bool {
        use crate::{cache_scale, serve_scale, store_scale, sync_scale, topo_scale};
        match file {
            "BENCH_cache.json" => cache_scale::parse_report(json).is_ok(),
            "BENCH_serve.json" => serve_scale::parse_report(json).is_ok(),
            "BENCH_store.json" => store_scale::parse_report(json).is_ok(),
            "BENCH_sync.json" => sync_scale::parse_report(json).is_ok(),
            "BENCH_topo.json" => topo_scale::parse_report(json).is_ok(),
            _ => unreachable!("{file}"),
        }
    }

    /// The parsers themselves, not only the verdict: every strict prefix
    /// of each committed report is an `Err` (a panic fails the test too).
    #[test]
    fn every_strict_prefix_of_a_committed_report_fails_to_parse() {
        for (file, json) in COMMITTED {
            assert!(parses(file, json), "{file} does not parse");
            let cut: Vec<usize> = (0..json.len())
                .filter(|&k| json.is_char_boundary(k) && parses(file, &json[..k]))
                .collect();
            assert!(cut.is_empty(), "{file} cut to {cut:?} bytes still parses");
        }
    }
}
