//! The one report schema of the four `flac-bench` suites
//! ([`crate::suite::Suite`]): one writer ([`Report::to_json`]), one
//! parser ([`Report::parse`]), one rerun-parity check
//! ([`Report::rerun_failures`]), one `before[]` rule
//! ([`Report::replacing`]) and one comparison of a fresh run with the
//! committed file ([`Report::mismatches`]).
//!
//! A committed `BENCH_<suite>.json` is hand-rolled JSON (hermetic
//! workspace, no serde) in one fixed layout:
//!
//! ```text
//! {
//!   "suite": "topo",
//!   "facts": {"pages": 1024, "zipf_skew": 0.99, "base_rounds": 512, ...},
//!   "points": [
//!     {"point": "topo=flat mode=base", "sim_ns": 15818680, "sim_ns_rerun": 15818680, "p50_ns": 3932, ...},
//!     ...
//!   ],
//!   "before": [
//!     {"point": "topo=flat mode=base", "sim_ns": 15900000, "sim_ns_rerun": 15900000, "p50_ns": 3940, ...}
//!   ]
//! }
//! ```
//!
//! * `suite` names the suite.
//! * `facts` are the run's named scalars: its probes (sync's read-side
//!   counts, topo's `base_rounds`/`huge_rounds`, store's overlap bytes),
//!   its configuration, and any bound the judgement compares against,
//!   written from the suite's own constant.
//! * `points` has one line per measured point: its key, a set of
//!   space-separated `name=value` pairs (`shards=4`, `transport=tcp/ip
//!   clients=100000`), then its columns. Every column is simulated
//!   output: `sim_ns` (simulated nanoseconds) and its seeded rerun
//!   `sim_ns_rerun` come first where the suite measures them, and the
//!   suite's own named columns follow.
//! * A column `<name>_rerun` records a second run of the same seeded
//!   point, and must equal `<name>` ([`Report::rerun_failures`], judged
//!   once for every suite: `sim_ns_rerun` for store, sync and topo,
//!   `fingerprint_rerun` for serve).
//! * `before` rows are written by the runner, not by the suite: the
//!   replaced report's own rows, verbatim, for every point the new run
//!   changed in any column or no longer produces ([`Report::replacing`]).
//!   They are history: nothing judges or compares them.
//!
//! Values are unsigned integers or decimals with a `.`. The parser
//! accepts exactly this layout (whitespace aside): a document cut
//! anywhere, even just before its final newline, is an error, and so is
//! a duplicated name. A column a judgement needs but a point lacks is an
//! error naming the point and the column.

use std::fmt;

/// The suffix of a column that records a seeded rerun of another.
const RERUN: &str = "_rerun";

/// `x` rounded to one decimal: the precision reports keep for rates.
pub fn tenths(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// A fact or column value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, simulated ns, fingerprints).
    Int(u64),
    /// A decimal (rates and ratios).
    Float(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            // Shortest round-trip digits, always with a `.` so the value
            // re-reads as a decimal.
            Value::Float(x) if x.fract() == 0.0 && x.is_finite() => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

/// A named row of values: one `points[]` or `before[]` line, or the
/// report's `facts` (key `facts`).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Space-separated `name=value` pairs naming the point in its suite.
    pub key: String,
    cols: Vec<(String, Value)>,
}

impl Point {
    /// A point with no columns yet.
    pub fn new(key: impl Into<String>) -> Self {
        Point {
            key: key.into(),
            cols: Vec::new(),
        }
    }

    /// This point with column `name` set to `value` (replaced in place
    /// if present, else appended).
    #[must_use]
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        let value = value.into();
        match self.cols.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.cols.push((name.to_string(), value)),
        }
        self
    }

    /// Column `name`.
    ///
    /// # Errors
    ///
    /// Names the point and the missing column.
    pub fn value(&self, name: &str) -> Result<Value, String> {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("\"{}\" has no \"{name}\"", self.key))
    }

    /// Column `name` as an integer.
    ///
    /// # Errors
    ///
    /// A missing column, or a decimal where an integer belongs.
    pub fn u64(&self, name: &str) -> Result<u64, String> {
        match self.value(name)? {
            Value::Int(v) => Ok(v),
            Value::Float(x) => Err(format!(
                "\"{}\": \"{name}\" is {x}, want an integer",
                self.key
            )),
        }
    }

    /// Column `name` as a decimal (an integer converts).
    ///
    /// # Errors
    ///
    /// A missing column.
    pub fn f64(&self, name: &str) -> Result<f64, String> {
        Ok(match self.value(name)? {
            Value::Int(v) => v as f64,
            Value::Float(x) => x,
        })
    }

    /// The value of `name` in the point's key.
    ///
    /// # Errors
    ///
    /// Names the point and the missing key part.
    pub fn key_part(&self, name: &str) -> Result<&str, String> {
        self.key
            .split(' ')
            .find_map(|part| part.strip_prefix(name)?.strip_prefix('='))
            .ok_or_else(|| format!("\"{}\" has no \"{name}=\" in its key", self.key))
    }

    /// The value of `name` in the point's key, as an integer.
    ///
    /// # Errors
    ///
    /// A missing key part, or one that is not an integer.
    pub fn key_u64(&self, name: &str) -> Result<u64, String> {
        let part = self.key_part(name)?;
        part.parse()
            .map_err(|_| format!("\"{}\": {name}={part} is not an integer", self.key))
    }

    /// `"name": value, ...`, the columns as written.
    fn columns_json(&self) -> String {
        let cols: Vec<String> = self
            .cols
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        cols.join(", ")
    }

    /// Each column whose value here differs from `committed`'s, or that
    /// only one of the two has, naming the row, the column and both
    /// values.
    fn mismatches(&self, committed: &Point) -> Vec<String> {
        let show = |v: Option<Value>| v.map_or_else(|| "absent".to_string(), |v| v.to_string());
        let only_committed = committed
            .cols
            .iter()
            .filter(|(n, _)| self.value(n).is_err());
        self.cols
            .iter()
            .chain(only_committed)
            .filter_map(|(name, _)| {
                let (fresh, was) = (self.value(name).ok(), committed.value(name).ok());
                (fresh != was).then(|| {
                    let (fresh, was) = (show(fresh), show(was));
                    format!("\"{}\": {name} is {fresh} fresh, {was} committed", self.key)
                })
            })
            .collect()
    }
}

/// The one-line JSON object a point is written as.
impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"point\": \"{}\"", self.key)?;
        for (n, v) in &self.cols {
            write!(f, ", \"{n}\": {v}")?;
        }
        write!(f, "}}")
    }
}

/// One suite's report (see the module doc for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The suite's name on the command line.
    pub suite: String,
    /// Named scalars: probes, configuration and written bounds.
    pub facts: Point,
    /// Every measured point, in run order.
    pub points: Vec<Point>,
    /// The replaced report's rows of the points this one changed or
    /// dropped ([`Report::replacing`]).
    pub before: Vec<Point>,
}

impl Report {
    /// An empty report of `suite`.
    pub fn new(suite: &str) -> Self {
        Report {
            suite: suite.to_string(),
            facts: Point::new("facts"),
            points: Vec::new(),
            before: Vec::new(),
        }
    }

    /// This report with fact `name` set to `value`.
    #[must_use]
    pub fn fact(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.facts = self.facts.with(name, value);
        self
    }

    /// The point whose key is `key`.
    pub fn point(&self, key: &str) -> Option<&Point> {
        self.points.iter().find(|p| p.key == key)
    }

    /// Render the report in the schema's layout.
    pub fn to_json(&self) -> String {
        fn rows(out: &mut String, rows: &[Point]) {
            if rows.is_empty() {
                out.push_str("[]");
                return;
            }
            let lines: Vec<String> = rows.iter().map(|p| format!("    {p}")).collect();
            out.push_str(&format!("[\n{}\n  ]", lines.join(",\n")));
        }
        let mut out = format!(
            "{{\n  \"suite\": \"{}\",\n  \"facts\": {{{}}},\n  \"points\": ",
            self.suite,
            self.facts.columns_json()
        );
        rows(&mut out, &self.points);
        out.push_str(",\n  \"before\": ");
        rows(&mut out, &self.before);
        out.push_str("\n}\n");
        out
    }

    /// Re-read a report written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Names the byte offset and what was expected there: a missing or
    /// misplaced field, a malformed value, a duplicated name, or a
    /// document cut short or carrying anything after its closing brace
    /// but one newline.
    pub fn parse(json: &str) -> Result<Report, String> {
        let mut p = Parser { s: json, at: 0 };
        p.eat("{")?;
        p.name("suite")?;
        let suite = p.string()?;
        p.eat(",")?;
        p.name("facts")?;
        p.eat("{")?;
        let mut facts = Point::new("facts");
        p.columns(&mut facts, "}")?;
        p.eat(",")?;
        p.name("points")?;
        let points = p.rows()?;
        p.eat(",")?;
        p.name("before")?;
        let before = p.rows()?;
        p.eat("}")?;
        match &json[p.at..] {
            "\n" => Ok(Report {
                suite,
                facts,
                points,
                before,
            }),
            rest => Err(format!(
                "{rest:?} after the closing brace, want one newline"
            )),
        }
    }

    /// Seeded-rerun parity: every `<name>_rerun` column equals `<name>`
    /// at its point.
    pub fn rerun_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for p in &self.points {
            for (name, rerun) in &p.cols {
                let Some(first) = name.strip_suffix(RERUN) else {
                    continue;
                };
                match p.value(first) {
                    Ok(v) if v == *rerun => {}
                    Ok(v) => failures.push(format!(
                        "\"{}\": seeded rerun did not reproduce {first} ({v} vs {rerun})",
                        p.key
                    )),
                    Err(e) => failures.push(e),
                }
            }
        }
        failures
    }

    /// This report as the replacement of `previous`: its `before[]`
    /// rows are `previous`'s own rows, verbatim, for every point this
    /// report changed in any column or no longer has.
    #[must_use]
    pub fn replacing(mut self, previous: &Report) -> Self {
        self.before = previous
            .points
            .iter()
            .filter(|was| self.point(&was.key) != Some(was))
            .cloned()
            .collect();
        self
    }

    /// Every way this fresh report's facts and points differ from
    /// `committed`'s (`before[]` is history and is not compared): a
    /// column whose values differ or that one side lacks, naming the
    /// row, the column and both values; a point only one side has, with
    /// its whole row; or, all else equal, rows in another order.
    pub fn mismatches(&self, committed: &Report) -> Vec<String> {
        if self.suite != committed.suite {
            return vec![format!(
                "the committed report is of suite {:?}",
                committed.suite
            )];
        }
        let mut found = self.facts.mismatches(&committed.facts);
        for fresh in &self.points {
            match committed.point(&fresh.key) {
                Some(was) => found.extend(fresh.mismatches(was)),
                None => found.push(format!(
                    "\"{}\": produced fresh, absent from the committed report: {fresh}",
                    fresh.key
                )),
            }
        }
        for was in &committed.points {
            if self.point(&was.key).is_none() {
                found.push(format!(
                    "\"{}\": committed, not produced fresh: {was}",
                    was.key
                ));
            }
        }
        if found.is_empty() && (self.facts != committed.facts || self.points != committed.points) {
            found.push("the same facts and points, in another order".into());
        }
        found
    }
}

/// A cursor over a report being parsed.
struct Parser<'a> {
    s: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn error(&self, want: &str) -> String {
        if self.at >= self.s.len() {
            format!("report cut short at byte {}, want {want}", self.at)
        } else {
            format!("byte {}: want {want}", self.at)
        }
    }

    fn rest(&mut self) -> &str {
        let trimmed = self.s[self.at..].trim_start_matches([' ', '\n']);
        self.at = self.s.len() - trimmed.len();
        trimmed
    }

    /// Consume `token` after any whitespace.
    fn eat(&mut self, token: &str) -> Result<(), String> {
        if self.rest().starts_with(token) {
            self.at += token.len();
            Ok(())
        } else {
            Err(self.error(&format!("{token:?}")))
        }
    }

    /// Consume `token` if it is next.
    fn try_eat(&mut self, token: &str) -> bool {
        self.eat(token).is_ok()
    }

    /// A string without escapes.
    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let len = self.s[self.at..]
            .find(['"', '\\', '\n'])
            .filter(|&i| self.s[self.at + i..].starts_with('"'))
            .ok_or_else(|| self.error("a closing quote"))?;
        let out = self.s[self.at..self.at + len].to_string();
        self.at += len + 1;
        Ok(out)
    }

    /// `"want":`.
    fn name(&mut self, want: &str) -> Result<(), String> {
        let at = self.at;
        if self.string().ok().as_deref() != Some(want) {
            self.at = at;
            return Err(self.error(&format!("\"{want}\"")));
        }
        self.eat(":")
    }

    /// Digits, optionally `.` and more digits.
    fn number(&mut self) -> Result<Value, String> {
        let rest = self.rest();
        let digits = |s: &str| s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        let int = digits(rest);
        let frac = match rest[int..].strip_prefix('.') {
            Some(tail) => 1 + digits(tail),
            None => 0,
        };
        let token = &rest[..int + frac];
        let value = match frac {
            _ if int == 0 => None,
            0 => token.parse().map(Value::Int).ok(),
            1 => None,
            _ => token.parse().map(Value::Float).ok(),
        };
        let len = token.len();
        let value = value.ok_or_else(|| self.error("a number"))?;
        self.at += len;
        Ok(value)
    }

    /// `"name": number` pairs up to `close`, into `row`.
    fn columns(&mut self, row: &mut Point, close: &str) -> Result<(), String> {
        if self.try_eat(close) {
            return Ok(());
        }
        loop {
            let at = self.at;
            let name = self.string()?;
            self.eat(":")?;
            if row.value(&name).is_ok() {
                self.at = at;
                return Err(self.error(&format!("no second \"{name}\" in \"{}\"", row.key)));
            }
            let value = self.number()?;
            row.cols.push((name, value));
            if self.try_eat(close) {
                return Ok(());
            }
            self.eat(",")?;
        }
    }

    /// `[]` or `[{"point": "key", columns...}, ...]`.
    fn rows(&mut self) -> Result<Vec<Point>, String> {
        self.eat("[")?;
        let mut rows = Vec::new();
        if self.try_eat("]") {
            return Ok(rows);
        }
        loop {
            self.eat("{")?;
            self.name("point")?;
            let mut row = Point::new(self.string()?);
            if !self.try_eat("}") {
                self.eat(",")?;
                self.columns(&mut row, "}")?;
            }
            rows.push(row);
            if self.try_eat("]") {
                return Ok(rows);
            }
            self.eat(",")?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("sample").fact("nodes", 8u64);
        r.points = vec![
            Point::new("impl=a threads=4")
                .with("sim_ns", 7u64)
                .with("sim_ns_rerun", 7u64)
                .with("ratio", 1.25),
            Point::new("impl=b threads=8").with("ratio", 0.5),
        ];
        r
    }

    #[test]
    fn field_extracts_quoted_and_bare_tokens() {
        let json = sample().to_json();
        assert!(
            json.contains(
                "{\"point\": \"impl=a threads=4\", \"sim_ns\": 7, \"sim_ns_rerun\": 7, \"ratio\": 1.25}"
            ),
            "{json}"
        );
        let r = Report::parse(&json).unwrap();
        let p = &r.points[0];
        assert_eq!(p.key_part("impl"), Ok("a"));
        assert_eq!(p.key_part("threads"), Ok("4"));
        assert_eq!(p.value("sim_ns"), Ok(Value::Int(7)));
        assert_eq!(p.value("ratio"), Ok(Value::Float(1.25)));
        assert!(p.key_part("absent").is_err());
        assert_eq!(Value::Float(20000.0).to_string(), "20000.0");
        assert_eq!(Value::Float(0.99).to_string(), "0.99");
    }

    #[test]
    fn typed_accessors_roundtrip_a_report() {
        let want = sample();
        let json = want.to_json();
        let got = Report::parse(&json).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.to_json(), json);
        assert_eq!(got.facts.u64("nodes"), Ok(8));
        assert_eq!(got.points[0].u64("sim_ns"), Ok(7));
        assert_eq!(got.points[0].f64("sim_ns"), Ok(7.0));
        assert_eq!(got.points[1].f64("ratio"), Ok(0.5));
        assert!(got.point("impl=b threads=8").is_some());
        assert_eq!(got.rerun_failures(), Vec::<String>::new());
    }

    #[test]
    fn failures_name_the_key() {
        let r = sample();
        let err = r.points[0].u64("missing").unwrap_err();
        assert_eq!(err, "\"impl=a threads=4\" has no \"missing\"");
        let err = r.points[0].u64("ratio").unwrap_err();
        assert!(err.contains("\"ratio\" is 1.25"), "{err}");
        assert!(r.facts.u64("rounds").unwrap_err().contains("\"rounds\""));
        let err = Report::parse("{}\n").unwrap_err();
        assert!(err.contains("\"suite\""), "{err}");
        let dup = sample()
            .to_json()
            .replace("\"ratio\": 0.5", "\"ratio\": 0.5, \"ratio\": 1");
        let err = Report::parse(&dup).unwrap_err();
        assert!(err.contains("second \"ratio\""), "{err}");
    }

    #[test]
    fn check_complete_wants_one_closed_object_and_a_newline() {
        let json = sample().to_json();
        assert!(Report::parse(&json).is_ok());
        let body = json.trim_end();
        for bad in [
            body.to_string(),
            format!("{body}\n\n"),
            format!("{body} \n"),
            json.replacen("]", "}", 1),
            json.replacen("\"sample\"", "\"sam\"ple\"", 1),
            json.replacen("1.25", "1.", 1),
            json.replacen("1.25", "-1.25", 1),
        ] {
            assert!(Report::parse(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn one_rerun_rule_and_one_before_rule() {
        let mut r = sample();
        r.points[0] = r.points[0].clone().with("sim_ns_rerun", 8u64);
        let failures = r.rerun_failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("did not reproduce sim_ns (7 vs 8)"));
        let lone = Point::new("k").with("fingerprint_rerun", 1u64);
        r.points = vec![lone];
        assert_eq!(r.rerun_failures(), ["\"k\" has no \"fingerprint\""]);

        // A rerun that changes one column replaces exactly that row,
        // whatever the column; a point it drops is replaced too.
        let old = sample();
        assert!(sample().replacing(&old).before.is_empty());
        let mut new = sample();
        new.points[1] = new.points[1].clone().with("ratio", 0.75);
        assert_eq!(new.replacing(&old).before, [old.points[1].clone()]);
        let mut fewer = sample();
        fewer.points.remove(0);
        assert_eq!(fewer.replacing(&old).before, [old.points[0].clone()]);
    }

    /// The four committed reports, by file name.
    const COMMITTED: [(&str, &str); 4] = [
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

    /// Whether `json` parses and passes the judgement of the suite whose
    /// committed report is `file`.
    fn passes(file: &str, json: &str) -> bool {
        let suite = crate::suite::Suite::ALL
            .into_iter()
            .find(|s| s.path() == file)
            .expect(file);
        Report::parse(json).is_ok_and(|report| suite.failures(&report).is_empty())
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

    /// The parser itself, not only the verdict: every strict prefix of
    /// each committed report is an `Err` (a panic fails the test too).
    #[test]
    fn every_strict_prefix_of_a_committed_report_fails_to_parse() {
        for (file, json) in COMMITTED {
            assert!(Report::parse(json).is_ok(), "{file} does not parse");
            let cut: Vec<usize> = (0..json.len())
                .filter(|&k| json.is_char_boundary(k) && Report::parse(&json[..k]).is_ok())
                .collect();
            assert!(cut.is_empty(), "{file} cut to {cut:?} bytes still parses");
        }
    }

    /// One schema: each committed report parses, names its own suite,
    /// and writes back byte for byte.
    #[test]
    fn every_committed_report_roundtrips_byte_for_byte() {
        for (file, json) in COMMITTED {
            let report = Report::parse(json).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(file, format!("BENCH_{}.json", report.suite));
            assert_eq!(report.to_json(), json, "{file}");
        }
    }
}
