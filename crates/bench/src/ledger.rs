//! Append-only JSON ledgers shared by the perf baseline
//! (`bench_baseline` → `BENCH_engine.json`), the conformance harness
//! (`harness` → `QUALITY_engine.json`, `DEGRADATION_engine.json`,
//! `CHURN_engine.json`, `SERVICE_engine.json`) and `load_gen`.
//!
//! All five use the same storage convention: a checked-in **JSON
//! array of records** that successive PRs *append* to, leaving a
//! trajectory that CI and reviewers diff instead of re-deriving numbers.
//! This module owns the append mechanics, a std-only JSON reader, and
//! the schema table: one row per record shape with its keys (older rows
//! carry fewer, listed as optional), the rules each record obeys, and
//! what the shape's records must cover in their ledger. [`append_to_file`]
//! checks every record it writes against it; [`check_ledger`] checks files.

use std::fmt::Write as _;

/// Appends `records` (each one rendered JSON value) to the JSON array in
/// `existing`, returning the new file contents. Creates the array if
/// `existing` is blank and wraps a legacy single-object file (the PR 3
/// `BENCH_engine.json` schema) as its first entry.
///
/// # Panics
/// Panics if `existing` is not a well-formed JSON array or object — a
/// truncated or corrupt file. Refusing to wrap garbage beats a confusing
/// parse error at the consumer.
pub fn append_records(existing: &str, records: &[String]) -> String {
    append_records_from(existing, records, "ledger")
}

/// [`append_records`] with a named source (the file path, for
/// [`append_to_file`]) so the corrupt-ledger panic says which file to
/// fix or delete.
fn append_records_from(existing: &str, records: &[String], source: &str) -> String {
    if let Err(e) = parse_ledger(existing, source) {
        panic!("{e}: the ledger holds neither a JSON array nor an object; fix or delete it");
    }
    let new_block = records.join(",\n");
    // The existing records keep their bytes; a legacy object is its own body.
    let trimmed = existing.trim();
    let body = match trimmed.strip_prefix('[').and_then(|a| a.strip_suffix(']')) {
        Some(array) => array.trim(),
        None => trimmed,
    };
    if body.is_empty() {
        format!("[\n{new_block}\n]\n")
    } else {
        format!("[\n{body},\n{new_block}\n]\n")
    }
}

/// Reads the ledger at `path` (missing file = empty ledger), appends
/// `records`, and writes it back. Returns the full new contents.
///
/// # Panics
/// Panics before writing if the schema table rejects one of `records`,
/// and on a corrupt existing file (see [`append_records`]) or an
/// unwritable `path`.
pub fn append_to_file(path: &str, records: &[String]) -> String {
    for (i, record) in records.iter().enumerate() {
        if let Err(e) = check_record(record) {
            panic!("refusing to append record {i} to {path}: {e}");
        }
    }
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let json = append_records_from(&existing, records, path);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write ledger {path}: {e}"));
    json
}

/// The top-level records of a ledger, each trimmed, in file order: the
/// inverse of [`append_records`] up to outer whitespace. A blank ledger
/// has none, and a legacy single-object file is its one record.
///
/// # Panics
/// Panics, naming `source` and the byte offset, if `contents` is not a
/// well-formed JSON array or object.
pub fn records<'a>(contents: &'a str, source: &str) -> Vec<&'a str> {
    let records = parse_ledger(contents, source).unwrap_or_else(|e| panic!("{e}"));
    records.into_iter().map(|(text, _)| text).collect()
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

/// A parsed JSON value. Numbers keep their source text, so integers
/// above 2^53 (`load_gen`'s `final_fingerprint`) read back exactly.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value at a dotted `path` of object keys. Below a `null`, which
    /// stands for an absent sub-object, every path reads as `null`.
    fn get(&self, path: &str) -> Option<&Json> {
        static NULL: Json = Json::Null;
        path.split('.').try_fold(self, |v, key| match v {
            Json::Null => Some(&NULL),
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    /// The text of the scalar at `path`: a string's contents, a number
    /// as written, `true`, `false` or `null`.
    fn text(&self, path: &str) -> Option<&str> {
        match self.get(path)? {
            Json::Str(s) | Json::Num(s) => Some(s),
            Json::Bool(b) => Some(if *b { "true" } else { "false" }),
            Json::Null => Some("null"),
            Json::Arr(_) | Json::Obj(_) => None,
        }
    }

    /// The number at `path`, or NaN, which fails every comparison.
    fn num(&self, path: &str) -> f64 {
        self.get(path).map_or(f64::NAN, Json::number)
    }

    fn number(&self) -> f64 {
        match self {
            Json::Num(s) => s.parse().unwrap_or(f64::NAN),
            _ => f64::NAN,
        }
    }

    fn is(&self, path: &str, text: &str) -> bool {
        self.text(path) == Some(text)
    }

    /// `a ≤ b`, with slack for the harness's six-decimal ratios.
    fn le(&self, a: &str, b: &str) -> bool {
        self.num(a) <= self.num(b) + 1e-9
    }

    /// Whether every space-separated path holds `true`.
    fn all_true(&self, paths: &str) -> bool {
        let mut paths = paths.split(' ');
        paths.all(|p| self.get(p) == Some(&Json::Bool(true)))
    }

    /// Whether every space-separated path holds an unsigned integer.
    fn counts(&self, paths: &str) -> bool {
        let mut paths = paths.split(' ');
        paths.all(|p| self.get(p).is_some_and(Json::is_count))
    }

    fn is_count(&self) -> bool {
        matches!(self, Json::Num(s) if s.bytes().all(|b| b.is_ascii_digit()))
    }

    /// The values of the object at `path`.
    fn members(&self, path: &str) -> impl Iterator<Item = &Json> {
        let members = match self.get(path) {
            Some(Json::Obj(members)) => &members[..],
            _ => &[],
        };
        members.iter().map(|(_, v)| v)
    }
}

/// Parses one JSON document; errors read `source: what at byte N`.
fn parse(text: &str, source: &str) -> Result<Json, String> {
    let mut p = Parser { text, at: 0 };
    let value = p.value().and_then(|v| p.end().map(|()| v));
    value.map_err(|what| format!("{source}: {what} at byte {}", p.at))
}

/// The top-level records of a ledger, each with its trimmed text.
fn parse_ledger<'a>(text: &'a str, source: &str) -> Result<Vec<(&'a str, Json)>, String> {
    let mut p = Parser { text, at: 0 };
    let records = match p.peek() {
        None => Ok(Vec::new()),
        Some(b'[') => p.array(),
        Some(b'{') => p.value().map(|v| vec![(text.trim(), v)]),
        Some(_) => Err("expected a JSON array or object"),
    };
    let records = records.and_then(|r| p.end().map(|()| r));
    records.map_err(|what| format!("{source}: {what} at byte {}", p.at))
}

type Res<T> = Result<T, &'static str>;

/// A recursive-descent JSON scanner over `text`, at byte `at`.
struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Parser<'a> {
    /// The next byte after whitespace, with the cursor on it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        bytes.get(self.at).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.at += usize::from(hit);
        hit
    }

    fn end(&mut self) -> Res<()> {
        self.peek().map_or(Ok(()), |_| Err("trailing characters"))
    }

    fn char(&mut self) -> Res<char> {
        let c = self.text[self.at..].chars().next();
        self.at += c.map_or(0, char::len_utf8);
        c.ok_or("unterminated string")
    }

    fn value(&mut self) -> Res<Json> {
        let first = self.peek().ok_or("unexpected end of input")?;
        let rest = &self.text[self.at..];
        match first {
            b'{' => {
                let members = self.items(b'}', |p| {
                    let key = p.string()?;
                    if !p.eat(b':') {
                        return Err("expected ':'");
                    }
                    Ok((key, p.value()?))
                });
                members.map(Json::Obj)
            }
            b'[' => Ok(Json::Arr(self.array()?.into_iter().map(|e| e.1).collect())),
            b'"' => self.string().map(Json::Str),
            b'-' | b'0'..=b'9' => {
                let len = rest.bytes().take_while(|b| b"+-.eE0123456789".contains(b));
                let num = &rest[..len.count()];
                num.parse::<f64>().map_err(|_| "bad number")?;
                self.at += num.len();
                Ok(Json::Num(num.to_string()))
            }
            _ => {
                let words = [("true", Json::Bool(true)), ("false", Json::Bool(false))];
                let mut words = words.into_iter().chain([("null", Json::Null)]);
                let (word, value) = (words.find(|(word, _)| rest.starts_with(word)))
                    .ok_or("unexpected character")?;
                self.at += word.len();
                Ok(value)
            }
        }
    }

    /// The comma-separated elements up to `close`, each read by `item`.
    fn items<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        self.at += 1;
        let mut items = Vec::new();
        let mut more = !self.eat(close);
        while more {
            items.push(item(self)?);
            more = !self.eat(close);
            if more && !self.eat(b',') {
                return Err("expected ',' or a closing bracket");
            }
        }
        Ok(items)
    }

    /// The elements of the array at the cursor, each with its text.
    fn array(&mut self) -> Res<Vec<(&'a str, Json)>> {
        let text = self.text;
        self.items(b']', |p| {
            p.peek();
            let start = p.at;
            let value = p.value()?;
            Ok((&text[start..p.at], value))
        })
    }

    /// The string at the cursor, escapes decoded. The producers write no
    /// `\u` escapes, so the surrogate pairs of those above U+FFFF are
    /// refused rather than joined.
    fn string(&mut self) -> Res<String> {
        if !self.eat(b'"') {
            return Err("expected a string");
        }
        let mut out = String::new();
        loop {
            out.push(match self.char()? {
                '"' => return Ok(out),
                '\\' => match self.char()? {
                    e @ ('"' | '\\' | '/') => e,
                    'b' => '\u{8}',
                    'f' => '\u{c}',
                    'n' => '\n',
                    'r' => '\r',
                    't' => '\t',
                    'u' => char::from_u32(self.hex4()?).ok_or("surrogate \\u escape")?,
                    _ => return Err("bad escape"),
                },
                c if c < ' ' => return Err("control character in string"),
                c => c,
            });
        }
    }

    fn hex4(&mut self) -> Res<u32> {
        let hex = self.text.get(self.at..self.at + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        self.at += 4;
        let unit = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
        unit.ok_or("bad \\u escape")
    }
}

/// A per-record rule: what it demands, and the predicate checking it.
type Rule = (&'static str, fn(&Json) -> bool);

/// One record shape: a row of the schema table.
struct Shape {
    /// The `path=text` pairs (`*` ends a prefix) that pick out the shape's
    /// records, exactly one shape per record; also its name in errors.
    name: &'static str,
    /// The checked-in ledger its records live in.
    ledger: &'static str,
    /// Whitespace-separated dotted key paths, each required unless it
    /// ends in `?`. A record carries no key outside the list.
    keys: &'static str,
    /// What every record obeys.
    rules: &'static [Rule],
    /// The fewest records of the shape its ledger holds.
    min_records: usize,
    /// `(paths, values)`: the shape's records take each `/`-joined value
    /// at the `/`-joined paths.
    covers: &'static [(&'static str, &'static str)],
}

impl Shape {
    fn tags(&self, r: &Json) -> bool {
        self.name.split(' ').all(|tag| {
            let (path, want) = tag.split_once('=').unwrap_or((tag, ""));
            let have = r.text(path).unwrap_or("");
            have == want || want.strip_suffix('*').is_some_and(|p| have.starts_with(p))
        })
    }

    /// Every key path, and whether it is optional.
    fn paths(&self) -> impl Iterator<Item = (&'static str, bool)> {
        let paths = self.keys.split_whitespace();
        paths.map(|p| p.strip_suffix('?').map_or((p, false), |p| (p, true)))
    }
}

const FAMILIES: &str = "gnp watts_strogatz power_law_cluster complete path star";
const SWEPT: &str = "luby_mis ghaffari_mis grouped_mwm maxis_alg2";
const CHURN_KEYS: &str = "suite kind protocol axis intensity dose completed safety_ok \
    rounds round_cap graph.family graph.param graph.seed adversary.edge_flip_prob \
    adversary.node_join_prob adversary.node_leave_prob adversary.seed counters.edges_flipped \
    counters.nodes_joined counters.nodes_left counters.adversary_dropped repair.deltas \
    repair.repaired repair.repair_rounds repair.recompute_rounds repair.repair_cheaper \
    repair.fingerprint_ok";

const POSITIVE_MEDIANS: Rule = ("medians are positive integers", |r| {
    r.members("median_ns")
        .all(|v| v.is_count() && v.number() > 0.0)
});
const COUNTERS: Rule = ("rounds ≤ round_cap, counters are counts", |r| {
    let counts = r.counts("rounds round_cap") && r.members("counters").all(Json::is_count);
    counts && r.le("rounds", "round_cap")
});
const CHURN_OK: Rule = ("fingerprint_ok, repair counts", |r| {
    let repair = "repair.deltas repair.repaired repair.repair_rounds repair.recompute_rounds";
    r.all_true("repair.fingerprint_ok") && r.counts(repair)
});

/// The schema table.
static SHAPES: &[Shape] = &[
    Shape {
        name: "bench=engine_gnp_luby",
        ledger: "BENCH_engine.json",
        keys: "bench protocol samples graph.family graph.n graph.p graph.seed graph.edges \
            median_ns.build median_ns.run median_ns.run_parallel \
            threads? host_threads? plane_bytes?",
        rules: &[
            POSITIVE_MEDIANS,
            ("host_threads rows carry plane_bytes > 0", |r| {
                r.get("host_threads").is_none() || r.num("plane_bytes") > 0.0
            }),
            ("one worker: run_parallel ≤ 1.25 × run", |r| {
                let (run, par) = (r.num("median_ns.run"), r.num("median_ns.run_parallel"));
                !r.is("threads", "1") || par <= 1.25 * run
            }),
            ("n ≥ 1M on 1 < threads ≤ host_threads: no slower", |r| {
                let gated = 1.0 < r.num("threads") && r.le("threads", "host_threads");
                let faster = r.le("median_ns.run_parallel", "median_ns.run");
                !(gated && r.num("graph.n") >= 1e6) || faster
            }),
        ],
        min_records: 4,
        covers: &[("graph.n/threads", "1000/1 10000/1 100000/1 1000000/1")],
    },
    Shape {
        name: "bench=protocol_gnp_*",
        ledger: "BENCH_engine.json",
        keys: "bench protocol samples graph.family graph.n graph.p graph.seed graph.edges \
            threads host_threads median_ns.total",
        rules: &[POSITIVE_MEDIANS],
        min_records: 0,
        covers: &[],
    },
    Shape {
        name: "bench=churn_repair_*",
        ledger: "BENCH_engine.json",
        keys: "bench protocol samples graph.family graph.n graph.p graph.seed graph.edges \
            k_flips threads host_threads rounds.repair rounds.recompute \
            median_ns.repair median_ns.recompute",
        rules: &[
            POSITIVE_MEDIANS,
            ("repair takes fewer rounds", |r| {
                r.num("rounds.repair") < r.num("rounds.recompute")
            }),
        ],
        min_records: 0,
        covers: &[],
    },
    Shape {
        name: "suite=conformance",
        ledger: "QUALITY_engine.json",
        keys: "suite protocol weights seeds valid rounds_max round_budget ratio_min \
            ratio_bound within_bound oracle adversary graph.family graph.param graph.seed \
            graph.n graph.edges graph.max_degree",
        rules: &[
            ("valid, within_bound", |r| r.all_true("valid within_bound")),
            ("rounds_max ≤ round_budget, both counts", |r| {
                r.counts("rounds_max round_budget") && r.le("rounds_max", "round_budget")
            }),
            ("0 ≤ ratio_bound ≤ ratio_min", |r| {
                r.num("ratio_bound") >= 0.0 && r.le("ratio_bound", "ratio_min")
            }),
        ],
        min_records: 96,
        covers: &[
            ("graph.family", FAMILIES),
            ("weights", "unit uniform zipf adversarial"),
            ("protocol", SWEPT),
            ("protocol", "maxis_alg3 fast_mwm_2eps fast_mcm_2eps"),
            ("protocol", "coloring_delta_plus_one"),
        ],
    },
    Shape {
        name: "suite=fault",
        ledger: "QUALITY_engine.json",
        keys: "suite protocol completed decided_fraction safety_ok adversary_dropped \
            crashed_nodes graph.family graph.param graph.seed adversary.drop_prob \
            adversary.crash_prob adversary.seed adversary.dup_prob? adversary.reorder_prob? \
            adversary.corrupt_prob? adversary.restart_after?",
        rules: &[("the adversary drops or crashes", |r| {
            r.num("adversary.drop_prob") > 0.0 || r.num("adversary.crash_prob") > 0.0
        })],
        min_records: 18,
        covers: &[],
    },
    Shape {
        name: "suite=degradation",
        ledger: "DEGRADATION_engine.json",
        keys: "suite protocol axis intensity dose completed decided_fraction safety_ok ratio \
            ratio_bound bound_ok rounds round_cap graph.family graph.param graph.seed \
            adversary.drop_prob adversary.dup_prob adversary.reorder_prob \
            adversary.corrupt_prob adversary.crash_prob adversary.restart_after \
            adversary.seed scheduler.dist scheduler.max_delay scheduler.seed \
            counters.delayed counters.duplicated counters.corrupted \
            counters.adversary_dropped counters.crashed counters.restarted",
        rules: &[
            COUNTERS,
            ("0 ≤ decided_fraction ≤ 1", |r| {
                (0.0..=1.0).contains(&r.num("decided_fraction"))
            }),
            ("delay rows alone: a scheduler, no adversary, delays", |r| {
                let delay = r.is("axis", "delay");
                let delays = r.num("counters.delayed") > 0.0 || !delay;
                delay == r.is("adversary", "null") && delay != r.is("scheduler", "null") && delays
            }),
            ("restarts after 3 rounds, of crashed nodes", |r| {
                let revived = r.le("counters.restarted", "counters.crashed");
                !r.is("axis", "restart") || r.is("adversary.restart_after", "3") && revived
            }),
            ("grouped_mwm stays safe", |r| {
                !r.is("protocol", "grouped_mwm") || r.all_true("safety_ok")
            }),
        ],
        min_records: 4 * 6 * 3 * 2,
        covers: &[
            ("axis", "drop delay duplicate corrupt reorder restart"),
            ("protocol", SWEPT),
            ("intensity", "low medium high"),
        ],
    },
    Shape {
        name: "suite=churn kind=grid",
        ledger: "CHURN_engine.json",
        keys: CHURN_KEYS,
        rules: &[
            COUNTERS,
            CHURN_OK,
            ("it churns, flips and leaves only if asked", |r| {
                let on = |knob| r.num(&format!("adversary.{knob}_prob")) > 0.0;
                let flips = on("edge_flip") || r.is("counters.edges_flipped", "0");
                let leaves = on("node_leave") || r.is("counters.nodes_left", "0");
                (on("edge_flip") || on("node_join") || on("node_leave")) && flips && leaves
            }),
        ],
        min_records: 4 * 3 * 3 * 2,
        covers: &[
            ("axis", "flip join leave"),
            ("protocol", SWEPT),
            ("intensity", "low medium high"),
        ],
    },
    Shape {
        name: "suite=churn kind=acceptance",
        ledger: "CHURN_engine.json",
        keys: CHURN_KEYS,
        rules: &[
            COUNTERS,
            CHURN_OK,
            ("one mutation, no adversary", |r| r.is("adversary", "null")),
            ("completed, safety_ok, repair_cheaper", |r| {
                r.all_true("completed safety_ok repair.repair_cheaper")
            }),
            ("repair_rounds < recompute_rounds", |r| {
                r.num("repair.repair_rounds") < r.num("repair.recompute_rounds")
            }),
        ],
        min_records: 6,
        covers: &[("axis", "repair"), ("intensity", "k=16 k=64 k=256")],
    },
    Shape {
        name: "suite=service bench=load_gen",
        ledger: "SERVICE_engine.json",
        keys: "suite bench shards requests final_fingerprint throughput_rps cache.hits \
            cache.misses graph.family graph.n graph.p graph.seed graph.edges latency_ns.p50 \
            latency_ns.p95 latency_ns.p99 responses.matching responses.mis \
            responses.independent responses.mate responses.applied responses.fingerprint \
            responses.stats responses.overloaded responses.error \
            max_batch? batches_served? max_batch_seen?",
        rules: &[
            ("no error responses", |r| r.is("responses.error", "0")),
            ("one response per request", |r| {
                r.members("responses").map(Json::number).sum::<f64>() == r.num("requests")
            }),
            ("0 < p50 ≤ p95 ≤ p99", |r| {
                let (p50, p95, p99) = ("latency_ns.p50", "latency_ns.p95", "latency_ns.p99");
                r.num(p50) > 0.0 && r.le(p50, p95) && r.le(p95, p99)
            }),
            ("throughput > 0", |r| r.num("throughput_rps") > 0.0),
            ("older, batched rows: batches ≤ max_batch", |r| {
                let keys = ["max_batch", "batches_served", "max_batch_seen"];
                let batched = r.num("batches_served") >= 1.0 && r.le("max_batch_seen", "max_batch");
                keys.iter().all(|k| r.get(k).is_none()) || batched
            }),
            ("counts are integers", |r| {
                r.counts("requests final_fingerprint")
            }),
        ],
        min_records: 4,
        covers: &[("shards", "1 4")],
    },
    Shape {
        name: "suite=service kind=oracle",
        ledger: "SERVICE_engine.json",
        keys: "suite kind weights shards seeds mis_ok queries_consistent requests \
            matching.ok matching.ratio_min matching.ratio_bound matching.oracle \
            repair.deltas repair.rounds repair.ok cache.roundtrip_ok cache.hits cache.misses \
            graph.family graph.param graph.seed graph.n graph.edges",
        rules: &[
            ("served answers are valid and within the ratio bound", |r| {
                let ok = "matching.ok mis_ok queries_consistent repair.ok cache.roundtrip_ok";
                r.all_true(ok) && r.le("matching.ratio_bound", "matching.ratio_min")
            }),
            ("the probe applies ≥ 2 deltas and hits the cache", |r| {
                r.num("repair.deltas") >= 2.0 && r.num("cache.hits") >= 1.0
            }),
        ],
        min_records: 36,
        covers: &[
            ("graph.family", FAMILIES),
            ("weights", "unit uniform adversarial"),
            ("shards", "1 3"),
        ],
    },
];

/// The first key path in `value` below `prefix` that `shape` leaves out.
fn unlisted(shape: &Shape, value: &Json, prefix: &str) -> Option<String> {
    let Json::Obj(members) = value else {
        return None;
    };
    members.iter().find_map(|(key, v)| {
        let (path, below) = (format!("{prefix}{key}"), format!("{prefix}{key}."));
        let mut listed = shape.paths();
        if listed.any(|(p, _)| p == path || p.starts_with(&below)) {
            unlisted(shape, v, &below)
        } else {
            Some(path)
        }
    })
}

/// Checks one rendered record: it parses, matches exactly one shape of the
/// table, has its required keys and no others, and obeys its rules.
///
/// # Errors
/// Says which of those fails.
pub fn check_record(text: &str) -> Result<&'static str, String> {
    check(&parse(text, "record")?).map(|i| SHAPES[i].name)
}

fn check(record: &Json) -> Result<usize, String> {
    let mut tagged = SHAPES.iter().enumerate().filter(|(_, s)| s.tags(record));
    let (Some((i, shape)), None) = (tagged.next(), tagged.next()) else {
        return Err("record matches no shape of the ledger schema, or several".to_string());
    };
    let mut required = shape.paths().filter(|(_, optional)| !optional);
    let why = if let Some((key, _)) = required.find(|(key, _)| record.get(key).is_none()) {
        format!("lacks key {key}")
    } else if let Some(key) = unlisted(shape, record, "") {
        format!("has unlisted key {key}")
    } else if let Some((rule, _)) = shape.rules.iter().find(|(_, ok)| !ok(record)) {
        format!("breaks the rule \"{rule}\"")
    } else {
        return Ok(i);
    };
    Err(format!("{} record {why}", shape.name))
}

/// Checks the checked-in ledger `name` holding `contents`: every record
/// passes [`check_record`] as a shape that lives in `name`, and each such
/// shape has its fewest records and its coverage.
///
/// # Errors
/// The first failure, naming the ledger and the record's index.
pub fn check_ledger(name: &str, contents: &str) -> Result<(), String> {
    let mut groups: Vec<Vec<Json>> = SHAPES.iter().map(|_| Vec::new()).collect();
    for (i, (_, record)) in parse_ledger(contents, name)?.into_iter().enumerate() {
        let shape = check(&record).map_err(|e| format!("{name} record {i}: {e}"))?;
        let s = &SHAPES[shape];
        if s.ledger != name {
            let why = format!("{} records belong in {}", s.name, s.ledger);
            return Err(format!("{name} record {i}: {why}"));
        }
        groups[shape].push(record);
    }
    for (shape, rows) in SHAPES.iter().zip(&groups).filter(|(s, _)| s.ledger == name) {
        let fail = |why: String| Err(format!("{name}: {} records {why}", shape.name));
        let (n, min) = (rows.len(), shape.min_records);
        if n < min {
            return fail(format!("number {n}, under {min}"));
        }
        for (paths, values) in shape.covers {
            let has = |v: &str| {
                let kv = paths.split('/').zip(v.split('/'));
                rows.iter().any(|r| kv.clone().all(|(p, t)| r.is(p, t)))
            };
            if let Some(v) = values.split(' ').find(|v| !has(v)) {
                return fail(format!("never have {paths} = {v}"));
            }
        }
    }
    Ok(())
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
        assert!(records("", "t").is_empty());
        assert!(records("[\n]\n", "t").is_empty());
        let a = json_object(&[("k", json_str("a, [b] {c} \"d\"")), ("n", "1".into())]);
        let b = json_object(&[("nested", json_object(&[("x", "[1, 2]".into())]))]);
        let ledger = append_records(
            &append_records("", std::slice::from_ref(&a)),
            &[b.clone(), a.clone()],
        );
        assert_eq!(records(&ledger, "t"), vec![a.trim(), b.trim(), a.trim()]);
        assert_eq!(records("{ \"legacy\": 1 }", "t"), vec!["{ \"legacy\": 1 }"]);
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
    #[should_panic(expected = "ledger: unterminated string at byte 18")]
    fn refuses_a_ledger_truncated_inside_a_string() {
        append_records("[ {\"a\": 1}, {\"tr ]", &["  {}".into()]);
    }

    #[test]
    #[should_panic(expected = "QUALITY.json: expected ',' or a closing bracket at byte 9")]
    fn records_refuse_an_unbalanced_brace() {
        records("[{\"a\": 1}}, {\"b\": 2}]", "QUALITY.json");
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

    #[test]
    fn integers_above_2_pow_53_read_back_exactly() {
        let r = parse("{\"fp\": 14287502856801627989, \"x\": -1e-3}", "t").unwrap();
        assert_eq!(r.text("fp"), Some("14287502856801627989"));
        assert_eq!(r.num("x"), -1e-3);
        assert!(parse("-", "t").is_err() && parse("1e", "t").is_err());
    }

    #[test]
    fn string_escapes_decode() {
        let s = parse(r#""q\" b\\ s\/ \b\f\n\r\t é\u00e9 😀""#, "t");
        assert_eq!(s, Ok(Json::Str("q\" b\\ s/ \u{8}\u{c}\n\r\t éé 😀".into())));
        for bad in [r#""\x""#, "\"a\nb\"", r#""\ud83d\ude00""#, r#""\u12""#] {
            assert!(parse(bad, "t").is_err(), "{bad}");
        }
    }

    #[test]
    fn nested_objects_read_by_path() {
        let r = parse(r#"{"a": {"b": [1, {}], "e": false}, "n": null}"#, "t").unwrap();
        let b = Json::Arr(vec![Json::Num("1".into()), Json::Obj(vec![])]);
        assert_eq!((r.get("a.b"), r.text("a.e")), (Some(&b), Some("false")));
        assert_eq!((r.get("a.x"), r.get("a.e.x")), (None, None));
        assert_eq!(r.get("n.x.y"), Some(&Json::Null));
    }

    #[test]
    fn load_gen_rows_carry_all_batch_keys_or_none() {
        let row = |batch: &str| {
            let fixed = r#""suite": "service", "bench": "load_gen", "shards": 1, "requests": 2,
                "final_fingerprint": 7, "throughput_rps": 1.5, "cache": {"hits": 0, "misses": 1},
                "graph": {"family": "gnp", "n": 2, "p": 1, "seed": 2, "edges": 1},
                "latency_ns": {"p50": 1, "p95": 2, "p99": 3}, "responses": {"matching": 1,
                "mis": 1, "independent": 0, "mate": 0, "applied": 0, "fingerprint": 0,
                "stats": 0, "overloaded": 0, "error": 0}"#;
            check_record(&format!("{{{batch}{fixed}}}"))
        };
        assert!(row("").is_ok());
        assert!(row(r#""max_batch": 16, "batches_served": 9, "max_batch_seen": 4, "#).is_ok());
        for bad in [
            r#""max_batch": 16, "#,
            r#""max_batch": 2, "max_batch_seen": 4, "#,
        ] {
            let err = row(bad).unwrap_err();
            assert!(err.contains("batches ≤ max_batch"), "{bad}: {err}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = |text| parse(text, "f").unwrap_err();
        assert_eq!(err("{\"a\": 1} x"), "f: trailing characters at byte 9");
        let ledger = parse_ledger("[{\"a\": 1}] ]", "f");
        assert_eq!(ledger.unwrap_err(), "f: trailing characters at byte 11");
    }
}
