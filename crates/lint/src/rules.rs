//! The rule engine: CONGEST-discipline and determinism rules over the
//! token streams produced by [`crate::lexer`].
//!
//! Every rule is grounded in a contract the workspace already enforces
//! dynamically (fingerprint pins, `run ≡ run_parallel` proptests, exact
//! integer bound checks); the rules make the contracts machine-checked
//! at the source level, before a test has to catch the regression.
//!
//! Violations can be suppressed per line with
//! `// lint:allow(<rule>): <justification>` on the offending line or
//! the line directly above; an empty justification is itself an error
//! ([`SUPPRESSION_HYGIENE`]).

use std::collections::BTreeMap;

use crate::lexer::{lex, LexError, Token, TokenKind};
use crate::walk::SourceFile;

/// Rule R1: no `std::collections::HashMap`/`HashSet` in deterministic
/// crates.
pub const NO_STD_HASH: &str = "no-std-hash";
/// Rule R2: no ambient nondeterminism (wall clocks, OS entropy,
/// environment reads) outside the tooling crates.
pub const NO_AMBIENT_NONDETERMINISM: &str = "no-ambient-nondeterminism";
/// Rule R3: protocol/engine randomness flows through `congest_sim::rng`
/// (`node_rng`/`phase_seed`/`mix4`/`coin`), never ad-hoc RNG
/// construction.
pub const SEEDED_RNG_ONLY: &str = "seeded-rng-only";
/// Rule R4: no floating point in oracle/bound-check modules.
pub const NO_FLOAT_IN_ORACLE: &str = "no-float-in-oracle";
/// Rule R5: no `unwrap`/`expect`/`panic!`/`unreachable!` (or
/// `todo!`/`unimplemented!`) inside `Protocol::round` bodies or the
/// engine round loop.
pub const NO_PANIC_IN_ROUND: &str = "no-panic-in-round";
/// Rule R6: every protocol message enum must be covered by the
/// generated `size_of` discipline test.
pub const MSG_SIZE_COVERAGE: &str = "msg-size-coverage";
/// Meta rule: suppression comments must name a known rule and carry a
/// non-empty justification. Not itself suppressible.
pub const SUPPRESSION_HYGIENE: &str = "suppression-hygiene";
/// Meta rule: the file must lex (unterminated comment/string/literal).
/// Not itself suppressible.
pub const LEX_ERROR: &str = "lex-error";

/// Where the generated message-size test lives, relative to the
/// workspace root.
pub const MSG_SIZE_TEST_PATH: &str = "tests/tests/msg_size.rs";

/// Static description of one rule, for `--list` output and docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule name, as used in `lint:allow(...)`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists, in terms of the workspace's contracts.
    pub rationale: &'static str,
}

/// All rules, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: NO_STD_HASH,
        summary: "no std HashMap/HashSet in deterministic crates",
        rationale: "randomized iteration order silently breaks the gnp-1000 FNV \
                    fingerprints that pin the engine bit-identical across refactors; \
                    use BTreeMap/BTreeSet or sorted vectors",
    },
    RuleInfo {
        name: NO_AMBIENT_NONDETERMINISM,
        summary: "no wall clocks, OS entropy, or env reads outside bench/harness",
        rationale: "every run must be a pure function of (graph, seed, config); \
                    Instant::now/SystemTime::now/thread_rng/env reads make replay \
                    and run ≡ run_parallel unverifiable",
    },
    RuleInfo {
        name: SEEDED_RNG_ONLY,
        summary: "protocol/engine randomness flows through congest_sim::rng helpers",
        rationale: "per-node streams derive from one master seed via \
                    node_rng/phase_seed, and fault coins via mix4/coin; ad-hoc RNG \
                    construction forks unpinned streams whose draws depend on call \
                    order",
    },
    RuleInfo {
        name: NO_FLOAT_IN_ORACLE,
        summary: "no f32/f64 in oracle/bound-check modules",
        rationale: "the paper's Δ-approximation and matching bounds are checked by \
                    exact integer arithmetic (w(S)·Δ ≥ OPT etc.); a float on that \
                    path turns a proof obligation into a rounding accident",
    },
    RuleInfo {
        name: NO_PANIC_IN_ROUND,
        summary: "no unwrap/expect/panic!/unreachable! in Protocol::round or the \
                  engine round loop",
        rationale: "under the fault adversary (drops, corruption, reordering, \
                    restarts) 'impossible' inbox states are reachable; round code \
                    must degrade, not abort the whole simulation",
    },
    RuleInfo {
        name: MSG_SIZE_COVERAGE,
        summary: "every protocol message enum appears in the generated size test",
        rationale: "message planes allocate one cell per directed edge; an enum \
                    variant that grows past the CONGEST word budget multiplies \
                    plane memory at n = 10^6 — tests/tests/msg_size.rs pins every \
                    enum's size (regenerate: congest-lint --emit-msg-size-test)",
    },
    RuleInfo {
        name: SUPPRESSION_HYGIENE,
        summary: "lint:allow must name a known rule and justify itself",
        rationale: "a suppression without a reason is a violation with better \
                    manners; the justification is the reviewable artifact",
    },
    RuleInfo {
        name: LEX_ERROR,
        summary: "source must lex cleanly",
        rationale: "an unlexable file cannot be analyzed, so it cannot be trusted",
    },
];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule name (one of the [`RULES`] names).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// `path:line: [rule] message` — the human output format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The engine source whose round-loop functions are in scope.
const ENGINE_FILE: &str = "crates/sim/src/engine.rs";

/// Engine-internal round-loop functions of [`ENGINE_FILE`] subject to
/// [`NO_PANIC_IN_ROUND`]: everything executed per round on the hot path
/// between `Engine::build` and `RunOutcome`. A unit test checks that each
/// is still defined there, so a rename cannot drop one silently.
const ENGINE_LOOP_FNS: &[&str] = &[
    "run",
    "run_parallel",
    "run_parallel_with",
    "run_sharded",
    "run_on",
    "runs_inline",
    "shard_runs",
    "compute",
    "deliver",
    "row",
    "info",
    "step",
    "step_all",
    "deliver_all",
    "deliver_node",
    "push",
    "flush",
    "merge",
    "add_to",
    "reorder_inboxes",
    "wipe",
    "depart",
    "reboot",
    "relist",
    "delivery_phase",
    "prefetch",
    "prefetch_ahead",
    "contains",
    "insert",
    "remove",
    "ids",
    "take_front",
    "runs",
    "count",
    "shards_mut",
];

/// Files (by trailing path component) treated as oracle/bound-check
/// modules inside deterministic crates, in addition to the whole
/// `exact` crate.
const ORACLE_FILES: &[&str] = &["verify.rs", "independent_set.rs", "matching.rs"];

/// The one module allowed to construct RNGs: the seeded-helper home.
const RNG_MODULE: &str = "crates/sim/src/rng.rs";

struct FileView<'a> {
    file: &'a SourceFile,
    tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    sig: Vec<usize>,
    /// Per-`sig`-position flag: inside `#[cfg(test)]` code (or a test
    /// file altogether).
    in_test: Vec<bool>,
}

impl<'a> FileView<'a> {
    /// Lexes `file` and marks its test code.
    fn new(file: &'a SourceFile) -> Result<Self, LexError> {
        let tokens = lex(&file.src)?;
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let in_test = vec![file.is_test_file; sig.len()];
        let mut view = FileView {
            file,
            tokens,
            sig,
            in_test,
        };
        if !file.is_test_file {
            mark_test_extents(&mut view);
        }
        Ok(view)
    }

    fn text(&self, k: usize) -> &'a str {
        match self.sig.get(k) {
            Some(&i) => self.tokens[i].text(&self.file.src),
            None => "",
        }
    }

    fn kind(&self, k: usize) -> Option<TokenKind> {
        self.sig.get(k).map(|&i| self.tokens[i].kind)
    }

    fn line(&self, k: usize) -> u32 {
        self.sig.get(k).map_or(0, |&i| self.tokens[i].line)
    }

    /// Whether the significant tokens at `k..` match `pat` textually.
    fn seq(&self, k: usize, pat: &[&str]) -> bool {
        pat.iter().enumerate().all(|(j, p)| self.text(k + j) == *p)
    }

    fn diag(&self, k: usize, rule: &'static str, message: String) -> Diagnostic {
        Diagnostic {
            file: self.file.rel_path.clone(),
            line: self.line(k),
            rule,
            message,
        }
    }
}

/// Marks `#[cfg(test)]` item extents in `in_test`.
fn mark_test_extents(view: &mut FileView<'_>) {
    let n = view.sig.len();
    let mut k = 0;
    while k < n {
        if view.seq(k, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            // Walk past the attribute (and any further attributes) to
            // the item; its extent ends at the matching close brace, or
            // at a top-level `;` for braceless items.
            let mut j = k + 7;
            let mut start = None;
            while j < n {
                match view.text(j) {
                    "{" => {
                        start = Some(j);
                        break;
                    }
                    ";" => break,
                    _ => j += 1,
                }
            }
            let end = match start {
                Some(open) => {
                    let mut depth = 1usize;
                    let mut m = open + 1;
                    while m < n && depth > 0 {
                        match view.text(m) {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    m
                }
                None => j + 1,
            };
            for flag in &mut view.in_test[k..end.min(n)] {
                *flag = true;
            }
            k = end;
        } else {
            k += 1;
        }
    }
}

/// A parsed, *justified* suppression comment.
struct Suppression {
    rules: Vec<String>,
    line: u32,
}

/// Extracts suppressions from comment tokens; malformed ones become
/// [`SUPPRESSION_HYGIENE`] diagnostics instead of suppressions.
fn collect_suppressions(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) -> Vec<Suppression> {
    let mut found = Vec::new();
    for tok in &view.tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = tok.text(&view.file.src);
        // Doc comments describing the suppression syntax are prose, not
        // suppressions; only plain `//`/`/*` comments count.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        if (text.starts_with("/**") && text != "/**/") || text.starts_with("/*!") {
            continue;
        }
        let Some(pos) = text.find("lint:allow(") else {
            continue;
        };
        let after = &text[pos + "lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            diags.push(Diagnostic {
                file: view.file.rel_path.clone(),
                line: tok.line,
                rule: SUPPRESSION_HYGIENE,
                message: "malformed suppression: missing `)` in `lint:allow(...)`".into(),
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut ok = !rules.is_empty();
        for rule in &rules {
            if !RULES.iter().any(|info| info.name == rule) {
                diags.push(Diagnostic {
                    file: view.file.rel_path.clone(),
                    line: tok.line,
                    rule: SUPPRESSION_HYGIENE,
                    message: format!("suppression names unknown rule `{rule}`"),
                });
                ok = false;
            }
            if rule == SUPPRESSION_HYGIENE || rule == LEX_ERROR {
                diags.push(Diagnostic {
                    file: view.file.rel_path.clone(),
                    line: tok.line,
                    rule: SUPPRESSION_HYGIENE,
                    message: format!("rule `{rule}` cannot be suppressed"),
                });
                ok = false;
            }
        }
        let tail = &after[close + 1..];
        let justification = tail
            .strip_prefix(':')
            .map(|j| j.trim_end_matches("*/").trim())
            .unwrap_or("");
        if justification.is_empty() {
            diags.push(Diagnostic {
                file: view.file.rel_path.clone(),
                line: tok.line,
                rule: SUPPRESSION_HYGIENE,
                message: "suppression must carry a justification: \
                          `// lint:allow(<rule>): <why>`"
                    .into(),
            });
            ok = false;
        }
        if ok {
            found.push(Suppression {
                rules,
                line: tok.line,
            });
        }
    }
    found
}

/// R1: std hash collections in deterministic crates.
fn rule_no_std_hash(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) {
    if !view.file.is_deterministic_unit() {
        return;
    }
    for k in 0..view.sig.len() {
        let t = view.text(k);
        if (t == "HashMap" || t == "HashSet") && view.kind(k) == Some(TokenKind::Ident) {
            diags.push(view.diag(
                k,
                NO_STD_HASH,
                format!(
                    "`{t}` has a randomized iteration order that breaks bit-identical \
                     replay; use `BTreeMap`/`BTreeSet` or a sorted Vec"
                ),
            ));
        }
    }
}

/// R2 pattern table: token sequence → what it reaches for.
const AMBIENT_PATTERNS: &[(&[&str], &str)] = &[
    (&["Instant", ":", ":", "now"], "the wall clock"),
    (&["SystemTime", ":", ":", "now"], "the wall clock"),
    (&["thread_rng"], "OS-entropy randomness"),
    (&["from_entropy"], "OS-entropy randomness"),
    (&["from_os_rng"], "OS-entropy randomness"),
    (&["OsRng"], "OS-entropy randomness"),
    (&["env", ":", ":", "var"], "the process environment"),
    (&["env", ":", ":", "vars"], "the process environment"),
    (&["env", ":", ":", "var_os"], "the process environment"),
    (&["env", ":", ":", "args"], "the process arguments"),
];

/// R2: ambient nondeterminism outside tooling crates.
fn rule_no_ambient(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) {
    if view.file.is_tooling_unit() {
        return;
    }
    for k in 0..view.sig.len() {
        for (pat, what) in AMBIENT_PATTERNS {
            if view.seq(k, pat) {
                diags.push(view.diag(
                    k,
                    NO_AMBIENT_NONDETERMINISM,
                    format!(
                        "`{}` reads {what}; runs must be pure in (graph, seed, config) \
                         — only bench/harness may observe the host",
                        pat.join("")
                    ),
                ));
            }
        }
    }
}

/// R3 pattern table: ad-hoc RNG construction entry points.
const RNG_CONSTRUCTION: &[&str] = &["seed_from_u64", "from_seed", "from_rng"];

/// R3: raw RNG construction in deterministic non-test code.
fn rule_seeded_rng_only(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) {
    if !view.file.is_deterministic_unit()
        || view.file.is_test_file
        || view.file.rel_path == RNG_MODULE
    {
        return;
    }
    for k in 0..view.sig.len() {
        if view.in_test[k] {
            continue;
        }
        let t = view.text(k);
        if RNG_CONSTRUCTION.contains(&t) && view.kind(k) == Some(TokenKind::Ident) {
            diags.push(view.diag(
                k,
                SEEDED_RNG_ONLY,
                format!(
                    "`{t}` constructs an RNG stream outside `congest_sim::rng`; derive \
                     randomness from the master seed via node_rng/phase_seed (streams) \
                     or mix4/coin (pure per-event coins)"
                ),
            ));
        }
    }
}

fn is_oracle_module(file: &SourceFile) -> bool {
    if file.unit == "exact" {
        return true;
    }
    file.is_deterministic_unit()
        && ORACLE_FILES
            .iter()
            .any(|name| file.rel_path.ends_with(&format!("/{name}")))
}

fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0X") {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    // `e`/`E` is an exponent only when digits (or a signed digit run)
    // follow — `0usize`'s `e` is part of the suffix, not a float marker.
    let bytes = text.as_bytes();
    bytes.iter().enumerate().any(|(i, &b)| {
        (b == b'e' || b == b'E')
            && matches!(
                bytes.get(i + 1),
                Some(b'0'..=b'9') | Some(b'+') | Some(b'-')
            )
    })
}

/// R4: floating point in oracle/bound-check modules. Test code is
/// exempt: generator densities (`gnp(16, 0.3, ..)`) are inputs to the
/// oracle, not part of the bound arithmetic.
fn rule_no_float_in_oracle(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) {
    if !is_oracle_module(view.file) || view.file.is_test_file {
        return;
    }
    for k in 0..view.sig.len() {
        if view.in_test[k] {
            continue;
        }
        let t = view.text(k);
        let hit = match view.kind(k) {
            Some(TokenKind::Ident) => t == "f32" || t == "f64",
            Some(TokenKind::NumLit) => is_float_literal(t),
            _ => false,
        };
        if hit {
            diags.push(view.diag(
                k,
                NO_FLOAT_IN_ORACLE,
                format!(
                    "`{t}` in an oracle/bound-check module; the paper's bounds are \
                     verified by exact integer arithmetic (cross-multiply instead of \
                     dividing)"
                ),
            ));
        }
    }
}

/// R5 panic-site patterns inside a round body.
const PANIC_PATTERNS: &[(&[&str], &str)] = &[
    (&[".", "unwrap"], ".unwrap()"),
    (&[".", "expect"], ".expect(..)"),
    (&["panic", "!"], "panic!"),
    (&["unreachable", "!"], "unreachable!"),
    (&["todo", "!"], "todo!"),
    (&["unimplemented", "!"], "unimplemented!"),
];

/// R5: panics in `Protocol::round` bodies and the engine round loop.
fn rule_no_panic_in_round(view: &FileView<'_>, diags: &mut Vec<Diagnostic>) {
    if !view.file.is_deterministic_unit() || view.file.is_test_file {
        return;
    }
    let engine_file = view.file.rel_path == ENGINE_FILE;
    let n = view.sig.len();
    let mut k = 0;
    while k < n {
        if view.text(k) != "fn" || view.in_test[k] {
            k += 1;
            continue;
        }
        let name = view.text(k + 1);
        let in_scope = name == "round" || (engine_file && ENGINE_LOOP_FNS.contains(&name));
        if !in_scope {
            k += 1;
            continue;
        }
        // Find the body's opening brace; a `;` first means a trait
        // method declaration without a body.
        let mut j = k + 2;
        let mut open = None;
        while j < n {
            match view.text(j) {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            k = j + 1;
            continue;
        };
        let mut depth = 1usize;
        let mut m = open + 1;
        while m < n && depth > 0 {
            match view.text(m) {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {
                    for (pat, label) in PANIC_PATTERNS {
                        if view.seq(m, pat) {
                            diags.push(view.diag(
                                m,
                                NO_PANIC_IN_ROUND,
                                format!(
                                    "{label} inside `fn {name}`: round-path code must \
                                     tolerate adversarial inboxes (drops, corruption, \
                                     reordering) instead of aborting the run"
                                ),
                            ));
                        }
                    }
                }
            }
            m += 1;
        }
        k = m;
    }
}

/// Collects `pub enum/struct *Msg` declarations for R6.
fn collect_msg_types(view: &FileView<'_>, out: &mut Vec<MsgType>) {
    if !view.file.is_deterministic_unit() || view.file.is_test_file || view.file.unit == "lint" {
        return;
    }
    for k in 0..view.sig.len() {
        if view.in_test[k] || view.text(k) != "pub" {
            continue;
        }
        let item = view.text(k + 1);
        if item != "enum" && item != "struct" {
            continue;
        }
        let name = view.text(k + 2);
        if name.ends_with("Msg") && view.kind(k + 2) == Some(TokenKind::Ident) {
            out.push(MsgType {
                name: name.to_string(),
                file: view.file.rel_path.clone(),
                line: view.line(k + 2),
                unit: view.file.unit.clone(),
            });
        }
    }
}

/// A discovered protocol message type.
#[derive(Clone, Debug)]
pub struct MsgType {
    /// Type name (ends in `Msg`).
    pub name: String,
    /// Declaring file, workspace-relative.
    pub file: String,
    /// Declaration line.
    pub line: u32,
    /// Declaring crate short name.
    pub unit: String,
}

/// R6: each discovered message type must appear in the generated size
/// test, and its declaring file must implement `PackedMsg` for it —
/// the packed planes cannot carry a type without a wire format.
fn rule_msg_size_coverage(
    msg_types: &[MsgType],
    files: &[SourceFile],
    diags: &mut Vec<Diagnostic>,
) {
    let size_test = files.iter().find(|f| f.rel_path == MSG_SIZE_TEST_PATH);
    for m in msg_types {
        let covered = size_test.is_some_and(|f| f.src.contains(&m.name));
        if !covered {
            diags.push(Diagnostic {
                file: m.file.clone(),
                line: m.line,
                rule: MSG_SIZE_COVERAGE,
                message: format!(
                    "message type `{}` is not covered by {MSG_SIZE_TEST_PATH}; \
                     regenerate it with `cargo run -p congest-lint -- \
                     --emit-msg-size-test > {MSG_SIZE_TEST_PATH}`",
                    m.name
                ),
            });
        }
        let packed_impl = format!("impl PackedMsg for {}", m.name);
        let has_impl = files
            .iter()
            .any(|f| f.rel_path == m.file && f.src.contains(&packed_impl));
        if !has_impl {
            diags.push(Diagnostic {
                file: m.file.clone(),
                line: m.line,
                rule: MSG_SIZE_COVERAGE,
                message: format!(
                    "message type `{}` has no `impl PackedMsg for {}` in its \
                     declaring file; the packed message planes require a \
                     ≤ 64-bit wire format for every protocol message",
                    m.name, m.name
                ),
            });
        }
    }
}

/// Lints a set of loaded workspace files, returning unsuppressed
/// findings sorted by (file, line, rule).
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut msg_types = Vec::new();
    for file in files {
        let view = match FileView::new(file) {
            Ok(view) => view,
            Err(e) => {
                diags.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: e.line,
                    rule: LEX_ERROR,
                    message: e.message,
                });
                continue;
            }
        };
        let mut file_diags = Vec::new();
        let suppressions = collect_suppressions(&view, &mut diags);
        rule_no_std_hash(&view, &mut file_diags);
        rule_no_ambient(&view, &mut file_diags);
        rule_seeded_rng_only(&view, &mut file_diags);
        rule_no_float_in_oracle(&view, &mut file_diags);
        rule_no_panic_in_round(&view, &mut file_diags);
        collect_msg_types(&view, &mut msg_types);

        file_diags.retain(|d| {
            !suppressions.iter().any(|s| {
                s.rules.iter().any(|r| r == d.rule) && (s.line == d.line || s.line + 1 == d.line)
            })
        });
        diags.append(&mut file_diags);
    }
    rule_msg_size_coverage(&msg_types, files, &mut diags);
    diags.sort();
    diags.dedup();
    diags
}

/// Discovers message types across `files` (the R6 inventory), keyed by
/// name, for the `--emit-msg-size-test` generator.
pub fn discover_msg_types(files: &[SourceFile]) -> Vec<MsgType> {
    let mut msg_types = Vec::new();
    for file in files {
        let Ok(view) = FileView::new(file) else {
            continue;
        };
        collect_msg_types(&view, &mut msg_types);
    }
    // Deterministic order, deduped by name.
    let by_name: BTreeMap<String, MsgType> =
        msg_types.into_iter().map(|m| (m.name.clone(), m)).collect();
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel_path: &str, src: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            unit: rel_path
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("examples")
                .to_string(),
            is_test_file: false,
            src: src.to_string(),
        }
    }

    fn run(rel_path: &str, src: &str) -> Vec<Diagnostic> {
        lint_files(&[file(rel_path, src)])
    }

    #[test]
    fn hash_collections_flagged_in_deterministic_crates_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
        assert!(run("crates/harness/src/x.rs", src).is_empty());
        // Mentions inside strings and comments are fine.
        assert!(run(
            "crates/sim/src/x.rs",
            "// HashMap\nconst X: &str = \"HashMap\";\n"
        )
        .is_empty());
    }

    #[test]
    fn ambient_nondeterminism_flagged_outside_tooling() {
        let src = "fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(run("crates/sim/src/x.rs", src).len(), 1);
        assert_eq!(run("examples/demo.rs", src).len(), 1);
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        assert_eq!(
            run("crates/mis/src/x.rs", "fn t() { rand::thread_rng(); }").len(),
            1
        );
    }

    #[test]
    fn rng_construction_flagged_outside_rng_module_and_tests() {
        let src = "fn t() { let r = SmallRng::seed_from_u64(7); }\n";
        assert_eq!(run("crates/mis/src/x.rs", src).len(), 1);
        assert!(run("crates/sim/src/rng.rs", src).is_empty());
        assert!(run("crates/harness/src/x.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { SmallRng::seed_from_u64(7); }\n}\n";
        assert!(run("crates/mis/src/x.rs", test_src).is_empty());
    }

    #[test]
    fn floats_flagged_in_oracle_modules() {
        assert_eq!(
            run("crates/exact/src/x.rs", "fn t() -> f64 { 0.5 }").len(),
            2
        );
        assert_eq!(
            run("crates/core/src/maxis/verify.rs", "const E: f64 = 1e-9;").len(),
            2
        );
        assert!(run("crates/core/src/maxis/alg2.rs", "const E: f64 = 0.5;").is_empty());
        // Integer hex literals with e/E digits are not floats.
        assert!(run("crates/exact/src/x.rs", "const X: u64 = 0xE5;").is_empty());
    }

    #[test]
    fn panics_flagged_in_round_bodies_only() {
        let src = "impl Protocol for P {\n    fn round(&mut self) -> Status<()> {\n        \
                   self.x.unwrap();\n        unreachable!(\"no\")\n    }\n}\n\
                   fn helper() { x.unwrap(); }\n";
        let d = run("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == NO_PANIC_IN_ROUND));
    }

    /// A rename in the engine must come with its `ENGINE_LOOP_FNS`
    /// entry, or the renamed function would silently lose
    /// `no-panic-in-round` coverage.
    #[test]
    fn engine_loop_fns_are_defined_in_the_engine() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint has a workspace root two levels up");
        let src = std::fs::read_to_string(root.join(ENGINE_FILE)).expect("engine source");
        let engine = file(ENGINE_FILE, &src);
        let view = FileView::new(&engine).expect("engine source lexes");
        let defined: Vec<&str> = (0..view.sig.len())
            .filter(|&k| view.text(k) == "fn" && !view.in_test[k])
            .map(|k| view.text(k + 1))
            .collect();
        let missing: Vec<&&str> = ENGINE_LOOP_FNS
            .iter()
            .filter(|name| !defined.contains(name))
            .collect();
        assert!(
            missing.is_empty(),
            "ENGINE_LOOP_FNS names no non-test `fn` of {ENGINE_FILE}: {missing:?}"
        );
    }

    #[test]
    fn engine_loop_functions_are_in_scope() {
        let src = "impl E {\n    fn delivery_phase() {\n        q.pop().expect(\"x\");\n    }\n}\n";
        assert_eq!(run("crates/sim/src/engine.rs", src).len(), 1);
        // Same function name outside engine.rs is not round-loop code.
        assert!(run("crates/sim/src/other.rs", src).is_empty());
    }

    #[test]
    fn suppressions_require_justification() {
        let good = "fn round(&mut self) {\n    // lint:allow(no-panic-in-round): proven \
                    non-empty two lines up\n    x.unwrap();\n}\n";
        assert!(run("crates/core/src/x.rs", good).is_empty());
        let bare =
            "fn round(&mut self) {\n    // lint:allow(no-panic-in-round)\n    x.unwrap();\n}\n";
        let d = run("crates/core/src/x.rs", bare);
        assert!(d.iter().any(|d| d.rule == SUPPRESSION_HYGIENE));
        assert!(d.iter().any(|d| d.rule == NO_PANIC_IN_ROUND));
        let unknown = "// lint:allow(no-such-rule): because\nfn f() {}\n";
        let d = run("crates/core/src/x.rs", unknown);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, SUPPRESSION_HYGIENE);
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let same = "fn round(&mut self) { x.unwrap(); // lint:allow(no-panic-in-round): ok\n}\n";
        assert!(run("crates/core/src/x.rs", same).is_empty());
        let gap = "fn round(&mut self) {\n    // lint:allow(no-panic-in-round): ok\n\n    x.unwrap();\n}\n";
        assert_eq!(
            run("crates/core/src/x.rs", gap).len(),
            1,
            "a blank line breaks the tie"
        );
    }

    #[test]
    fn msg_types_need_size_coverage() {
        // No size-test entry and no PackedMsg impl: two findings.
        let bare = file("crates/mis/src/x.rs", "pub enum FooMsg { A }\n");
        let d = lint_files(std::slice::from_ref(&bare));
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.rule == MSG_SIZE_COVERAGE));
        // With the impl in the declaring file, only the missing size-test
        // entry remains.
        let proto = file(
            "crates/mis/src/x.rs",
            "pub enum FooMsg { A }\nimpl PackedMsg for FooMsg {}\n",
        );
        let d = lint_files(std::slice::from_ref(&proto));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, MSG_SIZE_COVERAGE);
        let mut covered = file(
            MSG_SIZE_TEST_PATH,
            "<congest_mis::FooMsg as PackedMsg>::BITS\n",
        );
        covered.unit = "integration-tests".to_string();
        covered.is_test_file = true;
        assert!(lint_files(&[proto, covered]).is_empty());
    }

    #[test]
    fn lex_errors_surface_as_diagnostics() {
        let d = run("crates/sim/src/x.rs", "fn f() { /* open\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, LEX_ERROR);
    }
}
