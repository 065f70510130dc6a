//! The rule engine: workspace invariants as machine-checkable rules.
//!
//! Every rule is scoped (which crates, which file kinds) and fires on
//! the blanked code view from [`crate::lexer`], so comments and string
//! literals can never trigger it, and `#[cfg(test)]` regions are exempt
//! where the invariant is about shipped library behavior. Suppression is
//! per line via `// metam-analyze: allow(<rule>): <reason>` (see
//! [`crate::pragma`]).

use crate::lexer::Line;
use crate::pragma::{self, PragmaError};
use crate::report::{Finding, Report, Suppression};

/// Rule ids, in catalog order.
pub const RULES: &[&str] = &[
    "nondeterministic-iteration",
    "panic-in-lib",
    "timing-outside-guard",
    "raw-thread-spawn",
    "unjustified-atomic-ordering",
    "env-read-outside-config",
    "missing-forbid-unsafe",
    "invalid-pragma",
];

/// Crates whose outputs must be byte-identical run to run: iterating a
/// hash container here risks order-dependent results.
const OUTPUT_AFFECTING_CRATES: &[&str] = &[
    "core",
    "lake",
    "discovery",
    "profile",
    "pool",
    "serve",
    "metam",
];

/// The modules allowed to own raw threads: the shared worker pool (scan
/// and search submit to it) and the serve daemon's acceptor/worker/
/// connection threads (long-lived service threads, not fork-join work —
/// the pool's scoped lifetimes cannot express them).
const SANCTIONED_SPAWN_MODULES: &[&str] = &["crates/pool/src/lib.rs", "crates/serve/src/server.rs"];

/// Modules allowed to read process environment (configuration entry
/// points; everything else must take config as arguments).
const ENV_ALLOWED: &[&str] = &["crates/obs/src/sink.rs"];
const ENV_ALLOWED_PREFIXES: &[&str] = &["crates/bench/", "src/bin/"];

/// How the file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileKind {
    /// Library source (`src/**`, excluding `src/bin/`).
    Lib,
    /// Binary entry point (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Integration test (`tests/**`).
    Test,
    /// Bench target (`benches/**`).
    Bench,
    /// Example (`examples/**`).
    Example,
}

/// Where a file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate directory name (`core`, `lake`, …; the root crate is `metam`).
    pub crate_name: String,
    /// Build role of the file.
    pub kind: FileKind,
}

impl FileContext {
    /// Classify a workspace-relative path.
    pub fn classify(path: &str) -> FileContext {
        let crate_name = match path.strip_prefix("crates/") {
            Some(rest) => rest.split('/').next().unwrap_or("").to_string(),
            None => "metam".to_string(),
        };
        let tail = path
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .map_or(path, |(_, t)| t);
        let kind = if tail.starts_with("src/bin/") || tail == "src/main.rs" {
            FileKind::Bin
        } else if tail.starts_with("tests/") {
            FileKind::Test
        } else if tail.starts_with("benches/") {
            FileKind::Bench
        } else if tail.starts_with("examples/") {
            FileKind::Example
        } else {
            FileKind::Lib
        };
        FileContext {
            path: path.to_string(),
            crate_name,
            kind,
        }
    }

    /// True for the root `src/lib.rs` / `crates/<x>/src/lib.rs`.
    fn is_crate_root(&self) -> bool {
        self.path == "src/lib.rs" || {
            self.path.starts_with("crates/") && self.path.ends_with("/src/lib.rs")
        }
    }
}

/// Analyze one lexed file, appending findings/suppressions to `report`.
pub fn check_file(ctx: &FileContext, lines: &[Line], report: &mut Report) {
    report.files_scanned += 1;
    report.lines_scanned += lines.len();

    // Pass 1: collect pragmas (line number → allowed rules) and report
    // invalid ones. A pragma suppresses findings on its own line and on
    // the line directly below, so it can ride trailing or above.
    let mut allows: Vec<(usize, String, String)> = Vec::new(); // (line_no, rule, reason)
    for (idx, line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        for comment in &line.comments {
            match pragma::parse(comment, RULES) {
                None => {}
                Some(Ok(p)) => allows.push((line_no, p.rule, p.reason)),
                Some(Err(err)) => report.findings.push(Finding {
                    rule: "invalid-pragma",
                    file: ctx.path.clone(),
                    line: line_no,
                    excerpt: line.raw.trim().to_string(),
                    message: match err {
                        PragmaError::Malformed => {
                            "pragma must be `metam-analyze: allow(<rule>): <reason>`".into()
                        }
                        PragmaError::MissingReason(rule) => format!(
                            "allow({rule}) pragma has no reason — every suppression \
                             must carry a written justification"
                        ),
                        PragmaError::UnknownRule(rule) => {
                            format!("allow({rule}) names an unknown rule")
                        }
                    },
                }),
            }
        }
    }
    let allowed = |rule: &str, line_no: usize| -> Option<&str> {
        allows
            .iter()
            .find(|(l, r, _)| r == rule && (*l == line_no || *l + 1 == line_no))
            .map(|(_, _, reason)| reason.as_str())
    };

    // Pass 2: run the line rules, honoring suppressions.
    let mut raw_findings: Vec<Finding> = Vec::new();
    rule_panic_in_lib(ctx, lines, &mut raw_findings);
    rule_nondeterministic_iteration(ctx, lines, &mut raw_findings);
    rule_timing_outside_guard(ctx, lines, &mut raw_findings);
    rule_raw_thread_spawn(ctx, lines, &mut raw_findings);
    rule_atomic_ordering(ctx, lines, &mut raw_findings);
    rule_env_read(ctx, lines, &mut raw_findings);
    rule_forbid_unsafe(ctx, lines, &mut raw_findings);
    for f in raw_findings {
        match allowed(f.rule, f.line) {
            Some(reason) => report.suppressions.push(Suppression {
                rule: f.rule.to_string(),
                file: f.file,
                line: f.line,
                reason: reason.to_string(),
            }),
            None => report.findings.push(f),
        }
    }
}

fn finding(
    rule: &'static str,
    ctx: &FileContext,
    line_no: usize,
    line: &Line,
    message: String,
) -> Finding {
    Finding {
        rule,
        file: ctx.path.clone(),
        line: line_no,
        excerpt: line.raw.trim().to_string(),
        message,
    }
}

/// True when `code[at..]` starts with `tok` and the character before
/// `at` does not extend an identifier (so `x.unwrap()` matches but
/// `my_unwrap()` never can via a leading-dot token anyway).
fn token_at(code: &str, at: usize, tok: &str) -> bool {
    if !code[at..].starts_with(tok) {
        return false;
    }
    let first = tok.chars().next().unwrap_or(' ');
    if !(first.is_alphanumeric() || first == '_') {
        return true;
    }
    !code[..at]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// All match positions of `tok` in `code` respecting identifier
/// boundaries on the left.
fn token_positions(code: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(tok) {
        let at = from + rel;
        if token_at(code, at, tok) {
            out.push(at);
        }
        from = at + tok.len();
    }
    out
}

fn has_token(code: &str, tok: &str) -> bool {
    !token_positions(code, tok).is_empty()
}

// --- panic-in-lib -------------------------------------------------------

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Library code must surface failures through typed errors, never abort
/// the process. Tests, benches, examples and binary `main`s are exempt.
fn rule_panic_in_lib(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in PANIC_TOKENS {
            if has_token(&line.code, tok) {
                out.push(finding(
                    "panic-in-lib",
                    ctx,
                    idx + 1,
                    line,
                    format!(
                        "`{}` in library code — return a typed error instead \
                         (SessionError / TableError / LakeError)",
                        tok.trim_start_matches('.').trim_end_matches('('),
                    ),
                ));
                break;
            }
        }
    }
}

// --- nondeterministic-iteration ----------------------------------------

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Iterator sinks whose result cannot depend on visit order.
const ORDER_INSENSITIVE: &[&str] = &[
    ".sort",
    "sorted",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    ".count()",
    ".len()",
    ".sum",
    ".product",
    ".min(",
    ".min_by",
    ".max(",
    ".max_by",
    ".all(",
    ".any(",
    ".find(",
    ".position(",
    ".is_empty()",
    ".contains",
];

/// Identifier characters.
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier (with optional `self.` prefix stripped) ending at
/// byte offset `end` of `code`.
fn ident_before(code: &str, end: usize) -> Option<&str> {
    let head = &code[..end];
    let start = head
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident(*c))
        .last()
        .map(|(i, _)| i)?;
    let ident = &head[start..];
    if ident.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(ident)
    }
}

/// Harvest identifiers declared with a `HashMap`/`HashSet` type on the
/// same line: `let (mut) NAME … Hash*`, or `NAME: … Hash*` (struct
/// fields and fn params).
fn hash_idents(lines: &[Line]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in lines {
        let code = &line.code;
        if !(code.contains("HashMap") || code.contains("HashSet")) {
            continue;
        }
        for pos in token_positions(code, "let ") {
            let rest = code[pos + 4..].trim_start().trim_start_matches("mut ");
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            if !name.is_empty() && !out.contains(&name) {
                out.push(name);
            }
        }
        // `NAME: …HashMap<…>` — walk back from each occurrence to the
        // nearest `ident:` on the same line.
        for tok in ["HashMap", "HashSet"] {
            for pos in token_positions(code, tok) {
                let head = &code[..pos];
                let Some(colon) = head.rfind(':') else {
                    continue;
                };
                // Skip path separators (`std::collections::HashMap`).
                if colon > 0 && head[..colon].ends_with(':') {
                    continue;
                }
                // A `->` or `)` between the colon and the type means the
                // hash type is a *return* type, not this ident's type
                // (`fn f(entries: &[T]) -> HashSet<…>`).
                if head[colon..].contains("->") || head[colon..].contains(')') {
                    continue;
                }
                if let Some(name) = ident_before(head, colon) {
                    let name = name.to_string();
                    if !name.is_empty() && !out.contains(&name) {
                        out.push(name);
                    }
                }
            }
        }
    }
    out
}

/// Code context from line `idx` forward over a short horizon: the rest
/// of the statement plus the line or two after it, enough to see a
/// *subsequent* sort (`let v: Vec<_> = m.values().collect(); v.sort();`)
/// or an ordered collect.
fn context_from(lines: &[Line], idx: usize) -> String {
    let mut ctx = String::new();
    for line in lines.iter().skip(idx).take(4) {
        ctx.push_str(&line.code);
        ctx.push(' ');
    }
    ctx
}

/// In output-affecting crates, iterating a `HashMap`/`HashSet` without
/// an order-insensitive sink risks nondeterministic output.
fn rule_nondeterministic_iteration(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib || !OUTPUT_AFFECTING_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    let idents = hash_idents(lines);
    if idents.is_empty() {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut hit = false;
        // Chained iteration: `map.iter()`, `self.cache.keys()`, …
        for m in ITER_METHODS {
            for pos in code.match_indices(m.trim_end_matches('(')).map(|(p, _)| p) {
                if !code[pos..].starts_with(m) {
                    continue;
                }
                if let Some(recv) = ident_before(code, pos) {
                    if idents.iter().any(|i| i == recv) {
                        hit = true;
                    }
                }
            }
        }
        // Direct loop: `for x in &map {`.
        if let Some(pos) = code.find("for ") {
            if token_at(code, pos, "for ") {
                if let Some(in_pos) = code[pos..].find(" in ") {
                    let expr = code[pos + in_pos + 4..]
                        .split('{')
                        .next()
                        .unwrap_or("")
                        .trim()
                        .trim_start_matches(['&', '*'])
                        .trim_start_matches("mut ");
                    let expr = expr.strip_prefix("self.").unwrap_or(expr);
                    if !expr.is_empty()
                        && expr.chars().all(is_ident)
                        && idents.iter().any(|i| i == expr)
                    {
                        hit = true;
                    }
                }
            }
        }
        if hit {
            let ctx_window = context_from(lines, idx);
            let ordered = ORDER_INSENSITIVE.iter().any(|t| ctx_window.contains(t));
            if !ordered {
                out.push(finding(
                    "nondeterministic-iteration",
                    ctx,
                    idx + 1,
                    line,
                    "hash-container iteration order is nondeterministic in an \
                     output-affecting crate — sort, collect into a BTree \
                     container, or justify with a pragma"
                        .into(),
                ));
            }
        }
    }
}

// --- timing-outside-guard ----------------------------------------------

/// The passivity invariant: `metam-core` may only read the clock behind
/// the observer gate (`observing.then(Instant::now)`), so instrumented
/// runs stay bit-identical to bare ones.
fn rule_timing_outside_guard(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    if ctx.crate_name != "core" || ctx.kind != FileKind::Lib {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if has_token(&line.code, "Instant::now") && !line.code.contains(".then(Instant::now)") {
            out.push(finding(
                "timing-outside-guard",
                ctx,
                idx + 1,
                line,
                "clock read in metam-core outside the observer gate — use \
                 `observing.then(Instant::now)` so unobserved runs never time"
                    .into(),
            ));
        }
    }
}

// --- raw-thread-spawn ---------------------------------------------------

/// All parallelism goes through the sanctioned worker pool (scoped,
/// deterministic merge); raw `thread::spawn` handles escape join
/// discipline and ruin determinism.
fn rule_raw_thread_spawn(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    if ctx.kind == FileKind::Test || SANCTIONED_SPAWN_MODULES.contains(&ctx.path.as_str()) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if has_token(&line.code, "thread::spawn") || has_token(&line.code, "thread::Builder") {
            out.push(finding(
                "raw-thread-spawn",
                ctx,
                idx + 1,
                line,
                "raw thread spawn outside the sanctioned worker-pool module — \
                 submit work to metam-pool (crates/pool/src/lib.rs)"
                    .into(),
            ));
        }
    }
}

// --- unjustified-atomic-ordering ---------------------------------------

const STRONG_ORDERINGS: &[&str] = &[
    "Ordering::SeqCst",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

/// Non-`Relaxed` atomic orderings are a claim about cross-thread
/// happens-before; the claim must be written down next to the code.
fn rule_atomic_ordering(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let strong = STRONG_ORDERINGS.iter().find(|o| has_token(&line.code, o));
        let Some(strong) = strong else { continue };
        let justified = |l: &Line| {
            l.comments
                .iter()
                .any(|c| c.trim_start().starts_with("ordering:"))
        };
        let above = idx.checked_sub(1).and_then(|i| lines.get(i));
        if justified(line) || above.is_some_and(justified) {
            continue;
        }
        out.push(finding(
            "unjustified-atomic-ordering",
            ctx,
            idx + 1,
            line,
            format!(
                "`{strong}` without an adjacent `// ordering:` justification — \
                 state the happens-before edge or relax it"
            ),
        ));
    }
}

// --- env-read-outside-config -------------------------------------------

/// Process environment is configuration; only entry-point modules may
/// read it, everything else takes explicit arguments.
fn rule_env_read(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    if ctx.kind == FileKind::Test
        || ctx.kind == FileKind::Bin
        || ctx.kind == FileKind::Example
        || ENV_ALLOWED.contains(&ctx.path.as_str())
        || ENV_ALLOWED_PREFIXES.iter().any(|p| ctx.path.starts_with(p))
    {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if has_token(&line.code, "std::env::") || has_token(&line.code, "env::var") {
            out.push(finding(
                "env-read-outside-config",
                ctx,
                idx + 1,
                line,
                "environment read outside the config entry modules \
                 (trace sink/bench/binaries) — thread the setting through as an \
                 argument"
                    .into(),
            ));
        }
    }
}

// --- missing-forbid-unsafe ---------------------------------------------

/// Every first-party crate root must carry `#![forbid(unsafe_code)]`.
fn rule_forbid_unsafe(ctx: &FileContext, lines: &[Line], out: &mut Vec<Finding>) {
    if !ctx.is_crate_root() {
        return;
    }
    let present = lines
        .iter()
        .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
    if !present {
        let first = Line {
            raw: String::new(),
            code: String::new(),
            comments: Vec::new(),
            in_test: false,
        };
        out.push(finding(
            "missing-forbid-unsafe",
            ctx,
            1,
            lines.first().unwrap_or(&first),
            "crate root lacks `#![forbid(unsafe_code)]`".into(),
        ));
    }
}
