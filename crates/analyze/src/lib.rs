#![forbid(unsafe_code)]
//! **metam-analyze** — the workspace invariant linter.
//!
//! Metam's reproduction rests on invariants that ordinary tests can only
//! sample: byte-identical deterministic output under parallel ingestion,
//! observer passivity (instrumented runs bit-identical to bare ones),
//! and panic-free library paths behind typed errors. This crate
//! mechanizes them as a static-analysis pass over the workspace's own
//! Rust source — a comment/string/`#[cfg(test)]`-aware lexer
//! ([`lexer`]) plus a rule engine ([`rules`]) — run by CI as the
//! `metam-analyze` binary, which fails the build on findings.
//!
//! Rule catalog (ids are what pragmas name):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `nondeterministic-iteration` | no unordered hash iteration in output-affecting crates |
//! | `panic-in-lib` | library code returns typed errors, never aborts |
//! | `timing-outside-guard` | metam-core reads the clock only behind the observer gate |
//! | `raw-thread-spawn` | threads only in the sanctioned worker-pool and serve daemon modules |
//! | `unjustified-atomic-ordering` | non-`Relaxed` orderings carry an `// ordering:` note |
//! | `env-read-outside-config` | env reads only in the trace sink, bench and binary entry modules |
//! | `missing-forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `invalid-pragma` | suppressions are well-formed and carry a reason |
//!
//! Suppression is per line: `// metam-analyze: allow(<rule>): <reason>`
//! trailing the offending line or directly above it. The reason is
//! mandatory and surfaces in the report, so every exemption in the
//! workspace stays reviewable.
//!
//! `shims/` is excluded: those crates are stand-ins for third-party
//! dependencies and are not first-party code.

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

pub use report::{Finding, Report, Suppression};
pub use rules::{FileContext, FileKind, RULES};

/// Directories under the workspace root that hold first-party source.
const SCAN_ROOTS: &[&str] = &["src", "crates", "tests", "examples", "benches"];

/// Analyze a single source text under a workspace-relative path label.
/// This is the entry point fixture tests use.
pub fn analyze_source(path_label: &str, text: &str) -> Report {
    let mut report = Report::default();
    let ctx = FileContext::classify(path_label);
    let lines = lexer::lex(text);
    rules::check_file(&ctx, &lines, &mut report);
    report
}

/// Analyze every first-party `.rs` file under `root` (a workspace
/// checkout). Files are visited in sorted path order so reports are
/// deterministic.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut report = Report::default();
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileContext::classify(&rel);
        let lines = lexer::lex(&text);
        rules::check_file(&ctx, &lines, &mut report);
    }
    Ok(report)
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `target/` build output and `shims/` third-party stand-ins
            // are not first-party source.
            if name == "target" || name == "shims" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_and_kind() {
        let c = FileContext::classify("crates/lake/src/catalog.rs");
        assert_eq!(c.crate_name, "lake");
        assert_eq!(c.kind, FileKind::Lib);
        let c = FileContext::classify("src/bin/metam.rs");
        assert_eq!(c.crate_name, "metam");
        assert_eq!(c.kind, FileKind::Bin);
        let c = FileContext::classify("crates/bench/benches/join.rs");
        assert_eq!(c.kind, FileKind::Bench);
        let c = FileContext::classify("tests/session_api.rs");
        assert_eq!(c.crate_name, "metam");
        assert_eq!(c.kind, FileKind::Test);
    }

    #[test]
    fn finds_workspace_root_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/analyze").is_dir());
    }
}
