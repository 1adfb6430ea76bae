//! `argo-check`: in-tree correctness tooling for the ARGO runtime.
//!
//! Two halves live here, both wired into `ci.sh`:
//!
//! * **`argo-lint`** (`src/bin/argo-lint.rs`) — a hand-rolled static
//!   analyzer over the workspace's Rust sources. No `syn`, no rustc
//!   internals: the same offline philosophy as `rt/json.rs`, built on a
//!   small lexical scanner ([`source`]) plus per-file rules ([`rules`])
//!   and a justified-exception allowlist ([`allowlist`]).
//! * **the concurrency harness** — a deterministic schedule-permutation
//!   explorer ([`schedule`], a mini-loom) used by this crate's test suite,
//!   which with `--features check` also turns on the lock-order /
//!   double-lock sanitizer inside the `parking_lot` shim
//!   (`tests/check.rs`).

use std::fmt;
use std::path::{Path, PathBuf};

pub mod allowlist;
pub mod rules;
pub mod schedule;
pub mod source;

use source::SourceFile;

/// One lint finding, printed as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path.
    pub path: String,
    /// 1-indexed line; 0 for file- or tree-level findings.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Recursively collects `.rs` files under `dir`, skipping build output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every workspace source file under `root` (crates/, shims/ and the
/// top-level tests/), returning them with repo-relative paths.
pub fn scan_tree(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for top in ["crates", "shims", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::scan(&rel, &text));
    }
    Ok(files)
}

/// Runs every rule over an already-scanned file set. Split from
/// [`lint_tree`] so tests can lint synthetic trees without touching disk.
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut allow = allowlist::AllowTracker::new();
    let mut out = Vec::new();
    for file in files {
        rules::check_file(file, &mut allow, &mut out);
    }
    allow.report_stale(&mut out);
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Scans and lints the workspace rooted at `root`.
pub fn lint_tree(root: &Path) -> Result<Vec<Diagnostic>, String> {
    Ok(lint_files(&scan_tree(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_actual_repo_is_lint_clean() {
        // The acceptance invariant behind `ci.sh`'s argo-lint stage, checked
        // in-process as well: the tree this crate ships in has no findings.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diagnostics = lint_tree(&root).expect("scan succeeds");
        assert!(diagnostics.is_empty(), "{diagnostics:#?}");
    }

    #[test]
    fn seeded_violations_surface_with_file_and_line() {
        // Deliberately plant one violation of each rule in an otherwise
        // clean synthetic tree and check each is reported at its exact
        // file:line — the diagnostics a CI user would see before exit 1.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = scan_tree(&root).expect("scan succeeds");
        files.push(source::SourceFile::scan(
            "crates/rt/src/seeded.rs",
            "fn f() {\n    unsafe { g(); }\n    let v = x.unwrap();\n}\n",
        ));
        let diagnostics = lint_files(&files);
        let rendered: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
        assert!(
            rendered.iter().any(|r| r
                == "crates/rt/src/seeded.rs:2: [unsafe-safety] `unsafe` without a \
                              `// SAFETY:` comment within 8 lines"),
            "{rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|r| r.starts_with("crates/rt/src/seeded.rs:3: [no-panic]")),
            "{rendered:?}"
        );
        assert_eq!(diagnostics.len(), 2, "no collateral findings: {rendered:?}");
    }
}
