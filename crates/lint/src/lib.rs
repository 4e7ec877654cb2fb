//! `banshee_tidy` — the workspace's repo-native static-analysis pass.
//!
//! In the spirit of rust-lang's `tidy`: a fast, dependency-free lexical
//! scan that enforces the invariants this simulator's correctness rests on
//! but `rustc` cannot see — determinism (no randomly-seeded hashers, no
//! wall-clock reads in sim state), key-material coverage (every `SimConfig`
//! field keys the result store or is a declared execution knob), an unsafe
//! audit, and model-governance coherence (revision constants, fixtures and
//! the CI guard agree). See the check modules under [`checks`] for the
//! individual rules and the markers (`// tidy: allow(..): why`,
//! `// tidy: exec-knob`, `// SAFETY:`) that grant exceptions.
//!
//! This is deliberately a *lexer*, not a parser: [`lexer::SourceFile`]
//! blanks comments and strings out of a code view, records them in side
//! tables, and marks `#[cfg(test)]` regions — enough to answer every check
//! with zero dependencies and no false positives from prose or test code.

pub mod checks;
pub mod diag;
pub mod lexer;
pub mod walk;

use checks::Tree;
use diag::{CheckId, Diagnostic, Report, ALL_CHECKS};
use std::io;
use std::path::Path;

/// Parse the workspace tree under `root`.
pub fn load_tree(root: &Path) -> io::Result<Tree> {
    let mut files = Vec::new();
    for rel in walk::collect_rust_files(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(lexer::SourceFile::parse(&rel, &text));
    }
    Ok(Tree {
        root: root.to_path_buf(),
        files,
    })
}

/// Run `checks` (all of them when empty) over the workspace at `root`.
pub fn run(root: &Path, only: &[CheckId]) -> io::Result<Report> {
    let tree = load_tree(root)?;
    let selected: Vec<CheckId> = if only.is_empty() {
        ALL_CHECKS.to_vec()
    } else {
        only.to_vec()
    };
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for &check in &selected {
        checks::run_check(check, &tree, &mut diagnostics);
    }
    diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.check, &a.message).cmp(&(&b.path, b.line, b.check, &b.message))
    });
    diagnostics.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.check == b.check && a.message == b.message
    });
    Ok(Report {
        checks_run: selected,
        files_scanned: tree.files.len(),
        diagnostics,
    })
}

/// Locate the workspace root: walk up from `start` to the first directory
/// containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
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
