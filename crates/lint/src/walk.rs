//! Workspace source-tree walker.
//!
//! Collects the `.rs` files the tidy checks operate on, rooted at the
//! workspace directory. Skipped subtrees:
//!
//! * `target/` — build output;
//! * `vendor/` — offline stand-ins for crates.io dependencies (not ours to
//!   police, and deliberately written against foreign style rules);
//! * `fixtures/` directories — test data, including this lint's own
//!   known-bad source fixtures, which must never fail the real run;
//! * dot-directories (`.git`, `.github`, …) — the governance check reads
//!   the CI workflow directly rather than through the walker.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIPPED_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Collect every lintable `.rs` file under `root`, as workspace-relative
/// `/`-separated paths, sorted for deterministic diagnostics.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let abs = root.join(&rel);
        for entry in fs::read_dir(&abs)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let child = if rel.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel.join(&name)
            };
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if name.starts_with('.') || SKIPPED_DIRS.contains(&name.as_str()) {
                    continue;
                }
                stack.push(child);
            } else if ty.is_file() && name.ends_with(".rs") {
                out.push(unix_path(&child));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Render a relative path with `/` separators regardless of platform.
pub fn unix_path(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// True for files that are test/bench/example code by location: anything
/// under a `tests/`, `benches/` or `examples/` directory.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_paths() {
        assert!(is_test_path("crates/sim/tests/key_material.rs"));
        assert!(is_test_path("crates/bench/benches/hotpath.rs"));
        assert!(is_test_path("examples/figure4.rs"));
        assert!(!is_test_path("crates/sim/src/system.rs"));
    }
}
