//! The tidy check catalogue and their shared text-scanning helpers.
//!
//! To add a check: give it a [`CheckId`](crate::diag::CheckId) variant and
//! name, implement `pub fn check(tree: &Tree, diags: &mut Vec<Diagnostic>)`
//! in a new module here, dispatch it from [`run_check`], and pin it with a
//! known-bad fixture tree under `crates/lint/tests/fixtures/`.

pub mod governance;
pub mod key_material;
pub mod std_hash;
pub mod unsafe_blocks;
pub mod wall_clock;

use crate::diag::{CheckId, Diagnostic};
use crate::lexer::{is_ident_char, SourceFile};
use std::path::PathBuf;

/// Everything a check can see: the parsed `.rs` files plus the workspace
/// root for reading non-Rust governance inputs (fixtures, CI workflow).
pub struct Tree {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Tree {
    /// The parsed file at `rel_path`, if it was scanned.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }

    /// Read an arbitrary workspace file (fixtures, YAML) as text.
    pub fn read_text(&self, rel_path: &str) -> Option<String> {
        std::fs::read_to_string(self.root.join(rel_path)).ok()
    }
}

/// Run one check over the tree.
pub fn run_check(id: CheckId, tree: &Tree, diags: &mut Vec<Diagnostic>) {
    match id {
        CheckId::StdHash => std_hash::check(tree, diags),
        CheckId::WallClock => wall_clock::check(tree, diags),
        CheckId::KeyMaterial => key_material::check(tree, diags),
        CheckId::Unsafe => unsafe_blocks::check(tree, diags),
        CheckId::Governance => governance::check(tree, diags),
    }
}

/// Crates whose non-test `src/` code is *sim-critical*: anything here can
/// influence a `SimResult`, so determinism rules apply in full.
pub const SIM_CRITICAL_CRATES: &[&str] = &[
    "crates/common",
    "crates/core",
    "crates/dcache",
    "crates/dram",
    "crates/mem-hier",
    "crates/sim",
    "crates/workloads",
];

/// Is `rel_path` non-test source of a sim-critical crate?
pub fn is_sim_critical_src(rel_path: &str) -> bool {
    SIM_CRITICAL_CRATES.iter().any(|c| {
        rel_path
            .strip_prefix(c)
            .is_some_and(|r| r.starts_with("/src/"))
    })
}

/// Outcome of looking for a `// tidy: allow(<name>)` marker near a line.
pub enum Marker {
    /// Marker present with a non-empty justification.
    Allowed,
    /// Marker present but no justification after the closing paren.
    MissingJustification(usize),
    /// No marker.
    Absent,
}

/// Look for `tidy: allow(<name>)` in the comments on `line` or the line
/// directly above it. The marker must be followed by a justification
/// (anything non-empty after an optional `:` / `-`).
pub fn allow_marker(file: &SourceFile, line: usize, name: &str) -> Marker {
    let needle = format!("tidy: allow({name})");
    for l in [line, line.saturating_sub(1)] {
        if l == 0 {
            continue;
        }
        let text = file.comment_text(l);
        if let Some(pos) = text.find(&needle) {
            let rest = text[pos + needle.len()..]
                .trim_start_matches([':', '-', '—', ' ', '\t'])
                .trim();
            if rest.is_empty() {
                return Marker::MissingJustification(l);
            }
            return Marker::Allowed;
        }
    }
    Marker::Absent
}

/// Byte offsets of every occurrence of `word` in `code` delimited by
/// non-identifier characters on both sides.
pub fn word_occurrences(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(p) = code[start..].find(word) {
        let pos = start + p;
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .map(is_ident_char)
                .unwrap_or(false);
        let after_ok = !code[pos + word.len()..]
            .chars()
            .next()
            .map(is_ident_char)
            .unwrap_or(false);
        if before_ok && after_ok {
            out.push(pos);
        }
        start = pos + word.len();
    }
    out
}

/// Walk backwards from `pos` (exclusive) over whitespace.
fn skip_ws_back(code: &[u8], mut pos: usize) -> usize {
    while pos > 0 && (code[pos - 1] as char).is_whitespace() {
        pos -= 1;
    }
    pos
}

/// Read an identifier ending at `pos` (exclusive); returns (start, ident).
fn ident_back(code: &[u8], pos: usize) -> (usize, String) {
    let mut start = pos;
    while start > 0 && is_ident_char(code[start - 1] as char) && code[start - 1].is_ascii() {
        start -= 1;
    }
    (
        start,
        String::from_utf8_lossy(&code[start..pos]).into_owned(),
    )
}

/// Reconstruct the `::`-separated path segments preceding `pos`, crossing
/// `use`-group braces, e.g. for the `HashMap` in
/// `use std::{collections::{HashMap}}` this returns `["std", "collections"]`.
/// Bounded: gives up (returning what it has) after walking 2000 bytes.
pub fn path_prefix_before(code: &str, pos: usize) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut p = pos;
    let floor = pos.saturating_sub(2000);
    loop {
        p = skip_ws_back(bytes, p);
        if p < 2 || p <= floor {
            break;
        }
        if &bytes[p - 2..p] == b"::" {
            p = skip_ws_back(bytes, p - 2);
            let (start, ident) = ident_back(bytes, p);
            if ident.is_empty() {
                // `::{` or leading `::` (absolute path) — keep crossing.
                if p > 0 && bytes[p - 1] == b'}' {
                    break; // `}::x` — not a plain path, stop.
                }
                break;
            }
            segs.push(ident);
            p = start;
        } else if bytes[p - 1] == b'{' || bytes[p - 1] == b',' {
            // Inside a use group: walk back to the group's opening brace,
            // crossing only ident/ws/comma/path chars and nested groups.
            let mut depth = 0i32;
            let mut q = p - 1;
            let ok = loop {
                if q == 0 || q <= floor {
                    break false;
                }
                let b = bytes[q] as char;
                match b {
                    '}' => depth += 1,
                    '{' => {
                        if depth == 0 {
                            break true;
                        }
                        depth -= 1;
                    }
                    c if is_ident_char(c) || c == ',' || c == ':' || c.is_whitespace() => {}
                    _ => break false,
                }
                q -= 1;
            };
            if !ok {
                break;
            }
            p = q; // just before the opening `{`
        } else {
            break;
        }
    }
    segs.reverse();
    segs
}

/// Push a diagnostic.
pub fn emit(diags: &mut Vec<Diagnostic>, check: CheckId, path: &str, line: usize, message: String) {
    diags.push(Diagnostic {
        check,
        path: path.to_string(),
        line,
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        let occ = word_occurrences("HashMap MyHashMap HashMapper HashMap", "HashMap");
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0], 0);
    }

    #[test]
    fn path_prefix_direct() {
        let code = "let m: std::collections::HashMap<u64, u64> = Default::default();";
        let pos = code.find("HashMap").unwrap();
        assert_eq!(path_prefix_before(code, pos), vec!["std", "collections"]);
    }

    #[test]
    fn path_prefix_use_group() {
        let code = "use std::collections::{HashMap, HashSet};";
        let pos = code.find("HashSet").unwrap();
        assert_eq!(path_prefix_before(code, pos), vec!["std", "collections"]);
    }

    #[test]
    fn path_prefix_nested_group() {
        let code = "use std::{collections::{hash_map, HashMap}, fmt};";
        let pos = code.find("HashMap").unwrap();
        assert_eq!(path_prefix_before(code, pos), vec!["std", "collections"]);
    }

    #[test]
    fn path_prefix_unrelated() {
        let code = "fn f() { let x = HashMap::new(); }";
        let pos = code.find("HashMap").unwrap();
        assert!(path_prefix_before(code, pos).is_empty());
    }

    #[test]
    fn sim_critical_paths() {
        assert!(is_sim_critical_src("crates/sim/src/system.rs"));
        assert!(is_sim_critical_src("crates/mem-hier/src/cache.rs"));
        assert!(!is_sim_critical_src("crates/sim/tests/key_material.rs"));
        assert!(!is_sim_critical_src("crates/bench/src/runner.rs"));
        assert!(!is_sim_critical_src("crates/lint/src/lib.rs"));
    }
}
