//! Unsafe audit: every `unsafe` block, fn, or impl must be preceded by a
//! `// SAFETY:` comment stating the invariant that makes it sound.
//!
//! The comment must sit in the contiguous comment block directly above the
//! line carrying the `unsafe` keyword (attribute lines in between are
//! fine), or trail on the `unsafe` line itself. Two consecutive `unsafe`
//! items need two comments — a shared paragraph above the first does not
//! document the second.

use super::{emit, Tree};
use crate::diag::{CheckId, Diagnostic};

pub fn check(tree: &Tree, diags: &mut Vec<Diagnostic>) {
    for file in &tree.files {
        let mut flagged_lines = Vec::new();
        for pos in super::word_occurrences(&file.code, "unsafe") {
            let line = file.line_of_offset(pos);
            if flagged_lines.contains(&line) {
                continue;
            }
            flagged_lines.push(line);
            if has_safety_comment(file, line) {
                continue;
            }
            emit(
                diags,
                CheckId::Unsafe,
                &file.rel_path,
                line,
                "`unsafe` without a `// SAFETY:` comment on the line(s) directly \
                 above: state the invariant that makes this sound"
                    .to_string(),
            );
        }
    }
}

/// Is there a `SAFETY:` comment attached to `line`? Attached means: on the
/// line itself, or in the contiguous run of comment/attribute-only lines
/// directly above it (a blank line or a code line breaks the run).
fn has_safety_comment(file: &crate::lexer::SourceFile, line: usize) -> bool {
    if file.comment_text(line).contains("SAFETY:") {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let code = file.code_line(l).trim();
        let comment = file.comment_text(l);
        let is_attr_only = !code.is_empty() && code.starts_with('#') && comment.is_empty();
        let is_comment_line = code.is_empty() && !comment.is_empty();
        if is_comment_line {
            if comment.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        if is_attr_only {
            continue;
        }
        break; // blank line or code: the comment run ended
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::Tree;
    use crate::lexer::SourceFile;
    use std::path::PathBuf;

    fn run_on(src: &str) -> Vec<usize> {
        let tree = Tree {
            root: PathBuf::from("."),
            files: vec![SourceFile::parse("crates/x/src/lib.rs", src)],
        };
        let mut diags = Vec::new();
        check(&tree, &mut diags);
        diags.iter().map(|d| d.line).collect()
    }

    #[test]
    fn documented_unsafe_passes() {
        let lines =
            run_on("// SAFETY: the slot is exclusively owned here.\nunsafe { ptr.write(v) };\n");
        assert!(lines.is_empty(), "{lines:?}");
    }

    #[test]
    fn undocumented_unsafe_fires() {
        assert_eq!(run_on("unsafe { ptr.write(v) };\n"), vec![1]);
    }

    #[test]
    fn consecutive_unsafe_items_need_their_own_comments() {
        let src = "// SAFETY: covered.\nunsafe impl Send for A {}\nunsafe impl Sync for A {}\n";
        assert_eq!(run_on(src), vec![3]);
    }

    #[test]
    fn attributes_do_not_break_the_comment_run() {
        let src = "// SAFETY: sound because X.\n#[inline]\nunsafe fn f() {}\n";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn prose_mentions_do_not_count_as_unsafe() {
        assert!(run_on("// this is unsafe in spirit\nlet x = \"unsafe\";\n").is_empty());
    }
}
