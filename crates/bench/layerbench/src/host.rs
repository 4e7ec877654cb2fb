//! What makes a report self-describing: the host it ran on, the code it
//! measured, and the process's memory high-water mark.

use std::path::Path;
use std::process::Command;

/// The CPU model name, from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Threads the host offers this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, or `unknown` outside a git work tree.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--verify", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the path and contents of every `.rs` and `Cargo.toml` file
/// under `root`, in sorted path order: names the measured source when the
/// checkout carries no commit.
pub fn source_fingerprint(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for rel in &files {
        bytes.extend_from_slice(rel.as_bytes());
        bytes.push(0);
        if let Ok(content) = std::fs::read(root.join(rel)) {
            bytes.extend_from_slice(&content);
        }
        bytes.push(0);
    }
    format!("{:016x}", banshee_common::fnv1a64(&bytes))
}

fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                collect_sources(root, &path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
