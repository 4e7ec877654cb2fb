//! Sketch-vs-exact fidelity: how narrow can the CountMinSketch frequency
//! backend get before it changes what the simulator *concludes*?
//!
//! Every design runs the same workloads once with the exact backend and
//! once per swept sketch width. Two fidelity signals are reported per
//! width:
//!
//! * **cell divergence** — the number of (design, workload) cells whose
//!   `SimResult` differs at all from the exact backend's (replacement and
//!   migration decisions feed timing, so any decision flip shows up here);
//! * **ordering divergence** — whether the Figure 4 geo-mean speedup
//!   ordering over the non-baseline designs still matches the exact
//!   backend's ordering (at quick scale: TDC < Banshee < CacheOnly).
//!
//! The headline number is the widest sketch at which the geo-mean ordering
//! breaks: above it the sketch is a safe drop-in for ranking designs.

use crate::runner::Runner;
use crate::table::{fmt2, write_json, Table};
use banshee_common::FrequencyBackendKind;
use banshee_dcache::DramCacheDesign;
use banshee_sim::SimResult;
use banshee_workloads::WorkloadKind;
use serde::Serialize;
use std::collections::HashMap;

/// Sketch widths swept by default, widest (most faithful) first. Depth is
/// fixed at [`DEPTH`]; at 4-bit counters a width-`w` sketch costs
/// `w / 2` bytes per row.
pub const WIDTHS: [u32; 4] = [16384, 4096, 1024, 256];

/// Sketch depth (hash rows) used for every swept width.
pub const DEPTH: u32 = 4;

/// The designs whose geo-mean ordering the experiment guards. NoCache is
/// the speedup baseline; it and CacheOnly never consult the frequency
/// tracker, so their per-backend results double as a purity control (they
/// must never diverge).
pub fn lineup() -> Vec<DramCacheDesign> {
    vec![
        DramCacheDesign::NoCache,
        DramCacheDesign::CacheOnly,
        DramCacheDesign::Tdc,
        DramCacheDesign::Banshee,
    ]
}

/// Fidelity of one backend against the exact reference.
#[derive(Debug, Clone, Serialize)]
pub struct BackendFidelity {
    /// Backend label ("exact" or "cms:<width>x<depth>").
    pub backend: String,
    /// Sketch width (None for the exact reference row).
    pub width: Option<u32>,
    /// Geo-mean speedup over NoCache, per design (lineup order, baseline
    /// excluded).
    pub geomean_speedup: Vec<(String, f64)>,
    /// Non-baseline designs sorted by ascending geo-mean speedup.
    pub ordering: Vec<String>,
    /// True if `ordering` matches the exact backend's.
    pub ordering_matches_exact: bool,
    /// Number of (design, workload) cells whose result differs from the
    /// exact backend's result for the same cell.
    pub diverging_cells: usize,
    /// Largest relative IPC deviation from the exact backend over all
    /// cells, as a fraction (0.03 = 3%).
    pub max_rel_ipc_delta: f64,
}

/// The full experiment.
#[derive(Debug, Clone, Serialize, Default)]
pub struct SketchFidelity {
    /// Workload labels.
    pub workloads: Vec<String>,
    /// Design labels (lineup order; first is the speedup baseline).
    pub designs: Vec<String>,
    /// One row per backend; the exact reference first, then widths
    /// descending.
    pub backends: Vec<BackendFidelity>,
    /// The widest swept width whose geo-mean ordering differs from the
    /// exact backend's (None: every width preserves the ordering).
    pub first_diverging_width: Option<u32>,
}

fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        0.0
    } else {
        (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
    }
}

/// Run the sweep: every (backend, design, workload) cell goes through the
/// engine as one batch (store-resumable like any other experiment).
pub fn run(runner: &Runner, workloads: &[WorkloadKind], widths: &[u32]) -> SketchFidelity {
    let designs = lineup();
    let backends: Vec<FrequencyBackendKind> = std::iter::once(FrequencyBackendKind::Exact)
        .chain(widths.iter().map(|&width| FrequencyBackendKind::Cms {
            width,
            depth: DEPTH,
        }))
        .collect();

    let mut cells = Vec::new();
    for &backend in &backends {
        for &design in &designs {
            for &workload in workloads {
                let mut cfg = runner.config(design);
                cfg.frequency_backend = backend;
                cells.push((cfg, workload));
            }
        }
    }
    let mut results = runner.run_batch(cells).into_iter();
    // (backend label, design label, workload label) -> result.
    let mut by_cell: HashMap<(String, String, String), SimResult> = HashMap::new();
    for &backend in &backends {
        for &design in &designs {
            for &workload in workloads {
                by_cell.insert(
                    (backend.label(), design.label(), workload.name()),
                    results.next().expect("one result per cell"),
                );
            }
        }
    }

    let baseline = designs[0].label();
    let ranked: Vec<String> = designs.iter().skip(1).map(|d| d.label()).collect();
    let mut fidelity = SketchFidelity {
        workloads: workloads.iter().map(|w| w.name()).collect(),
        designs: designs.iter().map(|d| d.label()).collect(),
        ..SketchFidelity::default()
    };
    let mut exact_ordering: Vec<String> = Vec::new();
    for &backend in &backends {
        let label = backend.label();
        let cell = |design: &str, workload: &str| {
            by_cell
                .get(&(label.clone(), design.to_string(), workload.to_string()))
                .expect("full matrix")
        };
        let mut geomean_speedup = Vec::new();
        for design in &ranked {
            let speedups: Vec<f64> = fidelity
                .workloads
                .iter()
                .map(|w| cell(design, w).speedup_over(cell(&baseline, w)))
                .collect();
            geomean_speedup.push((design.clone(), geomean(&speedups)));
        }
        let mut ordering = geomean_speedup.clone();
        ordering.sort_by(|a, b| a.1.total_cmp(&b.1));
        let ordering: Vec<String> = ordering.into_iter().map(|(d, _)| d).collect();
        if backend == FrequencyBackendKind::Exact {
            exact_ordering = ordering.clone();
        }

        let mut diverging_cells = 0usize;
        let mut max_rel_ipc_delta = 0.0f64;
        for design in &fidelity.designs {
            for w in &fidelity.workloads {
                let exact = by_cell
                    .get(&("exact".to_string(), design.clone(), w.clone()))
                    .expect("exact reference");
                let this = cell(design, w);
                let exact_json = serde_json::to_string(exact).expect("serializable");
                let this_json = serde_json::to_string(this).expect("serializable");
                if exact_json != this_json {
                    diverging_cells += 1;
                }
                if exact.ipc() > 0.0 {
                    let delta = (this.ipc() - exact.ipc()).abs() / exact.ipc();
                    max_rel_ipc_delta = max_rel_ipc_delta.max(delta);
                }
            }
        }

        let width = match backend {
            FrequencyBackendKind::Exact => None,
            FrequencyBackendKind::Cms { width, .. } => Some(width),
        };
        let ordering_matches_exact = ordering == exact_ordering;
        if let (Some(width), false, None) = (
            width,
            ordering_matches_exact,
            fidelity.first_diverging_width,
        ) {
            fidelity.first_diverging_width = Some(width);
        }
        fidelity.backends.push(BackendFidelity {
            backend: label,
            width,
            geomean_speedup,
            ordering,
            ordering_matches_exact,
            diverging_cells,
            max_rel_ipc_delta,
        });
    }
    fidelity
}

/// Print and persist the experiment.
pub fn report(runner: &Runner, workloads: &[WorkloadKind]) -> Vec<Table> {
    let fidelity = run(runner, workloads, &WIDTHS);
    let mut header: Vec<String> = vec!["backend".to_string()];
    for (design, _) in &fidelity.backends[0].geomean_speedup {
        header.push(format!("gm {design}"));
    }
    header.extend(["ordering ok", "divergent cells", "max IPC delta"].map(String::from));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Sketch fidelity: CountMinSketch vs exact frequency tracking",
        &header_refs,
    );
    for b in &fidelity.backends {
        let mut row = vec![b.backend.clone()];
        row.extend(b.geomean_speedup.iter().map(|(_, gm)| fmt2(*gm)));
        row.push(
            if b.ordering_matches_exact {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        );
        row.push(b.diverging_cells.to_string());
        row.push(format!("{:.2}%", b.max_rel_ipc_delta * 100.0));
        t.row(row);
    }
    let _ = write_json("sketch_fidelity", &fidelity);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentScale;
    use banshee_workloads::SpecProgram;

    #[test]
    fn exact_reference_never_diverges_from_itself() {
        let runner = Runner::new(ExperimentScale::Smoke);
        let workloads = [WorkloadKind::Spec(SpecProgram::Mcf)];
        let fidelity = run(&runner, &workloads, &[1024]);
        assert_eq!(fidelity.backends.len(), 2);
        let exact = &fidelity.backends[0];
        assert_eq!(exact.backend, "exact");
        assert_eq!(exact.diverging_cells, 0);
        assert!(exact.ordering_matches_exact);
        assert_eq!(exact.max_rel_ipc_delta, 0.0);
        // Designs that never consult the tracker are byte-identical under
        // the sketch: divergence can only come from tracker users, so it is
        // bounded by their cell count.
        let sketch = &fidelity.backends[1];
        assert_eq!(sketch.backend, "cms:1024x4");
        assert_eq!(sketch.width, Some(1024));
        assert!(
            sketch.diverging_cells <= 2 * workloads.len(),
            "only TDC and Banshee consult the tracker, got {} divergent cells",
            sketch.diverging_cells
        );
        // Speedups are real numbers for every backend.
        for b in &fidelity.backends {
            for (_, gm) in &b.geomean_speedup {
                assert!(*gm > 0.0);
            }
        }
    }
}
