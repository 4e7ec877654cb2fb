//! Turning passes and traced cells into named metrics, and printing them.

use crate::cells::{CellRun, Pass};
use crate::traced::{Stage, TracedCell};
use banshee_common::DramKind;
use banshee_sim::SimResult;
use std::fmt::Write as _;
use std::time::Duration;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `values` (mean of the middle two for an even count; NaN for
/// none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` of `values` (NaN for none).
pub fn quantile(values: &[u64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

/// Checked results of a pass by design slug.
fn result<'a>(pass: &'a Pass, slug: &str) -> Option<&'a SimResult> {
    pass.cell(slug).and_then(CellRun::checked)
}

/// The end-to-end metrics of an untraced run. Host times come from the
/// `timed` passes and take each design's best cell over them: on a shared
/// host, interference only ever slows a cell, and it comes and goes in
/// spells that would move a median by their share of the run. `wall_s` is
/// the pass built from each design's shortest cell plus the median pass
/// overhead, `setup_s` and `instr_per_s` use each design's shortest set-up
/// and simulation, and `instr_per_s.banshee` the fastest `banshee` cell.
/// Simulated results come from the full-budget `reference` pass.
pub fn end_to_end(reference: &Pass, timed: &[Pass], peak_rss_mib: f64) -> Vec<Metric> {
    let designs = timed.first().map_or(0, |p| p.cells.len());
    let fastest = |i: usize, f: &dyn Fn(&CellRun) -> Duration| -> f64 {
        let times = timed.iter().map(|p| f(&p.cells[i]));
        times.min().unwrap_or_default().as_secs_f64()
    };
    let best =
        |f: &dyn Fn(&CellRun) -> Duration| -> f64 { (0..designs).map(|i| fastest(i, f)).sum() };
    let overhead = median(
        &timed
            .iter()
            .map(|p| {
                let cells: Duration = p.cells.iter().map(CellRun::duration).sum();
                p.wall.saturating_sub(cells).as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    let instructions: u64 = timed
        .first()
        .map_or(0, |p| p.cells.iter().map(CellRun::instructions).sum());
    let banshee_instr_per_s = timed
        .first()
        .and_then(|p| p.cells.iter().position(|c| c.slug == "banshee"))
        .map_or(f64::NAN, |i| {
            let instructions = timed[0].cells[i].instructions() as f64;
            ratio(instructions, fastest(i, &CellRun::sim))
        });
    let mut out = vec![
        metric("wall_s", best(&CellRun::duration) + overhead, "s"),
        metric("setup_s", best(&CellRun::setup), "s"),
        metric(
            "instr_per_s",
            ratio(instructions as f64, best(&CellRun::sim)),
            "instr/s",
        ),
        metric("instr_per_s.banshee", banshee_instr_per_s, "instr/s"),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    let ipc = |slug: &str| result(reference, slug).map_or(f64::NAN, SimResult::ipc);
    let best_prior = ["unison", "tdc", "alloy1", "alloy01"]
        .iter()
        .map(|s| ipc(s))
        .fold(f64::NAN, f64::max);
    let banshee = result(reference, "banshee");
    let bytes = |dram| banshee.map_or(f64::NAN, |r| r.total_bytes_per_instr(dram));
    out.extend([
        metric(
            "sim.banshee_speedup",
            ratio(ipc("banshee"), ipc("nocache")),
            "x",
        ),
        metric(
            "sim.banshee_vs_best",
            ratio(ipc("banshee"), best_prior),
            "x",
        ),
        metric(
            "sim.inpkg_bytes_per_instr.banshee",
            bytes(DramKind::InPackage),
            "B/instr",
        ),
        metric(
            "sim.offpkg_bytes_per_instr.banshee",
            bytes(DramKind::OffPackage),
            "B/instr",
        ),
    ]);
    out
}

/// What a traced run measured besides the traced cells themselves.
#[derive(Debug, Clone)]
pub struct TraceInputs<'a> {
    /// The untraced reference pass.
    pub pass: &'a Pass,
    /// Traced cells with their design slugs, in lineup order.
    pub traced: &'a [(&'static str, TracedCell)],
    /// Self-profiler time / simulation time of the telemetry-on pass.
    pub profile_attributed_share: f64,
    /// Simulation time of the telemetry-on pass / that of the reference
    /// pass.
    pub telemetry_overhead: f64,
    /// Cells run and cells that failed a check, over the whole invocation.
    pub cells_attempted: usize,
    /// See `cells_attempted`.
    pub cells_failed: usize,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(inp: &TraceInputs<'_>) -> Vec<Metric> {
    let pass = inp.pass;
    let traced: Vec<&TracedCell> = inp.traced.iter().map(|(_, t)| t).collect();
    let results: Vec<(&CellRun, &SimResult)> = pass
        .cells
        .iter()
        .filter_map(|c| c.checked().map(|r| (c, r)))
        .collect();
    let sum_t = |f: &dyn Fn(&TracedCell) -> f64| traced.iter().map(|t| f(t)).sum::<f64>();
    let sum_r = |f: &dyn Fn(&SimResult) -> f64| results.iter().map(|(_, r)| f(r)).sum::<f64>();
    let stat = |name: &'static str| move |r: &SimResult| r.stats.get(name) as f64;

    let accesses = sum_t(&|t| t.counts.accesses as f64);
    let traced_instr = sum_t(&|t| t.counts.instructions as f64);
    let executed_instr: f64 = results.iter().map(|(c, _)| c.instructions() as f64).sum();
    let measured_instr = sum_r(&|r| r.instructions as f64);
    let breakdowns: Vec<[f64; 8]> = traced.iter().map(|t| t.breakdown()).collect();
    let part = |i: usize| breakdowns.iter().map(|b| b[i]).sum::<f64>();
    let total_ns: f64 = breakdowns.iter().flatten().sum();
    let est = |s: Stage| part(s as usize);
    let other_ns = part(7);
    let per_call = |s: Stage| ratio(est(s), sum_t(&|t| t.stage(s).calls as f64));
    let pooled = |f: &dyn Fn(&TracedCell) -> &Vec<u64>| {
        traced
            .iter()
            .flat_map(|t| f(t).iter().copied())
            .collect::<Vec<u64>>()
    };
    let controller_ns = pooled(&|t| &t.controller_ns);
    let step_ns = pooled(&|t| &t.step_ns);
    let banshee = pass
        .cell("banshee")
        .and_then(|c| c.checked().map(|r| (c, r)));
    let banshee_pki = |name: &'static str| {
        banshee.map_or(f64::NAN, |(c, r)| {
            ratio(r.stats.get(name) as f64 * 1000.0, c.instructions() as f64)
        })
    };
    let banshee_stat = |name: &'static str| banshee.map_or(f64::NAN, |(_, r)| stat(name)(r));

    let mut out = vec![
        metric("workloads.build_s", sum_t(&|t| t.build.as_secs_f64()), "s"),
        metric(
            "workloads.trace_ns_per_access",
            ratio(est(Stage::Trace), accesses),
            "ns",
        ),
        metric(
            "workloads.accesses_per_kinstr",
            ratio(accesses * 1000.0, traced_instr),
            "1/kinstr",
        ),
        metric(
            "memhier.translate_ns_per_access",
            ratio(est(Stage::Translate), accesses),
            "ns",
        ),
        metric(
            "memhier.tlb_mpki",
            ratio(sum_r(&stat("tlb_misses")) * 1000.0, executed_instr),
            "1/kinstr",
        ),
        metric(
            "memhier.sram_ns_per_access",
            ratio(est(Stage::Sram), accesses),
            "ns",
        ),
        metric(
            "memhier.llc_mpki",
            ratio(sum_r(&|r| r.llc_misses as f64) * 1000.0, measured_instr),
            "1/kinstr",
        ),
        metric(
            "memhier.writebacks_pki",
            ratio(
                sum_t(&|t| t.counts.llc_writebacks as f64) * 1000.0,
                traced_instr,
            ),
            "1/kinstr",
        ),
        metric(
            "dcache.controller_ns_per_request",
            per_call(Stage::Controller),
            "ns",
        ),
        metric(
            "dcache.controller_ns_p50",
            quantile(&controller_ns, 0.5),
            "ns",
        ),
        metric(
            "dcache.controller_ns_p99",
            quantile(&controller_ns, 0.99),
            "ns",
        ),
    ];
    for (slug, t) in inp.traced {
        out.push(metric(
            format!("dcache.controller_ns_per_request.{slug}"),
            ratio(
                t.breakdown()[Stage::Controller as usize],
                t.stage(Stage::Controller).calls as f64,
            ),
            "ns",
        ));
    }
    out.extend([
        metric(
            "dcache.requests_pki",
            ratio(
                sum_t(&|t| t.counts.controller_requests as f64) * 1000.0,
                traced_instr,
            ),
            "1/kinstr",
        ),
        metric(
            "dcache.miss_rate",
            ratio(
                sum_r(&|r| r.dram_cache_misses as f64),
                sum_r(&|r| r.dram_cache_accesses as f64),
            ),
            "ratio",
        ),
        metric(
            "dcache.miss_rate.banshee",
            banshee.map_or(f64::NAN, |(_, r)| r.dram_cache_miss_rate()),
            "ratio",
        ),
        metric(
            "banshee.replacements_pki",
            banshee_pki("banshee_replacements"),
            "1/kinstr",
        ),
        metric(
            "banshee.sampled_accesses_pki",
            banshee_pki("banshee_sampled_accesses"),
            "1/kinstr",
        ),
        metric(
            "banshee.tag_buffer_hit_rate",
            ratio(
                banshee_stat("banshee_tag_buffer_hits"),
                banshee_stat("banshee_tag_buffer_lookups"),
            ),
            "ratio",
        ),
        metric(
            "banshee.pte_updates",
            banshee_stat("banshee_pte_updates"),
            "count",
        ),
        metric(
            "banshee.tag_buffer_flushes",
            banshee_stat("banshee_tag_buffer_flushes"),
            "count",
        ),
        metric("dram.ns_per_op", per_call(Stage::Dram), "ns"),
        metric(
            "dram.ops_per_request",
            ratio(
                sum_t(&|t| t.counts.dram_ops as f64),
                sum_t(&|t| t.counts.controller_requests as f64),
            ),
            "ops",
        ),
        metric(
            "dram.inpkg_bytes_per_instr",
            ratio(
                sum_r(&|r| r.traffic.total(DramKind::InPackage) as f64),
                measured_instr,
            ),
            "B/instr",
        ),
        metric(
            "dram.offpkg_bytes_per_instr",
            ratio(
                sum_r(&|r| r.traffic.total(DramKind::OffPackage) as f64),
                measured_instr,
            ),
            "B/instr",
        ),
        metric(
            "dram.write_drains_pki",
            ratio(
                (sum_r(&stat("in_dram_write_drains")) + sum_r(&stat("off_dram_write_drains")))
                    * 1000.0,
                executed_instr,
            ),
            "1/kinstr",
        ),
        metric(
            "dram.inpkg_row_hit_pct.banshee",
            banshee_stat("in_dram_row_hit_pct"),
            "%",
        ),
        metric(
            "sim.core_ns_per_access",
            ratio(est(Stage::Core), accesses),
            "ns",
        ),
        metric(
            "sim.side_effects_ns_per_access",
            ratio(est(Stage::SideEffects), accesses),
            "ns",
        ),
        metric("sim.other_ns_per_access", ratio(other_ns, accesses), "ns"),
        metric("sim.step_ns_p50", quantile(&step_ns, 0.5), "ns"),
        metric("sim.step_ns_p99", quantile(&step_ns, 0.99), "ns"),
        metric(
            "sim.stall_cycles_per_instr",
            ratio(sum_r(&stat("core_stall_cycles")), executed_instr),
            "cycles/instr",
        ),
    ]);
    for s in Stage::ALL {
        out.push(metric(
            format!("share.{}", s.name()),
            ratio(est(s), total_ns),
            "ratio",
        ));
    }
    out.extend([
        metric("share.other", ratio(other_ns, total_ns), "ratio"),
        metric(
            "exec.overhead_s",
            (pass.wall - pass.setup() - pass.sim()).as_secs_f64(),
            "s",
        ),
        metric("cells_attempted", inp.cells_attempted as f64, "count"),
        metric("cells_failed", inp.cells_failed as f64, "count"),
        metric(
            "telemetry.profile_attributed_share",
            inp.profile_attributed_share,
            "ratio",
        ),
        metric("telemetry.overhead", inp.telemetry_overhead, "x"),
        metric(
            "trace.overhead",
            ratio(
                sum_t(&|t| t.run_time.as_nanos() as f64),
                pass.sim().as_nanos() as f64,
            ),
            "x",
        ),
        metric(
            "trace.result_match",
            if traced.iter().all(|t| t.mismatches.is_empty()) && traced.len() == pass.cells.len() {
                1.0
            } else {
                0.0
            },
            "bool",
        ),
    ]);
    out
}

/// The result line: `correct`, `attempted`, `failed` and every finite
/// metric with its unit, as one JSON object.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().filter(|m| m.value.is_finite()).enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
