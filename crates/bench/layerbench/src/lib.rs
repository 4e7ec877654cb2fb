//! `layerbench`: the same-host benchmark of the Banshee simulator, end to
//! end and layer by layer.
//!
//! One invocation runs one named workload in one process, on one simulation
//! thread: the Figure 4 design lineup ([`DramCacheDesign::figure4_lineup`],
//! seven designs) at quick-scale geometry (16 cores, 16 MiB DRAM cache,
//! footprint 4x the cache), driven through the public
//! [`banshee_bench::Runner`] batch API with no result store and `jobs = 1`.
//! Cells run closed-loop, one after another, so there is no arrival rate:
//! the user-facing quantities are how long a lineup takes and how many
//! simulated instructions a host second buys.
//!
//! An untraced run first runs the lineup once at the quick scale's own
//! instruction budget (the *reference pass*, 6M instructions per cell),
//! whose results give the `sim.*` metrics. It then repeats the lineup at
//! 1/[`workload::TIMING_DIVISOR`] of that budget (*timed passes*) while
//! another one fits the time budget (at least twice). Host times take each
//! design's best timed cell over the run ([`metrics::end_to_end`]): on a
//! shared host, interference only slows a cell, and it comes in spells of
//! a fraction of a second to minutes. Dozens of short cells per design find
//! the quiet spells that a few long ones average away. The time budget is
//! `--seconds`, by default `run_seconds` of `BENCHMARK.json` at quick scale
//! and 0 at smoke scale (where both kinds of pass run the smoke budget).
//! Every cell is checked: it finished, executed its instruction budget and
//! conserved DRAM traffic, and every repeated timed cell reproduced the
//! first timed pass's result exactly. A traced run also checks that a
//! telemetry-on reference pass reproduces the telemetry-off one exactly.
//!
//! # Workloads and why each was chosen
//!
//! * `mcf-thrash` — mcf at 4x the DRAM cache, the paper's regime and the
//!   input `BENCH_hotpath.json` times. Replacement-heavy: the `dcache` /
//!   `banshee` controllers and the `dram` channel model do most of the work.
//! * `lbm-writes` — lbm, 45% stores, pure streaming. The same layers on the
//!   write path (write drains about twice mcf's); TLB misses are ~8x fewer,
//!   so a translation change should not move it.
//!
//! PageRank over a shared power-law graph is not a workload here: graph
//! construction takes ~0.7 s of every cell, so a run times each design only
//! a handful of times, and with short cells its host speed per instruction
//! depends on the seed's graph (Banshee's rate spread 35% over five seeds).
//! No steady end-to-end host time came out of it, so it was dropped.
//!
//! `common::telemetry` has no workload of its own: every traced run adds a
//! telemetry-on lineup pass (`Runner::with_telemetry`, recorder and
//! self-profiler on), checks it against the telemetry-off pass and reports
//! its cost. An untraced workload with telemetry on would spend 11-16 s
//! per lineup pass on a 2-vCPU host: too few repeats in a run for a steady
//! host time.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Host time of the timed passes unless prefixed `sim.`: `wall_s` (one
//! timed lineup pass, from each design's shortest cell plus the median pass
//! overhead), `setup_s` (a pass's cell time outside simulation, as the
//! runner reports it: building the `System`s — traces, hierarchy,
//! controller, DRAM — and dropping them), `instr_per_s` (warm-up plus
//! measured instructions per host second of simulation, set-up excluded),
//! `instr_per_s.banshee` (the fastest timed Banshee cell), `peak_rss_mib`
//! (the process high-water mark after the reference pass; the timed passes
//! reuse its freed heap), and the deterministic simulated results of the
//! reference pass: `sim.banshee_speedup` (IPC over NoCache), `sim.banshee_vs_best`
//! (IPC over the best of Unison, TDC, Alloy 1 and Alloy 0.1) and
//! `sim.{inpkg,offpkg}_bytes_per_instr.banshee`. A change meant only to
//! speed up the simulator leaves the `sim.*` values bit-identical.
//!
//! # Layer -> metric -> end-to-end map (`--trace 1`)
//!
//! | layer | per-layer metrics | should move |
//! |---|---|---|
//! | `workloads` | `workloads.build_s` | `setup_s`, all |
//! | `workloads` | `workloads.trace_ns_per_access`, `.accesses_per_kinstr` | `instr_per_s`, all |
//! | `memhier` | `memhier.translate_ns_per_access`, `.tlb_mpki` | `instr_per_s` on mcf-thrash; not lbm-writes |
//! | `memhier` | `memhier.sram_ns_per_access`, `.llc_mpki`, `.writebacks_pki` | `instr_per_s`, all |
//! | `dcache` | `dcache.controller_ns_{per_request,p50,p99}`, per design, `.requests_pki`, `.miss_rate[.banshee]` | `instr_per_s` on mcf-thrash, lbm-writes |
//! | `core` (Banshee) | `banshee.{replacements_pki,sampled_accesses_pki,tag_buffer_hit_rate,pte_updates,tag_buffer_flushes}` | `instr_per_s.banshee` on mcf-thrash |
//! | `dram` | `dram.{ns_per_op,ops_per_request,inpkg_bytes_per_instr,offpkg_bytes_per_instr,write_drains_pki,inpkg_row_hit_pct.banshee}` | `instr_per_s` on lbm-writes, mcf-thrash |
//! | `sim` | `sim.{core,side_effects,other}_ns_per_access`, `sim.step_ns_{p50,p99}`, `sim.stall_cycles_per_instr` | `instr_per_s`, all |
//! | all stages | `share.{trace,translate,sram,controller,dram,core,side_effects,other}` (sum to 1) | — |
//! | `exec`, `bench::runner` | `exec.overhead_s`, `cells_attempted`, `cells_failed` | `wall_s`, all |
//! | `common::telemetry` | `telemetry.profile_attributed_share`, `telemetry.overhead` | telemetry-on runs only; no end-to-end metric here |
//! | tracing itself | `trace.overhead`, `trace.result_match` | — |
//!
//! Counts come from the untraced [`banshee_sim::SimResult`]s (or the traced
//! driver's exact counters) and repeat exactly; `*_ns*` and `share.*` come
//! from the traced driver in [`traced`], which re-steps each cell through
//! the layers' public entry points and times one access in 2^k from
//! outside. The traced run's counters must agree with the untraced result
//! (`trace.result_match = 1`) before its layer times are trusted.
//!
//! # Relation to the committed baselines
//!
//! `BENCH_hotpath.json`, `BENCH_standard.json` and their CI gates are left
//! as they are; this benchmark measures the code beside them and changes
//! nothing outside its own directory.

pub mod cells;
pub mod host;
pub mod metrics;
pub mod traced;
pub mod workload;

pub use banshee_dcache::DramCacheDesign;
