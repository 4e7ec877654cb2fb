//! Simulation configuration (the paper's Tables 2 and 3, plus scaling knobs
//! for laptop-sized runs).

use banshee::BansheeConfig;
use banshee_common::{Cycle, MemSize};
use banshee_dcache::{DCacheConfig, DramCacheDesign};
use banshee_dram::DramConfig;
use banshee_memhier::HierarchyConfig;
use std::fmt;

/// Everything needed to run one simulation.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of cores (16 in Table 2).
    pub cores: usize,
    /// Which DRAM-cache design to simulate.
    pub design: DramCacheDesign,
    /// Shared DRAM-cache geometry (capacity, ways, footprint granularity).
    pub dcache: DCacheConfig,
    /// SRAM hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// In-package DRAM device configuration.
    pub in_dram: DramConfig,
    /// Off-package DRAM device configuration.
    pub off_dram: DramConfig,
    /// Outstanding LLC misses a core tolerates before stalling (MLP window).
    pub mlp_per_core: usize,
    /// Per-core TLB entries.
    pub tlb_entries: usize,
    /// TLB miss (page-walk) latency in cycles.
    pub tlb_miss_latency: Cycle,
    /// Core issue width (instructions per cycle when not memory stalled).
    pub issue_width: u32,
    /// Interval (in total instructions) between controller `epoch()` calls
    /// (used by HMA's software remapping and BATMAN's rebalancing).
    pub epoch_instructions: u64,
    /// Instructions (summed over cores) executed before measurement starts.
    /// Warm-up fills the SRAM caches and the DRAM cache so that the measured
    /// phase reflects steady-state behaviour, standing in for the paper's
    /// 100-billion-instruction runs.
    pub warmup_instructions: u64,
    /// Total *measured* instructions (summed over cores) to simulate after
    /// warm-up.
    pub total_instructions: u64,
    /// Cost charged when a batched page-table update is applied, in
    /// microseconds (Table 3 default 20 µs; Table 5 sweeps 10/20/40 µs).
    pub pte_update_cost_us: f64,
    /// TLB shootdown cost for the initiating core (µs).
    pub shootdown_initiator_us: f64,
    /// TLB shootdown cost for every other core (µs).
    pub shootdown_slave_us: f64,
    /// Wrap the selected design with BATMAN bandwidth balancing
    /// (Section 5.4.2).
    pub use_batman: bool,
    /// Run with 2 MiB large pages (Section 5.4.1): address translation and
    /// the Banshee caching unit switch to 2 MiB granularity.
    pub large_pages: bool,
    /// Optional explicit Banshee configuration (otherwise derived from
    /// `dcache`).
    pub banshee: Option<BansheeConfig>,
    /// RNG seed forwarded to stochastic components.
    pub seed: u64,
}

/// Hand-rolled to stay byte-identical to the historical *derived* output:
/// the `Debug` string is result-store key material (see
/// [`SimConfig::cache_key_material`]), so a field added here would orphan
/// every persisted result of an unchanged simulation. The exhaustive
/// destructuring makes adding a field without deciding its key-material
/// treatment a compile error.
impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let SimConfig {
            cores,
            design,
            dcache,
            hierarchy,
            in_dram,
            off_dram,
            mlp_per_core,
            tlb_entries,
            tlb_miss_latency,
            issue_width,
            epoch_instructions,
            warmup_instructions,
            total_instructions,
            pte_update_cost_us,
            shootdown_initiator_us,
            shootdown_slave_us,
            use_batman,
            large_pages,
            banshee,
            seed,
        } = self;
        f.debug_struct("SimConfig")
            .field("cores", cores)
            .field("design", design)
            .field("dcache", dcache)
            .field("hierarchy", hierarchy)
            .field("in_dram", in_dram)
            .field("off_dram", off_dram)
            .field("mlp_per_core", mlp_per_core)
            .field("tlb_entries", tlb_entries)
            .field("tlb_miss_latency", tlb_miss_latency)
            .field("issue_width", issue_width)
            .field("epoch_instructions", epoch_instructions)
            .field("warmup_instructions", warmup_instructions)
            .field("total_instructions", total_instructions)
            .field("pte_update_cost_us", pte_update_cost_us)
            .field("shootdown_initiator_us", shootdown_initiator_us)
            .field("shootdown_slave_us", shootdown_slave_us)
            .field("use_batman", use_batman)
            .field("large_pages", large_pages)
            .field("banshee", banshee)
            .field("seed", seed)
            .finish()
    }
}

impl SimConfig {
    /// The paper's full-scale configuration (Tables 2 and 3) for a design.
    /// Slow: 1 GB DRAM cache and billions of instructions are not laptop
    /// material; prefer [`SimConfig::scaled`] for experiments.
    pub fn paper_default(design: DramCacheDesign) -> Self {
        SimConfig {
            cores: 16,
            design,
            dcache: DCacheConfig::paper_default(),
            hierarchy: HierarchyConfig::paper_default(16),
            in_dram: DramConfig::in_package_default(),
            off_dram: DramConfig::off_package_default(),
            mlp_per_core: 10,
            tlb_entries: 64,
            tlb_miss_latency: 50,
            issue_width: 4,
            epoch_instructions: 2_000_000,
            warmup_instructions: 400_000_000,
            total_instructions: 1_600_000_000,
            pte_update_cost_us: 20.0,
            shootdown_initiator_us: 4.0,
            shootdown_slave_us: 1.0,
            use_batman: false,
            large_pages: false,
            banshee: None,
            seed: 1,
        }
    }

    /// A scaled-down configuration that keeps the paper's *shape* (relative
    /// cache sizes, bandwidth ratio, per-core MLP) while shrinking capacity
    /// and instruction counts so a full figure sweep runs in minutes.
    ///
    /// `dram_cache_capacity` is the in-package capacity to model; the LLC is
    /// scaled to 1/32 of it (the paper's 8 MiB : 1 GiB is 1/128, but a
    /// too-small LLC under-uses the scaled traces).
    pub fn scaled(design: DramCacheDesign, dram_cache_capacity: MemSize) -> Self {
        let mut cfg = Self::paper_default(design);
        cfg.dcache = DCacheConfig::scaled(dram_cache_capacity);
        let llc = MemSize::bytes((dram_cache_capacity.as_bytes() / 32).max(256 * 1024));
        cfg.hierarchy = HierarchyConfig {
            llc_size: llc,
            ..HierarchyConfig::paper_default(cfg.cores)
        };
        cfg.in_dram.capacity = dram_cache_capacity;
        cfg.warmup_instructions = 6_000_000;
        cfg.total_instructions = 10_000_000;
        cfg.epoch_instructions = 500_000;
        cfg
    }

    /// A tiny configuration for unit/integration tests (seconds, not
    /// minutes).
    pub fn test_default(design: DramCacheDesign) -> Self {
        let mut cfg = Self::scaled(design, MemSize::mib(8));
        cfg.cores = 4;
        cfg.hierarchy = HierarchyConfig {
            llc_size: MemSize::kib(256),
            ..HierarchyConfig::paper_default(4)
        };
        cfg.warmup_instructions = 150_000;
        cfg.total_instructions = 400_000;
        cfg.epoch_instructions = 100_000;
        cfg
    }

    /// Scale the in-package DRAM's bandwidth relative to off-package
    /// (Figure 8c sweeps 2×/4×/8×) by adjusting the channel count.
    pub fn with_dram_cache_bandwidth_ratio(mut self, ratio: usize) -> Self {
        self.in_dram.channels = ratio.max(1);
        self
    }

    /// Scale the in-package DRAM's access latency (Figure 8b sweeps 100%,
    /// 66%, 50% of off-package latency).
    pub fn with_dram_cache_latency_scale(mut self, scale: f64) -> Self {
        self.in_dram.latency_scale = scale;
        self
    }

    /// Behavioural revision of the simulator model. **Bump this whenever a
    /// change alters simulation *results* without changing any `SimConfig`
    /// field** (e.g. fixing a design's cost model): it is folded into
    /// [`SimConfig::cache_key_material`], so bumping it invalidates every
    /// persisted result-store entry computed by the old model.
    ///
    /// Revision history:
    /// 1. initial model;
    /// 2. FR-FCFS request-queue DRAM scheduling (write queues, bounded bank
    ///    queues, refresh, page policy) + the honest TDC cost model (in-DRAM
    ///    page map and fill charges).
    pub const MODEL_REVISION: u32 = 2;

    /// A canonical, human-readable description of every input that affects
    /// the simulation outcome, used by result stores to key cached results.
    ///
    /// Built from [`SimConfig::MODEL_REVISION`] plus the derived `Debug`
    /// representation, which covers all fields: any configuration change
    /// (including newly added fields) changes the material, so a stale
    /// cache entry can never be returned for a different configuration —
    /// and code changes that keep the config shape must bump the revision.
    pub fn cache_key_material(&self) -> String {
        format!("model-rev={}|{self:?}", Self::MODEL_REVISION)
    }

    /// Key material for *warmed-state snapshots*: like
    /// [`SimConfig::cache_key_material`] but with the measurement budget
    /// (`total_instructions`) normalised away, because the warmed state at
    /// the end of warm-up is identical for every run that differs only in
    /// how long it measures afterwards. Two configurations share a warmed
    /// image exactly when this string (plus the workload name, appended by
    /// the snapshot layer) is equal.
    pub fn warmup_key_material(&self) -> String {
        let mut normalized = self.clone();
        normalized.total_instructions = 0;
        format!("model-rev={}|warmup|{normalized:?}", Self::MODEL_REVISION)
    }

    /// Apply a scenario file's system-config overrides (see
    /// `banshee_workloads::ScenarioOverrides`) to this configuration.
    ///
    /// `dram_cache_mib` rescales the DRAM cache the same way
    /// [`SimConfig::scaled`] does (capacity, in-package DRAM size and the
    /// LLC at 1/32 of the cache), so a scenario can shrink or grow the
    /// whole machine with one knob; the other overrides set their field
    /// directly. Every overridden field is part of the derived `Debug`
    /// representation, so [`SimConfig::cache_key_material`] keys overridden
    /// cells apart from default ones automatically.
    pub fn apply_scenario_overrides(&mut self, o: &banshee_workloads::ScenarioOverrides) {
        if let Some(mib) = o.dram_cache_mib {
            let capacity = MemSize::mib(mib);
            self.dcache = banshee_dcache::DCacheConfig::scaled(capacity);
            self.in_dram.capacity = capacity;
            self.hierarchy.llc_size = MemSize::bytes((capacity.as_bytes() / 32).max(256 * 1024));
        }
        if let Some(cores) = o.cores {
            self.cores = cores;
            self.hierarchy = HierarchyConfig {
                llc_size: self.hierarchy.llc_size,
                ..HierarchyConfig::paper_default(cores)
            };
        }
        if let Some(v) = o.total_instructions {
            self.total_instructions = v;
        }
        if let Some(v) = o.warmup_instructions {
            self.warmup_instructions = v;
        }
        if let Some(v) = o.epoch_instructions {
            self.epoch_instructions = v;
        }
        if let Some(v) = o.mlp_per_core {
            self.mlp_per_core = v;
        }
        if let Some(v) = o.tlb_entries {
            self.tlb_entries = v;
        }
        if let Some(v) = o.issue_width {
            self.issue_width = v;
        }
        if let Some(v) = o.bandwidth_ratio {
            *self = self.clone().with_dram_cache_bandwidth_ratio(v);
        }
        if let Some(v) = o.latency_scale {
            *self = self.clone().with_dram_cache_latency_scale(v);
        }
        if let Some(v) = o.large_pages {
            self.large_pages = v;
        }
        if let Some(v) = o.use_batman {
            self.use_batman = v;
        }
        if let Some(v) = o.dram_scheduler {
            let kind = match v {
                banshee_workloads::DramSchedulerOverride::Fcfs => banshee_dram::SchedulerKind::Fcfs,
                banshee_workloads::DramSchedulerOverride::FrFcfs => {
                    banshee_dram::SchedulerKind::FrFcfs
                }
            };
            self.in_dram.scheduler = kind;
            self.off_dram.scheduler = kind;
        }
        if let Some(v) = o.dram_page_policy {
            let policy = match v {
                banshee_workloads::DramPagePolicyOverride::Open => banshee_dram::PagePolicy::Open,
                banshee_workloads::DramPagePolicyOverride::Closed => {
                    banshee_dram::PagePolicy::Closed
                }
            };
            self.in_dram.page_policy = policy;
            self.off_dram.page_policy = policy;
        }
        if let Some(depth) = o.dram_write_queue_depth {
            for dram in [&mut self.in_dram, &mut self.off_dram] {
                dram.write_queue_depth = depth;
                // Keep the default 3/4 – 1/4 watermark shape (a depth of 0
                // means writes are serviced immediately; watermarks unused).
                let high = (depth * 3 / 4).max(1).min(depth);
                dram.write_high_watermark = high;
                dram.write_low_watermark = (depth / 4).min(high.saturating_sub(1));
            }
        }
        if let Some(depth) = o.dram_read_queue_depth {
            self.in_dram.read_queue_depth = depth;
            self.off_dram.read_queue_depth = depth;
        }
        if let Some(enabled) = o.dram_refresh {
            for dram in [&mut self.in_dram, &mut self.off_dram] {
                dram.timing.t_refi = if enabled {
                    banshee_dram::DramTiming::paper_default().t_refi
                } else {
                    0
                };
            }
        }
    }

    /// The Banshee configuration this run will use.
    pub fn banshee_config(&self) -> BansheeConfig {
        let base = self
            .banshee
            .clone()
            .unwrap_or_else(|| BansheeConfig::from_dcache(&self.dcache));
        if self.large_pages {
            base.for_large_pages()
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SimConfig::paper_default(DramCacheDesign::Banshee);
        assert_eq!(c.cores, 16);
        assert_eq!(c.dcache.capacity, MemSize::gib(1));
        assert_eq!(c.in_dram.channels, 4);
        assert_eq!(c.off_dram.channels, 1);
        assert_eq!(c.issue_width, 4);
        assert!((c.pte_update_cost_us - 20.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_keeps_relative_shape() {
        let c = SimConfig::scaled(DramCacheDesign::Banshee, MemSize::mib(32));
        assert_eq!(c.dcache.capacity, MemSize::mib(32));
        assert!(c.hierarchy.llc_size.as_bytes() < c.dcache.capacity.as_bytes());
        assert_eq!(c.dcache.ways, 4);
        assert!(c.total_instructions < 100_000_000);
    }

    #[test]
    fn figure8_knobs() {
        let c = SimConfig::test_default(DramCacheDesign::Banshee)
            .with_dram_cache_bandwidth_ratio(8)
            .with_dram_cache_latency_scale(0.5);
        assert_eq!(c.in_dram.channels, 8);
        assert!((c.in_dram.latency_scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_key_material_tracks_every_field() {
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut other_seed = base.clone();
        other_seed.seed += 1;
        let mut other_knob = base.clone();
        other_knob.pte_update_cost_us += 1.0;
        assert_eq!(base.cache_key_material(), base.clone().cache_key_material());
        assert_ne!(base.cache_key_material(), other_seed.cache_key_material());
        assert_ne!(base.cache_key_material(), other_knob.cache_key_material());
        assert_ne!(
            base.cache_key_material(),
            SimConfig::test_default(DramCacheDesign::Tdc).cache_key_material()
        );
    }

    #[test]
    fn warmup_key_material_normalises_only_the_budget() {
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut longer = base.clone();
        longer.total_instructions *= 2;
        // Different budgets are different result-store cells but share a
        // warmed image.
        assert_ne!(base.cache_key_material(), longer.cache_key_material());
        assert_eq!(base.warmup_key_material(), longer.warmup_key_material());
        // Everything else re-keys the snapshot too.
        let mut other_warmup = base.clone();
        other_warmup.warmup_instructions += 1;
        assert_ne!(
            base.warmup_key_material(),
            other_warmup.warmup_key_material()
        );
        let mut other_seed = base.clone();
        other_seed.seed += 1;
        assert_ne!(base.warmup_key_material(), other_seed.warmup_key_material());
    }

    #[test]
    fn scenario_overrides_apply_and_rekey() {
        use banshee_workloads::ScenarioOverrides;
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut cfg = base.clone();
        cfg.apply_scenario_overrides(&ScenarioOverrides::default());
        assert_eq!(cfg.cache_key_material(), base.cache_key_material());

        let overrides = ScenarioOverrides {
            cores: Some(8),
            dram_cache_mib: Some(16),
            total_instructions: Some(123_000),
            bandwidth_ratio: Some(8),
            large_pages: Some(true),
            ..ScenarioOverrides::default()
        };
        cfg.apply_scenario_overrides(&overrides);
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.dcache.capacity, MemSize::mib(16));
        assert_eq!(cfg.in_dram.capacity, MemSize::mib(16));
        assert_eq!(cfg.total_instructions, 123_000);
        assert_eq!(cfg.in_dram.channels, 8);
        assert!(cfg.large_pages);
        // Overridden cells must never collide with default ones in the
        // result store.
        assert_ne!(cfg.cache_key_material(), base.cache_key_material());
    }

    #[test]
    fn dram_scenario_overrides_reach_both_devices() {
        use banshee_dram::{PagePolicy, SchedulerKind};
        use banshee_workloads::{DramPagePolicyOverride, DramSchedulerOverride, ScenarioOverrides};
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut cfg = base.clone();
        cfg.apply_scenario_overrides(&ScenarioOverrides {
            dram_scheduler: Some(DramSchedulerOverride::Fcfs),
            dram_page_policy: Some(DramPagePolicyOverride::Closed),
            dram_write_queue_depth: Some(8),
            dram_read_queue_depth: Some(2),
            dram_refresh: Some(false),
            ..ScenarioOverrides::default()
        });
        for dram in [&cfg.in_dram, &cfg.off_dram] {
            assert_eq!(dram.scheduler, SchedulerKind::Fcfs);
            assert_eq!(dram.page_policy, PagePolicy::Closed);
            assert_eq!(dram.write_queue_depth, 8);
            assert_eq!(dram.write_high_watermark, 6);
            assert_eq!(dram.write_low_watermark, 2);
            assert_eq!(dram.read_queue_depth, 2);
            assert_eq!(dram.timing.t_refi, 0);
        }
        // Every DRAM knob re-keys the result store.
        assert_ne!(cfg.cache_key_material(), base.cache_key_material());

        // Degenerate depths keep the watermark invariant (low < high <= depth
        // for buffered queues).
        for depth in [0usize, 1, 2, 3] {
            let mut c = base.clone();
            c.apply_scenario_overrides(&ScenarioOverrides {
                dram_write_queue_depth: Some(depth),
                ..ScenarioOverrides::default()
            });
            if depth > 0 {
                assert!(c.in_dram.write_low_watermark < c.in_dram.write_high_watermark);
                assert!(c.in_dram.write_high_watermark <= depth);
            }
        }
        // Refresh can be turned back on.
        let mut c = cfg.clone();
        c.apply_scenario_overrides(&ScenarioOverrides {
            dram_refresh: Some(true),
            ..ScenarioOverrides::default()
        });
        assert_eq!(
            c.in_dram.timing.t_refi,
            banshee_dram::DramTiming::paper_default().t_refi
        );
    }

    #[test]
    fn banshee_config_derivation() {
        let mut c = SimConfig::test_default(DramCacheDesign::Banshee);
        assert_eq!(c.banshee_config().capacity, c.dcache.capacity);
        c.large_pages = true;
        assert_eq!(c.banshee_config().page_bytes, 2 * 1024 * 1024);
    }
}
