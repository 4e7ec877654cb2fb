//! HMA: software-managed heterogeneous memory architecture (Meswani et al.,
//! HPCA 2015).
//!
//! The OS periodically ranks pages by access count and migrates hot pages
//! into the in-package DRAM (and cold pages out). Because remapping changes
//! the page's physical address (NUMA-style management), every migrated page
//! must also be scrubbed from the on-chip caches, all PTEs must be updated
//! and all TLBs flushed — which is why the period is 100 ms – 1 s and why
//! every program stops while it happens (Section 2.1.2).
//!
//! On the access path HMA is the cheapest possible design (Table 1): a hit is
//! a 64 B in-package access, a miss is a 64 B off-package access, and there
//! is no replacement or tag traffic at all. All of the cost is concentrated
//! in the periodic software routine, modelled here by the [`SideEffect`]s
//! returned from [`DramCacheController::epoch`].

use crate::controller::{DemandStats, DramCacheController};
use crate::design::DCacheConfig;
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind, SideEffect};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{
    Cycle, CyclesPerSec, FnvHashMap, FnvHashSet, PageNum, ReplaySet, StatSet, TrafficClass,
    PAGE_SIZE,
};
use banshee_memhier::PteMapInfo;

/// Tuning knobs for the software remapping routine.
#[derive(Debug, Clone, Copy)]
pub struct HmaPolicy {
    /// Per-migrated-page software cost in microseconds (PTE updates, TLB
    /// shootdown share, cache scrubbing).
    pub per_page_cost_us: f64,
    /// Fixed cost of one remapping interval in microseconds.
    pub base_cost_us: f64,
    /// Upper bound on pages migrated (in each direction) per interval.
    pub max_migrations: usize,
}

impl Default for HmaPolicy {
    fn default() -> Self {
        HmaPolicy {
            per_page_cost_us: 2.0,
            base_cost_us: 50.0,
            max_migrations: 4096,
        }
    }
}

/// The software-managed controller.
#[derive(Debug)]
pub struct Hma {
    capacity_pages: u64,
    /// Resident pages. A [`ReplaySet`] rather than a plain hash set because
    /// the eviction scan in [`DramCacheController::epoch`] iterates it, and
    /// iteration order must survive a snapshot round trip for a resumed run
    /// to stay byte-identical with a cold one — while staying bit-identical
    /// to plain `FnvHashSet` iteration on cold runs.
    cached: ReplaySet<PageNum>,
    /// Demand-miss count per page within the current interval. Only probed
    /// by key and ranked by a total order, so its iteration order never
    /// matters.
    counts: FnvHashMap<u64, u64>,
    policy: HmaPolicy,
    cpu_clock: CyclesPerSec,
    demand: DemandStats,
    migrations_in: u64,
    migrations_out: u64,
    intervals: u64,
}

impl Hma {
    /// Build an HMA controller with the default policy.
    pub fn new(config: &DCacheConfig) -> Self {
        Self::with_policy(config, HmaPolicy::default())
    }

    /// Build an HMA controller with an explicit policy.
    pub fn with_policy(config: &DCacheConfig, policy: HmaPolicy) -> Self {
        Hma {
            capacity_pages: config.capacity_pages().max(1),
            cached: ReplaySet::new(),
            counts: FnvHashMap::default(),
            policy,
            cpu_clock: CyclesPerSec::ghz(2.7),
            demand: DemandStats::new(4096),
            migrations_in: 0,
            migrations_out: 0,
            intervals: 0,
        }
    }

    /// Pages currently resident in the in-package DRAM.
    pub fn resident_pages(&self) -> usize {
        self.cached.len()
    }
}

impl DramCacheController for Hma {
    fn name(&self) -> &str {
        "HMA"
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        let page = req.page();
        let hit = self.cached.contains(&page);
        match req.kind {
            RequestKind::DemandMiss => {
                *self.counts.entry(page.raw()).or_insert(0) += 1;
                self.demand.record(hit);
                if hit {
                    sink.then(DramOp::in_package(req.addr, 64, TrafficClass::HitData))
                        .hit();
                } else {
                    sink.then(DramOp::off_package(req.addr, 64, TrafficClass::MissData));
                }
            }
            RequestKind::Writeback => {
                let op = if hit {
                    DramOp::in_package_write(req.addr, 64, TrafficClass::Writeback)
                } else {
                    DramOp::off_package_write(req.addr, 64, TrafficClass::Writeback)
                };
                sink.also(op);
            }
        }
    }

    fn epoch(&mut self, _now: Cycle, sink: &mut PlanSink) -> bool {
        self.intervals += 1;
        // Rank pages by access count in this interval, hottest first. Ties
        // break on the page number, so the order is total and independent
        // of the map's iteration order.
        let mut ranked: Vec<(PageNum, u64)> = self
            .counts
            .iter()
            .map(|(&page, &count)| (PageNum::new(page), count))
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        let want: FnvHashSet<PageNum> = ranked
            .iter()
            .take(self.capacity_pages as usize)
            .map(|(p, _)| *p)
            .collect();

        let to_insert: Vec<PageNum> = want
            .iter()
            .filter(|p| !self.cached.contains(p))
            .take(self.policy.max_migrations)
            .copied()
            .collect();
        let to_evict: Vec<PageNum> = self
            .cached
            .iter()
            .filter(|p| !want.contains(p))
            .take(
                to_insert.len().max(
                    self.cached
                        .len()
                        .saturating_sub(self.capacity_pages as usize),
                ),
            )
            .copied()
            .collect();

        self.counts.clear();
        if to_insert.is_empty() && to_evict.is_empty() {
            return false;
        }

        // Evictions: read page from in-package, write to off-package, scrub
        // the on-chip caches of its (old) physical address.
        for page in &to_evict {
            self.cached.remove(page);
            self.migrations_out += 1;
            sink.also(DramOp::in_package(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .also(DramOp::off_package_write(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .with_side_effect(SideEffect::FlushPage { page: *page });
        }
        // Insertions: read page from off-package, write into in-package,
        // scrub caches (its physical address changes under NUMA management).
        for page in &to_insert {
            self.cached.insert(*page);
            self.migrations_in += 1;
            sink.also(DramOp::off_package(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .also(DramOp::in_package_write(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .with_side_effect(SideEffect::FlushPage { page: *page });
        }

        // The OS stops every program while it migrates (Section 2.1.2).
        let pages_moved = (to_insert.len() + to_evict.len()) as f64;
        let stall_us = self.policy.base_cost_us + self.policy.per_page_cost_us * pages_moved;
        let pt_updates: Vec<(PageNum, PteMapInfo)> = to_insert
            .iter()
            .map(|p| (*p, PteMapInfo::cached_in(0)))
            .chain(to_evict.iter().map(|p| (*p, PteMapInfo::NOT_CACHED)))
            .collect();
        sink.with_side_effect(SideEffect::UpdatePageTable {
            updates: pt_updates,
        })
        .with_side_effect(SideEffect::TlbShootdown)
        .with_side_effect(SideEffect::StallAllCores {
            cycles: self.cpu_clock.cycles_in_us(stall_us),
        });
        true
    }

    fn current_mapping(&self, page: PageNum) -> PteMapInfo {
        if self.cached.contains(&page) {
            PteMapInfo::cached_in(0)
        } else {
            PteMapInfo::NOT_CACHED
        }
    }

    fn miss_rate(&self) -> f64 {
        self.demand.miss_rate()
    }

    fn demand_stats(&self) -> (u64, u64) {
        self.demand.totals()
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.add("hma_migrations_in", self.migrations_in);
        s.add("hma_migrations_out", self.migrations_out);
        s.add("hma_intervals", self.intervals);
        s.add("hma_resident_pages", self.cached.len() as u64);
        s
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("resident_pages", self.cached.len() as f64));
        out.push((
            "occupancy",
            self.cached.len() as f64 / self.capacity_pages as f64,
        ));
        out.push(("recent_miss_rate", self.demand.recent_miss_rate()));
        out.push(("migrations_in", self.migrations_in as f64));
        out.push(("migrations_out", self.migrations_out as f64));
        out.push(("freq_tracked_keys", self.counts.len() as f64));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.capacity_pages);
        w.u64(self.migrations_in);
        w.u64(self.migrations_out);
        w.u64(self.intervals);
        // Residency iteration order is semantic (the eviction scan walks
        // it), so the ReplaySet persists its mutation journal; the counts
        // are only probed and ranked, so a sorted encoding suffices.
        self.cached.save(w);
        w.u64_map(&self.counts);
        self.demand.save(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let capacity_pages = r.u64()?;
        if capacity_pages != self.capacity_pages {
            return Err(SnapshotError::Corrupt(format!(
                "hma image capacity {capacity_pages} pages != controller {}",
                self.capacity_pages
            )));
        }
        self.migrations_in = r.u64()?;
        self.migrations_out = r.u64()?;
        self.intervals = r.u64()?;
        self.cached = ReplaySet::restore(r)?;
        self.counts = r.u64_map("hma count")?;
        self.demand = DemandStats::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{Addr, DramKind, MemSize};

    fn tiny() -> DCacheConfig {
        DCacheConfig {
            capacity: MemSize::kib(8), // 2 pages
            ..DCacheConfig::paper_default()
        }
    }

    #[test]
    fn no_replacement_traffic_on_the_access_path() {
        let mut c = Hma::new(&tiny());
        let plan = c.access_collected(&MemRequest::demand(Addr::new(0x9000), 0), 0);
        assert_eq!(plan.bytes_of_class(TrafficClass::Replacement), 0);
        assert_eq!(plan.bytes_on(DramKind::OffPackage), 64);
        assert_eq!(plan.bytes_on(DramKind::InPackage), 0);
    }

    #[test]
    fn epoch_moves_hot_pages_in() {
        let mut c = Hma::new(&tiny());
        // Page 5 is hot, page 9 is lukewarm, page 100 is cold.
        for _ in 0..10 {
            c.access_collected(&MemRequest::demand(PageNum::new(5).base_addr(), 0), 0);
        }
        for _ in 0..5 {
            c.access_collected(&MemRequest::demand(PageNum::new(9).base_addr(), 0), 0);
        }
        c.access_collected(&MemRequest::demand(PageNum::new(100).base_addr(), 0), 0);

        let plan = c.epoch_collected(1_000_000).expect("migrations expected");
        assert_eq!(c.resident_pages(), 2);
        assert!(c.current_mapping(PageNum::new(5)).cached);
        assert!(c.current_mapping(PageNum::new(9)).cached);
        assert!(!c.current_mapping(PageNum::new(100)).cached);
        // Every program stops during migration.
        assert!(plan
            .side_effects
            .iter()
            .any(|e| matches!(e, SideEffect::StallAllCores { .. })));
        assert!(plan
            .side_effects
            .iter()
            .any(|e| matches!(e, SideEffect::TlbShootdown)));
        // Two pages moved in: 2 x (4 KiB off-package read + 4 KiB in-package
        // write).
        assert_eq!(plan.bytes_of_class(TrafficClass::Replacement), 4 * 4096);

        // After migration the hot page hits in-package DRAM.
        let hit = c.access_collected(&MemRequest::demand(PageNum::new(5).base_addr(), 0), 0);
        assert!(hit.dram_cache_hit);
    }

    #[test]
    fn epoch_evicts_pages_that_went_cold() {
        let mut c = Hma::new(&tiny());
        for p in [1u64, 2] {
            for _ in 0..4 {
                c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
            }
        }
        c.epoch_collected(0);
        assert_eq!(c.resident_pages(), 2);
        // Next interval: two different pages are hot.
        for p in [7u64, 8] {
            for _ in 0..4 {
                c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
            }
        }
        let plan = c.epoch_collected(1).expect("should migrate");
        assert!(c.current_mapping(PageNum::new(7)).cached);
        assert!(!c.current_mapping(PageNum::new(1)).cached);
        // Evicted pages must be scrubbed from on-chip caches.
        let flushes = plan
            .side_effects
            .iter()
            .filter(|e| matches!(e, SideEffect::FlushPage { .. }))
            .count();
        assert!(flushes >= 2);
    }

    #[test]
    fn quiet_interval_produces_no_plan() {
        let mut c = Hma::new(&tiny());
        assert!(c.epoch_collected(0).is_none());
    }

    #[test]
    fn writebacks_follow_residency() {
        let mut c = Hma::new(&tiny());
        for _ in 0..3 {
            c.access_collected(&MemRequest::demand(PageNum::new(4).base_addr(), 0), 0);
        }
        c.epoch_collected(0);
        let wb_hit = c.access_collected(&MemRequest::writeback(PageNum::new(4).base_addr(), 0), 0);
        assert_eq!(wb_hit.bytes_on(DramKind::InPackage), 64);
        let wb_miss =
            c.access_collected(&MemRequest::writeback(PageNum::new(50).base_addr(), 0), 0);
        assert_eq!(wb_miss.bytes_on(DramKind::OffPackage), 64);
    }
}
