//! Tagless DRAM Cache (TDC): page-granularity, fully-associative, FIFO
//! replacement, with the page mapping held in PTEs/TLBs (Lee et al., ISCA
//! 2015).
//!
//! The Banshee paper evaluates an idealized TDC (Section 5.1.1): TLB
//! coherence is assumed free and address-consistency side effects are
//! ignored. Earlier revisions of this reproduction went further than the
//! paper — the page map was a free SRAM structure and footprint fills never
//! touched the miss path — which made TDC beat even the idealized CacheOnly
//! bound. The cost model here keeps the paper's idealizations (free TLB
//! coherence, no scrubbing) but charges the structures TDC actually keeps
//! in DRAM:
//!
//! * **Hit**: 64 B of in-package traffic, no tag access — the mapping came
//!   from the TLB, which is TDC's legitimate claim.
//! * **Miss**: the global inverted page table / free-frame map lives in
//!   in-package DRAM, so the miss path consults it (32 B map read on the
//!   critical path) before the 64 B off-package demand fetch, and updates
//!   it when the new mapping is installed (32 B map write, background).
//! * **Replacement on every miss**: the page is brought in at footprint
//!   granularity (off-package read, in-package fill write) and a FIFO
//!   victim is evicted — its dirty lines written back and its map entry
//!   invalidated (32 B map write).
//! * **LLC dirty eviction**: carries no TLB hint (Section 3.3), so the map
//!   is consulted (32 B read) before the 64 B write is routed to whichever
//!   DRAM holds the line.
//!
//! Because the mapping is NUMA-style (the page's physical address changes
//! when it moves), a real TDC would also need cache scrubbing for address
//! consistency; the paper explicitly ignores this for TDC, and so do we.

use crate::controller::{DemandStats, DramCacheController};
use crate::design::DCacheConfig;
use crate::footprint::FootprintPredictor;
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{
    Addr, Cycle, FnvHashMap, PageNum, StatSet, TrafficClass, CACHE_LINE_SIZE, PAGE_SIZE,
};
use banshee_memhier::PteMapInfo;
use std::collections::VecDeque;

/// State of one cached page frame in the in-package DRAM.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Which in-package frame slot the page occupies (for DRAM addressing).
    slot: u64,
    /// Bitmask of dirty lines.
    dirty_mask: u64,
}

/// The idealized TDC controller.
#[derive(Debug)]
pub struct Tdc {
    /// Fully-associative content map: page → frame.
    frames: FnvHashMap<PageNum, Frame>,
    /// FIFO order of insertion.
    fifo: VecDeque<PageNum>,
    /// Free frame slots.
    free_slots: Vec<u64>,
    /// Total page frames the cache can hold.
    capacity_pages: u64,
    demand: DemandStats,
    footprint: FootprintPredictor,
    fills: u64,
    evictions: u64,
    map_probes: u64,
    map_updates: u64,
}

impl Tdc {
    /// Build a TDC over the configured capacity.
    pub fn new(config: &DCacheConfig) -> Self {
        let capacity_pages = config.capacity_pages().max(1);
        Tdc {
            frames: FnvHashMap::default(),
            fifo: VecDeque::new(),
            free_slots: (0..capacity_pages).rev().collect(),
            capacity_pages,
            demand: DemandStats::new(4096),
            footprint: FootprintPredictor::new(config.footprint_granularity),
            fills: 0,
            evictions: 0,
            map_probes: 0,
            map_updates: 0,
        }
    }

    /// Number of pages currently cached.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Total page frames the cache can hold.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn frame_addr(&self, slot: u64, offset: u64) -> Addr {
        Addr::new(slot * PAGE_SIZE + offset)
    }

    /// In-package DRAM address of a page's map entry. The map region lives
    /// past the frame region; entries are 32 B map lines indexed by page
    /// number, so map traffic lands in its own DRAM rows.
    fn map_addr(&self, page: PageNum) -> Addr {
        let map_base = self.capacity_pages * PAGE_SIZE;
        Addr::new(map_base + (page.raw() % self.capacity_pages.max(1)) * 32)
    }

    /// Charge one 32 B read of the in-DRAM page map — on the critical path
    /// when the requester waits for the answer (demand misses), as
    /// background traffic otherwise (writebacks).
    fn probe_map(&mut self, page: PageNum, critical: bool, plan: &mut PlanSink) {
        self.map_probes += 1;
        let op = DramOp::in_package(self.map_addr(page), 32, TrafficClass::Tag);
        if critical {
            plan.critical.push(op);
        } else {
            plan.background.push(op);
        }
    }

    /// Charge one 32 B map-entry update (background write).
    fn update_map(&mut self, page: PageNum, plan: &mut PlanSink) {
        self.map_updates += 1;
        plan.background.push(DramOp::in_package_write(
            self.map_addr(page),
            32,
            TrafficClass::Tag,
        ));
    }

    /// Evict the FIFO-oldest page, returning the traffic it generates.
    fn evict_one(&mut self, plan: &mut PlanSink) -> u64 {
        let victim = loop {
            match self.fifo.pop_front() {
                Some(p) if self.frames.contains_key(&p) => break p,
                Some(_) => continue,
                None => return u64::MAX, // nothing to evict; caller handles
            }
        };
        let frame = self.frames.remove(&victim).expect("victim resident");
        self.evictions += 1;
        let dirty_lines = u64::from(frame.dirty_mask.count_ones());
        if dirty_lines > 0 {
            plan.background.push(DramOp::in_package(
                self.frame_addr(frame.slot, 0),
                dirty_lines * CACHE_LINE_SIZE,
                TrafficClass::Replacement,
            ));
            plan.background.push(DramOp::off_package_write(
                victim.base_addr(),
                dirty_lines * CACHE_LINE_SIZE,
                TrafficClass::Writeback,
            ));
        }
        // The victim's map entry is invalidated.
        self.update_map(victim, plan);
        self.footprint.on_evict(victim);
        frame.slot
    }
}

impl DramCacheController for Tdc {
    fn name(&self) -> &str {
        "TDC"
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        let page = req.page();
        let line_in_page = req.addr.line().index_in_page();

        match req.kind {
            RequestKind::DemandMiss => {
                if let Some(frame) = self.frames.get_mut(&page) {
                    // ---- Hit: pure 64 B in-package access ----
                    self.demand.record(true);
                    if req.write {
                        frame.dirty_mask |= 1 << line_in_page;
                    }
                    let slot = frame.slot;
                    let addr = self.frame_addr(slot, req.addr.page_offset());
                    self.footprint.on_access(page, line_in_page);
                    sink.then(DramOp::in_package(addr, 64, TrafficClass::HitData))
                        .hit();
                    return;
                }

                // ---- Miss: map consult + off-package demand fetch +
                // replacement ----
                self.demand.record(false);
                // The miss path consults the in-DRAM map (free-frame lookup)
                // before the demand fetch can be routed.
                self.probe_map(page, true, sink);
                sink.then(DramOp::off_package(req.addr, 64, TrafficClass::MissData));

                // Find a frame slot (evicting the FIFO-oldest if full).
                let slot = if let Some(slot) = self.free_slots.pop() {
                    slot
                } else {
                    let slot = self.evict_one(sink);
                    debug_assert!(slot != u64::MAX, "full cache must have a victim");
                    slot
                };

                // Fill at footprint granularity and install the new mapping.
                self.fills += 1;
                let fp_bytes = self.footprint.predicted_bytes();
                self.footprint.on_fill(page, line_in_page);
                sink.also(DramOp::off_package(
                    page.base_addr(),
                    fp_bytes,
                    TrafficClass::Replacement,
                ))
                .also(DramOp::in_package_write(
                    self.frame_addr(slot, 0),
                    fp_bytes,
                    TrafficClass::Replacement,
                ));
                self.update_map(page, sink);

                self.frames.insert(
                    page,
                    Frame {
                        slot,
                        dirty_mask: if req.write { 1 << line_in_page } else { 0 },
                    },
                );
                self.fifo.push_back(page);
            }
            RequestKind::Writeback => {
                // Dirty evictions carry no TLB hint: the in-DRAM map decides
                // where the line lives (32 B probe, background — nobody
                // waits on a writeback).
                self.probe_map(page, false, sink);
                if let Some(frame) = self.frames.get_mut(&page) {
                    frame.dirty_mask |= 1 << line_in_page;
                    let slot = frame.slot;
                    let addr = self.frame_addr(slot, req.addr.page_offset());
                    sink.also(DramOp::in_package_write(addr, 64, TrafficClass::Writeback));
                } else {
                    sink.also(DramOp::off_package_write(
                        req.addr,
                        64,
                        TrafficClass::Writeback,
                    ));
                }
            }
        }
    }

    fn current_mapping(&self, page: PageNum) -> PteMapInfo {
        if self.frames.contains_key(&page) {
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
        s.add("tdc_fills", self.fills);
        s.add("tdc_evictions", self.evictions);
        s.add("tdc_resident_pages", self.frames.len() as u64);
        s.add("tdc_map_probes", self.map_probes);
        s.add("tdc_map_updates", self.map_updates);
        s
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("resident_pages", self.frames.len() as f64));
        out.push((
            "occupancy",
            self.frames.len() as f64 / self.capacity_pages as f64,
        ));
        out.push(("recent_miss_rate", self.demand.recent_miss_rate()));
        out.push(("fills", self.fills as f64));
        out.push(("evictions", self.evictions as f64));
        out.push((
            "freq_tracked_lane_keys",
            self.footprint.tracked_pages() as f64,
        ));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.capacity_pages);
        w.u64(self.fills);
        w.u64(self.evictions);
        w.u64(self.map_probes);
        w.u64(self.map_updates);
        // The frame map is only probed by key, so a sorted encoding is
        // canonical; the FIFO and free-slot stack are order-semantic and go
        // out verbatim.
        let mut frames: Vec<(&PageNum, &Frame)> = self.frames.iter().collect();
        frames.sort_unstable_by_key(|(p, _)| p.raw());
        w.seq_with(&frames, |w, (page, frame)| {
            page.save(w);
            w.u64(frame.slot);
            w.u64(frame.dirty_mask);
        });
        w.seq(self.fifo.iter());
        w.seq(self.free_slots.iter());
        self.demand.save(w);
        self.footprint.save(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let capacity_pages = r.u64()?;
        if capacity_pages != self.capacity_pages {
            return Err(SnapshotError::Corrupt(format!(
                "tdc image capacity {capacity_pages} pages != controller {}",
                self.capacity_pages
            )));
        }
        self.fills = r.u64()?;
        self.evictions = r.u64()?;
        self.map_probes = r.u64()?;
        self.map_updates = r.u64()?;
        let frame_count = r.seq_len(24)?;
        self.frames.clear();
        for _ in 0..frame_count {
            let page = PageNum::restore(r)?;
            let frame = Frame {
                slot: r.u64()?,
                dirty_mask: r.u64()?,
            };
            if frame.slot >= self.capacity_pages {
                return Err(SnapshotError::Corrupt(format!(
                    "tdc frame slot {} out of range",
                    frame.slot
                )));
            }
            if self.frames.insert(page, frame).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate tdc frame for page {}",
                    page.raw()
                )));
            }
        }
        let fifo_len = r.seq_len(8)?;
        if fifo_len != frame_count {
            return Err(SnapshotError::Corrupt(format!(
                "tdc fifo holds {fifo_len} pages but the map holds {frame_count}"
            )));
        }
        self.fifo.clear();
        for _ in 0..fifo_len {
            let page = PageNum::restore(r)?;
            if !self.frames.contains_key(&page) {
                return Err(SnapshotError::Corrupt(format!(
                    "tdc fifo page {} missing from the frame map",
                    page.raw()
                )));
            }
            self.fifo.push_back(page);
        }
        let free_len = r.seq_len(8)?;
        if free_len as u64 + frame_count as u64 != self.capacity_pages {
            return Err(SnapshotError::Corrupt(format!(
                "tdc free slots ({free_len}) + resident pages ({frame_count}) \
                 != capacity ({})",
                self.capacity_pages
            )));
        }
        self.free_slots.clear();
        for _ in 0..free_len {
            let slot = r.u64()?;
            if slot >= self.capacity_pages {
                return Err(SnapshotError::Corrupt(format!(
                    "tdc free slot {slot} out of range"
                )));
            }
            self.free_slots.push(slot);
        }
        self.demand = DemandStats::restore(r)?;
        self.footprint = FootprintPredictor::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{DramKind, MemSize};

    fn tiny() -> DCacheConfig {
        DCacheConfig {
            capacity: MemSize::kib(16), // 4 pages
            ..DCacheConfig::paper_default()
        }
    }

    #[test]
    fn hit_is_tagless_64_bytes() {
        let mut c = Tdc::new(&tiny());
        let addr = Addr::new(0x3000);
        c.access_collected(&MemRequest::demand(addr, 0), 0);
        let hit = c.access_collected(&MemRequest::demand(addr, 0), 0);
        assert!(hit.dram_cache_hit);
        assert_eq!(hit.bytes_on(DramKind::InPackage), 64);
        assert_eq!(
            hit.bytes_of_class(TrafficClass::Tag),
            0,
            "TDC has no tag traffic"
        );
    }

    #[test]
    fn miss_critical_path_is_map_probe_then_off_package_fetch() {
        let mut c = Tdc::new(&tiny());
        let miss = c.access_collected(&MemRequest::demand(Addr::new(0x5000), 0), 0);
        assert_eq!(miss.critical.len(), 2);
        // The in-DRAM map is consulted before the demand fetch.
        assert_eq!(miss.critical[0].dram, DramKind::InPackage);
        assert_eq!(miss.critical[0].class, TrafficClass::Tag);
        assert_eq!(miss.critical[0].bytes, 32);
        assert_eq!(miss.critical[1].dram, DramKind::OffPackage);
        assert_eq!(miss.critical[1].bytes, 64);
        // Installing the mapping costs a background map write.
        assert!(miss
            .background
            .iter()
            .any(|op| op.class == TrafficClass::Tag && op.write));
    }

    #[test]
    fn fully_associative_no_conflict_misses() {
        // 4-page capacity: any 4 distinct pages can coexist regardless of
        // their addresses (unlike a set-associative cache).
        let mut c = Tdc::new(&tiny());
        let pages = [0u64, 1 << 20, 2 << 20, 3 << 20];
        for &p in &pages {
            c.access_collected(&MemRequest::demand(Addr::new(p), 0), 0);
        }
        for &p in &pages {
            assert!(
                c.access_collected(&MemRequest::demand(Addr::new(p), 0), 0)
                    .dram_cache_hit
            );
        }
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn fifo_evicts_oldest_even_if_recently_used() {
        let mut c = Tdc::new(&tiny());
        for p in 0..4u64 {
            c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
        }
        // Touch page 0 again (FIFO ignores recency), then insert a 5th page.
        c.access_collected(&MemRequest::demand(PageNum::new(0).base_addr(), 0), 0);
        c.access_collected(&MemRequest::demand(PageNum::new(9).base_addr(), 0), 0);
        assert!(
            !c.access_collected(&MemRequest::demand(PageNum::new(0).base_addr(), 0), 0)
                .dram_cache_hit,
            "FIFO must evict the oldest-inserted page"
        );
    }

    #[test]
    fn dirty_victim_written_back_on_eviction() {
        let mut c = Tdc::new(&tiny());
        c.access_collected(
            &MemRequest::demand(PageNum::new(0).base_addr(), 0).as_store(),
            0,
        );
        for p in 1..4u64 {
            c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
        }
        // Eviction of page 0 (dirty, 1 line) happens on the next miss.
        let plan = c.access_collected(&MemRequest::demand(PageNum::new(7).base_addr(), 0), 0);
        assert_eq!(plan.bytes_of_class(TrafficClass::Writeback), 64);
    }

    #[test]
    fn writeback_pays_a_map_probe_before_routing() {
        let mut c = Tdc::new(&tiny());
        let cached = Addr::new(0x2000);
        c.access_collected(&MemRequest::demand(cached, 0), 0);
        // Hint-less dirty eviction: 32 B map probe + 64 B data in-package.
        let wb_hit = c.access_collected(&MemRequest::writeback(cached, 0), 0);
        assert_eq!(wb_hit.bytes_on(DramKind::InPackage), 96);
        assert_eq!(wb_hit.bytes_of_class(TrafficClass::Tag), 32);
        // Uncached line: the probe still happens, the data goes off-package.
        let wb_miss = c.access_collected(&MemRequest::writeback(Addr::new(0xAB_0000), 0), 0);
        assert_eq!(wb_miss.bytes_on(DramKind::InPackage), 32);
        assert_eq!(wb_miss.bytes_on(DramKind::OffPackage), 64);
    }

    #[test]
    fn mapping_exposed_for_page_table() {
        let mut c = Tdc::new(&tiny());
        let addr = Addr::new(0x7000);
        assert_eq!(c.current_mapping(addr.page()), PteMapInfo::NOT_CACHED);
        c.access_collected(&MemRequest::demand(addr, 0), 0);
        assert!(c.current_mapping(addr.page()).cached);
    }
}
