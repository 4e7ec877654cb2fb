//! Unison Cache: page-granularity, set-associative, LRU, tags in DRAM
//! (Jevdjic et al., MICRO 2014), evaluated as the Banshee paper does —
//! with perfect way prediction and perfect footprint prediction.
//!
//! Behaviour reproduced from Table 1 and Section 5.1.1:
//!
//! * **Hit** (way prediction correct): the controller reads the set's tags
//!   (32 B) and the data from the predicted way (64 B), and writes back the
//!   updated LRU bits (32 B) — "at least 128 B" of in-package traffic,
//!   latency ≈ one DRAM access.
//! * **Miss**: the tag read plus the speculatively-read way (96 B of
//!   in-package traffic) are wasted, then the demand line is fetched from
//!   off-package DRAM (≈ 2× latency).
//! * **Replacement on every miss**: the missed page is filled at footprint
//!   granularity (predicted footprint × 64 B read from off-package and
//!   written in-package, plus a 32 B tag update), and the victim page's
//!   dirty lines are read from the cache and written back off-package.
//! * **LLC dirty eviction**: a tag probe (32 B) decides whether the line is
//!   written in-package (64 B) or off-package (64 B).

use crate::controller::{DemandStats, DramCacheController};
use crate::design::DCacheConfig;
use crate::footprint::FootprintPredictor;
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{
    Addr, Cycle, FastDivMod, PageNum, StatSet, TrafficClass, CACHE_LINE_SIZE, PAGE_SIZE,
};

/// One way of one page set.
#[derive(Debug, Clone, Copy, Default)]
struct PageWay {
    valid: bool,
    page: PageNum,
    /// Bitmask of dirty lines within the page.
    dirty_mask: u64,
    /// LRU timestamp.
    touched: u64,
}

/// The Unison Cache controller.
#[derive(Debug)]
pub struct UnisonCache {
    sets: Vec<Vec<PageWay>>,
    ways: usize,
    set_div: FastDivMod,
    clock: u64,
    demand: DemandStats,
    footprint: FootprintPredictor,
    fills: u64,
    dirty_lines_written_back: u64,
}

impl UnisonCache {
    /// Build a Unison Cache with the configured geometry (4-way by default).
    pub fn new(config: &DCacheConfig) -> Self {
        let sets = config.page_sets().max(1) as usize;
        UnisonCache {
            sets: vec![vec![PageWay::default(); config.ways]; sets],
            ways: config.ways,
            set_div: FastDivMod::new(sets as u64),
            clock: 0,
            demand: DemandStats::new(4096),
            footprint: FootprintPredictor::new(config.footprint_granularity),
            fills: 0,
            dirty_lines_written_back: 0,
        }
    }

    #[inline]
    fn set_index(&self, page: PageNum) -> usize {
        self.set_div.rem(page.raw()) as usize
    }

    /// In-package DRAM address where a cached page's data lives.
    fn data_addr(&self, set: usize, way: usize, offset: u64) -> Addr {
        Addr::new(((set * self.ways + way) as u64) * PAGE_SIZE + offset)
    }

    /// In-package DRAM address of a set's tag/metadata block (placed in a
    /// dedicated tag region after the data region, as in Figure 3's separate
    /// tag rows).
    fn tag_addr(&self, set: usize) -> Addr {
        let data_region = (self.sets.len() * self.ways) as u64 * PAGE_SIZE;
        Addr::new(data_region + set as u64 * 32)
    }

    fn find(&self, set: usize, page: PageNum) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|w| w.valid && w.page == page)
    }

    fn lru_way(&self, set: usize) -> usize {
        if let Some(idx) = self.sets[set].iter().position(|w| !w.valid) {
            return idx;
        }
        self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.touched)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

impl DramCacheController for UnisonCache {
    fn name(&self) -> &str {
        "Unison"
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        self.clock += 1;
        let page = req.page();
        let set = self.set_index(page);
        let line_in_page = req.addr.line().index_in_page();
        let tag_addr = self.tag_addr(set);
        let resident = self.find(set, page);

        match req.kind {
            RequestKind::DemandMiss => {
                if let Some(way) = resident {
                    // ---- Hit path ----
                    self.demand.record(true);
                    self.footprint.on_access(page, line_in_page);
                    let data_addr = self.data_addr(set, way, req.addr.page_offset());
                    {
                        let w = &mut self.sets[set][way];
                        w.touched = self.clock;
                        if req.write {
                            w.dirty_mask |= 1 << line_in_page;
                        }
                    }
                    sink.then(DramOp::in_package(tag_addr, 32, TrafficClass::Tag))
                        .then(DramOp::in_package(data_addr, 64, TrafficClass::HitData))
                        .also(DramOp::in_package_write(tag_addr, 32, TrafficClass::Tag))
                        .hit();
                    return;
                }

                // ---- Miss path ----
                self.demand.record(false);
                let victim_way = self.lru_way(set);
                let spec_addr = self.data_addr(set, victim_way, req.addr.page_offset());
                sink.then(DramOp::in_package(tag_addr, 32, TrafficClass::Tag))
                    .then(DramOp::in_package(spec_addr, 64, TrafficClass::MissData))
                    .then(DramOp::off_package(req.addr, 64, TrafficClass::MissData));

                // Replacement happens on every miss (Table 1).
                let victim = self.sets[set][victim_way];
                if victim.valid {
                    let dirty_lines = u64::from(victim.dirty_mask.count_ones());
                    if dirty_lines > 0 {
                        self.dirty_lines_written_back += dirty_lines;
                        let victim_addr = self.data_addr(set, victim_way, 0);
                        sink.also(DramOp::in_package(
                            victim_addr,
                            dirty_lines * CACHE_LINE_SIZE,
                            TrafficClass::Replacement,
                        ))
                        .also(DramOp::off_package_write(
                            victim.page.base_addr(),
                            dirty_lines * CACHE_LINE_SIZE,
                            TrafficClass::Writeback,
                        ));
                    }
                    self.footprint.on_evict(victim.page);
                }

                // Fill the new page at footprint granularity.
                self.fills += 1;
                let fp_bytes = self.footprint.predicted_bytes();
                self.footprint.on_fill(page, line_in_page);
                let fill_addr = self.data_addr(set, victim_way, 0);
                sink.also(DramOp::off_package(
                    page.base_addr(),
                    fp_bytes,
                    TrafficClass::Replacement,
                ))
                .also(DramOp::in_package_write(
                    fill_addr,
                    fp_bytes,
                    TrafficClass::Replacement,
                ))
                .also(DramOp::in_package_write(tag_addr, 32, TrafficClass::Tag));

                self.sets[set][victim_way] = PageWay {
                    valid: true,
                    page,
                    dirty_mask: if req.write { 1 << line_in_page } else { 0 },
                    touched: self.clock,
                };
            }
            RequestKind::Writeback => {
                // Tag probe to find the line, then write it where it lives.
                sink.also(DramOp::in_package(tag_addr, 32, TrafficClass::Tag));
                if let Some(way) = resident {
                    let data_addr = self.data_addr(set, way, req.addr.page_offset());
                    self.sets[set][way].dirty_mask |= 1 << line_in_page;
                    sink.also(DramOp::in_package_write(
                        data_addr,
                        64,
                        TrafficClass::Writeback,
                    ));
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

    fn miss_rate(&self) -> f64 {
        self.demand.miss_rate()
    }

    fn demand_stats(&self) -> (u64, u64) {
        self.demand.totals()
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.add("unison_fills", self.fills);
        s.add(
            "unison_dirty_lines_written_back",
            self.dirty_lines_written_back,
        );
        s.add(
            "unison_mean_footprint_lines",
            self.footprint.mean_footprint().round() as u64,
        );
        s
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("recent_miss_rate", self.demand.recent_miss_rate()));
        out.push(("fills", self.fills as f64));
        out.push(("mean_footprint_lines", self.footprint.mean_footprint()));
        out.push((
            "freq_tracked_lane_keys",
            self.footprint.tracked_pages() as f64,
        ));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.sets.len());
        w.usize(self.ways);
        w.u64(self.clock);
        w.u64(self.fills);
        w.u64(self.dirty_lines_written_back);
        w.seq_with(&self.sets, |w, set| {
            w.seq_with(set, |w, way| {
                w.bool(way.valid);
                way.page.save(w);
                w.u64(way.dirty_mask);
                w.u64(way.touched);
            });
        });
        self.demand.save(w);
        self.footprint.save(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let sets = r.usize()?;
        let ways = r.usize()?;
        if sets != self.sets.len() || ways != self.ways {
            return Err(SnapshotError::Corrupt(format!(
                "unison image geometry {sets}x{ways} != controller {}x{}",
                self.sets.len(),
                self.ways
            )));
        }
        self.clock = r.u64()?;
        self.fills = r.u64()?;
        self.dirty_lines_written_back = r.u64()?;
        let outer = r.seq_len(8)?;
        if outer != sets {
            return Err(SnapshotError::Corrupt(format!(
                "unison set sequence length {outer} != declared {sets}"
            )));
        }
        for set in self.sets.iter_mut() {
            let inner = r.seq_len(25)?;
            if inner != ways {
                return Err(SnapshotError::Corrupt(format!(
                    "unison way sequence length {inner} != declared {ways}"
                )));
            }
            for way in set.iter_mut() {
                *way = PageWay {
                    valid: r.bool()?,
                    page: PageNum::restore(r)?,
                    dirty_mask: r.u64()?,
                    touched: r.u64()?,
                };
            }
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

    fn cfg() -> DCacheConfig {
        DCacheConfig::scaled(MemSize::mib(1)) // 256 pages, 64 sets x 4 ways
    }

    #[test]
    fn hit_traffic_is_at_least_128_bytes() {
        let mut c = UnisonCache::new(&cfg());
        let addr = Addr::new(0x8000);
        c.access_collected(&MemRequest::demand(addr, 0), 0);
        let hit = c.access_collected(&MemRequest::demand(addr, 0), 0);
        assert!(hit.dram_cache_hit);
        assert_eq!(hit.bytes_on(DramKind::InPackage), 128);
        assert_eq!(hit.bytes_on(DramKind::OffPackage), 0);
    }

    #[test]
    fn miss_replaces_on_every_miss() {
        let mut c = UnisonCache::new(&cfg());
        let addr = Addr::new(0x10_0000);
        let miss = c.access_collected(&MemRequest::demand(addr, 0), 0);
        assert!(!miss.dram_cache_hit);
        // Critical path: tag + speculative way + off-package demand.
        assert_eq!(miss.critical.len(), 3);
        // Cold predictor: full-page footprint fetched from off-package.
        assert_eq!(miss.bytes_of_class(TrafficClass::Replacement), 4096 * 2);
    }

    #[test]
    fn footprint_shrinks_replacement_traffic() {
        let cfg = cfg();
        let mut c = UnisonCache::new(&cfg);
        // Touch exactly 2 lines per page, cycling through enough pages to
        // evict and re-fill many times within the same sets.
        let sets = cfg.page_sets();
        for round in 0..8u64 {
            for i in 0..(sets * 8) {
                let page = PageNum::new(round * 100_000 + i);
                c.access_collected(&MemRequest::demand(page.line_at(0).base_addr(), 0), 0);
                c.access_collected(&MemRequest::demand(page.line_at(1).base_addr(), 0), 0);
            }
        }
        // After training, a fresh miss should fetch far less than a page.
        let plan = c.access_collected(&MemRequest::demand(Addr::new(0xDEAD_0000), 0), 0);
        let repl = plan.bytes_of_class(TrafficClass::Replacement);
        assert!(
            repl <= 2 * 8 * CACHE_LINE_SIZE,
            "footprint not learned, replacement bytes = {repl}"
        );
    }

    #[test]
    fn dirty_victim_lines_written_back() {
        let cfg = DCacheConfig {
            capacity: MemSize::kib(16), // 4 pages = 1 set x 4 ways
            ..DCacheConfig::paper_default()
        };
        let mut c = UnisonCache::new(&cfg);
        // Fill all 4 ways of set 0 with dirty lines.
        for p in 0..4u64 {
            let page = PageNum::new(p);
            c.access_collected(&MemRequest::demand(page.base_addr(), 0).as_store(), 0);
        }
        // A 5th page evicts the LRU victim (page 0, one dirty line).
        let plan = c.access_collected(&MemRequest::demand(PageNum::new(10).base_addr(), 0), 0);
        assert_eq!(plan.bytes_of_class(TrafficClass::Writeback), 64);
    }

    #[test]
    fn lru_keeps_recently_used_pages() {
        let cfg = DCacheConfig {
            capacity: MemSize::kib(16),
            ..DCacheConfig::paper_default()
        };
        let mut c = UnisonCache::new(&cfg);
        for p in 0..4u64 {
            c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
        }
        // Re-touch page 0 so page 1 becomes LRU, then insert page 5.
        c.access_collected(&MemRequest::demand(PageNum::new(0).base_addr(), 0), 0);
        c.access_collected(&MemRequest::demand(PageNum::new(5).base_addr(), 0), 0);
        // Page 0 still hits, page 1 misses.
        assert!(
            c.access_collected(&MemRequest::demand(PageNum::new(0).base_addr(), 0), 0)
                .dram_cache_hit
        );
        assert!(
            !c.access_collected(&MemRequest::demand(PageNum::new(1).base_addr(), 0), 0)
                .dram_cache_hit
        );
    }

    #[test]
    fn writeback_probe_routes_by_presence() {
        let mut c = UnisonCache::new(&cfg());
        let cached = Addr::new(0x4000);
        c.access_collected(&MemRequest::demand(cached, 0), 0);
        let wb_hit = c.access_collected(&MemRequest::writeback(cached, 0), 0);
        assert_eq!(wb_hit.bytes_on(DramKind::InPackage), 96); // probe + data
        assert_eq!(wb_hit.bytes_on(DramKind::OffPackage), 0);

        let wb_miss = c.access_collected(&MemRequest::writeback(Addr::new(0xF00_0000), 0), 0);
        assert_eq!(wb_miss.bytes_on(DramKind::InPackage), 32); // probe only
        assert_eq!(wb_miss.bytes_on(DramKind::OffPackage), 64);
    }
}
