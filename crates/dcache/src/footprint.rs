//! Footprint prediction for page-granularity DRAM caches.
//!
//! Unison Cache and TDC fetch a whole page's worth of data on every miss,
//! which wastes off-package bandwidth when only a few lines of the page are
//! actually used before eviction ("over-fetching", Section 2.2.1). The
//! footprint-cache idea (Jevdjic et al. ISCA 2013, Jang et al. HPCA 2016)
//! fetches only the lines the page is predicted to need.
//!
//! The paper evaluates Unison/TDC with a *perfect* footprint predictor: they
//! profile each workload for the average number of blocks touched per page
//! fill and charge exactly that much replacement traffic, managed at 4-line
//! granularity. [`FootprintPredictor`] reproduces that methodology online:
//! it measures the number of distinct lines touched in each cached page
//! between fill and eviction, keeps a running average, and rounds it up to
//! the footprint granularity. The prediction therefore converges to the
//! profiled per-workload average the paper uses.

use banshee_common::addr::LINES_PER_PAGE;
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{FnvHashMap, PageNum};

pub use banshee_common::addr::LINES_PER_PAGE as PAGE_LINES;

/// Online estimator of the average page footprint (distinct lines touched
/// per page residency), managed at a configurable line granularity.
#[derive(Debug, Clone)]
pub struct FootprintPredictor {
    /// Bitmask of touched lines for every currently tracked (cached) page,
    /// keyed by raw page number.
    touched: FnvHashMap<u64, u64>,
    /// Granularity (in lines) at which footprints are managed: touched-line
    /// counts are rounded up to a multiple of this.
    granularity: u64,
    /// Sum of footprints of all evicted pages (in lines, already rounded).
    footprint_sum: u64,
    /// Number of completed (evicted) page residencies measured.
    completed: u64,
}

impl FootprintPredictor {
    /// Create a predictor managing footprints at `granularity` lines
    /// (the paper models 4).
    pub fn new(granularity: u64) -> Self {
        FootprintPredictor {
            touched: FnvHashMap::default(),
            granularity: granularity.clamp(1, LINES_PER_PAGE),
            footprint_sum: 0,
            completed: 0,
        }
    }

    /// Start tracking a page that was just filled into the DRAM cache. The
    /// line that triggered the fill counts as touched.
    pub fn on_fill(&mut self, page: PageNum, trigger_line_index: u64) {
        self.touched
            .insert(page.raw(), line_bit(trigger_line_index));
    }

    /// Record an access to a cached page.
    pub fn on_access(&mut self, page: PageNum, line_index: u64) {
        if let Some(mask) = self.touched.get_mut(&page.raw()) {
            *mask |= line_bit(line_index);
        }
    }

    /// Stop tracking an evicted page and fold its measured footprint into the
    /// running average. Returns the page's own (rounded) footprint in lines.
    pub fn on_evict(&mut self, page: PageNum) -> u64 {
        let mask = self.touched.remove(&page.raw()).unwrap_or(0);
        let touched = u64::from(mask.count_ones());
        let rounded = self.round(touched.max(1));
        self.footprint_sum += rounded;
        self.completed += 1;
        rounded
    }

    /// The predicted footprint (in lines) to fetch on the next page fill:
    /// the running average of completed residencies, rounded up to the
    /// granularity. Before any residency completes, predict a full page
    /// (the conservative cold-start choice).
    pub fn predicted_lines(&self) -> u64 {
        if self.completed == 0 {
            LINES_PER_PAGE
        } else {
            let avg = (self.footprint_sum as f64 / self.completed as f64).ceil() as u64;
            self.round(avg).min(LINES_PER_PAGE)
        }
    }

    /// Predicted footprint in bytes.
    pub fn predicted_bytes(&self) -> u64 {
        self.predicted_lines() * banshee_common::CACHE_LINE_SIZE
    }

    /// Number of completed residencies measured so far.
    pub fn completed_residencies(&self) -> u64 {
        self.completed
    }

    /// Mean measured footprint in lines (unrounded average of rounded
    /// residencies); 0 if nothing completed yet.
    pub fn mean_footprint(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.footprint_sum as f64 / self.completed as f64
        }
    }

    /// Number of pages whose touched lines are currently tracked.
    pub fn tracked_pages(&self) -> usize {
        self.touched.len()
    }

    fn round(&self, lines: u64) -> u64 {
        lines.div_ceil(self.granularity) * self.granularity
    }
}

/// The mask bit of a line within its page.
fn line_bit(line_index: u64) -> u64 {
    1u64 << (line_index & (LINES_PER_PAGE - 1))
}

impl Persist for FootprintPredictor {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.granularity);
        w.u64(self.footprint_sum);
        w.u64(self.completed);
        // The map is only ever probed by key, never iterated, so a sorted
        // encoding keeps the image canonical without changing behaviour.
        w.u64_map(&self.touched);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let granularity = r.u64()?;
        if granularity == 0 || granularity > LINES_PER_PAGE {
            return Err(SnapshotError::Corrupt(format!(
                "footprint granularity {granularity} out of range"
            )));
        }
        let footprint_sum = r.u64()?;
        let completed = r.u64()?;
        let touched = r.u64_map("footprint page")?;
        Ok(FootprintPredictor {
            touched,
            granularity,
            footprint_sum,
            completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cold_start_predicts_full_page() {
        let p = FootprintPredictor::new(4);
        assert_eq!(p.predicted_lines(), 64);
        assert_eq!(p.predicted_bytes(), 4096);
    }

    #[test]
    fn footprint_measured_per_residency() {
        let mut p = FootprintPredictor::new(4);
        let page = PageNum::new(1);
        p.on_fill(page, 0);
        p.on_access(page, 1);
        p.on_access(page, 2);
        p.on_access(page, 2); // repeated touch counts once
        let fp = p.on_evict(page);
        // 3 distinct lines rounded up to 4-line granularity.
        assert_eq!(fp, 4);
        assert_eq!(p.predicted_lines(), 4);
    }

    #[test]
    fn average_converges_over_pages() {
        let mut p = FootprintPredictor::new(4);
        // Two pages: one touches 8 lines, one touches 16 lines.
        let a = PageNum::new(1);
        p.on_fill(a, 0);
        for i in 1..8 {
            p.on_access(a, i);
        }
        p.on_evict(a);
        let b = PageNum::new(2);
        p.on_fill(b, 0);
        for i in 1..16 {
            p.on_access(b, i);
        }
        p.on_evict(b);
        assert_eq!(p.predicted_lines(), 12);
        assert_eq!(p.completed_residencies(), 2);
        assert!((p.mean_footprint() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn untracked_page_access_is_ignored() {
        let mut p = FootprintPredictor::new(4);
        p.on_access(PageNum::new(9), 5); // never filled
        let fp = p.on_evict(PageNum::new(9));
        // An untracked eviction still records the minimum footprint.
        assert_eq!(fp, 4);
    }

    #[test]
    fn granularity_one_gives_exact_counts() {
        let mut p = FootprintPredictor::new(1);
        let page = PageNum::new(3);
        p.on_fill(page, 10);
        p.on_access(page, 11);
        assert_eq!(p.on_evict(page), 2);
        assert_eq!(p.predicted_lines(), 2);
    }

    proptest! {
        /// The predicted footprint never exceeds a full page and is always a
        /// positive multiple of the granularity.
        #[test]
        fn prop_prediction_bounded(
            touches in proptest::collection::vec((0u64..64, 1u64..64), 1..50),
            gran in 1u64..16,
        ) {
            let mut p = FootprintPredictor::new(gran);
            for (i, (first, extra)) in touches.iter().enumerate() {
                let page = PageNum::new(i as u64);
                p.on_fill(page, *first);
                for j in 0..*extra {
                    p.on_access(page, (first + j) % 64);
                }
                p.on_evict(page);
                let pred = p.predicted_lines();
                prop_assert!((1..=64).contains(&pred));
                // Predictions are multiples of the granularity except when
                // capped at the full page.
                prop_assert!(pred.is_multiple_of(gran) || pred == 64);
            }
        }

        /// save → restore → save is byte-identical and predictions survive
        /// the round trip, including the in-flight (filled, not yet
        /// evicted) pages.
        #[test]
        fn prop_persist_round_trip(
            touches in proptest::collection::vec((0u64..64, 0u64..64, 0u8..2), 0..80),
            gran in 1u64..16,
        ) {
            let mut p = FootprintPredictor::new(gran);
            for (i, (first, line, evict)) in touches.iter().enumerate() {
                let page = PageNum::new((i % 8) as u64);
                p.on_fill(page, *first);
                p.on_access(page, *line);
                if *evict == 1 {
                    p.on_evict(page);
                }
            }
            let snap = |p: &FootprintPredictor| {
                let mut w = SnapshotWriter::new();
                p.save(&mut w);
                w.into_bytes()
            };
            let bytes = snap(&p);
            let mut r = SnapshotReader::new(&bytes);
            let back = FootprintPredictor::restore(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(snap(&back), bytes.clone());
            prop_assert_eq!(p.predicted_lines(), back.predicted_lines());
            prop_assert_eq!(p.tracked_pages(), back.tracked_pages());
            // Truncation anywhere strictly inside the image is typed.
            let cut = bytes.len() / 2;
            let mut r = SnapshotReader::new(&bytes[..cut]);
            if bytes.len() > cut {
                prop_assert!(FootprintPredictor::restore(&mut r).is_err());
            }
        }
    }
}
