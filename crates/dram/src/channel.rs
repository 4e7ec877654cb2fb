//! A single DRAM channel: banks with row-buffer state, a shared data bus,
//! and a request-queue memory controller in front of them.
//!
//! The controller model per channel:
//!
//! * **Reads** (demand fetches, fills being read out, tag probes) are
//!   serviced on arrival, but respect three resources: the target bank's
//!   command timing (row hit / closed / conflict, tRAS/tRP debts), a
//!   **bounded per-bank queue** (at most `read_queue_depth` unfinished
//!   requests per bank — excess arrivals wait for a slot), and the shared
//!   data bus. Row hits pipeline at the bus rate; activates serialize on
//!   the bank.
//! * **Writes** are posted into a per-channel **write queue** and
//!   acknowledged immediately. When occupancy reaches the high watermark
//!   the controller drains down to the low watermark, picking row-buffer
//!   hits first under [`SchedulerKind::FrFcfs`] (oldest-first under
//!   [`SchedulerKind::Fcfs`]); each drained write occupies its bank and the
//!   bus like any access. With `write_queue_depth == 0` writes are serviced
//!   immediately (the pre-queue model).
//! * **Refresh**: every tREFI the whole channel performs an all-bank
//!   refresh — open rows are closed and every bank is blocked for tRFC.
//!
//! This is still not a full DDR protocol model (no command bus, no
//! tFAW/tWTR), but it now captures the three effects the paper's evaluation
//! depends on: *queueing under bandwidth pressure*, *row-buffer locality*
//! (sequential page fills are cheaper per byte than scattered line
//! accesses), and *write interference* (drain bursts delaying demand reads).
//!
//! All state is allocated at construction (queue and per-bank rings are
//! fixed-capacity); no access allocates. Bus occupancy comes from a
//! per-granule table, so past the first transfer of each size no access
//! does floating point, and at power-of-two geometry none divides. The
//! write queue is kept in arrival order, so both schedulers pick with a
//! front-to-back scan that stops early.

use crate::config::{DramConfig, PagePolicy, SchedulerKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Addr, Cycle, FastDivMod, TrafficClass, PAGE_SIZE};

#[cfg(test)]
mod reference;

/// Largest transfer the bus-time table covers without falling back to
/// [`DramConfig::transfer_cycles`]: one 4 KiB page, the biggest op any
/// design issues per access.
const BUS_TABLE_BYTES: u64 = PAGE_SIZE;

/// What the row buffer did for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank had no open row (first access, after refresh, or always
    /// under the closed page policy).
    Closed,
    /// A different row was open and had to be precharged first.
    Conflict,
    /// A write was posted into the write queue; its row outcome is decided
    /// when the queue drains.
    Buffered,
}

/// Per-bank state: which row is open, command availability, and the bounded
/// queue of unfinished requests.
#[derive(Debug, Clone)]
pub struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next command.
    busy_until: Cycle,
    /// Earliest cycle the open row's precharge may *begin* (activate time
    /// plus tRAS).
    ras_until: Cycle,
    /// Ring of the last `read_queue_depth` finish times; the slot at
    /// `ring_idx` is the finish time of the request `depth` requests ago,
    /// which a new request must wait for (bounded-queue backpressure).
    ring: Box<[Cycle]>,
    ring_idx: u32,
}

impl Bank {
    fn new(queue_depth: usize) -> Self {
        Bank {
            open_row: None,
            busy_until: 0,
            ras_until: 0,
            ring: vec![0; queue_depth.max(1)].into_boxed_slice(),
            ring_idx: 0,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// The cycle until which the bank is busy with its current access.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }
}

/// Result of scheduling one access on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelAccess {
    /// Cycle at which the access started being serviced (after queueing).
    pub start: Cycle,
    /// Cycle at which the requested data has fully crossed the bus (for
    /// buffered writes: the posting cycle — the transfer happens at drain).
    pub finish: Cycle,
    /// Row-buffer behaviour of this access.
    pub row_outcome: RowBufferOutcome,
}

/// One pending entry of the write queue.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    bank: u32,
    row: u64,
    /// Payload rounded to the link's minimum transfer granule.
    bytes: u64,
    class: TrafficClass,
    enqueued: Cycle,
    seq: u64,
}

/// Command timing pre-converted to CPU cycles (latency scale applied).
#[derive(Debug, Clone, Copy)]
struct TimingCpu {
    hit: Cycle,
    closed: Cycle,
    t_rp: Cycle,
    t_ras: Cycle,
    t_refi: Cycle,
    t_rfc: Cycle,
}

/// One DRAM channel with its memory-controller front end.
#[derive(Debug, Clone)]
pub struct Channel {
    config: DramConfig,
    timing: TimingCpu,
    banks: Vec<Bank>,
    row_div: FastDivMod,
    bank_div: FastDivMod,
    /// Divides a rounded byte count into whole transfer granules.
    granule_div: FastDivMod,
    /// `bus_cycles[k]` caches [`DramConfig::transfer_cycles`] of `k`
    /// granules, for every `k` up to [`BUS_TABLE_BYTES`]; 0 marks an entry
    /// not computed yet (every transfer occupies the bus at least 1 cycle).
    /// Filled on first use: computing all of it at construction would cost
    /// more than the rest of a channel's set-up.
    bus_cycles: Box<[Cycle]>,
    bus_free: Cycle,
    /// Pending writes in arrival (ascending `seq`) order.
    write_queue: Vec<WriteEntry>,
    next_refresh: Cycle,
    write_seq: u64,
    // Counters.
    busy_cycles: u64,
    accesses: u64,
    row_hits: u64,
    row_conflicts: u64,
    refreshes: u64,
    writes_buffered: u64,
    write_drains: u64,
    /// Bytes actually moved across the data bus, per traffic class (rounded
    /// to the minimum transfer granule). Writes count at drain time.
    transferred: [u64; TrafficClass::ALL.len()],
    /// Bytes posted into the write queue and not yet drained, per class.
    queued: [u64; TrafficClass::ALL.len()],
}

impl Channel {
    /// Create a channel from a device configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(
            cfg.banks_per_channel > 0,
            "a channel needs at least one bank"
        );
        assert!(
            cfg.write_queue_depth == 0 || cfg.write_low_watermark < cfg.write_high_watermark,
            "write watermarks must satisfy low < high"
        );
        assert!(
            cfg.write_queue_depth == 0 || cfg.write_high_watermark <= cfg.write_queue_depth,
            "write high watermark must fit in the queue"
        );
        let timing = TimingCpu {
            hit: cfg.row_hit_latency(),
            closed: cfg.row_closed_latency(),
            t_rp: cfg.precharge_latency(),
            t_ras: cfg.bank_busy_after_activate(),
            t_refi: cfg.refresh_interval_cycles(),
            t_rfc: cfg.refresh_duration_cycles(),
        };
        let granule = cfg.min_transfer_bytes;
        let table_len = BUS_TABLE_BYTES.div_ceil(granule) as usize + 1;
        Channel {
            timing,
            banks: (0..cfg.banks_per_channel)
                .map(|_| Bank::new(cfg.read_queue_depth))
                .collect(),
            row_div: FastDivMod::new(cfg.row_buffer_bytes),
            bank_div: FastDivMod::new(cfg.banks_per_channel as u64),
            granule_div: FastDivMod::new(granule),
            bus_cycles: vec![0; table_len].into_boxed_slice(),
            bus_free: 0,
            write_queue: Vec::with_capacity(cfg.write_queue_depth),
            next_refresh: timing.t_refi,
            write_seq: 0,
            busy_cycles: 0,
            accesses: 0,
            row_hits: 0,
            row_conflicts: 0,
            refreshes: 0,
            writes_buffered: 0,
            write_drains: 0,
            transferred: [0; TrafficClass::ALL.len()],
            queued: [0; TrafficClass::ALL.len()],
            config: cfg.clone(),
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Total cycles the data bus has been occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of accesses serviced on the banks/bus (buffered writes count
    /// when they drain).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Row-buffer hit count.
    pub fn row_hit_count(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer conflict count.
    pub fn row_conflict_count(&self) -> u64 {
        self.row_conflicts
    }

    /// Number of all-bank refreshes performed.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// Number of writes that went through the write queue.
    pub fn buffered_write_count(&self) -> u64 {
        self.writes_buffered
    }

    /// Number of drain bursts (watermark or forced).
    pub fn write_drain_count(&self) -> u64 {
        self.write_drains
    }

    /// Writes currently sitting in the write queue.
    pub fn pending_writes(&self) -> usize {
        self.write_queue.len()
    }

    /// Reads still in flight at cycle `now`, summed over banks. Each bank's
    /// ring holds the finish times of its last `queue_depth` requests, so an
    /// entry strictly after `now` is a request still occupying a queue slot
    /// — exactly the occupancy the bounded-read-queue admission test uses.
    pub fn read_queue_occupancy(&self, now: Cycle) -> usize {
        self.banks
            .iter()
            .map(|b| b.ring.iter().filter(|&&finish| finish > now).count())
            .sum()
    }

    /// Earliest cycle at which the data bus is free.
    pub fn bus_free_at(&self) -> Cycle {
        self.bus_free
    }

    /// Bytes actually transferred on the bus, per traffic class index
    /// (see [`TrafficClass::index`]).
    pub fn transferred_by_class(&self) -> &[u64; TrafficClass::ALL.len()] {
        &self.transferred
    }

    /// Bytes posted to the write queue but not yet drained, per class index.
    pub fn queued_by_class(&self) -> &[u64; TrafficClass::ALL.len()] {
        &self.queued
    }

    #[inline]
    fn decode(&self, addr: Addr) -> (usize, u64) {
        // Interleave banks at row-buffer granularity so a page fill streams
        // within one row.
        let row_id = self.row_div.div(addr.raw());
        (
            self.bank_div.rem(row_id) as usize,
            self.bank_div.div(row_id),
        )
    }

    /// Bus occupancy of a transfer of `rounded` bytes (already a multiple of
    /// the granule): a table lookup, with the formula beyond the table.
    #[inline]
    fn bus_cycles_for(&mut self, rounded: u64) -> Cycle {
        match self
            .bus_cycles
            .get_mut(self.granule_div.div(rounded) as usize)
        {
            Some(&mut cycles) if cycles != 0 => cycles,
            Some(slot) => {
                *slot = self.config.transfer_cycles(rounded);
                *slot
            }
            None => self.config.transfer_cycles(rounded),
        }
    }

    /// Apply every all-bank refresh scheduled before `now`: close all rows
    /// and block every bank for tRFC.
    fn advance_refresh(&mut self, now: Cycle) {
        let t_refi = self.timing.t_refi;
        if t_refi == 0 || self.next_refresh > now {
            return;
        }
        // Fast-forward long idle gaps: only the refresh nearest `now` can
        // still affect bank availability, the earlier ones just count.
        let behind = now - self.next_refresh;
        if behind > t_refi {
            let skipped = behind / t_refi;
            self.refreshes += skipped;
            self.next_refresh += skipped * t_refi;
        }
        while self.next_refresh <= now {
            let end = self.next_refresh + self.timing.t_rfc;
            for bank in &mut self.banks {
                bank.open_row = None;
                bank.busy_until = bank.busy_until.max(end);
            }
            self.refreshes += 1;
            self.next_refresh += t_refi;
        }
    }

    /// Service one request of `rounded` bytes (a multiple of the granule)
    /// on its bank and the bus, returning its timing.
    fn service(
        &mut self,
        now: Cycle,
        bank_idx: usize,
        row: u64,
        rounded: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        let t = self.timing;
        let transfer = self.bus_cycles_for(rounded);
        let bank = &mut self.banks[bank_idx];

        // Bounded queue: wait for the request `depth` ago to finish, and for
        // the bank to accept a command.
        let slot_free = bank.ring[bank.ring_idx as usize];
        let start = now.max(bank.busy_until).max(slot_free);

        let closed_policy = self.config.page_policy == PagePolicy::Closed;
        let (outcome, activate_at, data_ready) = match bank.open_row {
            Some(open) if open == row && !closed_policy => {
                (RowBufferOutcome::Hit, None, start + t.hit)
            }
            Some(_) => {
                // Precharge may begin only once tRAS from the activate that
                // opened the row has elapsed; the new activate follows tRP
                // later, and data is ready tRCD + tCAS after that.
                let precharge_at = start.max(bank.ras_until);
                let activate = precharge_at + t.t_rp;
                (
                    RowBufferOutcome::Conflict,
                    Some(activate),
                    activate + t.closed,
                )
            }
            None => (RowBufferOutcome::Closed, Some(start), start + t.closed),
        };

        let bus_start = data_ready.max(self.bus_free);
        let finish = bus_start + transfer;

        // Bus accounting.
        self.bus_free = finish;
        self.busy_cycles += transfer;
        self.transferred[class.index()] += rounded;
        self.accesses += 1;
        match outcome {
            RowBufferOutcome::Hit => self.row_hits += 1,
            RowBufferOutcome::Conflict => self.row_conflicts += 1,
            _ => {}
        }

        // Bank bookkeeping.
        bank.ring[bank.ring_idx as usize] = finish;
        bank.ring_idx += 1;
        if bank.ring_idx as usize == bank.ring.len() {
            bank.ring_idx = 0;
        }
        if closed_policy {
            // Auto-precharge: the row closes, and the next activate must
            // respect tRAS + tRP from this one.
            bank.open_row = None;
            let activate = activate_at.unwrap_or(start);
            bank.busy_until = data_ready.max(activate + t.t_ras + t.t_rp);
        } else {
            bank.open_row = Some(row);
            match outcome {
                // Row hits pipeline: the next column command only needs the
                // bus spacing; the bus itself serializes the data.
                RowBufferOutcome::Hit => bank.busy_until = start + transfer,
                _ => {
                    let activate = activate_at.expect("activate set for non-hit");
                    bank.busy_until = data_ready;
                    bank.ras_until = activate + t.t_ras;
                }
            }
        }

        ChannelAccess {
            start,
            finish,
            row_outcome: outcome,
        }
    }

    /// Schedule a read of `bytes` at `addr`, arriving at `now`.
    pub fn read(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.advance_refresh(now);
        let (bank, row) = self.decode(addr);
        let rounded = self.config.round_to_min_transfer(bytes);
        self.service(now, bank, row, rounded, class)
    }

    /// Post a write of `bytes` at `addr` at `now`. With a write queue the
    /// write is acknowledged immediately and drained later; without one it
    /// is serviced like a read.
    pub fn write(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.advance_refresh(now);
        let (bank, row) = self.decode(addr);
        let rounded = self.config.round_to_min_transfer(bytes);
        if self.config.write_queue_depth == 0 {
            return self.service(now, bank, row, rounded, class);
        }
        if self.write_queue.len() == self.config.write_queue_depth {
            // Queue full (possible when the low watermark equals capacity
            // minus one burst): force a drain before accepting the write.
            self.drain_writes_to(now, self.config.write_low_watermark);
        }
        self.queued[class.index()] += rounded;
        self.writes_buffered += 1;
        self.write_queue.push(WriteEntry {
            bank: bank as u32,
            row,
            bytes: rounded,
            class,
            enqueued: now,
            seq: self.write_seq,
        });
        self.write_seq += 1;
        if self.write_queue.len() >= self.config.write_high_watermark {
            self.drain_writes_to(now, self.config.write_low_watermark);
        }
        ChannelAccess {
            start: now,
            finish: now,
            row_outcome: RowBufferOutcome::Buffered,
        }
    }

    /// Drain queued writes until at most `target` remain, picking row-buffer
    /// hits first under FR-FCFS (oldest first under FCFS). `Vec::remove`
    /// keeps the queue in arrival order, so the front is always the oldest.
    fn drain_writes_to(&mut self, now: Cycle, target: usize) {
        if self.write_queue.len() > target {
            self.write_drains += 1;
        }
        while self.write_queue.len() > target {
            let pick = match self.config.scheduler {
                SchedulerKind::FrFcfs => self.pick_fr_fcfs(),
                SchedulerKind::Fcfs => 0,
            };
            let e = self.write_queue.remove(pick);
            self.queued[e.class.index()] -= e.bytes;
            self.service(
                now.max(e.enqueued),
                e.bank as usize,
                e.row,
                e.bytes,
                e.class,
            );
        }
    }

    /// FR-FCFS: the oldest write whose row is open in its bank; otherwise
    /// the oldest write overall. The queue is in arrival order, so that is
    /// the first open-row hit front to back, else the front.
    fn pick_fr_fcfs(&self) -> usize {
        self.write_queue
            .iter()
            .position(|e| self.banks[e.bank as usize].open_row == Some(e.row))
            .unwrap_or(0)
    }

    /// Force the write queue empty (end-of-run accounting, tests).
    pub fn drain_all_writes(&mut self, now: Cycle) {
        self.drain_writes_to(now, 0);
    }

    /// Bus utilization over `elapsed` cycles (clamped to [0, 1]).
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.busy_cycles as f64 / elapsed as f64).min(1.0)
        }
    }

    /// Serialize the channel's mutable state (bank rows and timing debts,
    /// write queue, refresh phase, counters). Configuration and the derived
    /// dividers are not written — the restoring channel is built cold from
    /// the same [`DramConfig`].
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.seq_with(&self.banks, |w, bank| {
            match bank.open_row {
                Some(row) => {
                    w.bool(true);
                    w.u64(row);
                }
                None => w.bool(false),
            }
            w.u64(bank.busy_until);
            w.u64(bank.ras_until);
            w.seq_with(&bank.ring, |w, t| w.u64(*t));
            w.u32(bank.ring_idx);
        });
        w.u64(self.bus_free);
        // Each entry's `seq` carries its age; the schedulers pick by it, so
        // the order entries are written in does not matter (restore sorts).
        w.seq_with(&self.write_queue, |w, e| {
            w.u32(e.bank);
            w.u64(e.row);
            w.u64(e.bytes);
            e.class.save(w);
            w.u64(e.enqueued);
            w.u64(e.seq);
        });
        w.u64(self.next_refresh);
        w.u64(self.write_seq);
        w.u64(self.busy_cycles);
        w.u64(self.accesses);
        w.u64(self.row_hits);
        w.u64(self.row_conflicts);
        w.u64(self.refreshes);
        w.u64(self.writes_buffered);
        w.u64(self.write_drains);
        for v in self.transferred.iter().chain(self.queued.iter()) {
            w.u64(*v);
        }
    }

    /// Restore mutable state saved by [`Channel::save_state`] into a channel
    /// built from the same configuration. Geometry mismatches and internally
    /// inconsistent images return [`SnapshotError::Corrupt`].
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let bank_count = r.seq_len(22)?;
        if bank_count != self.banks.len() {
            return Err(SnapshotError::Corrupt(format!(
                "channel image has {bank_count} banks, configuration has {}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.open_row = if r.bool()? { Some(r.u64()?) } else { None };
            bank.busy_until = r.u64()?;
            bank.ras_until = r.u64()?;
            let ring_len = r.seq_len(8)?;
            if ring_len != bank.ring.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "bank ring holds {ring_len} slots, configuration has {}",
                    bank.ring.len()
                )));
            }
            for slot in bank.ring.iter_mut() {
                *slot = r.u64()?;
            }
            let ring_idx = r.u32()?;
            if ring_idx as usize >= bank.ring.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "bank ring index {ring_idx} out of range"
                )));
            }
            bank.ring_idx = ring_idx;
        }
        self.bus_free = r.u64()?;
        let queued_writes = r.seq_len(34)?;
        if self.config.write_queue_depth == 0 && queued_writes > 0 {
            return Err(SnapshotError::Corrupt(
                "image has queued writes but the write queue is disabled".to_string(),
            ));
        }
        if queued_writes > self.config.write_queue_depth {
            return Err(SnapshotError::Corrupt(format!(
                "image has {queued_writes} queued writes, queue depth is {}",
                self.config.write_queue_depth
            )));
        }
        self.write_queue.clear();
        for _ in 0..queued_writes {
            let bank = r.u32()?;
            if bank as usize >= self.banks.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "queued write targets bank {bank}, channel has {}",
                    self.banks.len()
                )));
            }
            self.write_queue.push(WriteEntry {
                bank,
                row: r.u64()?,
                bytes: r.u64()?,
                class: TrafficClass::restore(r)?,
                enqueued: r.u64()?,
                seq: r.u64()?,
            });
        }
        // Images written before the queue kept arrival order hold it in
        // `swap_remove` order; `seq` restores the arrival order either way.
        self.write_queue.sort_unstable_by_key(|e| e.seq);
        self.next_refresh = r.u64()?;
        self.write_seq = r.u64()?;
        self.busy_cycles = r.u64()?;
        self.accesses = r.u64()?;
        self.row_hits = r.u64()?;
        self.row_conflicts = r.u64()?;
        self.refreshes = r.u64()?;
        self.writes_buffered = r.u64()?;
        self.write_drains = r.u64()?;
        for v in self.transferred.iter_mut().chain(self.queued.iter_mut()) {
            *v = r.u64()?;
        }
        self.check_write_queue()
    }

    /// The restored write queue must agree with the counters saved beside
    /// it: unique `seq`s below `write_seq`, and per-class byte sums equal to
    /// `queued` (a drain subtracts each entry's bytes from its class).
    fn check_write_queue(&self) -> Result<(), SnapshotError> {
        if let Some(pair) = self.write_queue.windows(2).find(|p| p[0].seq == p[1].seq) {
            return Err(SnapshotError::Corrupt(format!(
                "two queued writes share seq {}",
                pair[0].seq
            )));
        }
        if let Some(last) = self.write_queue.last() {
            if last.seq >= self.write_seq {
                return Err(SnapshotError::Corrupt(format!(
                    "queued write seq {} is not below the next seq {}",
                    last.seq, self.write_seq
                )));
            }
        }
        let mut sums = [0u64; TrafficClass::ALL.len()];
        for e in &self.write_queue {
            let sum = &mut sums[e.class.index()];
            *sum = sum
                .checked_add(e.bytes)
                .ok_or_else(|| SnapshotError::Corrupt("queued write bytes overflow".to_string()))?;
        }
        if sums != self.queued {
            return Err(SnapshotError::Corrupt(format!(
                "queued bytes per class {:?} differ from the queued writes' {sums:?}",
                self.queued
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::in_package_default()
    }

    /// A config with refresh off and unbuffered writes: every access is
    /// serviced immediately, which the timing-pinning tests rely on.
    fn bare(banks: usize) -> DramConfig {
        DramConfig {
            banks_per_channel: banks,
            write_queue_depth: 0,
            write_high_watermark: 0,
            write_low_watermark: 0,
            timing: crate::DramTiming::no_refresh(),
            ..cfg()
        }
    }

    #[test]
    fn first_access_is_row_closed() {
        let mut ch = Channel::new(&bare(8));
        let a = ch.read(0, Addr::new(0x1000), 64, TrafficClass::HitData);
        assert_eq!(a.row_outcome, RowBufferOutcome::Closed);
        assert!(a.finish > a.start);
    }

    #[test]
    fn read_queue_occupancy_counts_in_flight_requests() {
        let mut ch = Channel::new(&bare(2));
        assert_eq!(ch.read_queue_occupancy(0), 0);
        let a = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let b = ch.read(0, Addr::new(64), 64, TrafficClass::HitData);
        // Both requests occupy slots until their finish times pass.
        assert_eq!(ch.read_queue_occupancy(0), 2);
        let first_done = a.finish.min(b.finish);
        let last_done = a.finish.max(b.finish);
        assert_eq!(ch.read_queue_occupancy(first_done), 1);
        assert_eq!(ch.read_queue_occupancy(last_done), 0);
    }

    #[test]
    fn same_row_hits_after_first_access() {
        let mut ch = Channel::new(&bare(8));
        let first = ch.read(0, Addr::new(0x0), 64, TrafficClass::HitData);
        let second = ch.read(first.finish, Addr::new(0x40), 64, TrafficClass::HitData);
        assert_eq!(second.row_outcome, RowBufferOutcome::Hit);
        // Row hit latency should be shorter than the closed access.
        assert!(second.finish - second.start <= first.finish - first.start);
    }

    /// Pin the exact closed / hit / conflict service times of the paper
    /// timing (tCAS 40, tRCD+tCAS 81, tRP 40, tRAS 97 CPU cycles; 64 B
    /// transfer 8 cycles).
    #[test]
    fn access_latencies_pinned() {
        let c = bare(2);
        let mut ch = Channel::new(&c);
        // Closed: activate at 0, data at 81, transfer 8 → finish 89.
        let closed = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        assert_eq!((closed.start, closed.finish), (0, 89));
        // Hit on the open row, issued after the bus is free: data at
        // 1000 + 40, transfer 8 → 1048.
        let hit = ch.read(1000, Addr::new(64), 64, TrafficClass::HitData);
        assert_eq!(hit.row_outcome, RowBufferOutcome::Hit);
        assert_eq!((hit.start, hit.finish), (1000, 1048));
        // Conflict long after tRAS expired: precharge 40 + activate+CAS 81
        // + transfer 8 → 129 cycles of service time.
        let conflict_addr = Addr::new(2 * c.row_buffer_bytes);
        let conflict = ch.read(5000, conflict_addr, 64, TrafficClass::HitData);
        assert_eq!(conflict.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!((conflict.start, conflict.finish), (5000, 5129));
    }

    /// Back-to-back conflicts to one bank: the second conflict's precharge
    /// must wait for the first activate's tRAS window, and the new tRAS debt
    /// is anchored at the *new activate* (tRP after the precharge), not at
    /// the request start.
    #[test]
    fn back_to_back_conflict_timing_respects_ras_and_rp() {
        let c = bare(1); // one bank: every row maps to it
        let row = c.row_buffer_bytes;
        let mut ch = Channel::new(&c);
        // Open row 0: activate at 0 → ras_until = 97.
        ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        // Conflict at t=10 (bank busy until data_ready=81): start 81, but
        // precharge may only begin at ras_until 97 → activate at 137, data
        // at 218, finish 226.
        let second = ch.read(10, Addr::new(row), 64, TrafficClass::HitData);
        assert_eq!(second.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!(second.finish, 226);
        // Third conflict right away: start at data_ready 218; the second
        // activate happened at 137, so precharge waits until 137+97=234,
        // activate 274, data 355, finish 363. If tRAS were anchored at the
        // request start (the pre-fix bug), this would finish 40 cycles
        // earlier.
        let third = ch.read(220, Addr::new(2 * row), 64, TrafficClass::HitData);
        assert_eq!(third.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!(third.finish, 363);
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let c = bare(8);
        let mut ch = Channel::new(&c);
        let mut finishes = Vec::new();
        finishes.push(ch.read(0, Addr::new(0), 64, TrafficClass::HitData));
        for i in 1..16u64 {
            let a = ch.read(0, Addr::new(i * 64), 64, TrafficClass::HitData);
            assert_eq!(a.row_outcome, RowBufferOutcome::Hit);
            finishes.push(a);
        }
        // After the one-time CAS ramp, consecutive hits transfer
        // back-to-back on the bus (8 CPU cycles per 64 B line).
        let step = c.transfer_cycles(64);
        for w in finishes.windows(2).skip(2) {
            assert_eq!(w[1].finish, w[0].finish + step);
        }
    }

    #[test]
    fn back_to_back_accesses_queue_on_the_bus() {
        let c = bare(8);
        let mut ch = Channel::new(&c);
        // Two accesses to different banks issued at the same time must
        // serialize on the data bus.
        let a = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let b = ch.read(0, Addr::new(c.row_buffer_bytes), 64, TrafficClass::HitData);
        assert!(b.finish >= a.finish + c.transfer_cycles(64));
    }

    #[test]
    fn bounded_bank_queue_backpressures() {
        let mut c = bare(1);
        c.read_queue_depth = 2;
        let mut ch = Channel::new(&c);
        // Saturate one bank with same-row hits from t=0. With a depth-2
        // queue, request i must wait for request i-2 to finish.
        let mut finishes = Vec::new();
        for i in 0..8u64 {
            let a = ch.read(0, Addr::new(i * 64), 64, TrafficClass::HitData);
            finishes.push(a);
        }
        for i in 2..8usize {
            assert!(
                finishes[i].start >= finishes[i - 2].finish,
                "request {i} started at {} before request {} finished at {}",
                finishes[i].start,
                i - 2,
                finishes[i - 2].finish
            );
        }
    }

    #[test]
    fn large_transfers_occupy_bus_longer() {
        let mut ch_small = Channel::new(&bare(8));
        let mut ch_big = Channel::new(&bare(8));
        let small = ch_small.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let big = ch_big.read(0, Addr::new(0), 4096, TrafficClass::HitData);
        assert!(big.finish - big.start > small.finish - small.start);
        assert!(ch_big.busy_cycles() > ch_small.busy_cycles());
    }

    #[test]
    fn writes_are_posted_and_drain_at_the_high_watermark() {
        let mut c = bare(8);
        c.write_queue_depth = 8;
        c.write_high_watermark = 4;
        c.write_low_watermark = 1;
        let mut ch = Channel::new(&c);
        for i in 0..3u64 {
            let w = ch.write(0, Addr::new(i * 64), 64, TrafficClass::Writeback);
            assert_eq!(w.row_outcome, RowBufferOutcome::Buffered);
            assert_eq!(w.finish, 0, "posted writes are acknowledged instantly");
        }
        assert_eq!(ch.pending_writes(), 3);
        assert_eq!(ch.access_count(), 0, "nothing drained yet");
        // The 4th write trips the high watermark: drain down to 1.
        ch.write(0, Addr::new(3 * 64), 64, TrafficClass::Writeback);
        assert_eq!(ch.pending_writes(), 1);
        assert_eq!(ch.access_count(), 3);
        assert_eq!(ch.write_drain_count(), 1);
        assert!(ch.busy_cycles() > 0);
    }

    #[test]
    fn fr_fcfs_drains_row_hits_first() {
        // One bank; queue writes to rows 0,1,0,0 then force a drain. Under
        // FR-FCFS the row-0 writes coalesce (1 conflict); under FCFS the
        // drain ping-pongs (2 conflicts).
        let mk = |sched| {
            let mut c = bare(1);
            c.write_queue_depth = 8;
            c.write_high_watermark = 8;
            c.write_low_watermark = 0;
            c.scheduler = sched;
            c
        };
        let row = cfg().row_buffer_bytes;
        let run = |c: &DramConfig| {
            let mut ch = Channel::new(c);
            // Open row 0.
            ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
            for (i, r) in [0u64, 1, 0, 0].iter().enumerate() {
                ch.write(
                    100,
                    Addr::new(r * row + i as u64 * 64),
                    64,
                    TrafficClass::Writeback,
                );
            }
            ch.drain_all_writes(100);
            (ch.row_hit_count(), ch.row_conflict_count())
        };
        let (fr_hits, fr_conflicts) = run(&mk(SchedulerKind::FrFcfs));
        let (fcfs_hits, fcfs_conflicts) = run(&mk(SchedulerKind::Fcfs));
        assert!(fr_hits > fcfs_hits, "{fr_hits} vs {fcfs_hits}");
        assert!(
            fr_conflicts < fcfs_conflicts,
            "{fr_conflicts} vs {fcfs_conflicts}"
        );
    }

    #[test]
    fn queued_bytes_reconcile_with_transfers() {
        let mut c = bare(4);
        c.write_queue_depth = 16;
        c.write_high_watermark = 12;
        c.write_low_watermark = 2;
        let mut ch = Channel::new(&c);
        let mut posted = 0u64;
        for i in 0..40u64 {
            ch.write(
                i,
                Addr::new(i * 4096),
                64 + (i % 3) * 8,
                TrafficClass::Writeback,
            );
            posted += c.round_to_min_transfer(64 + (i % 3) * 8);
        }
        let wb = TrafficClass::Writeback.index();
        assert_eq!(
            ch.transferred_by_class()[wb] + ch.queued_by_class()[wb],
            posted
        );
        ch.drain_all_writes(10_000);
        assert_eq!(ch.queued_by_class()[wb], 0);
        assert_eq!(ch.transferred_by_class()[wb], posted);
    }

    #[test]
    fn refresh_blocks_banks_and_closes_rows() {
        let mut c = bare(2);
        c.timing = crate::DramTiming::paper_default();
        let refi = c.refresh_interval_cycles();
        let rfc = c.refresh_duration_cycles();
        let mut ch = Channel::new(&c);
        // Open a row well before the first refresh.
        ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        assert_eq!(ch.refresh_count(), 0);
        // Just past the refresh boundary: the row was closed by the refresh
        // (Closed outcome, not Hit) and service starts no earlier than the
        // refresh window's end.
        let a = ch.read(refi + 1, Addr::new(64), 64, TrafficClass::HitData);
        assert_eq!(ch.refresh_count(), 1);
        assert_eq!(a.row_outcome, RowBufferOutcome::Closed);
        assert!(a.start >= refi + rfc);
        // A long idle gap accounts all missed refreshes.
        ch.read(10 * refi + 5, Addr::new(128), 64, TrafficClass::HitData);
        assert_eq!(ch.refresh_count(), 10);
    }

    #[test]
    fn closed_page_policy_never_hits() {
        let mut c = bare(8);
        c.page_policy = PagePolicy::Closed;
        let mut ch = Channel::new(&c);
        let first = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let second = ch.read(first.finish, Addr::new(64), 64, TrafficClass::HitData);
        assert_eq!(second.row_outcome, RowBufferOutcome::Closed);
        assert_eq!(ch.row_hit_count(), 0);
        assert_eq!(ch.row_conflict_count(), 0);
        // Under the open policy the same pair is a hit.
        let mut open = Channel::new(&bare(8));
        let f = open.read(0, Addr::new(0), 64, TrafficClass::HitData);
        assert_eq!(
            open.read(f.finish, Addr::new(64), 64, TrafficClass::HitData)
                .row_outcome,
            RowBufferOutcome::Hit
        );
    }

    #[test]
    fn utilization_bounded() {
        let mut ch = Channel::new(&bare(8));
        for i in 0..100u64 {
            ch.read(i, Addr::new(i * 64), 64, TrafficClass::HitData);
        }
        let u = ch.utilization(ch.bus_free_at());
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert_eq!(ch.utilization(0), 0.0);
        assert_eq!(ch.access_count(), 100);
    }

    #[test]
    fn unbuffered_mode_accepts_default_watermarks() {
        // Disabling the write queue must not require zeroing the watermarks
        // too: depth 0 leaves them unused.
        let mut c = cfg();
        c.write_queue_depth = 0;
        let mut ch = Channel::new(&c);
        let w = ch.write(0, Addr::new(0), 64, TrafficClass::Writeback);
        assert_ne!(w.row_outcome, RowBufferOutcome::Buffered);
        assert_eq!(ch.pending_writes(), 0);
        assert_eq!(ch.access_count(), 1);
    }

    #[test]
    #[should_panic]
    fn channel_requires_banks() {
        let mut c = cfg();
        c.banks_per_channel = 0;
        let _ = Channel::new(&c);
    }

    #[test]
    #[should_panic]
    fn watermarks_must_be_ordered() {
        let mut c = cfg();
        c.write_low_watermark = c.write_high_watermark;
        let _ = Channel::new(&c);
    }

    /// The bus-time table must equal `DramConfig::transfer_cycles` for every
    /// byte count, when an entry is filled, when it is read back and in the
    /// fallback beyond the table, and the masked rounding must equal the
    /// `div_ceil` form.
    #[test]
    fn bus_table_and_rounding_are_exact() {
        let mut configs = Vec::new();
        for base in [
            DramConfig::in_package_default(),
            DramConfig::off_package_default(),
        ] {
            configs.push(base.clone());
            configs.push(DramConfig {
                latency_scale: 0.5,
                ..base.clone()
            });
            for granule in [64, 48] {
                configs.push(DramConfig {
                    min_transfer_bytes: granule,
                    ..base.clone()
                });
            }
            configs.push(DramConfig {
                bus_bytes: 8,
                ..base
            });
        }
        for c in configs {
            let mut ch = Channel::new(&c);
            let table_bytes = (ch.bus_cycles.len() as u64 - 1) * c.min_transfer_bytes;
            assert!(table_bytes >= BUS_TABLE_BYTES);
            for bytes in 0..=2 * table_bytes {
                let rounded = c.round_to_min_transfer(bytes);
                assert_eq!(rounded, reference::div_ceil_round(&c, bytes), "{bytes} B");
                assert_eq!(
                    ch.bus_cycles_for(rounded),
                    c.transfer_cycles(bytes),
                    "{bytes} B with granule {} and bus {} B",
                    c.min_transfer_bytes,
                    c.bus_bytes
                );
            }
        }
    }

    /// Everything a caller can observe of a channel besides its accesses.
    fn observable(ch: &Channel, now: Cycle) -> Vec<u64> {
        let mut v = vec![
            ch.busy_cycles(),
            ch.access_count(),
            ch.row_hit_count(),
            ch.row_conflict_count(),
            ch.refresh_count(),
            ch.buffered_write_count(),
            ch.write_drain_count(),
            ch.pending_writes() as u64,
            ch.read_queue_occupancy(now) as u64,
            ch.bus_free_at(),
        ];
        v.extend(ch.transferred_by_class());
        v.extend(ch.queued_by_class());
        v
    }

    fn image(ch: &Channel) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        ch.save_state(&mut w);
        w.into_bytes()
    }

    fn restored(cfg: &DramConfig, image: &[u8]) -> Result<Channel, SnapshotError> {
        let mut ch = Channel::new(cfg);
        let mut r = SnapshotReader::new(image);
        ch.load_state(&mut r)?;
        assert!(r.is_exhausted());
        Ok(ch)
    }

    /// One random op: kind (below 6 a read, else a write; the kind mod 6
    /// picks the size), bank, row, gap since the last op.
    type Op = (u8, u64, u64, u64);

    /// Drive the fast path and the reference through the same ops and
    /// require identical accesses and counters after every op.
    fn run_both(
        fast: &mut Channel,
        slow: &mut reference::ReferenceChannel,
        ops: &[Op],
        now: &mut Cycle,
    ) {
        const SIZES: [u64; 6] = [1, 64, 72, 96, 4096, 5000];
        let c = fast.config.clone();
        for (i, &(kind, bank, row, gap)) in ops.iter().enumerate() {
            *now += gap;
            let row_base = (row * c.banks_per_channel as u64 + bank) * c.row_buffer_bytes;
            let addr = Addr::new(row_base + (gap % 64) * 64);
            let write = kind >= 6;
            let bytes = SIZES[kind as usize % SIZES.len()];
            let class = TrafficClass::ALL[i % TrafficClass::ALL.len()];
            let (a, b) = if write {
                (
                    fast.write(*now, addr, bytes, class),
                    slow.write(*now, addr, bytes, class),
                )
            } else {
                (
                    fast.read(*now, addr, bytes, class),
                    slow.read(*now, addr, bytes, class),
                )
            };
            assert_eq!(a, b, "op {i} ({write}, bank {bank}, row {row}, {bytes} B)");
            assert_eq!(observable(fast, *now), observable(&slow.0, *now), "op {i}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The arrival-ordered queue with first-hit FR-FCFS / front FCFS,
        /// the bus-time table and the masked rounding schedule exactly like
        /// the O(n) `swap_remove` reference, under both schedulers and page
        /// policies and write-queue depths 0, 2 and the default. Mid-run the
        /// reference's image (in `swap_remove` order) is restored into a
        /// fresh channel whose queue it fills, so the run continues through
        /// a resume from an old-order image and a forced drain.
        #[test]
        fn prop_fast_path_matches_reference(
            ops in proptest::collection::vec(
                (0u8..12, 0u64..4, 0u64..3, 0u64..400),
                1..250,
            ),
            split in 0usize..250,
        ) {
            let split = split.min(ops.len());
            for scheduler in [SchedulerKind::FrFcfs, SchedulerKind::Fcfs] {
                for page_policy in [PagePolicy::Open, PagePolicy::Closed] {
                    for depth in [0, 2, cfg().write_queue_depth] {
                        let mut c = DramConfig {
                            banks_per_channel: 4,
                            scheduler,
                            page_policy,
                            ..cfg()
                        };
                        if depth == 2 {
                            c.write_queue_depth = 2;
                            c.write_high_watermark = 2;
                            c.write_low_watermark = 1;
                        } else {
                            c.write_queue_depth = depth;
                        }
                        let mut fast = Channel::new(&c);
                        let mut slow = reference::ReferenceChannel::new(&c);
                        let mut now = 0;
                        run_both(&mut fast, &mut slow, &ops[..split], &mut now);

                        // Shrink the queue to its current occupancy so the
                        // next write finds it full.
                        let pending = slow.0.pending_writes();
                        if pending > 0 {
                            c.write_queue_depth = pending;
                            c.write_high_watermark = pending;
                            c.write_low_watermark = c.write_low_watermark.min(pending - 1);
                            slow.0.config = c.clone();
                        }
                        let mut fast = restored(&c, &image(&slow.0)).expect("old-order image");
                        run_both(&mut fast, &mut slow, &ops[split..], &mut now);

                        fast.drain_all_writes(now);
                        slow.drain_all_writes(now);
                        assert_eq!(observable(&fast, now), observable(&slow.0, now));
                        // With both queues empty the whole state is comparable.
                        assert_eq!(image(&fast), image(&slow.0));
                    }
                }
            }
        }
    }

    /// A channel with writes of two classes in its queue, for the decoder
    /// tests, and the byte offsets of its image's tail: the last queued
    /// write's `seq`, `write_seq`, and the per-class `queued` counters.
    fn queued_image() -> (Vec<u8>, usize, usize, usize) {
        let mut ch = Channel::new(&cfg());
        for i in 0..6u64 {
            let class = if i % 2 == 0 {
                TrafficClass::Writeback
            } else {
                TrafficClass::Replacement
            };
            ch.write(i, Addr::new(i * 4096), 64, class);
        }
        assert_eq!(ch.pending_writes(), 6);
        let bytes = image(&ch);
        let classes = TrafficClass::ALL.len();
        // After the queue: nine u64s (next_refresh, write_seq, then the
        // counters) and the transferred and queued arrays.
        let tail = bytes.len() - (9 + 2 * classes) * 8;
        let queued = bytes.len() - classes * 8;
        (bytes, tail - 8, tail + 8, queued)
    }

    fn read_u64(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    fn write_u64(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    fn assert_corrupt(image: &[u8]) {
        match restored(&cfg(), image) {
            Err(SnapshotError::Corrupt(_)) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
    }

    #[test]
    fn decoder_test_image_restores() {
        let (bytes, last_seq, write_seq, _) = queued_image();
        assert_eq!(read_u64(&bytes, last_seq), 5);
        assert_eq!(read_u64(&bytes, write_seq), 6);
        let ch = restored(&cfg(), &bytes).expect("intact image");
        assert_eq!(image(&ch), bytes);
    }

    /// A `queued` counter below its entries' bytes would underflow at the
    /// next drain and break conservation; restore must refuse it.
    #[test]
    fn restore_rejects_queued_bytes_that_differ_from_the_queue() {
        let (mut bytes, _, _, queued) = queued_image();
        let at = queued + TrafficClass::Writeback.index() * 8;
        let v = read_u64(&bytes, at);
        write_u64(&mut bytes, at, v - 32);
        assert_corrupt(&bytes);
    }

    #[test]
    fn restore_rejects_duplicate_seq() {
        let (mut bytes, last_seq, _, _) = queued_image();
        // Each entry is bank u32, row, bytes, class u8, enqueued, seq.
        let previous_seq = last_seq - (4 + 8 + 8 + 1 + 8 + 8);
        let v = read_u64(&bytes, previous_seq);
        write_u64(&mut bytes, last_seq, v);
        assert_corrupt(&bytes);
    }

    #[test]
    fn restore_rejects_seq_at_or_beyond_write_seq() {
        let (mut bytes, last_seq, write_seq, _) = queued_image();
        let next = read_u64(&bytes, write_seq);
        write_u64(&mut bytes, last_seq, next);
        assert_corrupt(&bytes);
    }
}
