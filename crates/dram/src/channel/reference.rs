//! The channel's service and write-queue logic as it was before the fast
//! path, kept as the oracle of the scheduler-equivalence property test.
//!
//! It drives the state of a real [`Channel`] (so save, restore and every
//! counter getter are shared) but services with per-op
//! [`DramConfig::transfer_cycles`] and `div_ceil` rounding, advances the
//! bank rings with `%`, and drains the write queue with `swap_remove` after
//! an O(n) scan: the minimum `(row_miss, seq)` under FR-FCFS, the minimum
//! `seq` under FCFS. The queue therefore ends up in `swap_remove` order,
//! which is what images written by that code hold.

use super::{Channel, ChannelAccess, RowBufferOutcome, WriteEntry};
use crate::config::{DramConfig, PagePolicy, SchedulerKind};
use banshee_common::{Addr, Cycle, TrafficClass};

/// Round up to the granule the way the model always has: `div_ceil`.
pub(super) fn div_ceil_round(cfg: &DramConfig, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    bytes.div_ceil(cfg.min_transfer_bytes) * cfg.min_transfer_bytes
}

/// A [`Channel`] serviced by the reference logic.
pub(super) struct ReferenceChannel(pub(super) Channel);

impl ReferenceChannel {
    pub(super) fn new(cfg: &DramConfig) -> Self {
        ReferenceChannel(Channel::new(cfg))
    }

    fn service(
        &mut self,
        now: Cycle,
        bank_idx: usize,
        row: u64,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        let ch = &mut self.0;
        let t = ch.timing;
        let bank = &mut ch.banks[bank_idx];
        let slot_free = bank.ring[bank.ring_idx as usize];
        let start = now.max(bank.busy_until).max(slot_free);

        let closed_policy = ch.config.page_policy == PagePolicy::Closed;
        let (outcome, activate_at, data_ready) = match bank.open_row {
            Some(open) if open == row && !closed_policy => {
                (RowBufferOutcome::Hit, None, start + t.hit)
            }
            Some(_) => {
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

        let transfer = ch.config.transfer_cycles(bytes);
        let bus_start = data_ready.max(ch.bus_free);
        let finish = bus_start + transfer;

        ch.bus_free = finish;
        ch.busy_cycles += transfer;
        ch.transferred[class.index()] += div_ceil_round(&ch.config, bytes);
        ch.accesses += 1;
        match outcome {
            RowBufferOutcome::Hit => ch.row_hits += 1,
            RowBufferOutcome::Conflict => ch.row_conflicts += 1,
            _ => {}
        }

        bank.ring[bank.ring_idx as usize] = finish;
        bank.ring_idx = (bank.ring_idx + 1) % bank.ring.len() as u32;
        if closed_policy {
            bank.open_row = None;
            let activate = activate_at.unwrap_or(start);
            bank.busy_until = data_ready.max(activate + t.t_ras + t.t_rp);
        } else {
            bank.open_row = Some(row);
            match outcome {
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

    pub(super) fn read(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.0.advance_refresh(now);
        let (bank, row) = self.0.decode(addr);
        self.service(now, bank, row, bytes, class)
    }

    pub(super) fn write(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.0.advance_refresh(now);
        let (bank, row) = self.0.decode(addr);
        let cfg = self.0.config.clone();
        if cfg.write_queue_depth == 0 {
            return self.service(now, bank, row, bytes, class);
        }
        if self.0.write_queue.len() == cfg.write_queue_depth {
            self.drain_writes_to(now, cfg.write_low_watermark);
        }
        let rounded = div_ceil_round(&cfg, bytes);
        let ch = &mut self.0;
        ch.queued[class.index()] += rounded;
        ch.writes_buffered += 1;
        ch.write_queue.push(WriteEntry {
            bank: bank as u32,
            row,
            bytes: rounded,
            class,
            enqueued: now,
            seq: ch.write_seq,
        });
        ch.write_seq += 1;
        if ch.write_queue.len() >= cfg.write_high_watermark {
            self.drain_writes_to(now, cfg.write_low_watermark);
        }
        ChannelAccess {
            start: now,
            finish: now,
            row_outcome: RowBufferOutcome::Buffered,
        }
    }

    fn drain_writes_to(&mut self, now: Cycle, target: usize) {
        if self.0.write_queue.len() > target {
            self.0.write_drains += 1;
        }
        while self.0.write_queue.len() > target {
            let queue = &self.0.write_queue;
            let pick = match self.0.config.scheduler {
                SchedulerKind::FrFcfs => (0..queue.len())
                    .min_by_key(|&i| {
                        let e = &queue[i];
                        let row_miss = self.0.banks[e.bank as usize].open_row != Some(e.row);
                        (row_miss, e.seq)
                    })
                    .expect("non-empty queue"),
                SchedulerKind::Fcfs => (0..queue.len())
                    .min_by_key(|&i| queue[i].seq)
                    .expect("non-empty queue"),
            };
            let e = self.0.write_queue.swap_remove(pick);
            self.0.queued[e.class.index()] -= e.bytes;
            self.service(
                now.max(e.enqueued),
                e.bank as usize,
                e.row,
                e.bytes,
                e.class,
            );
        }
    }

    pub(super) fn drain_all_writes(&mut self, now: Cycle) {
        self.drain_writes_to(now, 0);
    }
}
