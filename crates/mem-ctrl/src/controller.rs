//! The memory controller: FR-FCFS scheduling, refresh management, Alert
//! Back-Off servicing and periodic RFMs for rate-based mitigations.
//!
//! The controller owns the [`DramDevice`] and issues at most one command
//! per memory cycle (command-bus constraint). Scheduling priorities, in
//! order:
//!
//! 1. **Alert service** — when Alert_n is asserted the controller stops
//!    issuing new activations, precharges all affected banks and issues
//!    `N_mit` RFMs (a benign controller does not exploit the 180 ns
//!    non-blocking window; attackers exploiting it are modeled in the
//!    `attack-engine` crate).
//! 2. **Refresh** — each rank receives a REF every tREFI; when due, the
//!    controller precharges the rank and issues the REF.
//! 3. **Periodic RFM** — optional per-bank RFM every `k` activations
//!    (PrIDE/Mithril service cadence, Fig 20).
//! 4. **FR-FCFS** — column hits first (oldest first), then the oldest
//!    request's activation, then precharges of conflicting rows. Writes
//!    are posted into a buffer and drained on a high/low watermark.

use std::collections::VecDeque;

use dram_core::{BankBitSet, BankId, Cycle, DramDevice, RfmCause, RfmKind, RowId};

use crate::request::{Completion, MemRequest, ReqId, ReqKind};

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Read-queue capacity per bank.
    pub read_queue_cap: usize,
    /// Total write-buffer capacity.
    pub write_buffer_cap: usize,
    /// Enter write-drain mode at this occupancy.
    pub write_drain_high: usize,
    /// Leave write-drain mode at this occupancy.
    pub write_drain_low: usize,
    /// RFM kind used to service alerts (Fig 19 explores sb/pb).
    pub alert_rfm_kind: RfmKind,
    /// Issue a periodic per-bank RFM every this many ACTs to the bank
    /// (rate-based mitigations); `None` disables.
    pub periodic_rfm_interval: Option<u32>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            read_queue_cap: 16,
            write_buffer_cap: 64,
            write_drain_high: 48,
            write_drain_low: 16,
            alert_rfm_kind: RfmKind::AllBank,
            periodic_rfm_interval: None,
        }
    }
}

/// Controller statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct McStats {
    /// Completed reads.
    pub reads: u64,
    /// Completed (issued to DRAM) writes.
    pub writes: u64,
    /// Sum of read latencies in memory cycles (arrival to data).
    pub read_latency_sum: u64,
    /// Cycles spent with an alert pending or being serviced.
    pub alert_service_cycles: u64,
    /// Enqueue attempts rejected because a queue was full.
    pub rejected: u64,
}

impl McStats {
    /// Average read latency in memory cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads as f64
        }
    }

    /// Accumulate another channel controller's counters into this one
    /// (used to aggregate per-channel statistics into a system total).
    pub fn absorb(&mut self, other: &McStats) {
        let McStats {
            reads,
            writes,
            read_latency_sum,
            alert_service_cycles,
            rejected,
        } = other;
        self.reads += reads;
        self.writes += writes;
        self.read_latency_sum += read_latency_sum;
        self.alert_service_cycles += alert_service_cycles;
        self.rejected += rejected;
    }
}

/// The memory controller for one channel.
pub struct MemoryController {
    cfg: McConfig,
    device: DramDevice,
    /// Per-bank read queues.
    read_q: Vec<VecDeque<MemRequest>>,
    /// Per-bank write queues (posted).
    write_q: Vec<VecDeque<MemRequest>>,
    /// Banks whose read or write queue is non-empty.
    busy_banks: BankBitSet,
    reads_buffered: usize,
    writes_buffered: usize,
    drain_mode: bool,
    next_id: u64,
    completions: Vec<Completion>,
    /// Next REF due time per rank. A rank whose deadline has passed but
    /// whose REF has not issued yet is *overdue*: FR-FCFS must not open
    /// new rows or issue column commands there.
    ref_due: Vec<Cycle>,
    /// Each rank's banks as a bank set, so the overdue ranks' banks are
    /// masked out of the scheduler a word at a time.
    rank_banks: Vec<BankBitSet>,
    /// Per-bank wake hint: a cycle before which the bank provably cannot
    /// contribute any schedulable command. Conservative: 0 means
    /// "unknown, scan it". Set when a sweep finds a bank fully
    /// timing-blocked; cleared whenever the bank's queues or open-row
    /// state change (enqueue, any command to the bank). Rank/bus
    /// constraints only ever move legality later, so a stale hint can
    /// undershoot (harmless rescan) but never skip a legal command.
    bank_wake: Vec<Cycle>,
    /// Banks with a nonzero wake hint; the FR-FCFS sweep skips them
    /// word-wise. Always a subset of `busy_banks`: hints are only set on
    /// busy banks, and a bank leaves `busy_banks` only by issuing, which
    /// clears its hint.
    sleeping: BankBitSet,
    /// Lower bound on the wake hints of `sleeping` (exact right after
    /// [`wake_due_banks`](Self::wake_due_banks); clearing a hint can
    /// leave it low, which costs one extra pass). `Cycle::MAX` = none.
    sleep_min: Cycle,
    /// ACTs since the last periodic RFM, per bank.
    acts_since_rfm: Vec<u32>,
    /// Banks owing a periodic RFM.
    rfm_owed: VecDeque<BankId>,
    stats: McStats,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("pending_reads", &self.pending_reads())
            .field("writes_buffered", &self.writes_buffered)
            .field("stats", &self.stats)
            .finish()
    }
}

impl MemoryController {
    /// Build a controller owning `device`.
    pub fn new(cfg: McConfig, device: DramDevice) -> Self {
        let banks = device.cfg().num_banks();
        let ranks = device.cfg().ranks as usize;
        let trefi = device.cfg().timing.trefi;
        let rank_banks = (0..ranks as u8)
            .map(|rank| {
                let mut set = BankBitSet::new(banks);
                for b in device.bank_ids_of_rank(rank) {
                    set.insert(b.0 as usize);
                }
                set
            })
            .collect();
        MemoryController {
            cfg,
            device,
            // Sized to the hard per-bank cap up front, so read queues
            // never grow while the simulation runs.
            read_q: (0..banks)
                .map(|_| VecDeque::with_capacity(cfg.read_queue_cap))
                .collect(),
            write_q: (0..banks).map(|_| VecDeque::new()).collect(),
            busy_banks: BankBitSet::new(banks),
            reads_buffered: 0,
            writes_buffered: 0,
            drain_mode: false,
            next_id: 0,
            completions: Vec::new(),
            // Stagger per-rank refreshes across the tREFI window.
            ref_due: (0..ranks)
                .map(|r| trefi + r as Cycle * (trefi / ranks.max(1) as Cycle))
                .collect(),
            rank_banks,
            bank_wake: vec![0; banks],
            sleeping: BankBitSet::new(banks),
            sleep_min: Cycle::MAX,
            acts_since_rfm: vec![0; banks],
            rfm_owed: VecDeque::new(),
            stats: McStats::default(),
        }
    }

    /// The hosted device (read access for stats/probes).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Install an event tracer on the hosted device (and, through it,
    /// on every bank tracker). The handle should be channel-tagged via
    /// [`dram_core::TraceHandle::for_channel`].
    pub fn set_trace(&mut self, trace: dram_core::TraceHandle) {
        self.device.set_trace(trace);
    }

    /// Controller statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Outstanding read requests.
    pub fn pending_reads(&self) -> usize {
        self.reads_buffered
    }

    /// Whether all queues are empty and no RFM work is owed (used by
    /// drain loops in tests).
    pub fn idle(&self) -> bool {
        self.pending_reads() == 0 && self.writes_buffered == 0 && self.rfm_owed.is_empty()
    }

    fn flat_bank(&self, addr: &dram_core::DramAddr) -> usize {
        let c = &addr.coord;
        let cfg = self.device.cfg();
        (c.rank as usize * cfg.bank_groups as usize + c.bank_group as usize)
            * cfg.banks_per_group as usize
            + c.bank as usize
    }

    /// Flat bank index (the per-bank queue) a decoded address maps to.
    pub fn bank_index(&self, addr: &dram_core::DramAddr) -> usize {
        self.flat_bank(addr)
    }

    /// Whether an [`enqueue`](Self::enqueue) of `kind` to `bank` would be
    /// accepted right now. Lets callers with a blocked head-of-queue
    /// request poll capacity without churning the rejection statistics.
    pub fn can_accept(&self, kind: ReqKind, bank: usize) -> bool {
        match kind {
            ReqKind::Read => self.read_q[bank].len() < self.cfg.read_queue_cap,
            ReqKind::Write => self.writes_buffered < self.cfg.write_buffer_cap,
        }
    }

    /// Enqueue a request; returns `None` when the target queue is full
    /// (the caller must retry later — models finite MSHR/queue capacity).
    pub fn enqueue(
        &mut self,
        kind: ReqKind,
        addr: dram_core::DramAddr,
        tag: u64,
        now: Cycle,
    ) -> Option<ReqId> {
        let bank = self.flat_bank(&addr);
        match kind {
            ReqKind::Read => {
                if self.read_q[bank].len() >= self.cfg.read_queue_cap {
                    self.stats.rejected += 1;
                    return None;
                }
            }
            ReqKind::Write => {
                if self.writes_buffered >= self.cfg.write_buffer_cap {
                    self.stats.rejected += 1;
                    return None;
                }
            }
        }
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let req = MemRequest {
            id,
            kind,
            addr,
            arrived: now,
            tag,
        };
        match kind {
            ReqKind::Read => {
                self.read_q[bank].push_back(req);
                self.reads_buffered += 1;
            }
            ReqKind::Write => {
                self.write_q[bank].push_back(req);
                self.writes_buffered += 1;
                if self.writes_buffered >= self.cfg.write_drain_high {
                    self.drain_mode = true;
                }
            }
        }
        self.busy_banks.insert(bank);
        // A new request can make the bank schedulable sooner (e.g. a
        // fresh row hit), so the wake hint must be recomputed.
        self.wake(bank);
        Some(id)
    }

    /// Whether any completion notifications are waiting to be drained.
    pub fn has_completions(&self) -> bool {
        !self.completions.is_empty()
    }

    /// Drain completion notifications accumulated since the last call.
    /// The buffer keeps its capacity, so steady-state draining never
    /// allocates.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.completions.drain(..)
    }

    /// Advance one memory cycle, issuing at most one DRAM command.
    ///
    /// Returns the same bound as [`next_event`](Self::next_event) would
    /// after this tick, computed as a byproduct of the scheduling sweep:
    /// the earliest cycle strictly after `now` at which the controller
    /// might act (assuming no enqueues in between). Callers that step
    /// cycle-by-cycle can ignore it; the fast-forwarding simulator uses
    /// it to elide the provably dead ticks in between.
    pub fn tick(&mut self, now: Cycle) -> Cycle {
        if self.device.alert_since().is_some() {
            self.stats.alert_service_cycles += 1;
            return self.service_alert(now);
        }
        if self.service_refresh(now) {
            return now + 1;
        }
        if self.service_periodic_rfm(now) {
            return now + 1;
        }
        let demand = self.schedule_frfcfs(now);
        self.background_events(now, demand)
    }

    /// Combine a demand-side bound with the refresh / periodic-RFM
    /// candidates (the non-demand work `tick` could pick up first).
    fn background_events(&self, now: Cycle, demand: Cycle) -> Cycle {
        let floor = now + 1;
        let mut best = demand.max(floor);
        let mut upd = |c: Cycle| {
            if c != Cycle::MAX {
                best = best.min(c.max(floor));
            }
        };
        for rank in 0..self.device.cfg().ranks {
            let due = self.ref_due[rank as usize];
            if now < due {
                upd(due);
                continue;
            }
            let mut any_open = false;
            for b in self.device.bank_ids_of_rank(rank) {
                if self.device.open_row(b).is_some() {
                    any_open = true;
                    upd(self.device.next_precharge_at(b));
                }
            }
            if !any_open {
                upd(self.device.next_refresh_at(rank));
            }
        }
        if self.cfg.periodic_rfm_interval.is_some() {
            if let Some(&bank) = self.rfm_owed.front() {
                let b = bank.0 as usize;
                if self.device.open_row(bank).is_some() {
                    if self.read_q[b].is_empty() && self.write_q[b].is_empty() {
                        upd(self.device.next_precharge_at(bank));
                    }
                } else {
                    upd(self.device.next_rfm_at(RfmKind::PerBank, bank));
                }
            }
        }
        best
    }

    /// Earliest cycle strictly after `now` at which [`tick`](Self::tick)
    /// might issue a DRAM command, assuming nothing is enqueued in
    /// between; [`Cycle::MAX`] when the controller is fully idle.
    ///
    /// The bound may undershoot (landing on a cycle where the scheduler
    /// still finds nothing legal — such a tick is a pure no-op), but it
    /// never overshoots: every command the cycle-by-cycle loop could
    /// issue in the gap is covered by one of the candidates below. This
    /// is the contract the fast-forwarding simulator core relies on.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        // While Alert_n is asserted the controller issues nothing but the
        // service sequence, so only its commands can be events.
        if self.device.alert_since().is_some() {
            return self.alert_wake(now);
        }
        let demand = self.demand_events(now);
        self.background_events(now, demand)
    }

    /// Earliest cycle the alert-service sequence could make progress (a
    /// PRE of an affected open bank, or the RFM itself).
    fn alert_wake(&self, now: Cycle) -> Cycle {
        let floor = now + 1;
        let kind = self.cfg.alert_rfm_kind;
        let target = self.device.first_alerting_bank().unwrap_or(BankId(0));
        let mut best = Cycle::MAX;
        let mut any_open = false;
        for &b in self.device.rfm_banks_of(kind, target) {
            if self.device.open_row(b).is_some() {
                any_open = true;
                best = best.min(self.device.next_precharge_at(b).max(floor));
            }
        }
        if !any_open {
            best = self.device.next_rfm_at(kind, target).max(floor);
        }
        best
    }

    /// FR-FCFS demand events, one candidate per occupied bank (banks of
    /// overdue-REF ranks are masked out of the scheduler and their
    /// events come from the refresh candidates instead).
    fn demand_events(&self, now: Cycle) -> Cycle {
        let floor = now + 1;
        let mut best = Cycle::MAX;
        let mut upd = |c: Cycle| {
            if c != Cycle::MAX {
                best = best.min(c.max(floor));
            }
        };
        let busy = self.busy_banks.words();
        let banks = (0..busy.len())
            .flat_map(|w| BankBitSet::word_members(w, busy[w] & !self.overdue_banks(now, w)));
        for bank in banks {
            let wake = self.bank_wake[bank];
            if wake > now {
                upd(wake);
                continue;
            }
            let bid = BankId(bank as u16);
            match self.device.open_row(bid) {
                Some(row) => {
                    let has_hit = self.read_q[bank].iter().any(|r| r.addr.row == row)
                        || self.write_q[bank].iter().any(|r| r.addr.row == row);
                    if has_hit {
                        upd(self
                            .device
                            .next_column_at(bid, false)
                            .min(self.device.next_column_at(bid, true)));
                    } else {
                        upd(self.device.next_precharge_at(bid));
                    }
                }
                None => upd(self.device.next_activate_at(bid)),
            }
        }
        best
    }

    /// Word `w` of the set of banks on overdue-REF ranks at `now`.
    #[inline]
    fn overdue_banks(&self, now: Cycle, w: usize) -> u64 {
        self.ref_due
            .iter()
            .zip(&self.rank_banks)
            .filter(|(&due, _)| now >= due)
            .fold(0, |mask, (_, banks)| mask | banks.words()[w])
    }

    /// Record that `bank` cannot act before `wake` (> now).
    #[inline]
    fn sleep(&mut self, bank: usize, wake: Cycle) {
        self.bank_wake[bank] = wake;
        self.sleeping.insert(bank);
        self.sleep_min = self.sleep_min.min(wake);
    }

    /// Clear `bank`'s wake hint: its state changed, so rescan it.
    #[inline]
    fn wake(&mut self, bank: usize) {
        self.bank_wake[bank] = 0;
        self.sleeping.remove(bank);
    }

    /// Wake every sleeping bank whose hint is due at `now` and make
    /// `sleep_min` exact again. One pass, and only when the lower bound
    /// says some hint may be due.
    fn wake_due_banks(&mut self, now: Cycle) {
        if now < self.sleep_min {
            return;
        }
        let mut min = Cycle::MAX;
        for w in 0..self.sleeping.words().len() {
            for bank in BankBitSet::word_members(w, self.sleeping.words()[w]) {
                let wake = self.bank_wake[bank];
                if wake <= now {
                    self.wake(bank);
                } else {
                    min = min.min(wake);
                }
            }
        }
        self.sleep_min = min;
    }

    /// Account statistics for `cycles` skipped controller cycles that
    /// the fast-forwarding core proved to be no-ops. The cycle-by-cycle
    /// loop counts every cycle with Alert_n asserted toward
    /// `alert_service_cycles`, so the skipped gap must too.
    pub fn account_idle_cycles(&mut self, cycles: u64) {
        if self.device.alert_since().is_some() {
            self.stats.alert_service_cycles += cycles;
        }
    }

    /// Alert service: precharge everything the RFM needs, then issue the
    /// RFMs (the device clears the alert after `nmit` of them). Returns
    /// the next cycle service could progress.
    fn service_alert(&mut self, now: Cycle) -> Cycle {
        let kind = self.cfg.alert_rfm_kind;
        // For sb/pb kinds the (modified, §VI-E) interface identifies the
        // alerting bank; RFMab ignores the target. The device tracks the
        // alerting bank incrementally, so no per-cycle tracker scan.
        let target = self.device.first_alerting_bank().unwrap_or(BankId(0));
        if self.device.can_rfm(kind, target, now) {
            self.device.rfm(kind, target, RfmCause::AlertService, now);
            return now + 1;
        }
        // Precharge one affected bank per cycle until the RFM is legal.
        let pre = self
            .device
            .rfm_banks_of(kind, target)
            .iter()
            .copied()
            .find(|&b| self.device.can_precharge(b, now));
        if let Some(b) = pre {
            self.wake(b.0 as usize);
            self.device.precharge(b, now);
            return now + 1;
        }
        self.alert_wake(now)
    }

    /// Refresh management: returns true if this cycle was consumed by a
    /// REF, or by a PRE that moves an overdue rank toward its REF.
    ///
    /// Ranks whose REF deadline passed but which cannot make progress
    /// this cycle (open banks still settling through tRAS/tRTP/tWR, or
    /// the rank blocked by a REF/RFM) no longer burn the whole command
    /// slot; they stay overdue (`now >= ref_due`), which bars FR-FCFS
    /// from issuing new ACTs or column commands to them, so they drain
    /// monotonically toward the REF — while demand on other ranks keeps
    /// flowing.
    fn service_refresh(&mut self, now: Cycle) -> bool {
        for rank in 0..self.device.cfg().ranks {
            if now < self.ref_due[rank as usize] {
                continue;
            }
            if self.device.can_refresh(rank, now) {
                self.device.refresh(rank, now);
                self.ref_due[rank as usize] += self.device.cfg().timing.trefi;
                return true;
            }
            // Precharge one bank of the rank to make progress.
            for b in self.device.bank_ids_of_rank(rank) {
                if self.device.can_precharge(b, now) {
                    self.wake(b.0 as usize);
                    self.device.precharge(b, now);
                    return true;
                }
            }
        }
        false
    }

    /// Periodic RFM service for rate-based mitigations.
    fn service_periodic_rfm(&mut self, now: Cycle) -> bool {
        let Some(_) = self.cfg.periodic_rfm_interval else {
            return false;
        };
        let Some(&bank) = self.rfm_owed.front() else {
            return false;
        };
        if self.device.can_rfm(RfmKind::PerBank, bank, now) {
            self.device
                .rfm(RfmKind::PerBank, bank, RfmCause::Periodic, now);
            self.rfm_owed.pop_front();
            return true;
        }
        // Close the bank only once its demand queue drained: forcing the
        // precharge under demand would double every request's ACT count
        // and recursively re-arm the cadence counter.
        let b = bank.0 as usize;
        if self.read_q[b].is_empty()
            && self.write_q[b].is_empty()
            && self.device.can_precharge(bank, now)
        {
            self.wake(b);
            self.device.precharge(bank, now);
            return true;
        }
        // Bank settling or busy; wait without blocking other commands.
        false
    }

    fn note_act(&mut self, bank: usize) {
        if let Some(k) = self.cfg.periodic_rfm_interval {
            self.acts_since_rfm[bank] += 1;
            if self.acts_since_rfm[bank] >= k {
                self.acts_since_rfm[bank] = 0;
                self.rfm_owed.push_back(BankId(bank as u16));
            }
        }
    }

    /// FR-FCFS: column hits, then oldest-first activations, then
    /// precharges for row conflicts. One sweep over the candidate banks
    /// collects all three candidate kinds. Candidates are picked
    /// word-wise as `busy & !sleeping & !overdue`: banks with queued
    /// work, minus banks whose wake hint proves them timing-blocked,
    /// minus banks of a rank with an overdue REF (so the rank can
    /// quiesce).
    ///
    /// Returns the earliest cycle demand scheduling could act again
    /// (`now + 1` when a command issued or a candidate existed; the
    /// sleeping banks' wake lower bound otherwise), so the fast-forward
    /// path gets its event bound for free.
    fn schedule_frfcfs(&mut self, now: Cycle) -> Cycle {
        let reads_pending = self.pending_reads() > 0;
        if self.drain_mode && self.writes_buffered <= self.cfg.write_drain_low {
            self.drain_mode = false;
        }
        let prefer_writes = self.drain_mode || !reads_pending;
        self.wake_due_banks(now);
        // Banks that offered at least one candidate this cycle: with two
        // or more, whichever loses arbitration stays issuable, so the
        // next cycle is live; with exactly one (the issuing bank), its
        // own post-command wake bounds the next event.
        let mut contributors = 0u32;

        // Oldest issuable column hit on an open row (hits whose
        // bank-group CCD or data-bus slot is busy are skipped so other
        // bank groups keep streaming); oldest activation for a closed
        // bank; oldest precharge of a conflicting open row.
        let mut best: Option<(Cycle, usize, usize, bool)> = None; // (arrived, bank, idx, is_write)
        let mut act: Option<(Cycle, usize, RowId)> = None;
        let mut pre: Option<(Cycle, usize)> = None;
        for word in 0..self.busy_banks.words().len() {
            let candidates = self.busy_banks.words()[word]
                & !self.sleeping.words()[word]
                & !self.overdue_banks(now, word);
            for bank in BankBitSet::word_members(word, candidates) {
                let bid = BankId(bank as u16);
                let Some(open_row) = self.device.open_row(bid) else {
                    // Closed bank: activation candidate for the oldest head.
                    let head = match (
                        self.read_q[bank].front(),
                        self.write_q[bank].front(),
                        prefer_writes,
                    ) {
                        (Some(r), Some(w), false) => {
                            if r.arrived <= w.arrived {
                                r
                            } else {
                                w
                            }
                        }
                        (Some(r), Some(w), true) => {
                            if w.arrived <= r.arrived {
                                w
                            } else {
                                r
                            }
                        }
                        (Some(r), None, _) => r,
                        (None, Some(w), _) => w,
                        (None, None, _) => unreachable!("bank in busy_banks has a request"),
                    };
                    if self.device.can_activate(bid, now) {
                        contributors += 1;
                        if act.is_none_or(|(a, ..)| head.arrived < a) {
                            act = Some((head.arrived, bank, head.addr.row));
                        }
                    } else {
                        self.sleep(bank, self.device.next_activate_at(bid));
                    }
                    continue;
                };
                // Open bank: find the first hit in each queue.
                let first_hit = |q: &VecDeque<MemRequest>| {
                    q.iter()
                        .enumerate()
                        .find(|(_, r)| r.addr.row == open_row)
                        .map(|(i, r)| (r.arrived, i))
                };
                let read_hit = first_hit(&self.read_q[bank]);
                let write_hit = first_hit(&self.write_q[bank]);
                if read_hit.is_some() || write_hit.is_some() {
                    if !self.device.can_column(bid, false, now) {
                        // Read timing blocked; writes share the constraint
                        // path closely enough to skip the bank this cycle.
                        self.sleep(bank, self.device.next_column_at(bid, false));
                        continue;
                    }
                    contributors += 1;
                    type Best = Option<(Cycle, usize, usize, bool)>;
                    fn offer(best: &mut Best, bank: usize, hit: Option<(Cycle, usize)>, wr: bool) {
                        if let Some((arrived, idx)) = hit {
                            if best.is_none_or(|(a, ..)| arrived < a) {
                                *best = Some((arrived, bank, idx, wr));
                            }
                        }
                    }
                    if prefer_writes {
                        offer(&mut best, bank, write_hit, true);
                        if best.is_none_or(|(_, b, _, w)| !(b == bank && w)) {
                            offer(&mut best, bank, read_hit, false);
                        }
                    } else {
                        offer(&mut best, bank, read_hit, false);
                        if read_hit.is_none() {
                            offer(&mut best, bank, write_hit, true);
                        }
                    }
                } else {
                    // Open row with no pending hit: conflict, precharge.
                    if self.device.can_precharge(bid, now) {
                        contributors += 1;
                        let head_arrived = self.read_q[bank]
                            .front()
                            .into_iter()
                            .chain(self.write_q[bank].front())
                            .map(|r| r.arrived)
                            .min()
                            .expect("bank in busy_banks has a request");
                        if pre.is_none_or(|(a, _)| head_arrived < a) {
                            pre = Some((head_arrived, bank));
                        }
                    } else {
                        self.sleep(bank, self.device.next_precharge_at(bid));
                    }
                }
            }
        }
        // Covers the hints skipped above and those set during the sweep.
        let wake_min = self.sleep_min;

        // Issue in priority order: column hit, then activation, then
        // precharge. The issuing bank was a candidate, so it is awake
        // and its hint is already clear.
        if let Some((_, bank, idx, is_write)) = best {
            if self.device.can_column(BankId(bank as u16), is_write, now) {
                let req = if is_write {
                    self.writes_buffered -= 1;
                    self.write_q[bank].remove(idx).expect("scanned index")
                } else {
                    self.reads_buffered -= 1;
                    self.read_q[bank].remove(idx).expect("scanned index")
                };
                if self.read_q[bank].is_empty() && self.write_q[bank].is_empty() {
                    self.busy_banks.remove(bank);
                }
                let done = self.device.column(BankId(bank as u16), is_write, now);
                if is_write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                    self.stats.read_latency_sum += done - req.arrived;
                    self.completions.push(Completion {
                        id: req.id,
                        tag: req.tag,
                        done_at: done,
                        was_read: true,
                    });
                }
                return self.post_issue_bound(now, bank, contributors, wake_min);
            }
        }
        if let Some((_, bank, row)) = act {
            self.device.activate(BankId(bank as u16), row, now);
            self.note_act(bank);
            return self.post_issue_bound(now, bank, contributors, wake_min);
        }
        if let Some((_, bank)) = pre {
            self.device.precharge(BankId(bank as u16), now);
            return self.post_issue_bound(now, bank, contributors, wake_min);
        }
        if best.is_some() {
            // A column candidate lost only to its own write-timing gate;
            // it stays schedulable, so the next cycle is live.
            return now + 1;
        }
        wake_min
    }

    /// Event bound right after issuing a demand command to `bank`. With
    /// other candidate banks still issuable the very next cycle is live;
    /// otherwise the issuing bank's own refreshed wake (or the other
    /// blocked banks' minimum) bounds the gap. Always an underestimate
    /// of the true next action, never an overshoot.
    fn post_issue_bound(
        &self,
        now: Cycle,
        bank: usize,
        contributors: u32,
        wake_min: Cycle,
    ) -> Cycle {
        if contributors > 1 {
            return now + 1;
        }
        let own = if !self.busy_banks.contains(bank) {
            Cycle::MAX
        } else {
            let bid = BankId(bank as u16);
            match self.device.open_row(bid) {
                // Next hit column (if any hit remains) or conflict
                // precharge, whichever could come first.
                Some(_) => self
                    .device
                    .next_column_at(bid, false)
                    .min(self.device.next_precharge_at(bid)),
                None => self.device.next_activate_at(bid),
            }
        };
        wake_min.min(own).max(now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_core::{
        AddressMapper, CounterAccess, DramConfig, InDramMitigation, MappingScheme, NoMitigation,
        RfmContext,
    };
    use proptest::prelude::*;

    fn controller(cfg: McConfig) -> MemoryController {
        MemoryController::new(
            cfg,
            DramDevice::new(DramConfig::tiny_test(), |_| Box::new(NoMitigation)),
        )
    }

    fn addr_of(line: u64) -> dram_core::DramAddr {
        let m = AddressMapper::new(&DramConfig::tiny_test(), MappingScheme::MopXor);
        m.decode(line)
    }

    fn run_until_idle(
        mc: &mut MemoryController,
        mut now: Cycle,
        max: u64,
    ) -> (Cycle, Vec<Completion>) {
        let mut done = Vec::new();
        let deadline = now + max;
        while (!mc.idle() || !mc.completions.is_empty()) && now < deadline {
            mc.tick(now);
            done.extend(mc.drain_completions());
            now += 1;
        }
        (now, done)
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let mut mc = controller(McConfig::default());
        let a = addr_of(0);
        mc.enqueue(ReqKind::Read, a, 7, 0).unwrap();
        let (_, done) = run_until_idle(&mut mc, 0, 100_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        let t = DramConfig::tiny_test().timing;
        // ACT + tRCD + tCL + burst, plus a couple of scheduling cycles.
        let min = t.trcd + t.tcl + t.tbl;
        assert!(done[0].done_at >= min);
        assert!(done[0].done_at < min + 20, "latency {}", done[0].done_at);
    }

    #[test]
    fn row_hits_are_prioritized() {
        let mut mc = controller(McConfig::default());
        // Two requests to the same row, one to a different row of the
        // same bank. The same-row pair must complete before the conflict.
        let base = addr_of(0);
        let hit = dram_core::DramAddr {
            col: base.col + 1,
            ..base
        };
        let conflict = dram_core::DramAddr {
            row: RowId(base.row.0 + 1),
            ..base
        };
        mc.enqueue(ReqKind::Read, base, 0, 0).unwrap();
        mc.enqueue(ReqKind::Read, conflict, 1, 0).unwrap();
        mc.enqueue(ReqKind::Read, hit, 2, 0).unwrap();
        let (_, done) = run_until_idle(&mut mc, 0, 100_000);
        let pos = |tag: u64| done.iter().position(|c| c.tag == tag).expect("completed");
        assert!(pos(2) < pos(1), "row hit must beat the row conflict");
    }

    #[test]
    fn refresh_happens_every_trefi() {
        let mut mc = controller(McConfig::default());
        let trefi = mc.device().cfg().timing.trefi;
        for now in 0..(trefi * 4 + trefi / 2) {
            mc.tick(now);
        }
        let refs = mc.device().stats().refs;
        // 1 rank in tiny config; ~4 REFs due.
        assert!((3..=5).contains(&refs), "refs = {refs}");
    }

    #[test]
    fn reads_still_complete_alongside_refresh() {
        let mut mc = controller(McConfig::default());
        let mut now = 0;
        let mut completed = 0u64;
        for i in 0..200u64 {
            while mc
                .enqueue(ReqKind::Read, addr_of(i * 131), i, now)
                .is_none()
            {
                mc.tick(now);
                completed += mc.drain_completions().len() as u64;
                now += 1;
            }
            for _ in 0..50 {
                mc.tick(now);
                completed += mc.drain_completions().len() as u64;
                now += 1;
            }
        }
        let (mut now, done) = run_until_idle(&mut mc, now, 1_000_000);
        completed += done.len() as u64;
        assert_eq!(completed, 200);
        // Idle on past the next refresh due point.
        let trefi = mc.device().cfg().timing.trefi;
        for _ in 0..2 * trefi {
            mc.tick(now);
            now += 1;
        }
        assert!(mc.device().stats().refs > 0);
    }

    #[test]
    fn writes_are_posted_and_drained() {
        let mut mc = controller(McConfig::default());
        for i in 0..10u64 {
            mc.enqueue(ReqKind::Write, addr_of(i * 7), i, 0).unwrap();
        }
        assert_eq!(mc.stats().writes, 0, "posted, not yet issued");
        let (_, _) = run_until_idle(&mut mc, 0, 200_000);
        assert_eq!(mc.stats().writes, 10);
    }

    #[test]
    fn full_read_queue_rejects() {
        let mut mc = controller(McConfig {
            read_queue_cap: 2,
            ..Default::default()
        });
        let a = addr_of(0);
        assert!(mc.enqueue(ReqKind::Read, a, 0, 0).is_some());
        assert!(mc.enqueue(ReqKind::Read, a, 1, 0).is_some());
        assert!(mc.enqueue(ReqKind::Read, a, 2, 0).is_none());
        assert_eq!(mc.stats().rejected, 1);
    }

    /// Tracker that alerts once a row reaches the threshold.
    #[derive(Debug)]
    struct AlertAt {
        threshold: u32,
        hot: Option<RowId>,
    }
    impl InDramMitigation for AlertAt {
        fn name(&self) -> &'static str {
            "alert-at-test"
        }
        fn on_activate(&mut self, row: RowId, count: u32) {
            if count >= self.threshold {
                self.hot = Some(row);
            }
        }
        fn needs_alert(&self) -> bool {
            self.hot.is_some()
        }
        fn on_rfm(&mut self, _c: &mut dyn CounterAccess, _ctx: RfmContext) -> Option<RowId> {
            self.hot.take()
        }
        fn storage_bits(&self) -> u64 {
            41
        }
    }

    #[test]
    fn alert_is_serviced_with_rfm_and_traffic_resumes() {
        let dev = DramDevice::new(DramConfig::tiny_test(), |_| {
            Box::new(AlertAt {
                threshold: 3,
                hot: None,
            })
        });
        let mut mc = MemoryController::new(McConfig::default(), dev);
        // Alternate row conflicts in one bank: each round re-activates
        // whichever row is closed, so some row reaches 3 ACTs within a
        // few rounds and raises the alert.
        let base = addr_of(0);
        let mut now = 0;
        let mut done = 0;
        let rounds = 8;
        for round in 0..rounds {
            let other = dram_core::DramAddr {
                row: RowId(base.row.0 + 1),
                ..base
            };
            mc.enqueue(ReqKind::Read, base, round * 2, now).unwrap();
            mc.enqueue(ReqKind::Read, other, round * 2 + 1, now)
                .unwrap();
            let (t, d) = run_until_idle(&mut mc, now, 200_000);
            now = t;
            done += d.len();
        }
        assert_eq!(
            done as u64,
            rounds * 2,
            "all requests completed despite alerts"
        );
        assert!(mc.device().stats().alerts >= 1);
        assert!(mc.device().stats().rfm_ab >= 1);
        assert!(mc.device().stats().mitigations_alert >= 1);
        assert!(mc.stats().alert_service_cycles > 0);
    }

    #[test]
    fn overdue_refresh_does_not_stall_other_ranks() {
        // Two ranks. Rank 0's REF comes due while its bank is pinned open
        // inside the tRAS/tRTP settle window; a read to rank 1 arriving at
        // that moment must still be served promptly instead of waiting for
        // the REF (the seed burned the whole command slot every cycle).
        let dram = DramConfig {
            ranks: 2,
            ..DramConfig::tiny_test()
        };
        let mapper = AddressMapper::new(&dram, MappingScheme::MopXor);
        let banks_per_rank = dram.banks_per_rank() as u64;
        let rank_of = |mc: &MemoryController, line: u64| {
            mc.bank_index(&mapper.decode(line)) / dram.banks_per_rank()
        };
        let mut mc = MemoryController::new(
            McConfig::default(),
            DramDevice::new(dram.clone(), |_| Box::new(NoMitigation)),
        );
        // Find lines on each rank.
        let probe = (16 * banks_per_rank).min(mapper.num_lines());
        let rank0_line = (0..probe).find(|&l| rank_of(&mc, l) == 0).unwrap();
        let rank1_line = (0..probe).find(|&l| rank_of(&mc, l) == 1).unwrap();
        let due = mc.ref_due[0];
        let mut now = 0;
        while now < due - 3 {
            mc.tick(now);
            mc.drain_completions();
            now += 1;
        }
        // Open rank 0's row right before the deadline: the ACT starts the
        // tRAS clock, so the bank cannot precharge for ~52 cycles and the
        // REF is blocked for longer than rank 1 needs to serve a read.
        mc.enqueue(ReqKind::Read, mapper.decode(rank0_line), 0, now)
            .unwrap();
        mc.tick(now); // ACT to rank 0
        now += 1;
        let enq_at = now;
        mc.enqueue(ReqKind::Read, mapper.decode(rank1_line), 1, now)
            .unwrap();
        let mut rank1_done = None;
        let t = dram.timing;
        for _ in 0..4 * t.trc {
            mc.tick(now);
            for c in mc.drain_completions() {
                if c.tag == 1 {
                    rank1_done = Some(c.done_at);
                }
            }
            now += 1;
        }
        let done = rank1_done.expect("rank 1 read must complete");
        // ACT + tRCD + tCL + burst plus slack; well under the blocked-REF
        // window (tRAS + tRP + tRFC ≈ 300+ cycles at these timings).
        let budget = t.trcd + t.tcl + t.tbl + 20;
        assert!(
            done - enq_at <= budget,
            "rank-1 latency {} exceeds {budget} (stalled behind rank-0 REF?)",
            done - enq_at
        );
        // And the REF itself must still happen once rank 0 settles.
        assert!(mc.device().stats().refs >= 1, "rank-0 REF starved");
    }

    #[test]
    fn next_event_never_overshoots_a_command() {
        // Drive a controller with mixed traffic and check the contract:
        // every cycle strictly between `now` and `next_event(now)` is a
        // pure no-op (no commands, no stats movement, no completions).
        let mut mc = controller(McConfig {
            write_drain_high: 6,
            write_drain_low: 2,
            ..McConfig::default()
        });
        for i in 0..12u64 {
            mc.enqueue(ReqKind::Read, addr_of(i * 257), i, 0).unwrap();
        }
        for i in 0..8u64 {
            mc.enqueue(ReqKind::Write, addr_of(i * 131 + 7), 100 + i, 0)
                .unwrap();
        }
        let snapshot = |mc: &MemoryController| {
            (
                mc.device().stats().clone(),
                mc.stats().clone(),
                mc.completions.len(),
            )
        };
        let mut now = 0;
        let trefi = mc.device().cfg().timing.trefi;
        while now < 3 * trefi {
            let event = mc.next_event(now);
            assert!(event > now, "next_event must advance");
            let gap_end = event.min(3 * trefi);
            let before = snapshot(&mc);
            for c in now + 1..gap_end {
                mc.tick(c);
                assert_eq!(
                    snapshot(&mc),
                    before,
                    "tick at {c} acted inside the supposedly dead gap to {event}"
                );
            }
            if gap_end < event {
                break;
            }
            mc.tick(event);
            now = event;
        }
        // The traffic must actually have been served along the way.
        assert_eq!(mc.stats().reads, 12);
        assert_eq!(mc.stats().writes, 8);
        assert!(mc.device().stats().refs >= 2);
    }

    #[test]
    fn tick_returned_bound_never_overshoots() {
        // The bound `tick` returns must cover every cycle until the next
        // observable action: stepping cycle-by-cycle, any tick inside
        // the last promised dead gap must change nothing.
        let mut mc = controller(McConfig {
            write_drain_high: 6,
            write_drain_low: 2,
            ..McConfig::default()
        });
        for i in 0..12u64 {
            mc.enqueue(ReqKind::Read, addr_of(i * 257), i, 0).unwrap();
        }
        for i in 0..8u64 {
            mc.enqueue(ReqKind::Write, addr_of(i * 131 + 7), 100 + i, 0)
                .unwrap();
        }
        let snapshot = |mc: &MemoryController| {
            (
                mc.device().stats().clone(),
                mc.stats().clone(),
                mc.completions.len(),
            )
        };
        let trefi = mc.device().cfg().timing.trefi;
        let mut bound = 0;
        for now in 0..3 * trefi {
            let before = snapshot(&mc);
            let ret = mc.tick(now);
            assert!(ret > now, "bound must advance");
            if now < bound {
                assert_eq!(
                    snapshot(&mc),
                    before,
                    "tick at {now} acted inside the promised dead gap to {bound}"
                );
            }
            bound = ret;
        }
        assert_eq!(mc.stats().reads, 12);
        assert_eq!(mc.stats().writes, 8);
        assert!(mc.device().stats().refs >= 2);
    }

    /// A two-rank `tiny_test` controller with periodic RFM, low
    /// write-drain watermarks and an alerting tracker, so random traffic
    /// reaches overdue-REF ranks, sleeping banks, write drains, periodic
    /// RFMs and alert service.
    fn two_rank_controller(rfm_interval: u32, alert_threshold: u32) -> MemoryController {
        let dram = DramConfig {
            ranks: 2,
            ..DramConfig::tiny_test()
        };
        let dev = DramDevice::new(dram, move |_| {
            Box::new(AlertAt {
                threshold: alert_threshold,
                hot: None,
            })
        });
        let cfg = McConfig {
            write_drain_high: 6,
            write_drain_low: 2,
            periodic_rfm_interval: Some(rfm_interval),
            ..McConfig::default()
        };
        MemoryController::new(cfg, dev)
    }

    proptest! {
        /// Under random traffic, (i) no tick inside the dead gap `tick`
        /// or `next_event` promised changes any statistic or completes
        /// anything, and (ii) ticking only at the promised bounds (and
        /// at arrivals) ends in exactly the state of ticking every cycle.
        #[test]
        fn tick_bounds_hold_under_random_two_rank_traffic(
            ops in collection::vec((0u64..40, 0u64..2048, any::<bool>()), 1..80),
            start in 0u64..8000,
            rfm_interval in 2u32..8,
            alert_threshold in 4u32..64,
        ) {
            let dram = DramConfig { ranks: 2, ..DramConfig::tiny_test() };
            let mapper = AddressMapper::new(&dram, MappingScheme::MopXor);
            // Traffic starts between 1500 cycles before rank 0's first
            // REF deadline and past rank 1's, so overdue ranks overlap
            // live demand.
            let t0 = dram.timing.trefi - 1500 + start;
            let mut at = t0;
            let arrivals: Vec<(Cycle, ReqKind, dram_core::DramAddr)> = ops
                .iter()
                .map(|&(gap, line, write)| {
                    at += gap;
                    let kind = if write { ReqKind::Write } else { ReqKind::Read };
                    (at, kind, mapper.decode(line))
                })
                .collect();
            let end = at + 3000;
            let arrive = |mc: &mut MemoryController, next: &mut usize, now: Cycle| {
                while let Some(&(t, kind, addr)) = arrivals.get(*next) {
                    if t != now {
                        break;
                    }
                    // A rejected request is dropped; both runs see the
                    // same rejection at the same cycle.
                    mc.enqueue(kind, addr, *next as u64, now);
                    *next += 1;
                }
            };
            let observable = |mc: &MemoryController| {
                (mc.device().stats().clone(), mc.stats().clone(), mc.completions.len())
            };

            let mut step = two_rank_controller(rfm_interval, alert_threshold);
            let mut step_done = Vec::new();
            let (mut next, mut bound) = (0, 0);
            for now in t0..end {
                let queued = next;
                arrive(&mut step, &mut next, now);
                if next != queued {
                    bound = 0; // an enqueue voids the promise
                }
                let before = observable(&step);
                let ret = step.tick(now);
                prop_assert!(ret > now, "bound must advance");
                if now < bound {
                    prop_assert_eq!(
                        observable(&step),
                        before,
                        "tick at {} acted inside the promised dead gap to {}",
                        now,
                        bound
                    );
                }
                // Both are promises; checking the later one catches an
                // overshoot by either.
                bound = ret.max(step.next_event(now));
                step_done.extend(step.drain_completions());
            }

            let mut jump = two_rank_controller(rfm_interval, alert_threshold);
            let mut jump_done = Vec::new();
            let (mut next, mut now) = (0, t0);
            loop {
                arrive(&mut jump, &mut next, now);
                let ret = jump.tick(now);
                jump_done.extend(jump.drain_completions());
                let arrival = arrivals.get(next).map_or(Cycle::MAX, |a| a.0);
                let to = ret.min(arrival).min(end);
                jump.account_idle_cycles(to - now - 1);
                if to == end {
                    break;
                }
                now = to;
            }
            prop_assert_eq!(jump.device().stats(), step.device().stats());
            prop_assert_eq!(jump.stats(), step.stats());
            prop_assert_eq!(jump_done, step_done);
            prop_assert!(step.device().stats().refs > 0, "traffic window crosses a REF");
        }
    }

    #[test]
    fn can_accept_matches_enqueue_outcome() {
        let mut mc = controller(McConfig {
            read_queue_cap: 2,
            write_buffer_cap: 3,
            ..Default::default()
        });
        let a = addr_of(0);
        let bank = mc.bank_index(&a);
        for i in 0..4u64 {
            assert_eq!(
                mc.can_accept(ReqKind::Read, bank),
                mc.enqueue(ReqKind::Read, a, i, 0).is_some()
            );
            assert_eq!(
                mc.can_accept(ReqKind::Write, bank),
                mc.enqueue(ReqKind::Write, a, i, 0).is_some()
            );
        }
    }

    #[test]
    fn periodic_rfm_fires_every_k_acts() {
        let cfg = McConfig {
            periodic_rfm_interval: Some(2),
            ..Default::default()
        };
        let mut mc = controller(cfg);
        let base = addr_of(0);
        let mut now = 0;
        // 6 row-conflict pairs -> 6 ACTs to the bank -> 3 periodic RFMs.
        for i in 0..6u32 {
            let a = dram_core::DramAddr {
                row: RowId(base.row.0 + i),
                ..base
            };
            mc.enqueue(ReqKind::Read, a, i as u64, now).unwrap();
            let (t, _) = run_until_idle(&mut mc, now, 200_000);
            now = t;
        }
        assert_eq!(mc.device().stats().rfm_pb, 3);
        assert_eq!(mc.device().stats().alerts, 0);
    }
}
