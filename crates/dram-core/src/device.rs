//! The DRAM channel device: banks, ranks, PRAC counters, hosted
//! mitigation trackers and the Alert Back-Off engine.
//!
//! The device validates and applies commands; *scheduling* is the memory
//! controller's job (`mem-ctrl` crate). The device owns everything that
//! is physically inside the DRAM chips:
//!
//! - per-bank timing state machines,
//! - per-row PRAC activation counters,
//! - one mitigation tracker per bank,
//! - the Alert_n signal and the ABO_Delay bookkeeping,
//! - mitigation application (blast-radius victim refreshes with
//!   transitive counter increments, aggressor counter reset).

use crate::bank::{BankTiming, RankState};
use crate::config::DramConfig;
use crate::counters::{CounterAccess, PracCounters};
use crate::mitigation::{InDramMitigation, RfmContext};
use crate::stats::DeviceStats;
use crate::types::{BankBitSet, BankId, Cycle, MitigationCause, RfmCause, RfmKind, RowId};
use qprac_obs::{EventKind, TraceHandle};

/// One bank: timing state, PRAC counters and the hosted tracker.
#[derive(Debug)]
struct BankUnit {
    timing: BankTiming,
    counters: PracCounters,
    tracker: Box<dyn InDramMitigation>,
}

/// Alert Back-Off protocol state (channel-level).
#[derive(Debug, Clone)]
struct AboState {
    /// When Alert_n was asserted, if currently asserted.
    alert_since: Option<Cycle>,
    /// Activations serviced since the last alert's RFMs completed.
    /// Initialized high so the very first alert is not delay-gated.
    acts_since_service: u64,
    /// RFMs issued so far toward servicing the current alert.
    rfms_toward_alert: u8,
}

/// Precomputed affected-bank lists for each RFM kind, so the alert
/// service and RFM legality checks never allocate on the hot path.
#[derive(Debug)]
struct RfmLists {
    /// Every bank in the channel (RFMab); bank `i` sits at index `i`, so
    /// RFMpb hands out one-element subslices of it.
    all: Vec<BankId>,
    /// One list per intra-group bank index (RFMsb).
    same: Vec<Vec<BankId>>,
}

impl RfmLists {
    fn new(cfg: &DramConfig) -> Self {
        let per_group = cfg.banks_per_group as u16;
        let all: Vec<BankId> = (0..cfg.num_banks() as u16).map(BankId).collect();
        let same = (0..per_group)
            .map(|idx| {
                all.iter()
                    .copied()
                    .filter(|b| b.0 % per_group == idx)
                    .collect()
            })
            .collect();
        RfmLists { all, same }
    }

    fn of(&self, kind: RfmKind, target: BankId, banks_per_group: u16) -> &[BankId] {
        match kind {
            RfmKind::AllBank => &self.all,
            RfmKind::SameBank => &self.same[(target.0 % banks_per_group) as usize],
            RfmKind::PerBank => {
                let i = target.0 as usize;
                &self.all[i..=i]
            }
        }
    }
}

/// A single-channel DRAM device.
pub struct DramDevice {
    cfg: DramConfig,
    banks: Vec<BankUnit>,
    ranks: Vec<RankState>,
    /// Precomputed rank index per flat bank id (hot-path lookup).
    bank_rank: Vec<u8>,
    /// Precomputed bank-group index per flat bank id.
    bank_grp: Vec<u8>,
    /// Channel data bus occupied until this cycle.
    bus_free_at: Cycle,
    abo: AboState,
    stats: DeviceStats,
    /// Number of banks whose tracker currently requests an alert
    /// (incremental count so the per-ACT alert check is O(1)).
    alerting_banks: u32,
    /// One bit per bank mirroring `tracker.needs_alert()`, so the
    /// controller can find the alerting bank without scanning trackers.
    alert_bits: BankBitSet,
    /// Precomputed per-kind RFM target lists.
    rfm_lists: RfmLists,
    /// Reusable buffer for the banks affected by an in-flight RFM.
    rfm_scratch: Vec<BankId>,
    /// Event tracer (disabled by default: one predictable branch per
    /// event site when off).
    trace: TraceHandle,
}

/// Stable ordinal for the trace `extra` encoding of [`RfmKind`]
/// (`(kind << 8) | cause`).
fn rfm_kind_ord(kind: RfmKind) -> u32 {
    match kind {
        RfmKind::AllBank => 0,
        RfmKind::SameBank => 1,
        RfmKind::PerBank => 2,
    }
}

/// Stable ordinal for the trace `extra` encoding of [`RfmCause`].
fn rfm_cause_ord(cause: RfmCause) -> u32 {
    match cause {
        RfmCause::AlertService => 0,
        RfmCause::Periodic => 1,
    }
}

impl std::fmt::Debug for DramDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramDevice")
            .field("banks", &self.banks.len())
            .field("alert_since", &self.abo.alert_since)
            .field("stats", &self.stats)
            .finish()
    }
}

impl DramDevice {
    /// Build a device; `tracker_factory` is called once per bank index to
    /// construct that bank's mitigation tracker.
    pub fn new(
        cfg: DramConfig,
        tracker_factory: impl Fn(usize) -> Box<dyn InDramMitigation>,
    ) -> Self {
        let banks = (0..cfg.num_banks())
            .map(|i| BankUnit {
                timing: BankTiming::new(),
                counters: PracCounters::new(cfg.rows_per_bank, cfg.track_counter_order),
                tracker: tracker_factory(i),
            })
            .collect();
        let ranks = (0..cfg.ranks as usize)
            .map(|_| RankState::new(cfg.bank_groups as usize))
            .collect();
        let per_rank = cfg.banks_per_rank();
        let per_group = cfg.banks_per_group as usize;
        let bank_rank = (0..cfg.num_banks()).map(|b| (b / per_rank) as u8).collect();
        let bank_grp = (0..cfg.num_banks())
            .map(|b| ((b % per_rank) / per_group) as u8)
            .collect();
        let rfm_lists = RfmLists::new(&cfg);
        let mut dev = DramDevice {
            banks,
            ranks,
            bank_rank,
            bank_grp,
            bus_free_at: 0,
            abo: AboState {
                alert_since: None,
                acts_since_service: u64::MAX / 2,
                rfms_toward_alert: 0,
            },
            stats: DeviceStats::default(),
            alerting_banks: 0,
            alert_bits: BankBitSet::new(cfg.num_banks()),
            rfm_lists,
            rfm_scratch: Vec::with_capacity(cfg.num_banks()),
            trace: TraceHandle::default(),
            cfg,
        };
        // Trackers may be constructed already wanting an alert.
        dev.resync_alert_flags();
        dev
    }

    /// Install an event tracer (see `qprac_obs::trace`). Propagated to
    /// every bank tracker so tracker-internal events (PSQ traffic) land
    /// in the same ring. The handle should already be tagged with this
    /// device's channel via [`TraceHandle::for_channel`].
    pub fn set_trace(&mut self, trace: TraceHandle) {
        for (i, unit) in self.banks.iter_mut().enumerate() {
            unit.tracker.attach_trace(trace.clone(), i as u32);
        }
        self.trace = trace;
    }

    /// The installed event tracer (disabled handle by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Device configuration.
    pub fn cfg(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn rank_of(&self, bank: BankId) -> usize {
        self.bank_rank[bank.0 as usize] as usize
    }

    fn group_of(&self, bank: BankId) -> usize {
        self.bank_grp[bank.0 as usize] as usize
    }

    /// Re-evaluate one bank tracker's alert request and maintain the
    /// incremental alerting-bank count and bitset.
    fn refresh_alert_flag(&mut self, bank: usize, was: bool) {
        let now_wants = self.banks[bank].tracker.needs_alert();
        match (was, now_wants) {
            (false, true) => {
                self.alerting_banks += 1;
                self.alert_bits.insert(bank);
            }
            (true, false) => {
                self.alerting_banks -= 1;
                self.alert_bits.remove(bank);
            }
            _ => {}
        }
    }

    /// Rebuild the alert bookkeeping from every tracker. Needed after
    /// `on_alert_state` broadcasts, which may mutate arbitrary trackers.
    fn resync_alert_flags(&mut self) {
        self.alerting_banks = 0;
        self.alert_bits.clear();
        for (i, unit) in self.banks.iter().enumerate() {
            if unit.tracker.needs_alert() {
                self.alerting_banks += 1;
                self.alert_bits.insert(i);
            }
        }
    }

    /// The lowest-indexed bank whose tracker currently requests an alert.
    /// O(banks/64) — the controller's per-cycle alert service uses this
    /// instead of scanning every tracker.
    pub fn first_alerting_bank(&self) -> Option<BankId> {
        self.alert_bits.first().map(|b| BankId(b as u16))
    }

    /// Currently open row in `bank`.
    pub fn open_row(&self, bank: BankId) -> Option<RowId> {
        self.banks[bank.0 as usize].timing.open_row
    }

    /// Whether an ACT to `bank` is legal at `now` (bank + rank checks).
    pub fn can_activate(&self, bank: BankId, now: Cycle) -> bool {
        let rank = self.rank_of(bank);
        let group = self.group_of(bank);
        self.banks[bank.0 as usize].timing.can_activate(now)
            && self.ranks[rank].can_activate(group, now, &self.cfg.timing)
    }

    /// Issue an ACT: opens the row, increments its PRAC counter, notifies
    /// the tracker and updates the ABO state.
    ///
    /// # Panics
    ///
    /// Debug-panics if [`can_activate`](Self::can_activate) is false.
    pub fn activate(&mut self, bank: BankId, row: RowId, now: Cycle) {
        debug_assert!(self.can_activate(bank, now), "illegal ACT");
        let rank = self.rank_of(bank);
        let group = self.group_of(bank);
        self.ranks[rank].activate(group, now, &self.cfg.timing);
        self.trace.set_now(now);
        let unit = &mut self.banks[bank.0 as usize];
        unit.timing.activate(row, now, &self.cfg.timing);
        let count = unit.counters.increment(row);
        let was = unit.tracker.needs_alert();
        unit.tracker.on_activate(row, count);
        self.refresh_alert_flag(bank.0 as usize, was);
        self.stats.acts += 1;
        self.abo.acts_since_service = self.abo.acts_since_service.saturating_add(1);
        self.maybe_assert_alert(now);
    }

    /// Whether a RD/WR to `bank` is legal at `now`, including data-bus
    /// availability.
    pub fn can_column(&self, bank: BankId, write: bool, now: Cycle) -> bool {
        let rank = self.rank_of(bank);
        let group = self.group_of(bank);
        let t = &self.cfg.timing;
        if !self.banks[bank.0 as usize].timing.can_column(now)
            || !self.ranks[rank].can_column(group, now)
        {
            return false;
        }
        let data_start = now + if write { t.tcwl } else { t.tcl };
        data_start >= self.bus_free_at
    }

    /// Issue a RD/WR; returns the cycle the data burst completes.
    pub fn column(&mut self, bank: BankId, write: bool, now: Cycle) -> Cycle {
        debug_assert!(self.can_column(bank, write, now), "illegal column cmd");
        let rank = self.rank_of(bank);
        let group = self.group_of(bank);
        let t = self.cfg.timing;
        self.ranks[rank].column(group, now, &t);
        let unit = &mut self.banks[bank.0 as usize];
        let data_start = now + if write { t.tcwl } else { t.tcl };
        let done = data_start + t.tbl;
        if write {
            unit.timing.write(now, &t);
            self.stats.writes += 1;
        } else {
            unit.timing.read(now, &t);
            self.stats.reads += 1;
        }
        self.bus_free_at = done;
        done
    }

    /// Whether a PRE to `bank` is legal at `now`.
    pub fn can_precharge(&self, bank: BankId, now: Cycle) -> bool {
        self.banks[bank.0 as usize].timing.can_precharge(now)
    }

    /// Issue a PRE.
    pub fn precharge(&mut self, bank: BankId, now: Cycle) {
        debug_assert!(self.can_precharge(bank, now), "illegal PRE");
        self.banks[bank.0 as usize]
            .timing
            .precharge(now, &self.cfg.timing);
        self.stats.pres += 1;
    }

    /// Whether rank `rank` can accept a REF at `now` (all banks closed and
    /// settled, rank not already busy).
    pub fn can_refresh(&self, rank: u8, now: Cycle) -> bool {
        if self.ranks[rank as usize].busy_at(now) {
            return false;
        }
        self.bank_ids_of_rank(rank)
            .all(|b| self.banks[b.0 as usize].timing.ready_for_refresh(now))
    }

    /// Issue a REF to `rank`: blocks the rank for tRFC and gives every
    /// bank's tracker a proactive-mitigation opportunity (paper §III-D2).
    pub fn refresh(&mut self, rank: u8, now: Cycle) {
        debug_assert!(self.can_refresh(rank, now), "illegal REF");
        self.trace.set_now(now);
        let until = now + self.cfg.timing.trfc;
        self.ranks[rank as usize].block_until(until);
        for b in self.bank_ids_of_rank(rank) {
            self.banks[b.0 as usize].timing.block_until(until);
            let unit = &mut self.banks[b.0 as usize];
            let was = unit.tracker.needs_alert();
            if let Some(row) = unit.tracker.on_ref(&mut unit.counters) {
                self.trace
                    .instant(EventKind::ProactiveFire, now, b.0 as u32, row.0 as u64, 0);
                self.apply_mitigation(b, row, MitigationCause::Proactive);
            }
            self.refresh_alert_flag(b.0 as usize, was);
        }
        self.stats.refs += 1;
        // `bank` carries the rank for rank-wide REF events.
        self.trace
            .instant(EventKind::Refresh, now, rank as u32, 0, 0);
    }

    /// The banks affected by an RFM of `kind` targeted at `target`, as a
    /// precomputed slice (allocation-free; the hot alert-service path).
    pub fn rfm_banks_of(&self, kind: RfmKind, target: BankId) -> &[BankId] {
        self.rfm_lists
            .of(kind, target, self.cfg.banks_per_group as u16)
    }

    /// The banks affected by an RFM of `kind` targeted at `target`.
    /// Allocating convenience wrapper around
    /// [`rfm_banks_of`](Self::rfm_banks_of).
    pub fn rfm_banks(&self, kind: RfmKind, target: BankId) -> Vec<BankId> {
        self.rfm_banks_of(kind, target).to_vec()
    }

    /// Whether an RFM of `kind` can issue at `now` (all affected banks
    /// closed and settled).
    pub fn can_rfm(&self, kind: RfmKind, target: BankId, now: Cycle) -> bool {
        self.rfm_banks_of(kind, target).iter().all(|&b| {
            !self.ranks[self.rank_of(b)].busy_at(now)
                && self.banks[b.0 as usize].timing.ready_for_refresh(now)
        })
    }

    /// Issue an RFM: blocks the affected banks for tRFM and runs each
    /// affected tracker's `on_rfm` hook. For [`RfmCause::AlertService`]
    /// the device counts RFMs toward the current alert and clears the
    /// alert once `nmit` have been issued.
    pub fn rfm(&mut self, kind: RfmKind, target: BankId, cause: RfmCause, now: Cycle) {
        debug_assert!(self.can_rfm(kind, target, now), "illegal RFM");
        self.trace.set_now(now);
        let until = now + self.cfg.timing.trfm;
        // Reuse the scratch buffer: `apply_mitigation` below needs `&mut
        // self`, so the precomputed list is copied rather than borrowed.
        let mut affected = std::mem::take(&mut self.rfm_scratch);
        affected.clear();
        affected.extend_from_slice(self.rfm_banks_of(kind, target));
        let alert_service = cause == RfmCause::AlertService;
        for b in &affected {
            self.banks[b.0 as usize].timing.block_until(until);
            if kind == RfmKind::AllBank {
                // RFMab occupies the rank like a refresh does.
                let r = self.rank_of(*b);
                self.ranks[r].block_until(until);
            }
        }
        for &b in &affected {
            let unit = &mut self.banks[b.0 as usize];
            let alerting = unit.tracker.needs_alert();
            let ctx = RfmContext {
                alerting,
                alert_service,
            };
            if let Some(row) = unit.tracker.on_rfm(&mut unit.counters, ctx) {
                let cause = match (alert_service, alerting) {
                    (true, true) => MitigationCause::Alert,
                    (true, false) => MitigationCause::Opportunistic,
                    (false, _) => MitigationCause::Periodic,
                };
                self.apply_mitigation(b, row, cause);
            }
            self.refresh_alert_flag(b.0 as usize, alerting);
        }
        self.rfm_scratch = affected;
        self.stats.record_rfm(kind);
        self.trace.instant(
            EventKind::RfmIssued,
            now,
            target.0 as u32,
            0,
            (rfm_kind_ord(kind) << 8) | rfm_cause_ord(cause),
        );
        if alert_service {
            self.abo.rfms_toward_alert += 1;
            if self.abo.rfms_toward_alert >= self.cfg.prac.nmit {
                let served = self.abo.rfms_toward_alert;
                if let Some(since) = self.abo.alert_since {
                    self.trace.span(
                        EventKind::AlertServed,
                        since,
                        now.saturating_sub(since),
                        target.0 as u32,
                        0,
                        served as u32,
                    );
                }
                self.abo.alert_since = None;
                self.abo.rfms_toward_alert = 0;
                self.abo.acts_since_service = 0;
                for unit in &mut self.banks {
                    unit.tracker.on_alert_state(false);
                }
                self.resync_alert_flags();
            }
        }
    }

    /// Perform a mitigation of `row` in `bank`: refresh the blast-radius
    /// victims (each refresh increments the victim's PRAC counter and is
    /// reported to the tracker, covering transitive/Half-Double attacks)
    /// and reset the aggressor's counter.
    fn apply_mitigation(&mut self, bank: BankId, row: RowId, cause: MitigationCause) {
        let br = self.cfg.prac.blast_radius as i64;
        let rows = self.cfg.rows_per_bank as i64;
        let unit = &mut self.banks[bank.0 as usize];
        for d in 1..=br {
            for sign in [-1i64, 1] {
                let v = row.0 as i64 + sign * d;
                if (0..rows).contains(&v) {
                    let victim = RowId(v as u32);
                    let c = unit.counters.increment(victim);
                    unit.tracker.on_victim_refresh(victim, c);
                    self.stats.victim_refreshes += 1;
                }
            }
        }
        unit.counters.reset(row);
        self.stats.aggressor_resets += 1;
        self.stats.record_mitigation(cause);
    }

    fn maybe_assert_alert(&mut self, now: Cycle) {
        if self.abo.alert_since.is_some() {
            return;
        }
        if self.abo.acts_since_service < self.cfg.prac.abo_delay as u64 {
            return;
        }
        if self.alerting_banks > 0 {
            self.abo.alert_since = Some(now);
            self.stats.alerts += 1;
            if self.trace.wants(EventKind::AlertRaised) {
                let bank = self.alert_bits.first().unwrap_or(0) as u32;
                self.trace
                    .instant(EventKind::AlertRaised, now, bank, 0, self.alerting_banks);
            }
            for unit in &mut self.banks {
                unit.tracker.on_alert_state(true);
            }
            self.resync_alert_flags();
        }
    }

    /// When the current Alert_n assertion began, if asserted.
    pub fn alert_since(&self) -> Option<Cycle> {
        self.abo.alert_since
    }

    /// Earliest cycle an ACT to `bank` could become legal, combining the
    /// bank's tRC with the rank's tRRD/tFAW/busy constraints. Meaningful
    /// while the bank is precharged (an open bank needs a PRE first);
    /// for a closed bank, `can_activate(b, c)` iff `c >=
    /// next_activate_at(b)`.
    pub fn next_activate_at(&self, bank: BankId) -> Cycle {
        let rank = self.rank_of(bank);
        let group = self.group_of(bank);
        self.banks[bank.0 as usize]
            .timing
            .next_act_at()
            .max(self.ranks[rank].act_ready_at(group, &self.cfg.timing))
    }

    /// Earliest cycle a RD/WR to `bank` could become legal (bank tRCD,
    /// rank tCCD/busy, and data-bus occupancy). Meaningful while a row is
    /// open: `can_column(b, w, c)` iff `c >= next_column_at(b, w)`.
    pub fn next_column_at(&self, bank: BankId, write: bool) -> Cycle {
        let rank = self.rank_of(bank);
        let group = self.group_of(bank);
        let t = &self.cfg.timing;
        let lat = if write { t.tcwl } else { t.tcl };
        self.banks[bank.0 as usize]
            .timing
            .next_col_at()
            .max(self.ranks[rank].col_ready_at(group))
            .max(self.bus_free_at.saturating_sub(lat))
    }

    /// Earliest cycle a PRE to `bank` could become legal. Meaningful
    /// while a row is open: `can_precharge(b, c)` iff `c >=
    /// next_precharge_at(b)`.
    pub fn next_precharge_at(&self, bank: BankId) -> Cycle {
        self.banks[bank.0 as usize].timing.next_pre_at()
    }

    /// Earliest cycle a REF to `rank` could become legal, or
    /// [`Cycle::MAX`] while any bank of the rank still has an open row
    /// (a PRE must happen first; track that via
    /// [`next_precharge_at`](Self::next_precharge_at)).
    pub fn next_refresh_at(&self, rank: u8) -> Cycle {
        let mut ready = self.ranks[rank as usize].busy_until_at();
        for b in self.bank_ids_of_rank(rank) {
            let timing = &self.banks[b.0 as usize].timing;
            if timing.open_row.is_some() {
                return Cycle::MAX;
            }
            ready = ready.max(timing.next_act_at());
        }
        ready
    }

    /// Earliest cycle an RFM of `kind` at `target` could become legal, or
    /// [`Cycle::MAX`] while any affected bank still has an open row.
    pub fn next_rfm_at(&self, kind: RfmKind, target: BankId) -> Cycle {
        let mut ready = 0;
        for &b in self.rfm_banks_of(kind, target) {
            let timing = &self.banks[b.0 as usize].timing;
            if timing.open_row.is_some() {
                return Cycle::MAX;
            }
            ready = ready
                .max(timing.next_act_at())
                .max(self.ranks[self.rank_of(b)].busy_until_at());
        }
        ready
    }

    /// Iterator over the bank ids of `rank`.
    pub fn bank_ids_of_rank(&self, rank: u8) -> impl Iterator<Item = BankId> {
        let per_rank = self.cfg.banks_per_rank() as u16;
        let base = rank as u16 * per_rank;
        (base..base + per_rank).map(BankId)
    }

    /// Maximum PRAC counter value across all banks (security metric).
    pub fn max_counter(&self) -> u32 {
        self.banks
            .iter()
            .map(|u| u.counters.max_count())
            .max()
            .unwrap_or(0)
    }

    /// Read access to a bank's counters (tests, experiment probes).
    pub fn counters(&self, bank: BankId) -> &PracCounters {
        &self.banks[bank.0 as usize].counters
    }

    /// Read access to a bank's tracker.
    pub fn tracker(&self, bank: BankId) -> &dyn InDramMitigation {
        self.banks[bank.0 as usize].tracker.as_ref()
    }

    /// Total per-bank tracker storage in bits (Table IV support).
    pub fn tracker_storage_bits(&self) -> u64 {
        self.banks.first().map_or(0, |u| u.tracker.storage_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mitigation::NoMitigation;

    /// A tracker that alerts whenever any observed count reaches the
    /// threshold, and mitigates the last such row on RFM.
    #[derive(Debug)]
    struct ThresholdTracker {
        threshold: u32,
        hot: Option<RowId>,
    }

    impl InDramMitigation for ThresholdTracker {
        fn name(&self) -> &'static str {
            "threshold-test"
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
            24
        }
    }

    fn device_with_threshold(threshold: u32) -> DramDevice {
        DramDevice::new(DramConfig::tiny_test(), move |_| {
            Box::new(ThresholdTracker {
                threshold,
                hot: None,
            })
        })
    }

    fn hammer(dev: &mut DramDevice, bank: BankId, row: RowId, times: u32, now: &mut Cycle) {
        let t = dev.cfg().timing;
        for _ in 0..times {
            while !dev.can_activate(bank, *now) {
                *now += 1;
            }
            dev.activate(bank, row, *now);
            *now += t.tras;
            while !dev.can_precharge(bank, *now) {
                *now += 1;
            }
            dev.precharge(bank, *now);
            *now += 1;
        }
    }

    #[test]
    fn activation_increments_prac_counter() {
        let mut dev = DramDevice::new(DramConfig::tiny_test(), |_| Box::new(NoMitigation));
        let mut now = 0;
        hammer(&mut dev, BankId(0), RowId(10), 3, &mut now);
        assert_eq!(dev.counters(BankId(0)).count(RowId(10)), 3);
        assert_eq!(dev.stats().acts, 3);
        assert_eq!(dev.stats().pres, 3);
    }

    #[test]
    fn alert_asserts_when_tracker_wants_it() {
        let mut dev = device_with_threshold(4);
        let mut now = 0;
        hammer(&mut dev, BankId(1), RowId(5), 3, &mut now);
        assert!(dev.alert_since().is_none());
        hammer(&mut dev, BankId(1), RowId(5), 1, &mut now);
        assert!(dev.alert_since().is_some());
        assert_eq!(dev.stats().alerts, 1);
    }

    #[test]
    fn rfm_services_alert_and_mitigates() {
        let mut dev = device_with_threshold(4);
        let mut now = 0;
        hammer(&mut dev, BankId(1), RowId(5), 4, &mut now);
        assert!(dev.alert_since().is_some());
        now += dev.cfg().timing.trc; // let the bank settle
        while !dev.can_rfm(RfmKind::AllBank, BankId(0), now) {
            now += 1;
        }
        dev.rfm(RfmKind::AllBank, BankId(0), RfmCause::AlertService, now);
        assert!(dev.alert_since().is_none(), "alert cleared after nmit RFMs");
        assert_eq!(dev.stats().mitigations_alert, 1);
        // The aggressor counter was reset; blast-radius victims were
        // incremented.
        assert_eq!(dev.counters(BankId(1)).count(RowId(5)), 0);
        assert_eq!(dev.counters(BankId(1)).count(RowId(4)), 1);
        assert_eq!(dev.counters(BankId(1)).count(RowId(6)), 1);
        assert_eq!(dev.counters(BankId(1)).count(RowId(3)), 1);
        assert_eq!(dev.counters(BankId(1)).count(RowId(7)), 1);
        assert_eq!(dev.stats().victim_refreshes, 4);
        assert_eq!(dev.stats().aggressor_resets, 1);
    }

    #[test]
    fn abo_delay_gates_next_alert() {
        let cfg = DramConfig {
            prac: crate::config::PracParams::paper_default().with_nmit(4),
            ..DramConfig::tiny_test()
        };
        let mut dev = DramDevice::new(cfg, |_| {
            Box::new(ThresholdTracker {
                threshold: 2,
                hot: None,
            })
        });
        let mut now = 0;
        hammer(&mut dev, BankId(0), RowId(1), 2, &mut now);
        assert!(dev.alert_since().is_some());
        now += dev.cfg().timing.trc;
        // Service with nmit = 4 RFMs.
        for _ in 0..4 {
            while !dev.can_rfm(RfmKind::AllBank, BankId(0), now) {
                now += 1;
            }
            dev.rfm(RfmKind::AllBank, BankId(0), RfmCause::AlertService, now);
            now += dev.cfg().timing.trfm;
        }
        assert!(dev.alert_since().is_none());
        // Re-arm the tracker: two ACTs to a fresh row. After 2 ACTs the
        // tracker wants an alert but ABO_Delay = 4 holds it off until the
        // 4th activation.
        hammer(&mut dev, BankId(0), RowId(9), 2, &mut now);
        assert!(dev.alert_since().is_none(), "gated by ABO_Delay");
        hammer(&mut dev, BankId(0), RowId(9), 2, &mut now);
        assert!(dev.alert_since().is_some());
    }

    #[test]
    fn rfm_same_bank_covers_one_bank_per_group() {
        let dev = device_with_threshold(1000);
        let banks = dev.rfm_banks(RfmKind::SameBank, BankId(1));
        // tiny_test: 1 rank x 2 groups x 2 banks -> 2 banks affected.
        assert_eq!(banks.len(), 2);
        for b in &banks {
            assert_eq!(b.0 % dev.cfg().banks_per_group as u16, 1);
        }
        assert_eq!(dev.rfm_banks(RfmKind::PerBank, BankId(3)), vec![BankId(3)]);
        assert_eq!(
            dev.rfm_banks(RfmKind::AllBank, BankId(0)).len(),
            dev.cfg().num_banks()
        );
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let mut dev = device_with_threshold(1000);
        assert!(dev.can_refresh(0, 0));
        dev.refresh(0, 0);
        let trfc = dev.cfg().timing.trfc;
        assert!(!dev.can_activate(BankId(0), trfc - 1));
        assert!(dev.can_activate(BankId(0), trfc));
        assert_eq!(dev.stats().refs, 1);
    }

    #[test]
    fn column_commands_share_the_data_bus() {
        let mut dev = device_with_threshold(1000);
        let t = dev.cfg().timing;
        let mut now = 0;
        dev.activate(BankId(0), RowId(0), now);
        now += t.trrd_s.max(1);
        // Open a second bank for an immediate back-to-back column access.
        while !dev.can_activate(BankId(2), now) {
            now += 1;
        }
        dev.activate(BankId(2), RowId(0), now);
        let mut col_t = now + t.trcd;
        while !dev.can_column(BankId(0), false, col_t) {
            col_t += 1;
        }
        let done0 = dev.column(BankId(0), false, col_t);
        // Immediately after, the bus is booked: a same-cycle read to the
        // other bank must wait at least until the burst finishes.
        assert!(!dev.can_column(BankId(2), false, col_t));
        let mut col_t2 = col_t + 1;
        while !dev.can_column(BankId(2), false, col_t2) {
            col_t2 += 1;
        }
        let done2 = dev.column(BankId(2), false, col_t2);
        assert!(done2 >= done0 + t.tbl, "bursts must not overlap");
    }

    #[test]
    fn next_command_queries_are_duals_of_can_checks() {
        let mut dev = device_with_threshold(1000);
        let t = dev.cfg().timing;
        let mut now = 0;
        // Exercise ACT/RD/PRE on two banks and a REF to load every
        // constraint, then sweep the duals.
        dev.activate(BankId(0), RowId(1), now);
        now += t.trrd_l;
        while !dev.can_activate(BankId(1), now) {
            now += 1;
        }
        dev.activate(BankId(1), RowId(2), now);
        let mut col = now + t.trcd;
        while !dev.can_column(BankId(0), false, col) {
            col += 1;
        }
        dev.column(BankId(0), false, col);
        let horizon = col + 3 * t.trc;
        for c in 0..horizon {
            for bank in [BankId(0), BankId(1)] {
                if dev.open_row(bank).is_some() {
                    assert_eq!(
                        dev.can_column(bank, false, c),
                        c >= dev.next_column_at(bank, false),
                        "col {bank} @ {c}"
                    );
                    assert_eq!(
                        dev.can_column(bank, true, c),
                        c >= dev.next_column_at(bank, true),
                        "wr {bank} @ {c}"
                    );
                    assert_eq!(
                        dev.can_precharge(bank, c),
                        c >= dev.next_precharge_at(bank),
                        "pre {bank} @ {c}"
                    );
                }
            }
            // Bank 2 stays closed throughout: ACT dual holds.
            assert_eq!(
                dev.can_activate(BankId(2), c),
                c >= dev.next_activate_at(BankId(2)),
                "act bank2 @ {c}"
            );
        }
        // REF/RFM duals: blocked while rows are open...
        assert_eq!(dev.next_refresh_at(0), Cycle::MAX);
        assert_eq!(dev.next_rfm_at(RfmKind::AllBank, BankId(0)), Cycle::MAX);
        // ...and exact once everything is precharged.
        for bank in [BankId(0), BankId(1)] {
            let at = dev.next_precharge_at(bank);
            dev.precharge(bank, at);
            now = now.max(at);
        }
        let ref_at = dev.next_refresh_at(0);
        assert_ne!(ref_at, Cycle::MAX);
        assert!(!dev.can_refresh(0, ref_at - 1));
        assert!(dev.can_refresh(0, ref_at));
        let rfm_at = dev.next_rfm_at(RfmKind::AllBank, BankId(0));
        assert!(!dev.can_rfm(RfmKind::AllBank, BankId(0), rfm_at - 1));
        assert!(dev.can_rfm(RfmKind::AllBank, BankId(0), rfm_at));
    }

    #[test]
    fn first_alerting_bank_tracks_tracker_state() {
        let mut dev = device_with_threshold(3);
        assert_eq!(dev.first_alerting_bank(), None);
        let mut now = 0;
        hammer(&mut dev, BankId(2), RowId(9), 3, &mut now);
        assert_eq!(dev.first_alerting_bank(), Some(BankId(2)));
        hammer(&mut dev, BankId(1), RowId(4), 3, &mut now);
        assert_eq!(dev.first_alerting_bank(), Some(BankId(1)));
        // Servicing the alert drains both trackers (RFMab touches every
        // bank) and clears the bookkeeping.
        now += dev.cfg().timing.trc;
        while !dev.can_rfm(RfmKind::AllBank, BankId(0), now) {
            now += 1;
        }
        dev.rfm(RfmKind::AllBank, BankId(0), RfmCause::AlertService, now);
        assert_eq!(dev.first_alerting_bank(), None);
    }

    #[test]
    fn rfm_banks_slice_matches_vec_api() {
        let dev = device_with_threshold(1000);
        for kind in [RfmKind::AllBank, RfmKind::SameBank, RfmKind::PerBank] {
            for target in 0..dev.cfg().num_banks() as u16 {
                assert_eq!(
                    dev.rfm_banks_of(kind, BankId(target)),
                    dev.rfm_banks(kind, BankId(target)).as_slice()
                );
            }
        }
    }

    #[test]
    fn tracer_sees_alert_lifecycle_rfm_and_refresh() {
        use std::sync::Arc;
        let mut dev = device_with_threshold(4);
        let rec = Arc::new(qprac_obs::Recorder::all());
        dev.set_trace(TraceHandle::new(rec.clone()).for_channel(3));
        let mut now = 0;
        hammer(&mut dev, BankId(1), RowId(5), 4, &mut now);
        assert!(dev.alert_since().is_some());
        let raised = rec.events_of(EventKind::AlertRaised);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].bank, 1, "alerting bank attributed");
        assert_eq!(raised[0].channel, 3, "channel tag travels");
        now += dev.cfg().timing.trc;
        while !dev.can_rfm(RfmKind::AllBank, BankId(0), now) {
            now += 1;
        }
        dev.rfm(RfmKind::AllBank, BankId(0), RfmCause::AlertService, now);
        let rfms = rec.events_of(EventKind::RfmIssued);
        assert_eq!(rfms.len(), 1);
        assert_eq!(rfms[0].extra, 0, "AllBank<<8 | AlertService");
        let served = rec.events_of(EventKind::AlertServed);
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].ts, raised[0].ts, "span starts at assertion");
        assert!(served[0].dur >= 1);
        now += dev.cfg().timing.trfm;
        while !dev.can_refresh(0, now) {
            now += 1;
        }
        dev.refresh(0, now);
        assert_eq!(rec.events_of(EventKind::Refresh).len(), 1);
        // A device without set_trace records nothing and allocates
        // nothing (the simulator's default).
        let quiet = device_with_threshold(4);
        assert!(!quiet.trace().is_enabled());
    }

    #[test]
    fn opportunistic_cause_attribution() {
        // Bank 0 alerts; bank 1 mitigates opportunistically on the same
        // all-bank RFM.
        #[derive(Debug)]
        struct Opportunist {
            threshold: u32,
            top: Option<(RowId, u32)>,
        }
        impl InDramMitigation for Opportunist {
            fn name(&self) -> &'static str {
                "opportunist-test"
            }
            fn on_activate(&mut self, row: RowId, count: u32) {
                if self.top.is_none_or(|(_, c)| count > c) {
                    self.top = Some((row, count));
                }
            }
            fn needs_alert(&self) -> bool {
                self.top.is_some_and(|(_, c)| c >= self.threshold)
            }
            fn on_rfm(&mut self, _c: &mut dyn CounterAccess, _ctx: RfmContext) -> Option<RowId> {
                self.top.take().map(|(r, _)| r)
            }
            fn storage_bits(&self) -> u64 {
                24
            }
        }
        let mut dev = DramDevice::new(DramConfig::tiny_test(), |_| {
            Box::new(Opportunist {
                threshold: 4,
                top: None,
            })
        });
        let mut now = 0;
        hammer(&mut dev, BankId(1), RowId(7), 1, &mut now); // bank 1 warm
        hammer(&mut dev, BankId(0), RowId(3), 4, &mut now); // bank 0 alerts
        assert!(dev.alert_since().is_some());
        now += dev.cfg().timing.trc;
        while !dev.can_rfm(RfmKind::AllBank, BankId(0), now) {
            now += 1;
        }
        dev.rfm(RfmKind::AllBank, BankId(0), RfmCause::AlertService, now);
        assert_eq!(dev.stats().mitigations_alert, 1);
        assert_eq!(dev.stats().mitigations_opportunistic, 1);
    }
}
