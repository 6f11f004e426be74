//! The full system: cores + shared LLC + one memory controller per
//! channel + DRAM with a hosted mitigation, clocked at the paper's
//! 4 GHz core / 3.2 GHz memory ratio (exact 4:5 rational stepping).
//!
//! ## Multi-channel operation
//!
//! The system owns `channels` independent memory controllers, each with
//! its own DRAM device and PRAC trackers. The address mapper's
//! channel-select stage routes every LLC miss to its channel at decode
//! time; channels share nothing but the LLC and the CPU clock, so a
//! `channels = 1` system is bit-exact with the historical single-channel
//! simulator (a golden differential test enforces this).
//!
//! ## Event-driven fast-forwarding
//!
//! The run loop is cycle-accurate but not cycle-*stepped*: whenever every
//! core is provably stalled on outstanding loads
//! ([`cpu_model::Core::stalled_on_memory`]) the simulator asks each
//! channel's controller for the next cycle at which anything can happen
//! ([`mem_ctrl::MemoryController::next_event`]), takes the minimum
//! across channels, combines it with the earliest pending LLC-hit
//! wakeup, and jumps the CPU/memory clocks straight there — keeping the
//! 4:5 clock ratio, the rotating core arbitration and every statistic
//! bit-exact with the cycle-by-cycle loop (differential tests enforce
//! this at 1, 2 and 4 channels). Set `QPRAC_NO_FASTFORWARD=1` to force
//! the plain loop.
//!
//! ## Two-phase memory ticks
//!
//! Each memory cycle runs in two phases. Phase A advances every channel
//! *lane* (feed pending accesses, then tick or provably elide the
//! controller). Phase B drains the buffered completions in channel
//! order: LLC fills, core wakeups and dirty-victim writebacks all happen
//! there, so the shared state sees one deterministic order.
//!
//! ## Allocation- and division-free hot path
//!
//! In steady state a simulated cycle allocates nothing, and the
//! per-cycle scheduling work (core arbitration, the FR-FCFS sweep) does
//! no integer division. The controller picks FR-FCFS candidates
//! word-wise as `busy & !sleeping & !overdue` bank sets: timing-blocked
//! banks sleep until their wake hint and are woken in one pass once a
//! lower bound on the hints comes due, and banks of overdue-REF ranks
//! are masked by per-rank bank sets. Completion buffers drain in place,
//! the LLC recycles MSHR waiter lists from fill to the next miss, and
//! each core caches its stall verdict, so the per-core fast-forward
//! checks are field reads. `tests/alloc_free.rs` pins the allocation
//! claim with a counting global allocator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use cpu_model::{CacheConfig, Core, CoreConfig, CoreMem, CoreStats, Llc, LlcAccess, TraceSource};
use dram_core::{
    AddressMapper, DeviceStats, DramAddr, DramDevice, EventKind, Recorder, TraceHandle,
};
use energy_model::{EnergyBreakdown, EnergyParams};
use mem_ctrl::{McStats, MemoryController, ReqKind};

use crate::config::{env_flag, SystemConfig};
use crate::stats::RunStats;

/// CPU-cycle cost of moving a filled line from the LLC to the core.
const FILL_TO_USE: u64 = 10;

/// Whether event-driven fast-forwarding is enabled for this process
/// (`QPRAC_NO_FASTFORWARD=1` opts out; the differential test relies on
/// both paths producing identical statistics).
pub(crate) fn fast_forward_default() -> bool {
    !env_flag("QPRAC_NO_FASTFORWARD")
}

/// A line waiting to enter its channel's memory controller, decoded once
/// at miss time instead of on every (possibly blocked) memory tick.
struct PendingAccess {
    addr: DramAddr,
    line: u64,
    write: bool,
}

impl PendingAccess {
    fn kind(&self) -> ReqKind {
        if self.write {
            ReqKind::Write
        } else {
            ReqKind::Read
        }
    }
}

/// The memory side visible to cores: LLC + issue/wakeup plumbing.
struct MemSide {
    llc: Llc,
    mapper: AddressMapper,
    /// `(due_cpu_cycle, token)` load completions.
    ready: BinaryHeap<Reverse<(u64, u64)>>,
    /// Per-channel queues of accesses waiting to enter that channel's
    /// memory controller (a blocked channel must not head-of-line-block
    /// the others).
    pending_issue: Vec<VecDeque<PendingAccess>>,
    cpu_cycle: u64,
}

impl MemSide {
    fn queue_access(&mut self, line: u64, write: bool) {
        let addr = self.mapper.decode(line % self.mapper.num_lines());
        self.pending_issue[addr.channel as usize].push_back(PendingAccess { addr, line, write });
    }

    fn pending_total(&self) -> usize {
        self.pending_issue.iter().map(VecDeque::len).sum()
    }
}

/// Per-channel scheduling state for the memory-tick fast paths.
struct LaneState {
    /// The channel's controller provably cannot act before this memory
    /// cycle (assuming no enqueues, which reset it to 0 = unknown).
    /// Written back from ticks *and* from `channel_event` probes so a
    /// fast-forward attempt never recomputes a bound it already knows.
    next_event: u64,
    /// The head of the pending-issue queue was rejected by
    /// `can_accept`; capacity can only change when the controller
    /// ticks, so the feed can be skipped until then.
    head_blocked: bool,
    /// Elided/jumped controller cycles not yet reported to
    /// `account_idle_cycles`. The controller's alert state is constant
    /// between two of its ticks (only ticks mutate the device), so
    /// flushing the batch lazily — right before the next tick, or at
    /// collection — accounts exactly the same `alert_service_cycles`
    /// as per-cycle calls would, without a cross-crate call per cycle.
    idle_owed: u64,
}

impl LaneState {
    fn new() -> Self {
        LaneState {
            next_event: 0,
            head_blocked: false,
            idle_owed: 0,
        }
    }
}

/// Phase A for one channel: feed pending LLC misses/writebacks into the
/// controller, then tick it — or provably elide the tick. Completions
/// stay buffered inside the controller for phase B.
fn lane_advance(
    mc: &mut MemoryController,
    pending: &mut VecDeque<PendingAccess>,
    lane: &mut LaneState,
    mem_cycle: u64,
    fast_forward: bool,
) {
    // The capacity pre-check keeps a blocked head-of-queue from
    // churning the controller's rejection statistics every memory cycle
    // (and keeps blocked cycles side-effect-free for fast-forwarding).
    if !lane.head_blocked {
        while let Some(p) = pending.front() {
            if !mc.can_accept(p.kind(), mc.bank_index(&p.addr)) {
                lane.head_blocked = true;
                break;
            }
            if mc.enqueue(p.kind(), p.addr, p.line, mem_cycle).is_none() {
                debug_assert!(false, "can_accept promised capacity");
                break;
            }
            pending.pop_front();
            lane.next_event = 0;
        }
    }
    if fast_forward && lane.next_event > mem_cycle {
        // The controller provably cannot issue this cycle; eliding its
        // tick changes nothing but the alert-window statistic, which
        // the batched `idle_owed` flush keeps in step. No completions
        // can appear from a tick that issues nothing.
        lane.idle_owed += 1;
        return;
    }
    if lane.idle_owed > 0 {
        mc.account_idle_cycles(lane.idle_owed);
        lane.idle_owed = 0;
    }
    lane.next_event = mc.tick(mem_cycle);
    // The tick may have freed queue capacity; re-probe the head next
    // cycle — exactly when the one-pass loop would have retried it.
    lane.head_blocked = false;
}

impl CoreMem for MemSide {
    fn load(&mut self, line: u64, token: u64) -> bool {
        match self.llc.access(line, false, token) {
            LlcAccess::Hit => {
                let due = self.cpu_cycle + self.llc.cfg().hit_latency;
                self.ready.push(Reverse((due, token)));
                true
            }
            LlcAccess::MissFetch => {
                self.queue_access(line, false);
                true
            }
            LlcAccess::MissMerged => true,
            LlcAccess::Blocked => false,
        }
    }

    fn store(&mut self, line: u64) -> bool {
        match self.llc.access(line, true, u64::MAX) {
            LlcAccess::Hit | LlcAccess::MissMerged => true,
            LlcAccess::MissFetch => {
                self.queue_access(line, false);
                true
            }
            LlcAccess::Blocked => false,
        }
    }
}

/// A full simulated system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    /// CPU cycle each core reached its instruction limit (None = still
    /// running toward it).
    finished_at: Vec<Option<u64>>,
    mem: MemSide,
    /// One controller (device + trackers + queues) per channel.
    mcs: Vec<MemoryController>,
    cpu_cycle: u64,
    /// The core that ticks first this cycle: `cpu_cycle % cores`, kept
    /// incrementally so the per-cycle path has no division.
    arb_start: usize,
    mem_cycle: u64,
    clock_acc: u64,
    /// Skip dead cycles (see the module docs); identical results either
    /// way, enforced by the differential tests.
    fast_forward: bool,
    /// Per-channel scheduling state (cached `next_event` bounds and
    /// blocked-head flags) letting `mem_tick` elide whole controller
    /// ticks and `skip_dead_cycles` reuse the bounds instead of
    /// recomputing them.
    lane_state: Vec<LaneState>,
    ff_attempts: u64,
    ff_jumps: u64,
    ff_skipped: u64,
    /// System-level event tracer (disabled unless `QPRAC_TRACE` is set
    /// or [`System::with_tracer`] was called). Channel-tagged one past
    /// the last channel so system-wide events (fast-forward jumps) get
    /// their own Perfetto track.
    tracer: TraceHandle,
    /// Where to write the Chrome trace JSON at collection
    /// (`QPRAC_TRACE`; `None` for tracers installed by tests).
    trace_out: Option<std::path::PathBuf>,
}

/// Build the env-configured tracer: `QPRAC_TRACE=<path>` enables
/// recording and names the Chrome trace-event JSON file written when
/// the run completes; `QPRAC_TRACE_EVENTS` is a comma list of
/// [`EventKind`] names restricting what is captured (default: all).
fn trace_from_env() -> (TraceHandle, Option<std::path::PathBuf>) {
    let path = match std::env::var_os("QPRAC_TRACE") {
        Some(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => return (TraceHandle::default(), None),
    };
    let spec = std::env::var("QPRAC_TRACE_EVENTS").unwrap_or_default();
    let mask = match qprac_obs::trace::mask_from_filter(&spec) {
        Ok(mask) => mask,
        Err(e) => {
            qprac_obs::warn!("warning: QPRAC_TRACE_EVENTS ignored ({e}); tracing all events");
            qprac_obs::trace::mask_all()
        }
    };
    let rec = Recorder::with_mask(mask, qprac_obs::trace::DEFAULT_CAPACITY);
    (TraceHandle::new(Arc::new(rec)), Some(path))
}

impl System {
    /// Build a system running `traces[i]` on core `i`, all cores capped
    /// at the same memory-level parallelism.
    pub fn new(cfg: SystemConfig, traces: Vec<Box<dyn TraceSource>>, mlp: usize) -> Self {
        let mlps = vec![mlp; traces.len()];
        Self::new_with_mlps(cfg, traces, &mlps)
    }

    /// Build a system running `traces[i]` on core `i` with a per-core
    /// MLP cap (heterogeneous mixes give each core its own workload's
    /// parallelism).
    pub fn new_with_mlps(
        cfg: SystemConfig,
        traces: Vec<Box<dyn TraceSource>>,
        mlps: &[usize],
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core");
        assert_eq!(mlps.len(), cfg.cores, "one MLP cap per core");
        let dram_cfg = cfg.dram_config();
        let mapper = AddressMapper::new(&dram_cfg, cfg.mapping);
        let banks = dram_cfg.num_banks();
        let (tracer, trace_out) = trace_from_env();
        let mut mcs: Vec<MemoryController> = (0..cfg.channels)
            .map(|ch| {
                let cfg_ref = &cfg;
                // Trackers are seeded by a system-global bank index so
                // probabilistic trackers (PrIDE) do not alias across
                // channels; for channel 0 the indices match the
                // historical single-channel ones.
                let device = DramDevice::new(dram_cfg.clone(), |bank| {
                    cfg_ref.make_tracker(ch * banks + bank)
                });
                MemoryController::new(cfg.mc_config(), device)
            })
            .collect();
        if tracer.is_enabled() {
            for (ch, mc) in mcs.iter_mut().enumerate() {
                mc.set_trace(tracer.for_channel(ch as u16));
            }
        }
        let cores: Vec<Core> = traces
            .into_iter()
            .zip(mlps)
            .enumerate()
            .map(|(i, (t, &mlp))| {
                let core_cfg = CoreConfig {
                    max_outstanding_loads: mlp.max(1),
                    ..CoreConfig::paper_default()
                };
                Core::new(core_cfg, i, t)
            })
            .collect();
        let n = cores.len();
        let channels = mcs.len();
        System {
            cores,
            finished_at: vec![None; n],
            mem: MemSide {
                llc: Llc::new(CacheConfig::paper_default()),
                mapper,
                ready: BinaryHeap::new(),
                pending_issue: (0..channels).map(|_| VecDeque::new()).collect(),
                cpu_cycle: 0,
            },
            mcs,
            cpu_cycle: 0,
            arb_start: 0,
            mem_cycle: 0,
            clock_acc: 0,
            fast_forward: fast_forward_default(),
            lane_state: (0..channels).map(|_| LaneState::new()).collect(),
            ff_attempts: 0,
            ff_jumps: 0,
            ff_skipped: 0,
            tracer: tracer.for_channel(cfg.channels as u16),
            trace_out,
            cfg,
        }
    }

    /// Install an explicit tracer (tests and probes; replaces any
    /// env-configured one). No trace file is written at collection —
    /// read events off the handle's recorder instead.
    pub fn with_tracer(mut self, trace: TraceHandle) -> Self {
        for (ch, mc) in self.mcs.iter_mut().enumerate() {
            mc.set_trace(trace.for_channel(ch as u16));
        }
        self.tracer = trace.for_channel(self.mcs.len() as u16);
        self.trace_out = None;
        self
    }

    /// Override the fast-forwarding mode (defaults to on unless
    /// `QPRAC_NO_FASTFORWARD=1`); the differential tests run both.
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.fast_forward = enabled;
        self
    }

    /// Advance one CPU cycle (cores) plus the proportional memory work.
    fn step(&mut self) {
        self.cpu_cycle += 1;
        self.mem.cpu_cycle = self.cpu_cycle;

        // Deliver due load completions.
        while let Some(&Reverse((due, token))) = self.mem.ready.peek() {
            if due > self.cpu_cycle {
                break;
            }
            self.mem.ready.pop();
            let core = (token >> 48) as usize;
            self.cores[core].finish_load(token);
        }

        // Core ticks, in rotating order: shared-resource arbitration
        // (LLC MSHRs, controller queues) must not systematically favor
        // lower-numbered cores, or heavy workloads starve the last core.
        let n = self.cores.len();
        self.arb_start += 1;
        if self.arb_start == n {
            self.arb_start = 0;
        }
        let start = self.arb_start;
        for i in (start..n).chain(0..start) {
            if self.fast_forward && self.cores[i].stalled_on_memory() {
                // A provably stalled tick is a no-op apart from the cycle
                // counters; eliding it keeps results bit-exact (no
                // retirement, so no finish transition either).
                self.cores[i].skip_stalled_cycles(1);
                continue;
            }
            self.cores[i].tick(&mut self.mem);
            if self.finished_at[i].is_none() && self.cores[i].retired() >= self.cfg.instr_limit {
                self.finished_at[i] = Some(self.cpu_cycle);
            }
        }

        // Memory clock: 4 memory cycles per 5 CPU cycles (3.2/4 GHz).
        self.clock_acc += 4;
        while self.clock_acc >= 5 {
            self.clock_acc -= 5;
            self.mem_cycle += 1;
            self.mem_tick();
        }
    }

    /// One memory cycle: phase A advances every lane, phase B drains
    /// completions in channel order.
    fn mem_tick(&mut self) {
        for ((mc, pending), lane) in self
            .mcs
            .iter_mut()
            .zip(&mut self.mem.pending_issue)
            .zip(&mut self.lane_state)
        {
            lane_advance(mc, pending, lane, self.mem_cycle, self.fast_forward);
        }
        // Phase B: channel-order drain of whatever the lanes completed
        // this cycle: LLC fills, wakeups and victim writebacks. Both the
        // completion buffers and the MSHR waiter lists are reused, so
        // this allocates nothing in steady state.
        let due = self.cpu_cycle + FILL_TO_USE;
        for mc in &mut self.mcs {
            if !mc.has_completions() {
                continue;
            }
            for done in mc.drain_completions() {
                if !done.was_read {
                    continue;
                }
                let ready = &mut self.mem.ready;
                let writeback = self
                    .mem
                    .llc
                    .fill(done.tag, |token| ready.push(Reverse((due, token))));
                if let Some(victim) = writeback {
                    // The victim decodes independently; it may target
                    // any channel, not necessarily this one.
                    self.mem.queue_access(victim, true);
                }
            }
        }
    }

    /// The earliest memory cycle at which channel `ch` can do anything:
    /// accept its blocked head-of-queue access on the very next tick, or
    /// issue its next possible command. Freshly computed bounds are
    /// written back to the lane state so repeated fast-forward attempts
    /// (and the elide branch in `lane_advance`) reuse them for free.
    fn channel_event(&mut self, ch: usize) -> u64 {
        let lane = &self.lane_state[ch];
        if let Some(p) = self.mem.pending_issue[ch].front() {
            if !lane.head_blocked
                && self.mcs[ch].can_accept(p.kind(), self.mcs[ch].bank_index(&p.addr))
            {
                // The very next memory tick will enqueue it.
                return self.mem_cycle + 1;
            }
        }
        if lane.next_event > self.mem_cycle {
            return lane.next_event;
        }
        let bound = self.mcs[ch].next_event(self.mem_cycle);
        self.lane_state[ch].next_event = bound;
        bound
    }

    /// If every core is provably stalled on loads, jump the clocks to the
    /// next cycle at which anything can happen: the earliest pending LLC
    /// wakeup, the next memory cycle at which any channel can accept its
    /// blocked head-of-queue access, or the earliest channel's next
    /// possible command. All skipped cycles are proven no-ops, so
    /// statistics stay bit-exact with cycle-by-cycle stepping.
    fn skip_dead_cycles(&mut self) {
        if !self.cores.iter().all(Core::stalled_on_memory) {
            return;
        }
        self.ff_attempts += 1;
        let mut target = match self.mem.ready.peek() {
            Some(&Reverse((due, _))) => due,
            None => u64::MAX,
        };
        let mut mem_event = u64::MAX;
        for ch in 0..self.mcs.len() {
            mem_event = mem_event.min(self.channel_event(ch));
        }
        if mem_event != u64::MAX {
            // First CPU cycle whose step performs memory tick
            // `mem_event`, preserving the exact 4:5 cadence
            // (mem_cycle = floor(4 * cpu_cycle / 5)).
            target = target.min(mem_event.saturating_mul(5).div_ceil(4));
        }
        assert!(
            target != u64::MAX,
            "every core is stalled on loads but no memory event is pending — deadlock"
        );
        // step() advances one cycle itself; skip only the cycles before
        // `target` so the next step lands exactly on it.
        let skip = (target - 1).saturating_sub(self.cpu_cycle);
        if skip == 0 {
            return;
        }
        self.ff_skipped += skip;
        self.ff_jumps += 1;
        self.cpu_cycle += skip;
        self.arb_start = (self.cpu_cycle % self.cores.len() as u64) as usize;
        for core in &mut self.cores {
            core.skip_stalled_cycles(skip);
        }
        let new_mem_cycle = 4 * self.cpu_cycle / 5;
        for lane in &mut self.lane_state {
            lane.idle_owed += new_mem_cycle - self.mem_cycle;
        }
        // `row` carries the CPU cycles skipped; the span length is the
        // jump in memory cycles.
        self.tracer.span(
            EventKind::FastForward,
            self.mem_cycle,
            new_mem_cycle - self.mem_cycle,
            0,
            skip,
            0,
        );
        self.mem_cycle = new_mem_cycle;
        self.clock_acc = 4 * self.cpu_cycle % 5;
    }

    /// Run until every core retires the configured instruction limit.
    /// Returns the aggregated statistics.
    pub fn run(mut self) -> RunStats {
        let safety_cap = self.cfg.instr_limit.saturating_mul(4000).max(10_000_000);
        let debug = env_flag("QPRAC_DEBUG_PROGRESS");
        while self.finished_at.iter().any(Option::is_none) {
            if self.fast_forward {
                self.skip_dead_cycles();
            }
            self.step();
            if debug && self.cpu_cycle.is_multiple_of(2_000_000) {
                let per_core: Vec<(u64, usize, usize)> = self
                    .cores
                    .iter()
                    .map(|c| (c.retired(), c.outstanding_loads(), c.rob_len()))
                    .collect();
                let acts: u64 = self.mcs.iter().map(|m| m.device().stats().acts).sum();
                let alerts: u64 = self.mcs.iter().map(|m| m.device().stats().alerts).sum();
                let pending_reads: usize = self.mcs.iter().map(|m| m.pending_reads()).sum();
                qprac_obs::rawln!(
                    "[sim] cycle={} cores(ret,out,rob)={per_core:?} acts={acts} alerts={alerts} pending_reads={pending_reads} pending_issue={} mshrs={}",
                    self.cpu_cycle,
                    self.mem.pending_total(),
                    self.mem.llc.mshrs_in_use(),
                );
            }
            assert!(
                self.cpu_cycle < safety_cap,
                "simulation exceeded {safety_cap} cycles — livelock?"
            );
        }
        self.collect()
    }

    fn collect(mut self) -> RunStats {
        // Write the env-configured trace file before anything else can
        // fail: a trace of a crashing run is the one you want most.
        if let (Some(path), Some(rec)) = (&self.trace_out, self.tracer.recorder()) {
            let written = std::fs::File::create(path)
                .and_then(|mut f| rec.write_chrome_json(&mut std::io::BufWriter::new(&mut f)));
            if let Err(e) = written {
                qprac_obs::warn!(
                    "warning: QPRAC_TRACE write to {} failed: {e}",
                    path.display()
                );
            }
        }
        // Flush idle cycles still owed to each controller (the batch is
        // exact because alert state cannot have changed since that
        // controller's last tick).
        for (mc, lane) in self.mcs.iter_mut().zip(&mut self.lane_state) {
            if lane.idle_owed > 0 {
                mc.account_idle_cycles(lane.idle_owed);
                lane.idle_owed = 0;
            }
        }
        if env_flag("QPRAC_FF_STATS") {
            qprac_obs::rawln!(
                "[sim] ff: cycles={} stepped={} skipped={} attempts={} jumps={}",
                self.cpu_cycle,
                self.cpu_cycle - self.ff_skipped,
                self.ff_skipped,
                self.ff_attempts,
                self.ff_jumps,
            );
        }
        let core_ipc: Vec<f64> = self
            .finished_at
            .iter()
            .map(|f| {
                let cycles = f.expect("run() waits for all cores") as f64;
                self.cfg.instr_limit as f64 / cycles
            })
            .collect();
        let mut cpu = CoreStats::default();
        for c in &self.cores {
            let s = c.stats();
            cpu.retired += s.retired;
            cpu.cycles = cpu.cycles.max(s.cycles);
            cpu.loads += s.loads;
            cpu.stores += s.stores;
            cpu.stall_cycles += s.stall_cycles;
        }
        // Aggregate across channels while keeping the per-channel device
        // view (per-channel skew is an observable the mix experiments
        // report on).
        let mut device = DeviceStats::default();
        let mut mc = McStats::default();
        let mut channel_device = Vec::with_capacity(self.mcs.len());
        for c in &self.mcs {
            let d = c.device().stats().clone();
            device.absorb(&d);
            channel_device.push(d);
            mc.absorb(c.stats());
        }
        let dram_cfg = self.mcs[0].device().cfg();
        let runtime_ns = self.mem_cycle as f64 * 1000.0 / dram_cfg.freq_mhz as f64;
        // Sum per-channel breakdowns instead of converting the aggregate
        // counts: the background term is per *device*, so every channel
        // must charge standby power for the whole run.
        let mut energy = EnergyBreakdown::default();
        for d in &channel_device {
            energy.accumulate(&EnergyBreakdown::from_stats(
                d,
                &EnergyParams::default(),
                runtime_ns,
            ));
        }
        RunStats {
            cpu_cycles: self.cpu_cycle,
            mem_cycles: self.mem_cycle,
            core_ipc,
            cpu,
            cache: *self.mem.llc.stats(),
            mc,
            device,
            channel_device,
            energy,
            runtime_ns,
            trefi_cycles: dram_cfg.timing.trefi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MitigationKind;
    use cpu_model::WorkloadSpec;

    fn run_named(workload: &str, kind: MitigationKind, instrs: u64) -> RunStats {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(kind)
            .with_instruction_limit(instrs);
        let spec = WorkloadSpec::by_name(workload).unwrap();
        let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
            .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
            .collect();
        System::new(cfg, traces, spec.params.mlp).run()
    }

    fn run_channels(workload: &str, channels: usize, instrs: u64) -> RunStats {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::Qprac)
            .with_channels(channels)
            .with_instruction_limit(instrs);
        let spec = WorkloadSpec::by_name(workload).unwrap();
        let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
            .map(|i| Box::new(spec.source(i as u64)) as Box<dyn TraceSource>)
            .collect();
        System::new(cfg, traces, spec.params.mlp).run()
    }

    #[test]
    fn baseline_run_retires_and_refreshes() {
        // Memory-bound workload: enough memory cycles elapse to cross
        // several tREFI boundaries.
        let s = run_named("ycsb/a_like", MitigationKind::None, 10_000);
        assert_eq!(s.core_ipc.len(), 4);
        assert!(s.core_ipc.iter().all(|&ipc| ipc > 0.0));
        assert!(s.instructions() >= 40_000);
        assert!(s.device.refs > 0, "refresh must run");
        assert_eq!(s.device.alerts, 0, "no mitigation, no alerts");
        assert_eq!(s.channel_device.len(), 1);
        assert_eq!(s.channel_device[0], s.device);
    }

    #[test]
    fn memory_bound_workload_touches_dram() {
        let s = run_named("ycsb/a_like", MitigationKind::None, 5_000);
        assert!(s.device.acts > 100, "acts = {}", s.device.acts);
        assert!(s.rbmpki() > 1.0, "rbmpki = {}", s.rbmpki());
        assert!(s.cache.misses > 0);
    }

    #[test]
    fn compute_bound_workload_mostly_hits() {
        let s = run_named("media/gsm_like", MitigationKind::None, 5_000);
        assert!(
            s.rbmpki() < 5.0,
            "cache-friendly workload, rbmpki = {}",
            s.rbmpki()
        );
    }

    #[test]
    fn qprac_proactive_mitigates_under_hot_workload() {
        // Proactive mitigation drains PSQ tops on every REF, so any
        // memory-bound run that crosses a tREFI boundary mitigates.
        let s = run_named("ycsb/a_like", MitigationKind::QpracProactive, 10_000);
        assert!(
            s.device.mitigations_proactive > 0,
            "REF-shadow mitigations must fire: {:?}",
            s.device
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_named("tpc/tpcc64_like", MitigationKind::Qprac, 3_000);
        let b = run_named("tpc/tpcc64_like", MitigationKind::Qprac, 3_000);
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
        assert_eq!(a.device, b.device);
    }

    #[test]
    fn proactive_reduces_alerts() {
        let plain = run_named("ycsb/d_like", MitigationKind::QpracNoOp, 8_000);
        let pro = run_named("ycsb/d_like", MitigationKind::QpracProactive, 8_000);
        assert!(
            pro.device.alerts <= plain.device.alerts,
            "proactive {} vs noop {}",
            pro.device.alerts,
            plain.device.alerts
        );
    }

    #[test]
    fn multi_channel_run_uses_every_channel() {
        let s = run_channels("ycsb/a_like", 2, 8_000);
        assert_eq!(s.channel_device.len(), 2);
        for (c, d) in s.channel_device.iter().enumerate() {
            assert!(d.acts > 0, "channel {c} never activated: {d:?}");
        }
        // The aggregate is exactly the sum of the per-channel views.
        let mut sum = DeviceStats::default();
        for d in &s.channel_device {
            sum.absorb(d);
        }
        assert_eq!(sum, s.device);
        // Both devices draw standby power for the whole run.
        let params = EnergyParams::default();
        assert!(
            (s.energy.background_nj - 2.0 * params.background_w * s.runtime_ns).abs() < 1e-6,
            "background energy must be charged per channel device: {:?}",
            s.energy
        );
    }

    #[test]
    fn more_channels_do_not_slow_a_memory_bound_run() {
        // Channel interleaving halves per-channel queue pressure; a
        // memory-bound workload must not get slower with more channels.
        let one = run_channels("ycsb/a_like", 1, 6_000);
        let four = run_channels("ycsb/a_like", 4, 6_000);
        assert!(
            four.cpu_cycles <= one.cpu_cycles,
            "4-channel run slower than 1-channel: {} vs {}",
            four.cpu_cycles,
            one.cpu_cycles
        );
    }

    #[test]
    fn heterogeneous_mlps_apply_per_core() {
        let cfg = SystemConfig::paper_default()
            .with_mitigation(MitigationKind::None)
            .with_instruction_limit(2_000);
        let specs = [
            "ycsb/chase_like",
            "spec06/lbm_like",
            "ycsb/a_like",
            "media/gsm_like",
        ];
        let traces: Vec<Box<dyn TraceSource>> = specs
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let spec = WorkloadSpec::by_name(name).unwrap();
                Box::new(spec.source(i as u64)) as Box<dyn TraceSource>
            })
            .collect();
        let mlps: Vec<usize> = specs
            .iter()
            .map(|name| WorkloadSpec::by_name(name).unwrap().params.mlp)
            .collect();
        let s = System::new_with_mlps(cfg, traces, &mlps).run();
        assert_eq!(s.core_ipc.len(), 4);
        // The pointer chaser (MLP=1) must be the slowest core by far.
        let chaser = s.core_ipc[0];
        assert!(
            s.core_ipc[1..].iter().all(|&ipc| ipc > chaser),
            "MLP=1 chaser should trail: {:?}",
            s.core_ipc
        );
    }
}
