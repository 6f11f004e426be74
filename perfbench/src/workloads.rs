//! The four workloads: their populations, set-up, and one untraced
//! pass each, driven only through the program's public entry points
//! (`execute_with`, `CellExecutor`, `RunCache`, `Job::{key, run}`).
//!
//! All are closed loop: the pool has one worker per core, and a worker
//! takes its next cell only after the previous one returns.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use qprac_bench::experiments::{full_suite, perf_figs, run_all_specs};
use qprac_bench::harness::parallel;
use qprac_bench::RemoteExecutor;
use qprac_bench::{execute_with, CellExecutor, ExperimentSpec, Job, JobResult, LocalExecutor};
use qprac_serve::ShardMap;
use sim::{MitigationKind, RunCache, RunKey};

use crate::digest::{self, Digests};
use crate::host;
use crate::seed::{self, CANONICAL_SEED};
use crate::shards::Cluster;
use crate::stats::{median, tail, Tail, TAIL_BEYOND};
use crate::traced::{self, Remote};

/// Shards of the cluster workload (one per core of the reference
/// host).
pub const SHARDS: usize = 2;
/// Repetitions of a cheap set-up, at the start and before every pass
/// (the median over the run is reported).
pub const SETUP_REPS: usize = 11;

/// Recorded digests of the sweep population's CSVs.
const SWEEP_DIGESTS: &str = include_str!("../expected/sweep.digests");
/// Recorded digests of `abo_storm`'s `fig14.csv`/`fig15.csv` at the
/// canonical seed.
const ABO_DIGESTS: &str = include_str!("../expected/abo_storm.digests");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full `run_all` population, in-process, empty run cache.
    SweepCold,
    /// Same population resolved from a run cache filled in set-up.
    SweepWarm,
    /// Same population through `RemoteExecutor` to warm local shards.
    SweepClusterWarm,
    /// Fig 14/15 grid at a length where alerts fire, cache disabled.
    AboStorm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepCold,
        Workload::SweepWarm,
        Workload::SweepClusterWarm,
        Workload::AboStorm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::SweepClusterWarm => "sweep_cluster_warm",
            Workload::AboStorm => "abo_storm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instructions per core (`QPRAC_INSTR`): the sweep length, or the
    /// longer length at which ABO alerts fire.
    pub fn instr(self) -> u64 {
        match self {
            Workload::AboStorm => 50_000,
            _ => 10_000,
        }
    }

    /// Fewest passes a run makes: three, so each cell's median over the
    /// passes leaves out a pass in which the host slowed it (and a
    /// seeded `abo_storm` run checks that its passes produce the same
    /// digest).
    pub fn min_passes(self) -> usize {
        3
    }

    /// Whether the per-cell times come from `Job::run` inside the pass,
    /// the same cells in the same order every pass.
    pub fn cold(self) -> bool {
        matches!(self, Workload::SweepCold | Workload::AboStorm)
    }

    /// Whether the workload takes the seed. The sweep population is
    /// fixed: its cells go through a run cache or a shard, which key a
    /// workload by name only, so a seeded cell could be answered with
    /// a canonical result.
    pub fn seeded(self) -> bool {
        self == Workload::AboStorm
    }

    /// What the per-cell times measure.
    pub fn cell_timing(self) -> &'static str {
        match self {
            Workload::SweepCold | Workload::AboStorm => "Job::run per cell, in the pass",
            Workload::SweepWarm => "RunCache::load per unique cell, after each pass",
            Workload::SweepClusterWarm => {
                "shard round trip or local engine cell per unique cell, after each pass"
            }
        }
    }

    /// The cell population of one pass.
    pub fn population(self, seed: u64) -> Vec<ExperimentSpec> {
        match self {
            Workload::AboStorm => {
                vec![perf_figs::fig14_15_spec(&seed::seeded(&full_suite(), seed))]
            }
            _ => run_all_specs(),
        }
    }

    /// The recorded digests this workload's CSVs must match, when the
    /// inputs are canonical.
    pub fn expected(self, seed: u64) -> Option<Digests> {
        let text = match self {
            Workload::AboStorm if seed != CANONICAL_SEED => return None,
            Workload::AboStorm => ABO_DIGESTS,
            _ => SWEEP_DIGESTS,
        };
        Some(digest::parse(text).expect("recorded digests parse"))
    }

    /// The CSV files a pass's check covers.
    pub fn checks_file(self, name: &str) -> bool {
        match self {
            Workload::AboStorm => name == "fig14.csv" || name == "fig15.csv",
            _ => true,
        }
    }
}

/// The device alerts of a QPRAC-NoOp (`true`) or QPRAC (`false`)
/// workload cell; `None` for every other cell.
pub fn variant_alerts(job: &Job, r: &JobResult) -> Option<(bool, u64)> {
    let (Job::Workload { cfg, .. }, JobResult::Stats(s)) = (job, r) else {
        return None;
    };
    match cfg.mitigation {
        MitigationKind::QpracNoOp => Some((true, s.device.alerts)),
        MitigationKind::Qprac => Some((false, s.device.alerts)),
        _ => None,
    }
}

/// The local pool with every cell timed from outside, around
/// `Job::run`. Also sums the ABO alerts of the NoOp and QPRAC cells.
#[derive(Default)]
pub struct TimedLocal {
    /// Per-cell wall times of every cell run, in ms.
    pub cell_ms: Mutex<Vec<f64>>,
    /// Device alerts summed over QPRAC-NoOp cells.
    pub noop_alerts: AtomicU64,
    /// Device alerts summed over QPRAC cells.
    pub qprac_alerts: AtomicU64,
}

impl CellExecutor for TimedLocal {
    fn describe(&self) -> String {
        "local pool (cells timed)".into()
    }

    fn execute_cells(&self, cells: &[(&Job, RunKey)]) -> Vec<JobResult> {
        let times: Vec<AtomicU64> = cells.iter().map(|_| AtomicU64::new(0)).collect();
        let out = parallel(cells.len(), |i| {
            let t0 = Instant::now();
            let r = cells[i].0.run();
            times[i].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            match variant_alerts(cells[i].0, &r) {
                Some((true, a)) => self.noop_alerts.fetch_add(a, Ordering::Relaxed),
                Some((false, a)) => self.qprac_alerts.fetch_add(a, Ordering::Relaxed),
                None => 0,
            };
            r
        });
        self.cell_ms
            .lock()
            .expect("no pool worker panics while holding the lock")
            .extend(times.iter().map(|t| t.load(Ordering::Relaxed) as f64 / 1e6));
        out
    }
}

/// What one untraced pass measured and found.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Host wall time, s.
    pub wall_s: f64,
    /// User+system CPU of the benchmark process (plus the shards on the
    /// cluster workload), s.
    pub cpu_s: f64,
    /// Unique cells resolved.
    pub unique: usize,
    /// CSVs the pass wrote, and one digest over all of them.
    pub csvs: usize,
    pub digest: u64,
    /// Cells timed, and the median and tail of their resolve times, ms
    /// (see [`Workload::cell_timing`]). On the warm workloads only these
    /// summaries are kept, so the benchmark's own memory stays out of
    /// `peak_rss_mb`.
    pub cells_timed: usize,
    pub cell_p50_ms: f64,
    pub cell_tail: Option<Tail>,
    /// The cold workloads' per-cell times, ms, in the order the runner
    /// hands the cells to the pool (the same every pass).
    pub cell_ms: Vec<f64>,
    /// Remote retries and local fallbacks (cluster only).
    pub retries: u64,
    pub fallbacks: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
}

/// A workload after set-up, ready to run passes.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    work: PathBuf,
    pub results: PathBuf,
    /// The warm run cache (`sweep_warm` only).
    cache: RunCache,
    /// Running shards (`sweep_cluster_warm` only).
    pub cluster: Option<Cluster>,
    /// The warm workloads' population and its unique cells (spec index,
    /// job index, key), for the per-cell resolve phase.
    population: Vec<ExperimentSpec>,
    unique: Vec<(usize, usize, RunKey)>,
    /// Set-up times, s: one pre-fill, or every repetition of a cheap
    /// set-up.
    setup_samples: Vec<f64>,
    /// Digests every pass must reproduce: the recorded set, or for a
    /// seeded run the first pass's.
    reference: Option<Digests>,
    passes: usize,
}

/// Empty every CSV a previous pass left, so a pass that fails to
/// rewrite one cannot pass on stale output. Truncating in place keeps
/// the files, as rerunning into one results directory does; deleting
/// and recreating them every pass made warm pass times drift with
/// file-system state.
fn truncate_csvs(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().ends_with(".csv") {
                let _ = std::fs::OpenOptions::new()
                    .write(true)
                    .truncate(true)
                    .open(e.path());
            }
        }
    }
}

/// Key every cell and keep the first of each key, as the runner does
/// before any cell resolves: (spec index, job index, key).
fn unique_cells(specs: &[ExperimentSpec]) -> Vec<(usize, usize, RunKey)> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for (ji, job) in spec.jobs.iter().enumerate() {
            let key = job.key();
            if seen.insert(key.clone()) {
                out.push((si, ji, key));
            }
        }
    }
    out
}

/// Fill the run cache or warm the cluster named by `target` in a child
/// process (see [`prefill`]). The measured process then starts its
/// passes with a fresh heap, as a warm rerun of `run_all` does; doing
/// the cold pre-fill in-process left run-to-run differences in heap
/// layout that moved warm pass times by a third.
fn prefill_in_child(target: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--prefill", target])
        .status()
        .map_err(|e| format!("starting the pre-fill process: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("pre-fill process exited with {status}"))
    }
}

/// The pre-fill process: one cold pass of the sweep population through
/// `cache:<dir>` (a local run cache) or `shards:<list>` (a cluster).
/// Returns the process exit code.
pub fn prefill(target: &str) -> i32 {
    let specs = run_all_specs();
    let report = if let Some(dir) = target.strip_prefix("cache:") {
        guarded(|| execute_with(&specs, &LocalExecutor, &RunCache::at(dir), false))
    } else if let Some(list) = target.strip_prefix("shards:") {
        let exec = RemoteExecutor::new(list);
        guarded(|| execute_with(&specs, &exec, &RunCache::disabled(), false))
    } else {
        eprintln!("perfbench: bad pre-fill target {target:?}");
        return 2;
    };
    match report {
        Ok(r) if r.executed == r.unique && r.unique > 0 => 0,
        Ok(r) => {
            eprintln!(
                "perfbench: pre-fill resolved {} of {} cells",
                r.executed, r.unique
            );
            1
        }
        Err(e) => {
            eprintln!("perfbench: pre-fill failed: {e}");
            1
        }
    }
}

/// Run `f`, turning a panic into an error line (the default hook has
/// already printed it).
fn guarded<T>(f: impl FnOnce() -> std::io::Result<T>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("I/O error: {e}")),
        Err(_) => Err("pass panicked".into()),
    }
}

impl Prepared {
    /// Set the workload up: cache pre-fill, shard spawn and warm-up, or
    /// for the cold workloads the population build and key pass
    /// (repeated, median reported).
    pub fn setup(
        workload: Workload,
        seed: u64,
        work: &Path,
        results: &Path,
        serve_bin: &Path,
    ) -> Result<Prepared, String> {
        let seed = if workload.seeded() {
            seed
        } else {
            CANONICAL_SEED
        };
        let mut p = Prepared {
            workload,
            seed,
            work: work.to_path_buf(),
            results: results.to_path_buf(),
            cache: RunCache::disabled(),
            cluster: None,
            setup_samples: Vec::new(),
            population: Vec::new(),
            unique: Vec::new(),
            reference: workload.expected(seed),
            passes: 0,
        };
        if workload.cold() {
            p.repeat_setup();
            return Ok(p);
        }
        p.population = workload.population(seed);
        p.unique = unique_cells(&p.population);
        let t0 = Instant::now();
        truncate_csvs(results);
        if workload == Workload::SweepWarm {
            let dir = work.join("warm-cache");
            prefill_in_child(&format!("cache:{}", dir.display()))?;
            p.cache = RunCache::at(&dir);
        } else {
            let cluster = Cluster::spawn(serve_bin, SHARDS, work)
                .map_err(|e| format!("starting shards: {e}"))?;
            let shards = cluster.addrs().join(",");
            p.cluster = Some(cluster);
            prefill_in_child(&format!("shards:{shards}"))?;
        }
        host::flush_dirty_pages();
        p.setup_samples.push(t0.elapsed().as_secs_f64());
        let (_, problems) = p.finish_pass(None);
        if !problems.is_empty() {
            return Err(format!("set-up pass output: {}", problems.join("; ")));
        }
        Ok(p)
    }

    /// The shard addresses as a comma-separated list (empty without a
    /// cluster).
    pub fn shard_list(&self) -> String {
        self.cluster
            .as_ref()
            .map(|c| c.addrs().join(","))
            .unwrap_or_default()
    }

    /// Start a pass: empty the previous pass's CSVs, repeat the cheap
    /// set-up (so its median spans the whole run), flush what earlier
    /// passes wrote, and return the run cache this pass reads. A cold pass gets a fresh empty cache
    /// directory; the directories stay until the work directory is
    /// removed, so no deletion runs between passes.
    pub fn begin_pass(&mut self) -> RunCache {
        truncate_csvs(&self.results);
        self.repeat_setup();
        host::flush_dirty_pages();
        match self.workload {
            Workload::SweepCold => {
                RunCache::at(self.work.join(format!("cold-cache-{}", self.passes)))
            }
            Workload::SweepWarm => self.cache.clone(),
            _ => RunCache::disabled(),
        }
    }

    /// The cold workloads' set-up: build and key the population,
    /// `SETUP_REPS` times.
    fn repeat_setup(&mut self) {
        let w = self.workload;
        if !w.cold() {
            return;
        }
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let unique = unique_cells(&w.population(self.seed));
            assert!(!unique.is_empty(), "population has cells");
            self.setup_samples.push(t0.elapsed().as_secs_f64());
        }
    }

    /// Set-up time, s: the pre-fill, or the median of every cheap
    /// set-up repetition so far.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples)
    }

    /// Checks common to traced and untraced passes, run after the pass:
    /// the CSV digests, and ABO alerts on `abo_storm`. Returns the
    /// digests and the problems found.
    pub fn finish_pass(&mut self, alerts: Option<(u64, u64)>) -> (Digests, Vec<String>) {
        self.passes += 1;
        let w = self.workload;
        let digests = match digest::digest_dir(&self.results, |n| w.checks_file(n)) {
            Ok(d) => d,
            Err(e) => return (Digests::new(), vec![format!("reading CSVs: {e}")]),
        };
        let mut problems = match &self.reference {
            Some(want) => digest::diff(want, &digests),
            None => {
                // A seeded run: the first pass's output is the reference
                // every later pass must reproduce.
                self.reference = Some(digests.clone());
                Vec::new()
            }
        };
        if digests.is_empty() {
            problems.push("the pass wrote no CSV".into());
        }
        if let Some((noop, qprac)) = alerts {
            if noop == 0 || qprac == 0 {
                problems.push(format!(
                    "ABO alerts did not fire (NoOp {noop}, QPRAC {qprac}): the run is too short to be the ABO workload"
                ));
            }
        }
        (digests, problems)
    }

    /// One untraced pass through the program's own path.
    pub fn run_pass(&mut self) -> PassResult {
        let cache = self.begin_pass();
        let shard_pids = self.cluster.as_ref().map(|c| c.pids()).unwrap_or_default();
        let shard_cpu = || shard_pids.iter().map(|&p| host::pid_cpu_s(p)).sum::<f64>();
        let timed = TimedLocal::default();
        let remote = RemoteExecutor::new(&self.shard_list());
        let (w, seed) = (self.workload, self.seed);

        let cpu0 = host::process_cpu_s() + shard_cpu();
        let t0 = Instant::now();
        let outcome = guarded(|| {
            let specs = w.population(seed);
            match w {
                Workload::SweepCold | Workload::AboStorm => {
                    execute_with(&specs, &timed, &cache, false)
                }
                Workload::SweepWarm => execute_with(&specs, &LocalExecutor, &cache, false),
                Workload::SweepClusterWarm => execute_with(&specs, &remote, &cache, false),
            }
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() + shard_cpu() - cpu0;

        let mut r = PassResult {
            wall_s,
            cpu_s,
            ..PassResult::default()
        };
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                r.problems.push(e);
                return r;
            }
        };
        r.unique = report.unique;
        let mut cell_ms = std::mem::take(&mut *timed.cell_ms.lock().expect("pool finished"));
        let faults = remote.fault_stats();
        r.retries = faults.retries.load(Ordering::Relaxed);
        r.fallbacks = faults.local_fallbacks.load(Ordering::Relaxed);
        let want_hits = if w == Workload::SweepWarm {
            report.unique
        } else {
            0
        };
        if report.cache_hits != want_hits {
            r.problems.push(format!(
                "run cache answered {} of {} cells, expected {want_hits}",
                report.cache_hits, report.unique
            ));
        }
        let alerts = (w == Workload::AboStorm).then(|| {
            (
                timed.noop_alerts.load(Ordering::Relaxed),
                timed.qprac_alerts.load(Ordering::Relaxed),
            )
        });
        let (digests, problems) = self.finish_pass(alerts);
        (r.csvs, r.digest) = (digests.len(), digest::combined(&digests));
        r.problems.extend(problems);
        if matches!(w, Workload::SweepWarm | Workload::SweepClusterWarm) {
            cell_ms = self.resolve_phase(&mut r.problems);
        }
        r.cells_timed = cell_ms.len();
        r.cell_p50_ms = median(&cell_ms);
        r.cell_tail = tail(&cell_ms, TAIL_BEYOND);
        if w.cold() {
            r.cell_ms = cell_ms;
        }
        r
    }

    /// Per-cell resolve times on a warm workload, ms. Inside a pass the
    /// cells resolve within `execute_with`, out of reach of an outside
    /// timer, so after each pass every unique cell is resolved once more
    /// through the same layer: a `RunCache::load` on the main thread
    /// (as the runner does), or on the cluster the closed-loop pool
    /// sending each cell to its shard and running engine cells locally.
    fn resolve_phase(&self, problems: &mut Vec<String>) -> Vec<f64> {
        if self.workload == Workload::SweepWarm {
            return self
                .unique
                .iter()
                .map(|(_, _, key)| {
                    let t0 = Instant::now();
                    let hit = self.cache.load(key).is_some();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    if !hit {
                        problems.push(format!("run cache missed {key}"));
                    }
                    ms
                })
                .collect();
        }
        let map = ShardMap::from_list(&self.shard_list());
        let remote = Remote {
            map: &map,
            timeout: qprac_serve::timeout_from_env(),
        };
        let cells: Vec<(&Job, RunKey, u64)> = self
            .unique
            .iter()
            .enumerate()
            .map(|(id, (si, ji, key))| (&self.population[*si].jobs[*ji], key.clone(), id as u64))
            .collect();
        let failed = Mutex::new(Vec::new());
        let (_, traces) = traced::pool(&cells, Some(&remote), Instant::now(), &failed);
        problems.extend(failed.into_inner().expect("pool finished"));
        traces
            .iter()
            .flat_map(|t| t.spans())
            .filter(|s| s.name == "cell")
            .map(|s| s.dur() as f64 / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn only_abo_storm_takes_the_seed() {
        assert!(Workload::AboStorm.seeded());
        assert!(!Workload::SweepWarm.seeded());
        assert!(Workload::AboStorm.expected(3).is_none());
        assert!(Workload::AboStorm.expected(CANONICAL_SEED).is_some());
        assert!(Workload::SweepCold.expected(3).is_some());
    }

    #[test]
    fn populations_have_the_documented_sizes() {
        // QPRAC_INSTR only changes cell lengths, not the population.
        let sizes = |specs: &[ExperimentSpec]| {
            let cells: usize = specs.iter().map(|s| s.jobs.len()).sum();
            (cells, unique_cells(specs).len())
        };
        assert_eq!(sizes(&Workload::SweepCold.population(0)), (2779, 1468));
        assert_eq!(sizes(&Workload::AboStorm.population(5)), (342, 342));
    }
}
