//! The traced pass: the runner's pipeline replayed through the same
//! public calls (`Job::key`, `RunCache::load/store`, `Job::run`,
//! `qprac_serve::Client::run`, the spec emitters), with one span
//! around every call into a layer.
//!
//! The replay follows `execute_with` step by step: key every cell and
//! dedupe, probe the run cache, resolve the misses on a closed-loop
//! pool of one worker per core, store, emit. The remote path uses a
//! per-worker `Client` per shard routed by the same `ShardMap`, which
//! is `RemoteExecutor`'s fault-free path. After the pass, outside its
//! span, a codec probe times `encode_cell`/`decode_cell` on every
//! resolved cell: inside the pass the codec runs within
//! `RunCache::load` and the client, where it cannot be timed from
//! outside.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qprac_bench::{ExperimentSpec, Job, JobResult, ResultSet};
use qprac_serve::{Client, ShardMap};
use sim::{RunCache, RunKey};

use crate::model::Modelled;
use crate::spans::ThreadTrace;
use crate::workloads::variant_alerts;

/// Span names, each tied to the layer it times.
pub const LAYERS: [(&str, &str); 17] = [
    ("pass", "bench.runner: scheduler glue (dedupe, result map)"),
    ("runner.specs", "bench.runner: spec construction"),
    ("runner.key", "bench.runner: Job::key"),
    ("runner.emit", "bench.runner: spec emitters"),
    ("runcache.load", "sim.runcache: RunCache::load"),
    ("runcache.store", "sim.runcache: RunCache::store + gc"),
    ("pool.wait", "main thread waiting for the pool"),
    ("worker", "pool worker: dispatch and idle"),
    ("cell", "per-cell dispatch in the benchmark"),
    ("sim.workload", "sim.system: run_workload"),
    ("sim.mix", "sim.system: run_mix"),
    ("sim.attack", "sim.system: run_bandwidth_attack"),
    ("attack-engine", "attack-engine: Job::Engine cells"),
    ("serve", "serve: Client::run round trip"),
    ("codec", "sim.codec probe loop (outside the pass)"),
    ("codec.encode", "sim.codec: encode_cell (probe)"),
    ("codec.decode", "sim.codec: decode_cell (probe)"),
];

/// Everything one traced pass recorded.
pub struct TracedPass {
    /// Main thread first, then the pool workers.
    pub threads: Vec<ThreadTrace>,
    /// Wall time of the `pass` span, s.
    pub wall_s: f64,
    /// Requested cells (with duplicates) and unique cells.
    pub cells: usize,
    pub unique: usize,
    /// Unique cells the run cache answered.
    pub hits: usize,
    /// Modelled work of every resolved cell, and of the cells this
    /// process simulated (the `sim.host_ns_per_*` denominators).
    pub modelled: Modelled,
    pub simulated: Modelled,
    /// Encoded bytes of every resolved cell (codec probe).
    pub codec_bytes: u64,
    /// ABO alerts of the QPRAC-NoOp and QPRAC cells.
    pub alerts: (u64, u64),
    /// Failed checks.
    pub problems: Vec<String>,
}

impl TracedPass {
    /// Summed duration (ns) and count of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.threads
            .iter()
            .flat_map(|t| t.spans())
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, n), s| (d + s.dur(), n + 1))
    }

    /// Durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|t| t.spans())
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    }
}

/// Remote routing for the cluster workload.
pub struct Remote<'a> {
    pub map: &'a ShardMap,
    pub timeout: Duration,
}

fn sim_span(job: &Job) -> &'static str {
    match job {
        Job::Workload { .. } => "sim.workload",
        Job::Mix { .. } => "sim.mix",
        Job::Attack { .. } => "sim.attack",
        Job::Engine { .. } => "attack-engine",
    }
}

/// Resolve one cell inside a worker: engine cells and local cells run
/// here; with a cluster, other cells go to their shard.
fn resolve(
    t: &mut ThreadTrace,
    id: u64,
    job: &Job,
    key: &RunKey,
    remote: Option<&Remote>,
    clients: &mut HashMap<usize, Client>,
) -> Result<JobResult, String> {
    match remote {
        Some(r) if !matches!(job, Job::Engine { .. }) => t.span("serve", Some(id), |_| {
            let idx = r.map.shard_for(key);
            let client = match clients.entry(idx) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => e.insert(
                    Client::connect_timeout(r.map.shards()[idx].as_str(), r.timeout)
                        .map_err(|e| format!("connect to shard {idx}: {e}"))?,
                ),
            };
            client
                .run(key)
                .map_err(|e| format!("shard {idx} on {key}: {e}"))
        }),
        _ => Ok(t.span(sim_span(job), Some(id), |_| job.run())),
    }
}

/// The closed-loop pool: one worker per core, each taking the next cell
/// when the previous one returns. Returns results in cell order and the
/// workers' traces.
pub fn pool(
    cells: &[(&Job, RunKey, u64)],
    remote: Option<&Remote>,
    epoch: Instant,
    problems: &Mutex<Vec<String>>,
) -> (Vec<JobResult>, Vec<ThreadTrace>) {
    let width = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(cells.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let traces = std::thread::scope(|s| {
        let handles: Vec<_> = (0..width)
            .map(|w| {
                let (next, slots) = (&next, &slots);
                s.spawn(move || {
                    let mut t = ThreadTrace::new(format!("worker-{w}"), epoch);
                    let mut clients = HashMap::new();
                    t.span("worker", None, |t| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((job, key, id)) = cells.get(i) else {
                            break;
                        };
                        let r = t.span("cell", Some(*id), |t| {
                            resolve(t, *id, job, key, remote, &mut clients)
                        });
                        let r = r.unwrap_or_else(|e| {
                            problems
                                .lock()
                                .expect("no panics while holding the lock")
                                .push(e);
                            job.run()
                        });
                        *slots[i].lock().expect("each slot written once") = Some(r);
                    });
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect::<Vec<_>>()
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool finished")
                .expect("every cell resolved")
        })
        .collect();
    (results, traces)
}

/// One traced pass over `specs`.
pub fn run(
    specs_fn: impl FnOnce() -> Vec<ExperimentSpec>,
    cache: &RunCache,
    remote: Option<&Remote>,
    epoch: Instant,
) -> TracedPass {
    let mut main = ThreadTrace::new("main", epoch);
    let problems = Mutex::new(Vec::new());
    let mut workers = Vec::new();
    let mut results: HashMap<RunKey, JobResult> = HashMap::new();
    let mut simulated = Modelled::default();
    let mut alerts = (0u64, 0u64);
    let (mut cells, mut unique_n, mut hits) = (0, 0, 0);

    main.span("pass", None, |t| {
        let specs = t.span("runner.specs", None, |_| specs_fn());
        let mut seen: HashSet<RunKey> = HashSet::new();
        let mut unique: Vec<(&Job, RunKey)> = Vec::new();
        for job in specs.iter().flat_map(|s| &s.jobs) {
            cells += 1;
            let key = t.span("runner.key", None, |_| job.key());
            if seen.insert(key.clone()) {
                unique.push((job, key));
            }
        }
        unique_n = unique.len();
        let mut to_run = Vec::new();
        for (id, (job, key)) in unique.into_iter().enumerate() {
            match t.span("runcache.load", Some(id as u64), |_| cache.load(&key)) {
                Some(r) => {
                    results.insert(key, r);
                }
                None => to_run.push((job, key, id as u64)),
            }
        }
        hits = unique_n - to_run.len();
        let (outs, traces) = t.span("pool.wait", None, |_| {
            pool(&to_run, remote, epoch, &problems)
        });
        workers = traces;
        for ((job, key, id), out) in to_run.into_iter().zip(outs) {
            if !matches!(job, Job::Engine { .. }) && remote.is_none() {
                simulated.add(&out);
            }
            match variant_alerts(job, &out) {
                Some((true, a)) => alerts.0 += a,
                Some((false, a)) => alerts.1 += a,
                None => {}
            }
            if let Err(e) = t.span("runcache.store", Some(id), |_| cache.store(&key, &out)) {
                problems
                    .lock()
                    .expect("pool finished")
                    .push(format!("store {key}: {e}"));
            }
            results.insert(key, out);
        }
        t.span("runcache.store", None, |_| cache.gc());
        let set = ResultSet::new(&results);
        for spec in &specs {
            if let Err(e) = t.span("runner.emit", None, |_| (spec.emit)(&set)) {
                problems
                    .lock()
                    .expect("pool finished")
                    .push(format!("emit {}: {e}", spec.name));
            }
        }
    });
    let wall_s = main.spans()[0].dur() as f64 / 1e9;

    // The codec probe, outside the pass span.
    let mut codec_bytes = 0u64;
    let mut modelled = Modelled::default();
    main.span("codec", None, |t| {
        for (key, r) in &results {
            let bytes = t.span("codec.encode", None, |_| sim::encode_cell(r));
            codec_bytes += bytes.len() as u64;
            match t.span("codec.decode", None, |_| sim::decode_cell(&bytes)) {
                Ok(back) if &back == r => {}
                _ => problems
                    .lock()
                    .expect("pool finished")
                    .push(format!("codec round trip changed {key}")),
            }
        }
    });
    for r in results.values() {
        modelled.add(r);
    }
    let mut threads = vec![main];
    threads.extend(workers);
    TracedPass {
        threads,
        wall_s,
        cells,
        unique: unique_n,
        hits,
        modelled,
        simulated,
        codec_bytes,
        alerts,
        problems: problems.into_inner().expect("pool finished"),
    }
}
