//! The `qprac-serve` daemon: a std-only TCP service that resolves
//! simulation cells by canonical [`RunKey`] text.
//!
//! Every `RUNB <key>` request walks a three-tier path:
//!
//! 1. **Memory** — an entry-capped LRU of `Arc`-shared results;
//! 2. **Disk** — the persistent [`sim::RunCache`] (same files, same
//!    format as the bench runner's `QPRAC_RUN_CACHE`, so a warm bench
//!    cache can seed a server and vice versa);
//! 3. **Simulation** — the cell executes on a bounded worker budget
//!    (a counting semaphore sized like the bench pool), wrapped in
//!    single-flight coalescing so N concurrent requests for the same
//!    key trigger exactly one run.
//!
//! One serve loop drives that resolve path: the event-driven
//! poll-readiness core ([`crate::reactor`]), one event loop plus a
//! fixed dispatch pool, so thousands of idle connections cost buffers,
//! not OS threads. It needs `poll(2)`, so the server is unix-only. The
//! semaphore is what actually bounds simulation parallelism, so a
//! thousand clients asking for twelve distinct cells produce at most
//! `workers` concurrent simulations and zero duplicates.

use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sim::{CellResult, RunCache, RunKey};

use crate::chaos::{Chaos, ChaosSpec};
use crate::histogram::VerbHistograms;
use crate::memcache::LruCache;
use crate::singleflight::Group;

/// Default listen address of the daemon.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7117";
/// Default in-memory LRU capacity (entries).
pub const DEFAULT_LRU_ENTRIES: usize = 4096;
/// Default concurrent-connection ceiling (`QPRAC_SERVE_MAX_CONNS`).
pub const DEFAULT_MAX_CONNS: usize = 4096;
/// Disk-cache GC cadence: a sweep every this many stores.
const GC_EVERY_STORES: u64 = 32;

/// Server tuning, independent of process environment so tests and
/// embedders configure it explicitly.
#[derive(Debug)]
pub struct ServerConfig {
    /// In-memory LRU capacity in entries (0 disables the tier).
    pub lru_entries: usize,
    /// Maximum concurrent simulations (the worker-pool bound).
    pub workers: usize,
    /// Persistent disk tier (use [`RunCache::disabled`] for none).
    pub disk: RunCache,
    /// Deterministic fault injection (`QPRAC_CHAOS`); `None` = off.
    pub chaos: Option<ChaosSpec>,
    /// Concurrent-connection ceiling: past it, new connections are
    /// refused at accept (hang-up, no bytes) and counted.
    pub max_conns: usize,
}

impl ServerConfig {
    /// Environment-driven configuration: `QPRAC_SERVE_LRU`,
    /// `QPRAC_JOBS` (same knob as the bench pool; 0/unset = machine
    /// parallelism), `QPRAC_RUN_CACHE`/`QPRAC_RUN_CACHE_MAX_MB`,
    /// `QPRAC_CHAOS` (seeded fault injection, tests/CI only),
    /// and `QPRAC_SERVE_MAX_CONNS` (connection ceiling).
    pub fn from_env() -> Self {
        let available = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(8);
        let jobs = sim::env_usize("QPRAC_JOBS", 0);
        ServerConfig {
            lru_entries: sim::env_usize("QPRAC_SERVE_LRU", DEFAULT_LRU_ENTRIES),
            workers: if jobs == 0 {
                available
            } else {
                jobs.min(available)
            },
            disk: RunCache::from_env(),
            chaos: ChaosSpec::from_env(),
            max_conns: sim::env_usize("QPRAC_SERVE_MAX_CONNS", DEFAULT_MAX_CONNS),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            lru_entries: DEFAULT_LRU_ENTRIES,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(8),
            disk: RunCache::disabled(),
            chaos: None,
            max_conns: DEFAULT_MAX_CONNS,
        }
    }
}

/// Monotonic service counters, exported by the `METRICS` request.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests received (all verbs).
    pub requests: AtomicU64,
    /// `RUNB`s answered from the in-memory LRU.
    pub mem_hits: AtomicU64,
    /// `RUNB`s answered from the persistent disk cache.
    pub disk_hits: AtomicU64,
    /// Cells actually simulated.
    pub simulated: AtomicU64,
    /// `RUNB`s coalesced onto another request's in-flight simulation.
    pub coalesced: AtomicU64,
    /// Requests answered with `ERR`.
    pub errors: AtomicU64,
    /// `RUNB`s naming a mitigation this build does not register — the
    /// forward-compatibility signal that a newer peer is in the fleet
    /// (a subset of `errors`, counted separately so operators can tell
    /// version skew from garbage input).
    pub unknown_mitigation: AtomicU64,
}

/// A bound, not-yet-serving server. [`Server::serve`] blocks the
/// calling thread; [`Server::spawn`] detaches it (tests, examples).
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

pub(crate) struct Inner {
    lru: Mutex<LruCache<RunKey, Arc<CellResult>>>,
    disk: RunCache,
    flights: Group<RunKey, Result<Arc<CellResult>, String>>,
    workers: Semaphore,
    pub(crate) worker_count: usize,
    pub(crate) counters: Counters,
    stores: AtomicU64,
    pub(crate) chaos: Option<Chaos>,
    start: Instant,
    /// Set by `SHUTDOWN`: stop accepting, drain, exit [`Server::serve`].
    pub(crate) shutting_down: AtomicBool,
    /// `RUNB` requests currently being resolved (queue depth on
    /// top of the worker bound; what `SHUTDOWN` drains).
    active: AtomicUsize,
    /// Per-verb latency histograms (exported by `METRICS`).
    pub(crate) hist: VerbHistograms,
    /// Concurrent-connection ceiling, enforced at accept.
    pub(crate) max_conns: usize,
    /// Currently open connections (the `qprac_connections` gauge).
    pub(crate) connections: AtomicUsize,
    /// Connections refused at the [`Self::max_conns`] ceiling.
    pub(crate) rejected_conns: AtomicU64,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7117`, or `127.0.0.1:0` for an
    /// ephemeral test port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                lru: Mutex::new(LruCache::new(config.lru_entries)),
                disk: config.disk,
                flights: Group::new(Err("simulation worker panicked".into())),
                workers: Semaphore::new(config.workers.max(1)),
                worker_count: config.workers.max(1),
                counters: Counters::default(),
                stores: AtomicU64::new(0),
                chaos: config.chaos.map(Chaos::new),
                start: Instant::now(),
                shutting_down: AtomicBool::new(false),
                active: AtomicUsize::new(0),
                hist: VerbHistograms::default(),
                max_conns: config.max_conns.max(1),
                connections: AtomicUsize::new(0),
                rejected_conns: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `SHUTDOWN` request. Teardown is graceful:
    /// accepting stops, in-flight resolves drain, then the call
    /// returns `Ok` — so the daemon can exit cleanly instead of being
    /// killed mid-simulation.
    ///
    /// This runs the event-driven poll-readiness core
    /// ([`crate::reactor`]): one event-loop thread plus a fixed
    /// dispatch pool, so idle connections cost buffers, not OS
    /// threads. Without `poll(2)` (non-unix targets) it fails with
    /// [`io::ErrorKind::Unsupported`].
    pub fn serve(self) -> io::Result<()> {
        #[cfg(unix)]
        return crate::reactor::serve_event_driven(self.listener, self.inner);
        #[cfg(not(unix))]
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "qprac-serve needs poll(2), which only unix targets provide",
        ))
    }

    /// Start serving on a detached background thread and return the
    /// bound address. The listener lives until process exit — meant for
    /// tests, examples and embedders, not for the daemon binary.
    pub fn spawn(self) -> io::Result<std::net::SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::spawn(move || {
            let _ = self.serve();
        });
        Ok(addr)
    }
}

/// The `METRICS` payload: every counter, gauge and histogram the
/// server keeps, frozen into an [`qprac_obs::Snapshot`] and rendered in
/// Prometheus text exposition format.
pub(crate) fn metrics_payload(inner: &Inner) -> String {
    metrics_snapshot(inner).render_prometheus()
}

/// The server's exported state as a mergeable snapshot.
pub(crate) fn metrics_snapshot(inner: &Inner) -> qprac_obs::Snapshot {
    let c = &inner.counters;
    let mut snap = qprac_obs::Snapshot::default();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    for (name, value) in [
        ("qprac_requests_total", load(&c.requests)),
        // Cell resolves only (RUNB): what a load test can account for
        // exactly, scrape-to-scrape.
        ("qprac_run_requests_total", inner.hist.runb.count()),
        ("qprac_mem_hits_total", load(&c.mem_hits)),
        ("qprac_disk_hits_total", load(&c.disk_hits)),
        ("qprac_simulated_total", load(&c.simulated)),
        ("qprac_coalesced_total", load(&c.coalesced)),
        ("qprac_errors_total", load(&c.errors)),
        (
            "qprac_unknown_mitigation_total",
            load(&c.unknown_mitigation),
        ),
        ("qprac_store_errors_total", inner.disk.failed_stores()),
        ("qprac_rejected_conns_total", load(&inner.rejected_conns)),
    ] {
        snap.counters.insert(name.to_string(), value);
    }
    // Fired-fault counters exist only while chaos is armed, so a quiet
    // server's exposition carries no `qprac_chaos_*` names at all.
    if let Some(chaos) = &inner.chaos {
        for (name, value) in [
            ("qprac_chaos_dropped_total", load(&chaos.dropped)),
            ("qprac_chaos_delayed_total", load(&chaos.delayed)),
            ("qprac_chaos_truncated_total", load(&chaos.truncated)),
            ("qprac_chaos_killed_total", load(&chaos.killed)),
        ] {
            snap.counters.insert(name.to_string(), value);
        }
    }
    let active = inner.active.load(Ordering::SeqCst);
    for (name, value) in [
        (
            "qprac_connections",
            inner.connections.load(Ordering::SeqCst) as i64,
        ),
        ("qprac_in_flight", inner.flights.in_flight() as i64),
        ("qprac_active", active as i64),
        (
            "qprac_queue_depth",
            active.saturating_sub(inner.worker_count) as i64,
        ),
        ("qprac_workers", inner.worker_count as i64),
        ("qprac_max_conns", inner.max_conns as i64),
        ("qprac_uptime_ms", inner.start.elapsed().as_millis() as i64),
        (
            "qprac_draining",
            inner.shutting_down.load(Ordering::SeqCst) as i64,
        ),
    ] {
        snap.gauges.insert(name.to_string(), value);
    }
    for (verb, hist) in inner.hist.verbs() {
        snap.hists
            .insert(format!("qprac_lat_{verb}_us"), hist.snapshot());
    }
    snap
}

/// Panic-safe tally of resolves in progress ([`Inner::active`]): the
/// chaos leader-kill unwinds straight through `resolve`, and a stuck
/// counter would report phantom load in `METRICS` forever.
struct ActiveGuard<'a>(&'a AtomicUsize);

impl<'a> ActiveGuard<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(count)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The three-tier resolve: memory, disk, then single-flight simulate.
/// Called from the reactor's dispatch pool.
pub(crate) fn resolve(inner: &Inner, key_text: &str) -> Result<Arc<CellResult>, String> {
    let _active = ActiveGuard::enter(&inner.active);
    let spec = RunKey::parse_text(key_text).map_err(|e| {
        // Version-skew signal: a newer peer minted a key for a design
        // this build does not register. Counted (METRICS) and answered
        // with a clean ERR the client treats as authoritative.
        if matches!(e, sim::KeyError::UnknownMitigation(_)) {
            inner
                .counters
                .unknown_mitigation
                .fetch_add(1, Ordering::Relaxed);
        }
        e.to_string()
    })?;
    let key = spec.key();
    if let Some(hit) = inner.lru.lock().unwrap().get(&key) {
        inner.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(hit);
    }
    if let Some(hit) = inner.disk.load(&key) {
        inner.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
        let hit = Arc::new(hit);
        inner.lru.lock().unwrap().insert(key, Arc::clone(&hit));
        return Ok(hit);
    }
    let (result, led) = inner.flights.run(&key, || {
        // Re-check the caches inside the flight: a previous flight for
        // this key may have published between our miss above and this
        // registration (the group only collapses concurrent work).
        if let Some(hit) = inner.lru.lock().unwrap().get(&key) {
            inner.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        if let Some(hit) = inner.disk.load(&key) {
            inner.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(hit));
        }
        let _permit = inner.workers.acquire();
        if let Some(chaos) = &inner.chaos {
            // The leader-death fault: panic OUTSIDE the catch_unwind
            // below, so the unwind escapes the flight closure and the
            // single-flight guard must publish its poison value to the
            // followers (the property the chaos suite pins).
            chaos.kill_leader();
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| spec.execute()))
            .map_err(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                format!("simulation panicked: {msg}")
            })?
            .map_err(|e| format!("cannot execute cell: {e}"))?;
        inner.counters.simulated.fetch_add(1, Ordering::Relaxed);
        let result = Arc::new(outcome);
        if let Err(e) = inner.disk.store(&key, &result) {
            // Counted by the cache (`qprac_store_errors_total`); the result
            // itself still flows to the caller and the memory tier.
            qprac_obs::warn!("qprac-serve: disk-cache store failed: {e}");
        }
        if inner
            .stores
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(GC_EVERY_STORES)
        {
            inner.disk.gc();
        }
        inner
            .lru
            .lock()
            .unwrap()
            .insert(key.clone(), Arc::clone(&result));
        Ok(result)
    });
    if !led {
        inner.counters.coalesced.fetch_add(1, Ordering::Relaxed);
    }
    result
}

/// Counting semaphore bounding concurrent simulations (std has no
/// stable `Semaphore`; a mutex + condvar is all the server needs).
struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.freed.wait(permits).unwrap();
        }
        *permits -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.permits.lock().unwrap() += 1;
        self.0.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semaphore_bounds_concurrency() {
        let sem = Semaphore::new(2);
        let peak = AtomicU64::new(0);
        let current = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _p = sem.acquire();
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    current.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "semaphore leaked permits");
    }

    #[test]
    fn counters_render_all_fields() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let c = &server.inner.counters;
        for (i, counter) in [
            &c.requests,
            &c.mem_hits,
            &c.disk_hits,
            &c.simulated,
            &c.coalesced,
            &c.errors,
            &c.unknown_mitigation,
        ]
        .into_iter()
        .enumerate()
        {
            counter.store(10 + i as u64, Ordering::Relaxed);
        }
        let snap = metrics_snapshot(&server.inner);
        for (i, name) in [
            "qprac_requests_total",
            "qprac_mem_hits_total",
            "qprac_disk_hits_total",
            "qprac_simulated_total",
            "qprac_coalesced_total",
            "qprac_errors_total",
            "qprac_unknown_mitigation_total",
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(snap.counters.get(name), Some(&(10 + i as u64)), "{name}");
        }
        for name in ["qprac_store_errors_total", "qprac_run_requests_total"] {
            assert_eq!(snap.counters.get(name), Some(&0), "{name}");
        }
        assert_eq!(snap.gauges.get("qprac_in_flight"), Some(&0));
    }
}
