//! The event-driven server core: a bounded `poll(2)` readiness loop
//! over nonblocking sockets.
//!
//! One reactor thread owns every connection as a small state machine
//! (read buffer → framed request → response buffer); the only other
//! threads are a **fixed** dispatch pool sized like the simulation
//! worker bound. Idle connections therefore cost a pollfd and two
//! buffers — no OS thread — so one shard sustains thousands of open
//! clients on a constant thread count (pinned by
//! `crates/serve/tests/cluster.rs`).
//!
//! Division of labor per request:
//!
//! - cheap verbs (`PING`/`METRICS`/`SHUTDOWN`) are
//!   answered inline on the reactor thread;
//! - `RUNB` is handed to the dispatch pool, which drives the three-tier
//!   [`resolve`] path (LRU → disk → semaphore-bounded single-flight
//!   simulation) and posts the response back through a [`WakePipe`].
//!
//! Requests on one connection are answered in order: one request is in
//! flight per connection at a time, and pipelined requests queue in the
//! connection's read buffer (bounded — a flooding peer hits TCP
//! backpressure, never unbounded memory).
//!
//! Armed chaos ([`crate::chaos`]) faults `RUNB` here, on the same loop:
//! a dropped `RUNB` closes its connection once earlier replies flush, a
//! delayed one waits in a deadline list that bounds the `poll` timeout
//! (nothing sleeps), and a truncated reply is cut to a strict prefix
//! before the hang-up. The leader kill happens inside [`resolve`].
//!
//! `SHUTDOWN` drains: accepting stops, in-flight (and deferred)
//! resolves complete, their responses flush, then the loop exits.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::chaos::Chaos;
use crate::poll::{poll_fds, PollFd, WakePipe, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::protocol::{parse_request, write_response, Request, Response, MAX_LINE};
use crate::server::{metrics_payload, resolve, Inner};

/// Read-buffer soft cap per connection: past this the reactor stops
/// reading (TCP backpressure) until the backlog drains, so a peer that
/// floods pipelined requests cannot balloon server memory.
const RBUF_SOFT_CAP: usize = 256 * 1024;

/// One queued `RUNB` resolve.
struct DispatchJob {
    slot: usize,
    gen: u64,
    key_text: String,
    t0: Instant,
}

/// A completed resolve, addressed back to its connection (dropped if
/// the fd was reused meanwhile — `gen` disambiguates).
struct DispatchDone {
    slot: usize,
    gen: u64,
    response: Response,
}

/// Reactor ↔ dispatch-pool plumbing.
struct DispatchShared {
    queue: Mutex<VecDeque<DispatchJob>>,
    available: Condvar,
    done: Mutex<Vec<DispatchDone>>,
    wake: WakePipe,
    stop: AtomicBool,
}

impl DispatchShared {
    fn submit(&self, job: DispatchJob) {
        self.queue.lock().unwrap().push_back(job);
        self.available.notify_one();
    }

    fn take_done(&self) -> Vec<DispatchDone> {
        std::mem::take(&mut *self.done.lock().unwrap())
    }
}

/// Dispatch-pool worker: resolve cells until told to stop.
fn dispatch_worker(inner: &Inner, shared: &DispatchShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        // resolve() already converts simulation panics into Err; the
        // outer guard is for the truly unexpected (e.g. a poisoned
        // cache mutex) so a worker never dies and strands the reactor.
        let response = match catch_unwind(AssertUnwindSafe(|| resolve(inner, &job.key_text))) {
            Ok(Ok(result)) => Response::OkBin(sim::codec::encode_cell(&result)),
            Ok(Err(reason)) => Response::Err(reason),
            Err(_) => Response::Err("simulation worker panicked".into()),
        };
        if matches!(response, Response::Err(_)) {
            inner.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        inner.hist.runb.record(job.t0.elapsed());
        shared.done.lock().unwrap().push(DispatchDone {
            slot: job.slot,
            gen: job.gen,
            response,
        });
        shared.wake.wake();
    }
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Generation stamp: a dispatch completion for an older tenant of
    /// this slot must not reach the new one.
    gen: u64,
    /// Bytes read but not yet consumed as request lines.
    rbuf: Vec<u8>,
    /// Serialized responses not yet written, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A `RUNB` is with the dispatch pool (or deferred); no further
    /// requests are parsed until it completes (per-connection ordering).
    busy: bool,
    /// Peer EOF seen (or a chaos hang-up): finish writing, then close.
    closing: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos >= self.wbuf.len()
    }

    fn push_response(&mut self, response: &Response) {
        // Writing into a Vec cannot fail.
        write_response(&mut self.wbuf, response).expect("vec write");
    }

    /// The truncation fault: queue a strict, non-empty prefix of
    /// `response`'s frame, then hang up once it flushes.
    fn push_truncated(&mut self, response: &Response) {
        let start = self.wbuf.len();
        self.push_response(response);
        let frame_len = self.wbuf.len() - start;
        self.wbuf.truncate(start + frame_len / 2);
        self.hang_up();
    }

    /// Stop reading (discarding unparsed requests) and close once the
    /// queued replies flush.
    fn hang_up(&mut self) {
        self.rbuf.clear();
        self.closing = true;
    }
}

/// The poll-readiness accept/serve loop. Returns after a `SHUTDOWN`
/// drain.
pub(crate) fn serve_event_driven(listener: TcpListener, inner: Arc<Inner>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let shared = Arc::new(DispatchShared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        done: Mutex::new(Vec::new()),
        wake: WakePipe::new()?,
        stop: AtomicBool::new(false),
    });
    let workers: Vec<_> = (0..inner.worker_count)
        .map(|i| {
            let inner = Arc::clone(&inner);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("qprac-dispatch-{i}"))
                .spawn(move || dispatch_worker(&inner, &shared))
                .expect("spawn dispatch worker")
        })
        .collect();

    let mut reactor = Reactor {
        inner,
        listener,
        shared: Arc::clone(&shared),
        conns: Vec::new(),
        free: Vec::new(),
        next_gen: 0,
        jobs_in_flight: 0,
        deferred: Vec::new(),
        accepting: true,
    };
    let outcome = reactor.run();

    shared.stop.store(true, Ordering::SeqCst);
    shared.available.notify_all();
    for w in workers {
        let _ = w.join();
    }
    outcome
}

struct Reactor {
    inner: Arc<Inner>,
    listener: TcpListener,
    shared: Arc<DispatchShared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Dispatched resolves not yet completed (deferred, queued or
    /// executing).
    jobs_in_flight: usize,
    /// Chaos-delayed resolves and the instant each may be dispatched.
    deferred: Vec<(Instant, DispatchJob)>,
    accepting: bool,
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut polled_slots: Vec<usize> = Vec::new();
        loop {
            if self.inner.shutting_down.load(Ordering::SeqCst) {
                self.accepting = false;
                let drained =
                    self.jobs_in_flight == 0 && self.conns.iter().flatten().all(|c| c.flushed());
                if drained {
                    return Ok(());
                }
            }

            fds.clear();
            polled_slots.clear();
            fds.push(PollFd::new(self.shared.wake.fd(), POLLIN));
            if self.accepting {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                let mut events = 0i16;
                if !c.busy && !c.closing && c.rbuf.len() < RBUF_SOFT_CAP {
                    events |= POLLIN;
                }
                if !c.flushed() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                polled_slots.push(slot);
            }

            poll_fds(&mut fds, self.poll_timeout_ms())?;

            self.release_deferred();
            if fds[0].returned(POLLIN) {
                self.shared.wake.drain();
            }
            for done in self.shared.take_done() {
                self.handle_done(done);
            }
            let conn_fds_start = if self.accepting {
                if fds[1].returned(POLLIN) {
                    self.accept_ready();
                }
                2
            } else {
                1
            };
            for (fd, &slot) in fds[conn_fds_start..].iter().zip(&polled_slots) {
                if fd.revents != 0 {
                    self.process_slot(slot, fd.revents);
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if !self.accepting {
                        continue; // raced a shutdown: hang up
                    }
                    if self.live_connections() >= self.inner.max_conns {
                        self.inner.rejected_conns.fetch_add(1, Ordering::Relaxed);
                        continue; // at capacity: hang up without a byte
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        gen: self.next_gen,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        busy: false,
                        closing: false,
                    };
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.inner
                        .connections
                        .store(self.live_connections(), Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (aborted handshake, fd
                // pressure) must not kill the daemon; retry next round.
                Err(_) => break,
            }
        }
    }

    fn live_connections(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    /// Milliseconds until the earliest deferred dispatch is due (rounded
    /// up, so the loop never spins before it), or -1 to wait forever.
    fn poll_timeout_ms(&self) -> i32 {
        let Some(due) = self.deferred.iter().map(|(due, _)| *due).min() else {
            return -1;
        };
        let wait = due.saturating_duration_since(Instant::now());
        wait.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
    }

    /// Hand every deferred resolve whose hold has elapsed to the pool.
    fn release_deferred(&mut self) {
        let now = Instant::now();
        for (_, job) in self.deferred.extract_if(.., |(due, _)| *due <= now) {
            self.shared.submit(job);
        }
    }

    fn handle_done(&mut self, done: DispatchDone) {
        self.jobs_in_flight -= 1;
        let stale = match self.conns[done.slot].as_mut() {
            Some(c) if c.gen == done.gen => {
                if self.inner.chaos.as_ref().is_some_and(Chaos::truncate_reply) {
                    c.push_truncated(&done.response);
                } else {
                    c.push_response(&done.response);
                }
                c.busy = false;
                false
            }
            // The requester is gone (hung up mid-resolve); the work is
            // not wasted — the result is already in the caches.
            _ => true,
        };
        if !stale {
            self.process_slot(done.slot, 0);
        }
    }

    /// Drive one connection through read → parse/dispatch → flush.
    fn process_slot(&mut self, slot: usize, revents: i16) {
        let Some(mut c) = self.conns[slot].take() else {
            return;
        };
        let keep = self.drive(&mut c, slot, revents);
        if keep {
            self.conns[slot] = Some(c);
        } else {
            self.free.push(slot);
            self.inner
                .connections
                .store(self.live_connections(), Ordering::Relaxed);
        }
    }

    fn drive(&mut self, c: &mut Conn, slot: usize, revents: i16) -> bool {
        if revents & (POLLERR | POLLNVAL) != 0 {
            return false;
        }
        if revents & (POLLIN | POLLHUP) != 0 && !c.busy && !c.closing && !read_some(c) {
            return false;
        }
        if !self.advance(c, slot) {
            return false;
        }
        if !flush_some(c) {
            return false;
        }
        // A closed peer with nothing pending: release the slot.
        !(c.closing && !c.busy && c.flushed())
    }

    /// Consume complete request lines until the connection goes busy or
    /// runs out of input. Returns false when the connection must close
    /// (oversized line / non-UTF-8 — the same conditions that error
    /// [`crate::protocol::read_line`]).
    fn advance(&mut self, c: &mut Conn, slot: usize) -> bool {
        while !c.busy {
            let window = c.rbuf.len().min(MAX_LINE as usize);
            let Some(nl) = c.rbuf[..window].iter().position(|&b| b == b'\n') else {
                // No complete line: fine mid-stream, fatal past the cap
                // or once the peer can never finish the line.
                return (c.rbuf.len() as u64) < MAX_LINE && (!c.closing || c.rbuf.is_empty());
            };
            let mut line: Vec<u8> = c.rbuf.drain(..=nl).collect();
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            let Ok(line) = String::from_utf8(line) else {
                return false;
            };
            let t0 = Instant::now();
            let inner = &self.inner;
            inner.counters.requests.fetch_add(1, Ordering::Relaxed);
            match parse_request(&line) {
                Ok(Request::Ping) => {
                    c.push_response(&Response::Ok {
                        kind: "text".into(),
                        payload: "pong".into(),
                    });
                    inner.hist.ping.record(t0.elapsed());
                }
                Ok(Request::Metrics) => {
                    c.push_response(&Response::Ok {
                        kind: "text".into(),
                        payload: metrics_payload(inner),
                    });
                    inner.hist.metrics.record(t0.elapsed());
                }
                Ok(Request::Shutdown) => {
                    inner.shutting_down.store(true, Ordering::SeqCst);
                    self.accepting = false;
                    c.push_response(&Response::Ok {
                        kind: "text".into(),
                        payload: "draining".into(),
                    });
                }
                Ok(Request::RunBin(key_text)) => {
                    if inner.chaos.as_ref().is_some_and(Chaos::drop_connection) {
                        c.hang_up();
                        return true;
                    }
                    self.dispatch(c, slot, key_text, t0);
                }
                Err(reason) => {
                    inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                    c.push_response(&Response::Err(reason));
                }
            }
        }
        true
    }

    fn dispatch(&mut self, c: &mut Conn, slot: usize, key_text: String, t0: Instant) {
        c.busy = true;
        self.jobs_in_flight += 1;
        let job = DispatchJob {
            slot,
            gen: c.gen,
            key_text,
            t0,
        };
        match self.inner.chaos.as_ref().and_then(Chaos::dispatch_delay) {
            Some(delay) => self.deferred.push((Instant::now() + delay, job)),
            None => self.shared.submit(job),
        }
    }
}

/// Nonblocking read into the connection buffer (bounded by
/// [`RBUF_SOFT_CAP`]). Returns false on a fatal transport error.
fn read_some(c: &mut Conn) -> bool {
    let mut buf = [0u8; 16 * 1024];
    while c.rbuf.len() < RBUF_SOFT_CAP {
        match (&c.stream).read(&mut buf) {
            Ok(0) => {
                c.closing = true;
                break;
            }
            Ok(n) => c.rbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// Nonblocking write of the pending response bytes. Returns false on a
/// fatal transport error (the peer is gone).
fn flush_some(c: &mut Conn) -> bool {
    while !c.flushed() {
        match (&c.stream).write(&c.wbuf[c.wpos..]) {
            Ok(0) => return false,
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    c.wbuf.clear();
    c.wpos = 0;
    true
}
