//! A std-only, vendored-deps-compliant `poll(2)` wrapper for the
//! event-driven server core.
//!
//! The workspace's dependency rule (everything offline, everything
//! vendored) leaves no room for `libc`/`mio`; what it does leave is the
//! C ABI that every unix target already links. This module declares the
//! two syscall wrappers the reactor needs — `poll(2)` for readiness and
//! `setrlimit(2)` to lift the open-file ceiling for connection-count
//! tests — plus a [`WakePipe`] (a nonblocking socketpair) so worker
//! threads can interrupt a blocked `poll` from the outside.
//!
//! Everything here is unix-only and compiled out elsewhere; on
//! non-unix targets `Server::serve` reports `Unsupported`.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;

/// `poll(2)` event: readable.
pub const POLLIN: i16 = 0x001;
/// `poll(2)` event: writable.
pub const POLLOUT: i16 = 0x004;
/// `poll(2)` revent: error condition.
pub const POLLERR: i16 = 0x008;
/// `poll(2)` revent: peer hung up.
pub const POLLHUP: i16 = 0x010;
/// `poll(2)` revent: fd not open.
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` fd set (`struct pollfd`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events (filled by the kernel).
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn returned(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the fd is in a terminal state (error / hangup / closed).
    pub fn failed(&self) -> bool {
        self.returned(POLLERR | POLLNVAL)
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until at least one fd is ready (or `timeout_ms` elapses;
/// negative = wait forever). Returns the number of ready fds. `EINTR`
/// is retried internally — callers never see a spurious error from a
/// signal.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs; the kernel writes only
        // `revents` within its bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A self-wake channel for the event loop: worker threads call
/// [`WakePipe::wake`] to make a blocked [`poll_fds`] return, the loop
/// polls [`WakePipe::fd`] for [`POLLIN`] and [`WakePipe::drain`]s it.
///
/// Built on a nonblocking [`UnixStream`] pair, so a storm of wakes
/// coalesces into one readable byte-full pipe instead of blocking the
/// wakers — `wake` never blocks and never fails.
#[derive(Debug)]
pub struct WakePipe {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakePipe {
    /// Create the pair.
    pub fn new() -> io::Result<WakePipe> {
        let (tx, rx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakePipe { rx, tx })
    }

    /// The fd the event loop polls for [`POLLIN`].
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Interrupt the poller. Lossy by design: if the pipe is already
    /// full the poller is already awake.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consume every pending wake byte.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Raise the process' soft `RLIMIT_NOFILE` toward `want` (capped at the
/// hard limit) and return the resulting soft limit. Load tests opening
/// thousands of sockets call this first; failure is soft — callers use
/// the returned limit to size themselves.
#[cfg(target_os = "linux")]
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: c_int = 7;
    extern "C" {
        fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid `#[repr(C)]` rlimit the kernel fills.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let target = want.min(lim.max);
    if target > lim.cur {
        let new = RLimit {
            cur: target,
            max: lim.max,
        };
        // SAFETY: passing a valid rlimit by const pointer.
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } != 0 {
            return Err(io::Error::last_os_error());
        }
        lim.cur = target;
    }
    Ok(lim.cur)
}

/// Non-Linux fallback: report the request as the limit (resource names
/// differ per OS; the tests that care are Linux-only).
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    Ok(want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poll_reports_readiness_and_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Nothing pending: a zero-timeout poll returns no ready fds.
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        assert!(!fds[0].returned(POLLIN));
        // A pending connection makes the listener readable.
        let _client = TcpStream::connect(addr).unwrap();
        assert_eq!(poll_fds(&mut fds, 2_000).unwrap(), 1);
        assert!(fds[0].returned(POLLIN));
        assert!(!fds[0].failed());
    }

    #[test]
    fn wake_pipe_interrupts_a_poller_and_drains_clean() {
        let pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "quiet before wake");
        // Many wakes coalesce; one poll sees them all.
        for _ in 0..100 {
            pipe.wake();
        }
        assert_eq!(poll_fds(&mut fds, 2_000).unwrap(), 1);
        assert!(fds[0].returned(POLLIN));
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drain consumed wakes");
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotonic() {
        let before = raise_nofile_limit(0).unwrap();
        let after = raise_nofile_limit(before.saturating_add(64)).unwrap();
        assert!(after >= before, "raising must never lower the limit");
    }
}
