//! Blocking client for the `qprac-serve` protocol.
//!
//! One [`Client`] wraps one TCP connection; requests on a connection
//! are answered in order, so a client can pipeline a batch of keys by
//! issuing [`Client::run`] repeatedly. For parallelism, open several
//! clients — the server resolves different connections' cells
//! concurrently and coalesces duplicate in-flight keys across all of
//! them. Cells travel as `RUNB` requests answered in the binary
//! [`sim::codec`] cell encoding.

use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sim::{CellResult, RunKey};

use crate::protocol::{read_response, write_request, Request, Response};

/// Default connect/read/write deadline (`QPRAC_REMOTE_TIMEOUT_MS`):
/// bounded — a hung shard must fail the call, not the pool — but
/// generous enough for a full-scale simulation cell to complete.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_millis(30_000);

/// The `QPRAC_REMOTE_TIMEOUT_MS` knob (unset/empty/`0` =
/// [`DEFAULT_TIMEOUT`], never infinite).
pub fn timeout_from_env() -> Duration {
    match sim::env_u64("QPRAC_REMOTE_TIMEOUT_MS", 0) {
        0 => DEFAULT_TIMEOUT,
        ms => Duration::from_millis(ms),
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport problem (connect, read, write, framing).
    Io(io::Error),
    /// The server answered `ERR` — the connection remains usable.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether retrying the same key can succeed. Transport failures
    /// (timeouts, resets, truncated frames) are transient by
    /// definition; among server-side `ERR`s only a dead worker — the
    /// single-flight poison or a caught simulation panic — is worth
    /// re-driving, since the protocol is key-only and idempotent.
    /// Everything else ("unknown workload", malformed key) is
    /// authoritative: the same request will fail the same way anywhere.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server(msg) => msg.contains("panicked"),
        }
    }
}

/// A connected `qprac-serve` client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server address (`host:port`) with no deadlines
    /// (blocking calls wait forever — fine for trusted local tests;
    /// failover paths should use [`Client::connect_timeout`]).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Connect with deadlines on every operation: `timeout` bounds the
    /// TCP connect, every read and every write, so a hung or
    /// half-dead server turns into a timeout error instead of a
    /// stalled worker thread.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let mut last = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Client::from_stream(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true).ok(); // request/response round-trips
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// One round trip; an `ERR` answer becomes [`ClientError::Server`].
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_request(&mut self.writer, req)?;
        match read_response(&mut self.reader)? {
            Response::Err(msg) => Err(ClientError::Server(msg)),
            ok => Ok(ok),
        }
    }

    /// A control-verb round trip: the text payload of its `OK` answer.
    fn call_text(&mut self, req: &Request) -> Result<String, ClientError> {
        match self.call(req)? {
            Response::Ok { payload, .. } => Ok(payload),
            _ => Err(ClientError::Server(
                "unexpected binary response to a text request".into(),
            )),
        }
    }

    /// Resolve one cell by canonical key text (a `RUNB` request),
    /// decoding the binary answer into a [`CellResult`].
    pub fn run_key_text(&mut self, key_text: &str) -> Result<CellResult, ClientError> {
        match self.call(&Request::RunBin(key_text.to_string()))? {
            Response::OkBin(frame) => sim::codec::decode_cell(&frame)
                .map_err(|e| ClientError::Server(format!("undecodable binary response: {e}"))),
            _ => Err(ClientError::Server(
                "unexpected text response to a RUNB request".into(),
            )),
        }
    }

    /// [`Self::run_key_text`] for an already-built [`RunKey`].
    pub fn run(&mut self, key: &RunKey) -> Result<CellResult, ClientError> {
        self.run_key_text(key.as_str())
    }

    /// One counter or gauge out of a fresh [`Self::metrics`] scrape, by
    /// full metric name (e.g. `qprac_simulated_total`). Counters are
    /// looked up first, then gauges. A name the server does not export
    /// is an error, never 0, so a renamed metric cannot pass silently.
    pub fn stat(&mut self, name: &str) -> Result<u64, ClientError> {
        let text = self.metrics()?;
        let snap = qprac_obs::Snapshot::parse_prometheus(&text)
            .map_err(|e| ClientError::Server(format!("unparsable METRICS payload: {e}")))?;
        match (snap.counters.get(name), snap.gauges.get(name)) {
            (Some(&value), _) => Ok(value),
            (None, Some(&value)) => u64::try_from(value)
                .map_err(|_| ClientError::Server(format!("gauge {name:?} is negative ({value})"))),
            (None, None) => Err(ClientError::Server(format!(
                "metric {name:?} missing from METRICS"
            ))),
        }
    }

    /// Fetch the server's registry in Prometheus text exposition
    /// format (the `METRICS` verb). Feed the text to
    /// [`qprac_obs::Snapshot::parse_prometheus`] to merge scrapes
    /// across shards.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.call_text(&Request::Metrics)
    }

    /// Ask the server to shut down gracefully: it stops accepting,
    /// drains in-flight work, and exits its accept loop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let payload = self.call_text(&Request::Shutdown)?;
        if payload == "draining" {
            Ok(())
        } else {
            Err(ClientError::Server(format!(
                "unexpected shutdown reply {payload:?}"
            )))
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let payload = self.call_text(&Request::Ping)?;
        if payload == "pong" {
            Ok(())
        } else {
            Err(ClientError::Server(format!(
                "unexpected ping reply {payload:?}"
            )))
        }
    }
}
