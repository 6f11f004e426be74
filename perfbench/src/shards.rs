//! Lifecycle of the local `qprac-serve` shards of the cluster workload.
//!
//! Each shard is the built `qprac-serve` binary bound to port 0 (the
//! kernel picks a free port); set-up waits for its `listening on` line.
//! Teardown sends `SHUTDOWN`, waits for the process to exit, kills it
//! if it does not, and always reaps it. [`Cluster`]'s `Drop` runs the
//! same teardown, so a failed check or a panic leaves no shard behind.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a shard may take to print its `listening on` line.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a shard may take to exit after `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

struct Shard {
    child: Child,
    addr: String,
    /// Drains the shard's stdout so its last line never hits a closed
    /// pipe; joined at teardown.
    reader: Option<JoinHandle<()>>,
}

/// A set of running shards.
pub struct Cluster {
    shards: Vec<Shard>,
}

/// Parse the address out of a `qprac-serve: listening on <addr> (...)`
/// line.
pub fn parse_listening(line: &str) -> Option<String> {
    let rest = line.split_once("listening on ")?.1;
    rest.split_whitespace().next().map(str::to_string)
}

impl Cluster {
    /// Start `n` shards of `bin`, each with one simulation worker and a
    /// disk cache tier under `work`, and wait until every one listens.
    pub fn spawn(bin: &Path, n: usize, work: &Path) -> io::Result<Cluster> {
        let mut cluster = Cluster { shards: Vec::new() };
        for i in 0..n {
            let mut cmd = Command::new(bin);
            cmd.arg("127.0.0.1:0")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("QPRAC_")) {
                cmd.env_remove(k);
            }
            cmd.env("QPRAC_JOBS", "1")
                .env("QPRAC_RUN_CACHE", work.join(format!("shard-{i}-cache")));
            let mut child = cmd.spawn()?;
            let stdout = child.stdout.take().expect("stdout was piped");
            let (tx, rx) = mpsc::channel();
            let reader = std::thread::spawn(move || {
                let mut sent = false;
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if !sent {
                        if let Some(addr) = parse_listening(&line) {
                            sent = tx.send(addr).is_ok();
                        }
                    }
                }
            });
            // Registered before waiting, so a shard that never becomes
            // ready is still torn down.
            cluster.shards.push(Shard {
                child,
                addr: String::new(),
                reader: Some(reader),
            });
            match rx.recv_timeout(READY_TIMEOUT) {
                Ok(addr) => cluster.shards[i].addr = addr,
                Err(_) => {
                    return Err(io::Error::other(format!(
                        "shard {i} did not print its listening line within {READY_TIMEOUT:?}"
                    )))
                }
            }
        }
        Ok(cluster)
    }

    /// `host:port` of every shard, in start order.
    pub fn addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Process ids of every shard.
    pub fn pids(&self) -> Vec<u32> {
        self.shards.iter().map(|s| s.child.id()).collect()
    }

    /// Stop every shard: `SHUTDOWN`, wait, kill if needed, reap. Returns
    /// a description of each shard that had to be killed or did not
    /// exit cleanly.
    pub fn shutdown(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for s in &mut self.shards {
            if !s.addr.is_empty() {
                let asked = qprac_serve::Client::connect_timeout(s.addr.as_str(), EXIT_TIMEOUT)
                    .map_err(|e| e.to_string())
                    .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
                if let Err(e) = asked {
                    problems.push(format!("shard {}: SHUTDOWN failed: {e}", s.addr));
                }
            }
            let deadline = Instant::now() + EXIT_TIMEOUT;
            let status = loop {
                match s.child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => break None,
                }
            };
            match status {
                Some(st) if st.success() => {}
                Some(st) => problems.push(format!("shard {}: exited with {st}", s.addr)),
                None => {
                    problems.push(format!("shard {}: killed after {EXIT_TIMEOUT:?}", s.addr));
                    let _ = s.child.kill();
                    let _ = s.child.wait();
                }
            }
            if let Some(r) = s.reader.take() {
                let _ = r.join();
            }
        }
        self.shards.clear();
        problems
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for p in self.shutdown() {
            eprintln!("perfbench: {p}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_readiness_line() {
        let line = "qprac-serve: listening on 127.0.0.1:40123 (workers=1, lru=4096, disk-cache=x)";
        assert_eq!(parse_listening(line).as_deref(), Some("127.0.0.1:40123"));
        assert_eq!(parse_listening("qprac-serve: drained and stopped"), None);
    }
}
