//! End-to-end service tests on an ephemeral port: single-flight
//! coalescing under concurrent clients, the three cache tiers'
//! hit counters, graceful handling of malformed, truncated and
//! non-executable requests, and each chaos fault on the serve loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use qprac_serve::protocol::{write_request, write_response, Request, Response};
use qprac_serve::{ChaosSpec, Client, ClientError, Server, ServerConfig};
use sim::{CellResult, MitigationKind, RunCache, RunKey, SystemConfig};

/// A tiny-but-real workload cell (~milliseconds of simulation).
fn small_key(instr: u64) -> RunKey {
    let cfg = SystemConfig::paper_default()
        .with_mitigation(MitigationKind::Qprac)
        .with_instruction_limit(instr);
    RunKey::workload(&cfg, "ycsb/a_like")
}

fn spawn_server(config: ServerConfig) -> SocketAddr {
    Server::bind("127.0.0.1:0", config)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server")
}

#[test]
fn concurrent_clients_with_one_key_simulate_once() {
    let addr = spawn_server(ServerConfig::default());
    let key = small_key(700);
    const CLIENTS: usize = 8;
    let results: Vec<CellResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let key = key.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.run(&key).expect("run cell")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // All clients observe the identical result...
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert!(matches!(results[0], CellResult::Stats(_)));
    // ...and the server ran the simulation exactly once: every other
    // request either coalesced onto the in-flight run or hit the LRU.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.stat("qprac_simulated_total").unwrap(),
        1,
        "single-flight"
    );
    let mem_hits = client.stat("qprac_mem_hits_total").unwrap();
    let coalesced = client.stat("qprac_coalesced_total").unwrap();
    assert_eq!(
        mem_hits + coalesced,
        (CLIENTS - 1) as u64,
        "the other {} requests must be shared, not re-simulated",
        CLIENTS - 1
    );
    assert_eq!(client.stat("qprac_in_flight").unwrap(), 0);
}

#[test]
fn lru_and_disk_tiers_report_hits() {
    let dir = std::env::temp_dir().join(format!("qprac-serve-test-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = small_key(600);

    // Server A simulates once, then answers from memory.
    let addr_a = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr_a).unwrap();
    let first = client.run(&key).expect("cold run");
    let again = client.run(&key).expect("warm run");
    assert_eq!(first, again);
    assert_eq!(client.stat("qprac_simulated_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_mem_hits_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_disk_hits_total").unwrap(), 0);

    // Server B shares the disk tier: a fresh process-equivalent resolves
    // the same key from disk without simulating.
    let addr_b = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client_b = Client::connect(addr_b).unwrap();
    assert_eq!(client_b.run(&key).expect("disk-tier run"), first);
    assert_eq!(client_b.stat("qprac_simulated_total").unwrap(), 0);
    assert_eq!(client_b.stat("qprac_disk_hits_total").unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_err_and_the_connection_survives() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // Unknown verb.
    let err = client.run_key_text("").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    // Unparseable key.
    let err = client.run_key_text("workload:missing-config").unwrap_err();
    assert!(err.to_string().contains("malformed"), "{err}");
    // Well-formed key naming an unknown workload.
    let cfg = SystemConfig::paper_default().with_instruction_limit(100);
    let ghost = RunKey::workload(&cfg, "nope/nope");
    let err = client.run_key_text(ghost.as_str()).unwrap_err();
    assert!(err.to_string().contains("unknown workload"), "{err}");
    // Engine cells are client-side only.
    let err = client.run_key_text("engine:wave:probe").unwrap_err();
    assert!(err.to_string().contains("client-side"), "{err}");
    // The same connection still works for a valid request afterwards.
    client.ping().expect("connection survived the ERRs");
    assert!(client.stat("qprac_errors_total").unwrap() >= 4);
}

#[test]
fn unknown_mitigation_keys_get_a_counted_clean_err() {
    let addr = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    // A key a newer build could legitimately mint: canonical in every
    // respect except the mitigation token.
    let known = small_key(100);
    let future = known.as_str().replace("mit=qprac;", "mit=hydra-prac;");
    let err = client.run_key_text(&future).unwrap_err();
    // The ERR is authoritative (a Server error, not a transport fault,
    // and not a worker panic the client would retry elsewhere).
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert!(err.to_string().contains("unknown mitigation"), "{err}");
    assert!(!err.to_string().contains("panicked"), "{err}");
    // Counted under its own METRICS counter, distinct from plain errors.
    assert_eq!(client.stat("qprac_unknown_mitigation_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_errors_total").unwrap(), 1);
    // A malformed key is an error but NOT an unknown mitigation.
    let err = client.run_key_text("workload:missing-config").unwrap_err();
    assert!(err.to_string().contains("malformed"), "{err}");
    assert_eq!(client.stat("qprac_unknown_mitigation_total").unwrap(), 1);
    assert_eq!(client.stat("qprac_errors_total").unwrap(), 2);
    // The connection survives and the server still simulates.
    client.ping().expect("connection survived the ERRs");
}

#[test]
fn truncated_connections_do_not_wedge_the_server() {
    let addr = spawn_server(ServerConfig::default());
    // A client that dies mid-request: no trailing newline, then EOF.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"RUN half-a-key").unwrap();
        // Dropped here: the server sees EOF mid-line and closes.
    }
    // And one that sends garbage bytes with a newline.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"\x00\xffgarbage\n").unwrap();
    }
    // The server keeps serving fresh connections.
    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("server alive after truncated peers");
}

#[test]
fn corrupt_binary_disk_entries_are_a_miss_never_a_panic() {
    let dir = std::env::temp_dir().join(format!("qprac-serve-test-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = small_key(500);

    // Server A populates the binary disk tier.
    let addr_a = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr_a).unwrap();
    let first = client.run(&key).expect("cold run");

    // Flip one byte in every cache entry on disk.
    let mut flipped = 0;
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        flipped += 1;
    }
    assert!(flipped > 0, "server A must have written disk entries");

    // A fresh server on the damaged tier must re-simulate (a clean
    // miss), never crash or serve silently wrong statistics.
    let addr_b = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    let mut client_b = Client::connect(addr_b).unwrap();
    assert_eq!(client_b.run(&key).expect("resolve past corruption"), first);
    assert_eq!(
        client_b.stat("qprac_disk_hits_total").unwrap(),
        0,
        "corrupt = miss"
    );
    assert_eq!(client_b.stat("qprac_simulated_total").unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single-flight leader killed mid-simulation (chaos `kill=1`) must
/// not strand its followers. The leader gets `ERR ... panicked` from
/// the dispatch worker that caught the unwind, followers observe the
/// poison `ERR ... panicked` (both retryable by
/// [`ClientError::is_retryable`]), and every client that re-drives the
/// key gets the real result — simulated exactly once more.
#[test]
fn chaos_killed_leader_poisons_followers_who_redrive() {
    let addr = spawn_server(ServerConfig {
        chaos: Some(ChaosSpec::parse("1:kill=1").unwrap()),
        ..ServerConfig::default()
    });
    let key = small_key(650);
    const CLIENTS: usize = 6;
    let (results, retries): (Vec<CellResult>, Vec<u32>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let key = key.clone();
                s.spawn(move || {
                    let mut retries = 0u32;
                    loop {
                        let mut client = Client::connect(addr).expect("connect");
                        match client.run(&key) {
                            Ok(result) => return (result, retries),
                            Err(e) => {
                                assert!(e.is_retryable(), "chaos fault not retryable: {e}");
                                retries += 1;
                                assert!(retries < 8, "cell never converged: {e}");
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).unzip()
    });
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    assert!(matches!(results[0], CellResult::Stats(_)));
    // Exactly one leader died; at least that client had to re-drive.
    assert!(
        retries.iter().sum::<u32>() >= 1,
        "a kill must force a retry"
    );
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stat("qprac_chaos_killed_total").unwrap(), 1);
    assert_eq!(
        client.stat("qprac_simulated_total").unwrap(),
        1,
        "the re-driven flight simulates once; everyone else shares it"
    );
}

/// The load signals a failover-aware operator routes on are `METRICS`
/// gauges: not draining, idle workers, nothing queued or in flight.
#[test]
fn health_reports_status_and_load_signals() {
    let addr = spawn_server(ServerConfig {
        max_conns: 64,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let snap = scrape(&mut client);
    let gauge = |name: &str| -> i64 {
        *snap
            .gauges
            .get(name)
            .unwrap_or_else(|| panic!("gauge {name} missing in {snap:?}"))
    };
    assert_eq!(gauge("qprac_draining"), 0);
    assert!(gauge("qprac_workers") >= 1);
    assert_eq!(gauge("qprac_active"), 0);
    assert_eq!(gauge("qprac_queue_depth"), 0);
    assert_eq!(gauge("qprac_in_flight"), 0);
    assert!(gauge("qprac_uptime_ms") >= 0);
    assert_eq!(gauge("qprac_max_conns"), 64);
    assert!(gauge("qprac_connections") >= 1, "the scraping connection");
    // Chaos counters only appear when chaos is armed.
    assert!(
        !snap.counters.keys().any(|k| k.starts_with("qprac_chaos_")),
        "quiet server, no chaos counters: {snap:?}"
    );
}

/// One `METRICS` scrape, parsed.
fn scrape(client: &mut Client) -> qprac_obs::Snapshot {
    let text = client.metrics().expect("METRICS");
    qprac_obs::Snapshot::parse_prometheus(&text)
        .unwrap_or_else(|e| panic!("METRICS payload must parse: {e}\n{text}"))
}

/// Every resolved `RUNB` is accounted to exactly one outcome. On a
/// chaos-free server, one `METRICS` scrape must satisfy
/// `run_requests == mem_hits + disk_hits + simulated + coalesced +
/// (errors - unparsable lines)`: unparsable request lines are counted
/// as errors but never reach the resolve path.
#[test]
fn cell_resolve_outcomes_sum_to_run_requests() {
    let dir =
        std::env::temp_dir().join(format!("qprac-serve-test-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hot = small_key(660);
    let seeded = small_key(560);
    // A second server writes `seeded` into the shared disk tier.
    let writer = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    Client::connect(writer)
        .unwrap()
        .run(&seeded)
        .expect("seed disk tier");

    let addr = spawn_server(ServerConfig {
        disk: RunCache::at(&dir),
        ..ServerConfig::default()
    });
    // Concurrent duplicates: one simulation, the rest coalesce or hit.
    const CLIENTS: usize = 6;
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| Client::connect(addr).unwrap().run(&hot).expect("hot cell"));
        }
    });
    let mut client = Client::connect(addr).unwrap();
    client.run(&hot).expect("warm repeat");
    client.run(&seeded).expect("disk-tier hit");
    let future = hot.as_str().replace("mit=qprac;", "mit=hydra-prac;");
    assert!(client.run_key_text(&future).is_err(), "unknown mitigation");
    const UNPARSABLE: u64 = 1;
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"FROB the server\n").unwrap();
    let mut reply = [0u8; 4];
    raw.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"ERR ");

    let snap = scrape(&mut client);
    let c = |name: &str| -> u64 {
        *snap
            .counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} missing in {snap:?}"))
    };
    let runs = c("qprac_run_requests_total");
    assert_eq!(runs, CLIENTS as u64 + 3, "every RUNB is counted once");
    assert_eq!(c("qprac_simulated_total"), 1, "single-flight");
    assert_eq!(c("qprac_disk_hits_total"), 1);
    assert!(c("qprac_mem_hits_total") >= 1, "the warm repeat");
    assert_eq!(c("qprac_unknown_mitigation_total"), 1);
    assert_eq!(c("qprac_errors_total"), 1 + UNPARSABLE);
    assert_eq!(
        runs,
        c("qprac_mem_hits_total")
            + c("qprac_disk_hits_total")
            + c("qprac_simulated_total")
            + c("qprac_coalesced_total")
            + (c("qprac_errors_total") - UNPARSABLE),
        "resolve outcomes must sum to the RUNB count: {snap:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful teardown: `SHUTDOWN` answers `draining`, in-flight work
/// completes with a real result, and `serve()` returns so the daemon
/// process can exit 0.
#[test]
fn shutdown_drains_in_flight_work_and_serve_returns() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let serve_thread = std::thread::spawn(move || server.serve());
    let key = small_key(30_000);
    let runner = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.run(&key)
    });
    // Let the RUN get in flight, then ask for teardown.
    std::thread::sleep(Duration::from_millis(50));
    let mut ctl = Client::connect(addr).expect("control connection");
    ctl.shutdown().expect("draining reply");
    serve_thread
        .join()
        .unwrap()
        .expect("serve() returns cleanly after the drain");
    // The in-flight cell completed despite the shutdown racing it.
    let result = runner.join().unwrap().expect("drained run completes");
    assert!(matches!(result, CellResult::Stats(_)));
    // The listener is gone: fresh connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "accepting must stop");
}

/// The acceptance-criteria hang test: a server that accepts and never
/// replies must cost a client one bounded timeout, not a stalled
/// worker.
#[test]
fn hung_server_times_out_instead_of_stalling() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // Accept and hold connections forever, never writing a byte.
        let mut held = Vec::new();
        for conn in listener.incoming() {
            held.push(conn);
        }
    });
    let t0 = Instant::now();
    let mut client =
        Client::connect_timeout(addr, Duration::from_millis(200)).expect("connect succeeds");
    let err = client.run(&small_key(100)).unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "{err}");
    assert!(err.is_retryable(), "a timeout is transient");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the deadline must bound the stall (took {:?})",
        t0.elapsed()
    );
}

fn spawn_chaotic(spec: &str) -> SocketAddr {
    spawn_server(ServerConfig {
        chaos: Some(ChaosSpec::parse(spec).unwrap()),
        ..ServerConfig::default()
    })
}

/// Send one `RUNB` on a fresh raw connection; return every byte the
/// server sends before it hangs up. A `Client` on the same server must
/// see a retryable transport error, never a wrong result.
fn runb_until_eof(addr: SocketAddr, key: &RunKey) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write_request(&mut stream, &Request::RunBin(key.as_str().into())).unwrap();
    let mut got = Vec::new();
    stream.read_to_end(&mut got).expect("a clean EOF");
    let err = Client::connect(addr).unwrap().run(key).unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_)) && err.is_retryable(),
        "{err}"
    );
    got
}

/// Control verbs are never faulted: under any chaos spec, `PING` and
/// `METRICS` answer every time. Returns the last `METRICS` scrape.
fn control_verbs_answer(addr: SocketAddr) -> qprac_obs::Snapshot {
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..4 {
        client.ping().expect("PING is never faulted");
        client.metrics().expect("METRICS is never faulted");
    }
    scrape(&mut client)
}

#[test]
fn chaos_trunc_sends_a_strict_prefix_of_the_runb_reply() {
    let key = small_key(620);
    let cell = RunKey::parse_text(key.as_str()).unwrap().execute().unwrap();
    let mut frame = Vec::new();
    write_response(&mut frame, &Response::OkBin(sim::codec::encode_cell(&cell))).unwrap();
    let addr = spawn_chaotic("3:trunc=1");
    let got = runb_until_eof(addr, &key);
    assert!(
        !got.is_empty() && got.len() < frame.len() && frame.starts_with(&got),
        "{} of {} bytes is not a strict, non-empty prefix of the frame",
        got.len(),
        frame.len()
    );
    let snap = control_verbs_answer(addr);
    assert_eq!(snap.counters["qprac_chaos_truncated_total"], 2, "{snap:?}");
}

#[test]
fn chaos_drop_closes_the_connection_instead_of_serving_a_runb() {
    let addr = spawn_chaotic("9:drop=1");
    assert!(
        runb_until_eof(addr, &small_key(100)).is_empty(),
        "no byte before EOF"
    );
    let snap = control_verbs_answer(addr);
    assert_eq!(snap.counters["qprac_chaos_dropped_total"], 2, "{snap:?}");
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client.stat("qprac_simulated_total").unwrap(),
        0,
        "nothing dispatched"
    );
}

/// `delay` holds the `RUNB` in the event loop's deadline list: the
/// answer arrives intact after the hold, and meanwhile the loop keeps
/// serving other connections — it never sleeps.
#[test]
fn chaos_delay_defers_a_runb_without_stalling_the_loop() {
    const HOLD: Duration = Duration::from_millis(200);
    let key = small_key(640);
    let addr = spawn_chaotic("5:delay=1/200");
    let mut held = Client::connect(addr).unwrap();
    let t0 = Instant::now();
    let answer = std::thread::scope(|s| {
        let answer = s.spawn(|| (held.run(&key), t0.elapsed()));
        // Over a second connection, wait until the RUNB is deferred,
        // then PING: both must answer inside the hold.
        let mut probe = Client::connect(addr).unwrap();
        while probe.stat("qprac_chaos_delayed_total").unwrap() != 1 {
            assert!(t0.elapsed() < HOLD, "the RUNB was never deferred");
        }
        probe.ping().expect("PING while a RUNB is held");
        let pinged_at = t0.elapsed();
        assert!(
            pinged_at < HOLD,
            "PING waited {pinged_at:?}: the loop stalled"
        );
        answer.join().unwrap()
    });
    let (result, answered_at) = answer;
    assert!(answered_at >= HOLD, "answered after {answered_at:?}");
    let expected = RunKey::parse_text(key.as_str()).unwrap().execute();
    assert_eq!(
        result.expect("a held RUNB still answers"),
        expected.unwrap()
    );
    control_verbs_answer(addr);
}
