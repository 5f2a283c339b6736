//! Daemon hardening: request deadlines, mid-scan budget enforcement,
//! fault-injecting backends over the wire, and a concurrent-client
//! stress test over one shared answer log.
//!
//! The common thread: a misbehaving request (slow, over budget, or with
//! a failing oracle) must cost *one* `ERR` response — never a wedged
//! worker, a poisoned connection, or a corrupted counter.

use std::io::BufRead;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Duration;

use semre_daemon::{DaemonClient, Server, ServerConfig};

const MEMBERSHIP: &str = "Subject: .*(?<Medicine name>: [a-z]+).*";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semred-harden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn(config: ServerConfig) -> semre_daemon::ServerHandle {
    Server::bind(config).unwrap().spawn().unwrap()
}

/// Pulls the line starting with `prefix` out of a STATS payload.
fn stats_line(stats: &str, prefix: &str) -> String {
    stats
        .lines()
        .find(|line| line.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {stats:?}"))
        .to_owned()
}

/// Extracts `name=<u64>` from a STATS line.
fn field(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|part| part.strip_prefix(&format!("{name}="))?.parse().ok())
        .unwrap_or_else(|| panic!("no {name}= field in {line:?}"))
}

/// An expired deadline aborts a multi-line scan at the first line
/// boundary after the first line — and only multi-line scans: the first
/// line rides the request-start admission, so a single-line request
/// still completes, and the worker stays reclaimable either way.
#[test]
fn request_timeout_aborts_runaway_scans_at_a_line_boundary() {
    let handle = spawn(ServerConfig {
        request_timeout: Some(Duration::from_nanos(1)),
        ..ServerConfig::default()
    });
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();

    let err = client
        .scan(
            pattern_handle,
            b"Subject: buy xanax online now\nSubject: cheap tramadol here\nSubject: weekly sync\n",
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("scan aborted after"), "{err}");
    assert!(err.contains("deadline exceeded"), "{err}");

    // The connection and worker survive: a single-line scan (admitted at
    // request start) and a MATCH both still run.
    let scan = client
        .scan(pattern_handle, b"Subject: buy xanax online now\n")
        .unwrap();
    assert_eq!((scan.lines, scan.matched), (1, 1));
    assert!(client
        .is_match(pattern_handle, b"Subject: buy xanax online now")
        .unwrap());
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A scan that overruns its tenant's budget mid-flight is aborted at the
/// next line boundary and counted as exactly one denial — enforcement no
/// longer waits for the *next* request to notice.
#[test]
fn budget_overrun_aborts_mid_scan_and_counts_one_denial() {
    let handle = spawn(ServerConfig {
        budget: Some(1),
        ..ServerConfig::default()
    });
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    client.tenant("greedy").unwrap();
    let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();

    let err = client
        .scan(
            pattern_handle,
            b"Subject: buy xanax online now\nSubject: cheap tramadol here\nSubject: weekly sync\n",
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("scan aborted after"), "{err}");
    assert!(err.contains("budget exhausted"), "{err}");
    assert!(err.contains("greedy"), "reason names the tenant: {err}");

    let stats = client.stats().unwrap();
    assert_eq!(
        field(&stats_line(&stats, "tenant greedy:"), "budget_denied"),
        1,
        "one abort, one denial: {stats}"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A `flaky:` backend compiled over the wire errors cleanly per request
/// — with line attribution for scans — and never poisons the worker
/// thread for later requests.
#[test]
fn flaky_backends_over_the_wire_error_cleanly_and_recover() {
    let handle = spawn(ServerConfig::default());
    let mut client = DaemonClient::connect(handle.addr).unwrap();

    // Every backend call fails and retries exhaust: each request costs
    // one ERR.
    let broken = client.compile("flaky:100:1:2:sim-llm", MEMBERSHIP).unwrap();
    let err = client
        .is_match(broken, b"Subject: buy xanax online now")
        .unwrap_err()
        .to_string();
    assert!(err.contains("oracle"), "{err}");
    let err = client
        .scan(
            broken,
            b"Subject: buy xanax online now\nSubject: weekly sync\n",
        )
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("line "),
        "scan faults carry line attribution: {err}"
    );

    // The same connection (same worker thread) is healthy afterwards:
    // the fault does not stick to the thread.
    let healthy = client.compile("sim-llm", MEMBERSHIP).unwrap();
    assert!(client
        .is_match(healthy, b"Subject: buy xanax online now")
        .unwrap());

    // A flaky spec whose faults the retry layer fully absorbs behaves
    // exactly like the healthy backend.
    let absorbed = client.compile("flaky:30:7:8:sim-llm", MEMBERSHIP).unwrap();
    let corpus = b"Subject: buy xanax online now\nSubject: weekly sync minutes\n";
    let flaky_scan = client.scan(absorbed, corpus).unwrap();
    let healthy_scan = client.scan(healthy, corpus).unwrap();
    assert_eq!(flaky_scan.payload, healthy_scan.payload);
    assert_eq!(flaky_scan.matched, healthy_scan.matched);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite stress test: N concurrent clients on distinct tenants over
/// one answer log.  Counters must stay coherent (per-tenant backend
/// spend sums to exactly the store's appends) and no append may be lost
/// (a warm restart re-answers every tenant's scan for zero backend
/// questions).
#[test]
fn concurrent_tenants_keep_counters_coherent_and_lose_no_appends() {
    const CLIENTS: usize = 6;
    const SCANS_PER_CLIENT: usize = 3;
    // Oracle questions are capture-group substrings starting at the
    // colon, so disjoint per-tenant key sets need the tenant right after
    // the colon, with distinct first letters.
    const TENANTS: [&str; CLIENTS] = ["alpha", "bravo", "crane", "delta", "echo", "fox"];
    const STRESS_PATTERN: &str = "Subject: .*(?<Medicine name>: .+).*";

    let dir = temp_dir("stress");
    let log = dir.join("answers.log");
    let _ = std::fs::remove_file(&log);
    let config = || ServerConfig {
        answer_log: Some(log.clone()),
        workers: 4, // fewer workers than clients: exercise the queue
        ..ServerConfig::default()
    };

    let payload_for = |tenant: &str| -> Vec<u8> {
        format!(
            "Subject: {tenant} buys xanax online now\n\
             Subject: {tenant} wants cheap tramadol\n\
             Subject: {tenant} weekly sync minutes\n\
             {tenant} line without a subject\n"
        )
        .into_bytes()
    };

    let handle = spawn(config());
    let addr = handle.addr;

    // Compile once up front so the concurrent COMPILEs below are cache
    // hits and the build-time probes are attributed to one tenant.
    let mut warmup = DaemonClient::connect(addr).unwrap();
    warmup.tenant("warmup").unwrap();
    let pattern_handle = warmup.compile("sim-llm", STRESS_PATTERN).unwrap();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let tenant = TENANTS[i].to_owned();
                let payload = payload_for(&tenant);
                let mut client = DaemonClient::connect(addr).unwrap();
                client.tenant(&tenant).unwrap();
                let handle = client.compile("sim-llm", STRESS_PATTERN).unwrap();
                let first = client.scan(handle, &payload).unwrap();
                assert_eq!(first.lines, 4, "{tenant}");
                assert!(first.matched >= 1, "{tenant}");
                for _ in 1..SCANS_PER_CLIENT {
                    let again = client.scan(handle, &payload).unwrap();
                    assert_eq!(again.payload, first.payload, "{tenant}: verdicts drifted");
                    assert_eq!(again.matched, first.matched, "{tenant}");
                }
                (tenant, first.payload, first.matched)
            })
        })
        .collect();
    let results: Vec<(String, Vec<u8>, u64)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(pattern_handle, 1, "warmup compiled the only pattern");

    // Coherence: every appended record traces back to a backend answer.
    // Within one tenant the SharedSession is single-flight, so a key
    // reaches the backend once however many workers ask it.  Tenants
    // have separate sessions over the one log, though: two tenants
    // racing on the same fresh key may both reach the backend, so the
    // summed `backend_keys` can overcount appends slightly — but it can
    // never undercount: an append without a backend answer would mean
    // the store invented data.
    let stats = warmup.stats().unwrap();
    let mut backend_total = 0;
    for (tenant, ..) in &results {
        let row = stats_line(&stats, &format!("tenant {tenant}:"));
        assert!(field(&row, "backend_keys") > 0, "{row}");
        assert!(
            field(&row, "deduped") > 0,
            "repeated scans dedupe in memory: {row}"
        );
        backend_total += field(&row, "backend_keys");
    }
    backend_total += field(&stats_line(&stats, "tenant warmup:"), "backend_keys");
    let store = stats_line(&stats, "store:");
    assert!(
        backend_total >= field(&store, "appended"),
        "an append without a backend answer: {stats}"
    );
    assert_eq!(
        field(&store, "entries"),
        field(&store, "appended"),
        "concurrent tenants never append a key twice: {store}"
    );
    assert_eq!(field(&store, "write_errors"), 0, "{store}");
    warmup.shutdown().unwrap();
    handle.join().unwrap();

    // Zero lost appends: a warm restart answers every tenant's scan from
    // the log alone.
    let handle = spawn(config());
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    for (tenant, expected_payload, expected_matched) in &results {
        client.tenant(tenant).unwrap();
        let handle = client.compile("sim-llm", STRESS_PATTERN).unwrap();
        let warm = client.scan(handle, &payload_for(tenant)).unwrap();
        assert_eq!(&warm.payload, expected_payload, "{tenant}");
        assert_eq!(warm.matched, *expected_matched, "{tenant}");
    }
    let stats = client.stats().unwrap();
    for (tenant, ..) in &results {
        let row = stats_line(&stats, &format!("tenant {tenant}:"));
        assert_eq!(
            field(&row, "backend_keys"),
            0,
            "a lost append would force a backend question: {row}"
        );
        assert!(field(&row, "persisted_hits") > 0, "{row}");
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `tiered:` spec over the wire routes cheap answers through the
/// registry tiers, matches the flat backend byte-for-byte, and surfaces
/// per-tier counters on a `STATS` `tiers:` line.
#[test]
fn tiered_specs_route_over_the_wire_and_surface_tier_stats() {
    let handle = spawn(ServerConfig::default());
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    let corpus: &[u8] =
        b"Subject: buy xanax online now\nSubject: cheap tramadol here\nSubject: weekly sync\n";

    let flat = client.compile("sim-llm", MEMBERSHIP).unwrap();
    let flat_scan = client.scan(flat, corpus).unwrap();

    let tiered = client
        .compile("tiered:cache+screen+dict:sim-llm", MEMBERSHIP)
        .unwrap();
    let tiered_scan = client.scan(tiered, corpus).unwrap();
    assert_eq!(tiered_scan.payload, flat_scan.payload, "verdicts identical");
    assert_eq!(tiered_scan.matched, flat_scan.matched);

    let stats = client.stats().unwrap();
    let tiers = stats_line(&stats, "tiers:");
    assert_eq!(
        field(&tiers, "authority_keys"),
        0,
        "the dict tier answers every Medicine-name key: {tiers}"
    );
    assert!(
        field(&tiers, "dict_hits") + field(&tiers, "screen_hits") + field(&tiers, "cache_hits") > 0,
        "{tiers}"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Circuit breakers are keyed by *backend identity*, not by compiled
/// spec: when tenant A's requests trip the breaker on a failing backend,
/// tenant B's very first request over the same backend fast-fails
/// instead of burning its own failure budget against a backend already
/// known to be down.
#[test]
fn breaker_trips_per_backend_identity_across_tenants() {
    let handle = spawn(ServerConfig::default());
    let mut alice = DaemonClient::connect(handle.addr).unwrap();
    alice.tenant("alice").unwrap();
    // Threshold 1, long cooldown, over a backend that always fails with
    // a single attempt: the first real call trips the breaker for the
    // rest of the test.  The flaky seed 91 keeps this backend identity
    // distinct from every other test in this binary — the breaker
    // registry is process-wide by design.
    const BREAKER_SPEC: &str = "breaker:1:100000:flaky:100:91:1:sim-llm";
    let broken = alice.compile(BREAKER_SPEC, MEMBERSHIP).unwrap();
    let err = alice
        .is_match(broken, b"Subject: buy xanax online now")
        .unwrap_err()
        .to_string();
    assert!(err.contains("oracle"), "{err}");

    // Tenant B gets its own session (and its own RetryOracle instance)
    // for the same spec — but the breaker state is shared per backend
    // identity, so its first request fails fast.
    let mut bob = DaemonClient::connect(handle.addr).unwrap();
    bob.tenant("bob").unwrap();
    let same = bob.compile(BREAKER_SPEC, MEMBERSHIP).unwrap();
    assert_eq!(same, broken, "pattern cache shared across tenants");
    let err = bob
        .is_match(same, b"Subject: buy xanax online now")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("circuit breaker"),
        "tenant B must hit the shared breaker, not retry the backend: {err}"
    );

    // Fast-fail placeholders are degraded answers: they ride the fault
    // sink, so neither tenant's session may memoize them as facts.
    let stats = bob.stats().unwrap();
    assert_eq!(
        field(&stats_line(&stats, "tenant bob:"), "entries"),
        0,
        "fault-tainted placeholders must never be memoized: {stats}"
    );
    // Close bob's connection before shutdown, or the drain would wait on
    // the worker still serving it.
    drop(bob);
    alice.shutdown().unwrap();
    handle.join().unwrap();
}

/// Connection limits refuse with a final `ERR` line and a clean close —
/// a protocol-level guarantee: the limited client can always parse the
/// refusal and then reads EOF, never a hang or a reset mid-line.
#[test]
fn connection_limits_close_cleanly_with_an_err_line() {
    use std::io::{Read, Write};

    // Request-count limit: the third request on one connection is
    // refused.
    let handle = spawn(ServerConfig {
        max_requests_per_conn: Some(2),
        ..ServerConfig::default()
    });
    let mut stream = std::net::TcpStream::connect(handle.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"PING\nPING\nPING\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    for _ in 0..2 {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "OK 0 pong\n");
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR 2 connection limit:"),
        "refusal is a parseable ERR line: {line:?}"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "clean EOF after the refusal: {rest:?}");
    drop((reader, stream));
    // A fresh connection starts a fresh allowance.
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Byte limit: an oversized payload is refused *before* it is read,
    // with the same ERR-then-EOF shape.  The limit leaves room for the
    // setup connection's COMPILE and SHUTDOWN lines but not for the
    // 1000-byte MATCH payload below.
    let handle = spawn(ServerConfig {
        max_bytes_per_conn: Some(200),
        ..ServerConfig::default()
    });
    let mut setup = DaemonClient::connect(handle.addr).unwrap();
    let pattern_handle = setup.compile("sim-llm", MEMBERSHIP).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(format!("MATCH {pattern_handle} 1000\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR 2 connection limit:"),
        "oversized payload refused up front: {line:?}"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "clean EOF after the refusal: {rest:?}");
    drop((reader, stream));
    setup.shutdown().unwrap();
    handle.join().unwrap();
}

/// The shipped binary accepts the hardening flags.
#[test]
fn semred_binary_accepts_hardening_flags() {
    let dir = temp_dir("flags");
    let log = dir.join("answers.log");
    let _ = std::fs::remove_file(&log);
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_semred"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--request-timeout",
            "30",
            "--max-log-bytes",
            "1048576",
            "--answer-log",
        ])
        .arg(&log)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = daemon.stdout.take().unwrap();
    let mut banner = String::new();
    BufReader::new(stdout).read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("semred listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();

    let mut client = DaemonClient::connect(&addr).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    assert!(daemon.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
