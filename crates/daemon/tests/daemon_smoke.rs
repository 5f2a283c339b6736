//! End-to-end smoke tests for `semred`: golden byte-exact protocol
//! exchanges, the warm-restart dedupe win, budgets, and the real binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use semre_daemon::{DaemonClient, Server, ServerConfig};

const MEMBERSHIP: &str = "Subject: .*(?<Medicine name>: [a-z]+).*";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semred-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn(config: ServerConfig) -> semre_daemon::ServerHandle {
    Server::bind(config).unwrap().spawn().unwrap()
}

/// The protocol is byte-exact: a scripted session against a fresh server
/// must produce exactly these response bytes.
#[test]
fn golden_scripted_session_is_byte_exact() {
    let handle = spawn(ServerConfig::default());
    let addr = handle.addr;

    let mut stream = TcpStream::connect(addr).unwrap();
    let corpus = b"Subject: buy xanax online now\nSubject: weekly sync minutes\n";
    let mut script = Vec::new();
    script.extend_from_slice(b"PING\n");
    script.extend_from_slice(format!("COMPILE sim-llm {MEMBERSHIP}\n").as_bytes());
    script.extend_from_slice(format!("COMPILE sim-llm {MEMBERSHIP}\n").as_bytes());
    script.extend_from_slice(b"TENANT smoke\n");
    script.extend_from_slice(b"MATCH 1 29\nSubject: buy xanax online now");
    script.extend_from_slice(b"MATCH 1 28\nSubject: weekly sync minutes");
    script.extend_from_slice(b"FIND 1 35\n[fwd] Subject: buy xanax online now");
    script.extend_from_slice(format!("SCAN 1 {}\n", corpus.len()).as_bytes());
    script.extend_from_slice(corpus);
    script.extend_from_slice(b"BOGUS COMMAND\n");
    stream.write_all(&script).unwrap();

    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let expected = b"OK 0 pong\n\
                     OK 0 handle=1 cache=new\n\
                     OK 0 handle=1 cache=hit\n\
                     OK 0\n\
                     OK 0\n\
                     OK 1\n\
                     OK 0 6 24\n\
                     OK 0 2 1 30\n\
                     Subject: buy xanax online now\n\
                     ERR 2 unknown command \"BOGUS\"\n";
    assert_eq!(
        String::from_utf8_lossy(&response),
        String::from_utf8_lossy(expected)
    );

    let mut client = DaemonClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The tentpole acceptance: a warm restart over the same answer log
/// issues zero backend questions for previously-seen keys, and the
/// persisted hits are attributed separately from in-memory dedupe.
#[test]
fn warm_restart_issues_zero_backend_questions() {
    let dir = temp_dir("warm");
    let log = dir.join("answers.log");
    let _ = std::fs::remove_file(&log);
    let config = || ServerConfig {
        answer_log: Some(log.clone()),
        ..ServerConfig::default()
    };
    let corpus =
        b"Subject: buy xanax online now\nSubject: cheap tramadol here\nSubject: weekly sync\n";

    // Cold daemon: the corpus costs backend questions.
    let cold_scan;
    {
        let handle = spawn(config());
        let mut client = DaemonClient::connect(handle.addr).unwrap();
        client.tenant("ci").unwrap();
        let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();
        cold_scan = client.scan(pattern_handle, corpus).unwrap();
        assert_eq!(cold_scan.lines, 3);
        let stats = client.stats().unwrap();
        let ci = stats_line(&stats, "tenant ci:");
        assert!(
            field(&ci, "backend_keys") > 0,
            "cold run reaches the backend: {ci}"
        );
        assert_eq!(
            field(&ci, "persisted_hits"),
            0,
            "nothing persisted yet: {ci}"
        );
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    // Warm daemon, fresh process state, same log: same answers, zero
    // backend questions, all hits attributed to the persistent store.
    {
        let handle = spawn(config());
        let mut client = DaemonClient::connect(handle.addr).unwrap();
        client.tenant("ci").unwrap();
        let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();
        let warm_scan = client.scan(pattern_handle, corpus).unwrap();
        assert_eq!(
            warm_scan.payload, cold_scan.payload,
            "verdicts must not change"
        );
        assert_eq!(warm_scan.matched, cold_scan.matched);
        let stats = client.stats().unwrap();
        let store = stats_line(&stats, "store:");
        assert!(field(&store, "replayed") > 0, "log was replayed: {store}");
        let ci = stats_line(&stats, "tenant ci:");
        assert_eq!(
            field(&ci, "backend_keys"),
            0,
            "warm restart must issue zero backend questions: {ci}"
        );
        assert!(
            field(&ci, "persisted_hits") > 0,
            "hits come from disk: {ci}"
        );
        // A second tenant rides the same store without touching the
        // backend either.
        client.tenant("other").unwrap();
        let again = client.scan(pattern_handle, corpus).unwrap();
        assert_eq!(again.payload, cold_scan.payload);
        let stats = client.stats().unwrap();
        let other = stats_line(&stats, "tenant other:");
        assert_eq!(field(&other, "backend_keys"), 0, "{other}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budgets refuse requests once a tenant's backend questions are spent,
/// without affecting other tenants.
#[test]
fn budget_exhaustion_is_per_tenant() {
    let handle = spawn(ServerConfig {
        budget: Some(1),
        ..ServerConfig::default()
    });
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    client.tenant("spender").unwrap();
    let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();
    // First request may run (and overruns the budget of 1).
    client
        .scan(pattern_handle, b"Subject: buy xanax online now\n")
        .unwrap();
    // The next request is refused.
    let err = client
        .scan(pattern_handle, b"Subject: cheap tramadol here\n")
        .unwrap_err();
    assert!(err.to_string().contains("budget exhausted"), "{err}");
    // A different tenant still runs (its own budget).
    client.tenant("frugal").unwrap();
    client
        .scan(pattern_handle, b"Subject: weekly sync\n")
        .unwrap();
    let stats = client.stats().unwrap();
    assert!(field(&stats_line(&stats, "tenant spender:"), "budget_denied") >= 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Unknown and evicted handles are protocol errors, not crashes; the
/// connection stays usable.
#[test]
fn unknown_handles_and_bad_specs_are_clean_errors() {
    let handle = spawn(ServerConfig {
        pattern_capacity: 1,
        ..ServerConfig::default()
    });
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    let err = client.is_match(99, b"x").unwrap_err();
    assert!(err.to_string().contains("unknown handle"), "{err}");
    let err = client.compile("no-such-oracle", "abc").unwrap_err();
    assert!(err.to_string().contains("unknown oracle kind"), "{err}");
    let err = client.compile("sim-llm", "(").unwrap_err();
    assert!(!err.to_string().is_empty());
    // Capacity 1: compiling a second pattern evicts the first.
    let first = client.compile("always-true", "abc").unwrap();
    let second = client.compile("always-true", "xyz").unwrap();
    assert_ne!(first, second);
    let err = client.is_match(first, b"abc").unwrap_err();
    assert!(err.to_string().contains("unknown handle"), "{err}");
    assert!(client.is_match(second, b"xyz").unwrap());
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The shipped binary: start on port 0, discover the port from stdout,
/// drive it with the client modes, shut it down.
#[test]
fn semred_binary_round_trip() {
    let dir = temp_dir("binary");
    let log = dir.join("answers.log");
    let _ = std::fs::remove_file(&log);
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_semred"))
        .args(["--addr", "127.0.0.1:0", "--answer-log"])
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
    let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();
    let scan = client
        .scan(pattern_handle, b"Subject: buy xanax online now\n")
        .unwrap();
    assert_eq!(scan.matched, 1);
    drop(client);

    // The binary's own client modes.
    let stats = std::process::Command::new(env!("CARGO_BIN_EXE_semred"))
        .args(["--stats", &addr])
        .output()
        .unwrap();
    assert!(stats.status.success());
    let stats_text = String::from_utf8(stats.stdout).unwrap();
    assert!(stats_text.contains("store: entries="), "{stats_text}");
    assert!(stats_text.contains("tenant default:"), "{stats_text}");

    let shutdown = std::process::Command::new(env!("CARGO_BIN_EXE_semred"))
        .args(["--shutdown", &addr])
        .status()
        .unwrap();
    assert!(shutdown.success());
    let status = daemon.wait().unwrap();
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
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

/// `SHUTDOWN` ends the server even while another client holds an idle
/// connection open — its worker is waiting for that client's next
/// request — and the answer log is synced by the time `run` returns.
#[test]
fn shutdown_returns_while_another_client_idles() {
    let dir = temp_dir("idle");
    let log = dir.join("answers.log");
    let _ = std::fs::remove_file(&log);
    let handle = spawn(ServerConfig {
        answer_log: Some(log.clone()),
        ..ServerConfig::default()
    });
    let mut client = DaemonClient::connect(handle.addr).unwrap();
    let pattern_handle = client.compile("sim-llm", MEMBERSHIP).unwrap();
    let scan = client
        .scan(pattern_handle, b"Subject: buy xanax online now\n")
        .unwrap();
    assert_eq!(scan.matched, 1);
    // Served once, so a worker is now blocked reading this connection.
    let mut idle = DaemonClient::connect(handle.addr).unwrap();
    idle.ping().unwrap();

    client.shutdown().unwrap();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(handle.join()));
    joined
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("run returns within 5 s while another client idles")
        .unwrap();

    let store = semre::PersistentAnswerStore::open(&log).unwrap();
    assert!(!store.is_empty(), "the scan's answers reached the log");
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}
