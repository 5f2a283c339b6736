//! The traced run's layer probe: the benchmark calls each layer's public
//! functions itself, on the workload's own inputs, inside spans, and
//! derives the per-layer metrics from span durations and counts.
//!
//! Every workload is probed on every layer, so each traced run reports
//! the same metric set; the README says which workload each metric is
//! meant to move.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use semre::automata::{compile, LazyDfa, Prescan};
use semre::oracle::{Oracle, PersistentAnswerStore, QueryKey};
use semre::syntax::{eliminate_bot, parse, skeleton};
use semre::{LineChunks, Matcher, MatcherConfig, DEFAULT_STREAM_CHUNK_BYTES};
use semre_grep::{walk, WalkOptions};

use crate::programs::Daemon;
use crate::report::median;
use crate::trace::{SpanId, Tracer};
use crate::Result;

/// At most this many backend questions are kept for the persistence
/// probe.
const RECORD_CAP: usize = 20_000;

/// The answer-log spec tag the probe records under.
const SPEC: &str = "sim-llm";

/// A wrapper that counts the keys and round trips reaching a backend
/// and, when timed, the time spent inside it.
pub struct CountingOracle {
    inner: Arc<dyn Oracle>,
    timed: bool,
    keys: AtomicU64,
    calls: AtomicU64,
    nanos: AtomicU64,
    recording: AtomicBool,
    recorded: Mutex<Vec<(String, Vec<u8>, bool)>>,
}

impl CountingOracle {
    pub fn new(inner: Arc<dyn Oracle>, timed: bool) -> CountingOracle {
        CountingOracle {
            inner,
            timed,
            keys: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            recording: AtomicBool::new(false),
            recorded: Mutex::new(Vec::new()),
        }
    }

    pub fn keys(&self) -> u64 {
        self.keys.load(Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn time(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Relaxed))
    }

    pub fn reset(&self) {
        self.keys.store(0, Relaxed);
        self.calls.store(0, Relaxed);
        self.nanos.store(0, Relaxed);
    }

    fn account<T>(&self, keys: usize, f: impl FnOnce() -> T) -> T {
        self.keys.fetch_add(keys as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        if !self.timed {
            return f();
        }
        let clock = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(clock.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    fn keep(&self, query: &str, text: &[u8], answer: bool) {
        if self.recording.load(Relaxed) {
            let mut kept = self.recorded.lock().expect("no panics while recording");
            if kept.len() < RECORD_CAP {
                kept.push((query.to_owned(), text.to_vec(), answer));
            }
        }
    }
}

impl Oracle for CountingOracle {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        let answer = self.account(1, || self.inner.holds(query, text));
        self.keep(query, text, answer);
        answer
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        let answers = self.account(batch.len(), || self.inner.resolve_batch(batch));
        for (key, &answer) in batch.iter().zip(&answers) {
            self.keep(key.query, key.text, answer);
        }
        answers
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        self.inner.question_cost(query, text)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// One pattern with its oracle and the lines it is matched against.
pub struct Case {
    pub pattern: String,
    pub oracle: Arc<dyn Oracle>,
    pub lines: Vec<Vec<u8>>,
}

/// What a workload hands the probe.
pub struct Probe<'a> {
    pub cases: Vec<Case>,
    /// Evaluate a case's lines in one session, as a grep chunk does,
    /// rather than one transient session per line, as
    /// `SemRegex::is_match` does.
    pub chunk_session: bool,
    /// The workload's materialized inputs, walked and read by the grep
    /// layer probe.
    pub input_dir: &'a Path,
    pub scratch: &'a Path,
    pub bin_dir: &'a Path,
    /// An answer log the program wrote, replayed for `persist.replay_s`
    /// in place of the one the probe records.
    pub program_log: Option<PathBuf>,
    /// The workload's own daemon, if it runs one.
    pub daemon: Option<&'a Daemon>,
    /// A `sim-llm` pattern and a payload for the daemon's busy
    /// connection while `PING`s measure queueing.
    pub daemon_scan: (String, Vec<u8>),
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Repeats `f` `reps` times and returns the median duration.
fn median_time(reps: usize, mut f: impl FnMut() -> Result<Duration>) -> Result<Duration> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        times.push(f()?.as_secs_f64());
    }
    Ok(Duration::from_secs_f64(median(&times)))
}

/// Runs every layer probe under `root`.
pub fn run(tracer: &Tracer, root: SpanId, probe: &Probe<'_>) -> Result<Layers> {
    let mut layers = Layers::new();
    let kept = automata_and_core(tracer, root, probe, &mut layers)?;
    persist(tracer, root, probe, &kept, &mut layers)?;
    grep(tracer, root, probe, &mut layers)?;
    daemon(tracer, root, probe, &mut layers)?;
    Ok(layers)
}

/// Syntax, automata, core and oracle layers; returns the backend
/// questions kept for the persistence probe.
fn automata_and_core(
    tracer: &Tracer,
    root: SpanId,
    probe: &Probe<'_>,
    layers: &mut Layers,
) -> Result<Vec<(String, Vec<u8>, bool)>> {
    const REPS: usize = 5;
    let (mut parse_t, mut compile_t) = (Duration::ZERO, Duration::ZERO);
    let (mut prescan_t, mut prescan_bytes) = (Duration::ZERO, 0usize);
    let (mut dfa_t, mut dfa_bytes, mut rejected) = (Duration::ZERO, 0usize, 0usize);
    let (mut eval_t, mut oracle_t, mut evaluated) = (Duration::ZERO, Duration::ZERO, 0usize);
    let (mut requests, mut alive, mut keys, mut calls) = (0u64, 0u64, 0u64, 0u64);
    let mut kept = Vec::new();
    for case in &probe.cases {
        parse_t += median_time(REPS, || {
            Ok(tracer
                .scope("syntax.parse", Some(root), |_| parse(&case.pattern))
                .1)
        })?;
        let parsed = parse(&case.pattern)?;
        let build = || {
            let semre = eliminate_bot(&parsed);
            let snfa = compile(&semre);
            let skel = skeleton(&semre);
            let skel_snfa = compile(&skel);
            let dfa = LazyDfa::new(&skel_snfa);
            let prescan = Prescan::for_membership(&skel_snfa, &skel);
            (semre, snfa, dfa, prescan)
        };
        compile_t += median_time(REPS, || {
            Ok(tracer.scope("automata.compile", Some(root), |_| build()).1)
        })?;
        let (semre, _snfa, dfa, prescan) = build();

        let survivors: Vec<&[u8]> = {
            let (passed, t) = tracer.scope("automata.prescan", Some(root), |_| {
                case.lines
                    .iter()
                    .map(Vec::as_slice)
                    .filter(|l| !prescan.rejects(std::hint::black_box(l)))
                    .collect::<Vec<_>>()
            });
            prescan_t += t;
            prescan_bytes += case.lines.iter().map(Vec::len).sum::<usize>();
            passed
        };
        // A first pass fills the lazy DFA's state cache; the second is timed.
        let warm = survivors.iter().filter(|l| dfa.matches(l)).count();
        let (matched, t) = tracer.scope("automata.dfa", Some(root), |_| {
            survivors
                .iter()
                .copied()
                .filter(|l| dfa.matches(std::hint::black_box(l)))
                .collect::<Vec<_>>()
        });
        assert_eq!(warm, matched.len(), "the lazy DFA answers the same twice");
        dfa_t += t;
        dfa_bytes += survivors.iter().map(|l| l.len()).sum::<usize>();
        rejected += case.lines.len() - matched.len();

        let oracle = Arc::new(CountingOracle::new(Arc::clone(&case.oracle), true));
        let matcher = Matcher::with_config(semre, Arc::clone(&oracle), MatcherConfig::default());
        // The (q, ε) probes made at construction are set-up, not evaluation.
        oracle.reset();
        oracle.recording.store(true, Relaxed);
        let (reports, t) = tracer.scope("core.eval", Some(root), |_| {
            if probe.chunk_session {
                let mut session = matcher.session();
                matched
                    .iter()
                    .map(|l| matcher.run_in_session(l, &mut session))
                    .collect::<Vec<_>>()
            } else {
                matched.iter().map(|l| matcher.run(l)).collect::<Vec<_>>()
            }
        });
        eval_t += t;
        oracle_t += oracle.time();
        evaluated += matched.len();
        requests += reports.iter().map(|r| r.oracle_calls).sum::<u64>();
        alive += reports.iter().map(|r| r.vertices_alive).sum::<u64>();
        keys += oracle.keys();
        calls += oracle.calls();
        let mut recorded = oracle.recorded.lock().expect("no panics while recording");
        let room = RECORD_CAP.saturating_sub(kept.len());
        kept.extend(recorded.drain(..).take(room));
    }
    tracer.count("core.lines_evaluated", evaluated as f64);
    tracer.count("oracle.backend_keys", keys as f64);
    if evaluated == 0 || keys == 0 {
        return Err("the probe's inputs never reach the oracle".into());
    }
    layers.insert("syntax.parse_us", micros(parse_t));
    layers.insert("automata.compile_us", micros(compile_t));
    layers.insert(
        "automata.prescan_ns_per_byte",
        prescan_t.as_nanos() as f64 / prescan_bytes.max(1) as f64,
    );
    layers.insert(
        "automata.dfa_ns_per_byte",
        dfa_t.as_nanos() as f64 / dfa_bytes.max(1) as f64,
    );
    layers.insert("automata.lines_rejected", rejected as f64);
    layers.insert(
        "core.eval_us_per_line",
        micros(eval_t.saturating_sub(oracle_t)) / evaluated as f64,
    );
    layers.insert("core.oracle_requests", requests as f64);
    layers.insert("core.vertices_alive", alive as f64);
    layers.insert("oracle.backend_keys", keys as f64);
    layers.insert("oracle.backend_us", micros(oracle_t));
    layers.insert("oracle.dedup_ratio", requests as f64 / keys as f64);
    layers.insert("oracle.round_trips", calls as f64);
    layers.insert(
        "oracle.keys_per_round_trip",
        keys as f64 / calls.max(1) as f64,
    );
    layers.insert(
        "oracle.overhead_ratio",
        eval_t.as_secs_f64() / oracle_t.as_secs_f64().max(1e-9),
    );
    Ok(kept)
}

/// The persistent answer store: append, replay, look up.
fn persist(
    tracer: &Tracer,
    root: SpanId,
    probe: &Probe<'_>,
    kept: &[(String, Vec<u8>, bool)],
    layers: &mut Layers,
) -> Result<()> {
    let path = probe.scratch.join("probe-answers.log");
    let store = PersistentAnswerStore::open(&path)?;
    let (_, t) = tracer.scope("persist.record", Some(root), |_| {
        for (query, text, answer) in kept {
            store.record(SPEC, query, text, *answer);
        }
        store.sync()
    });
    layers.insert("persist.record_us", micros(t) / kept.len().max(1) as f64);
    drop(store);
    let replayed = probe.program_log.clone().unwrap_or(path);
    let (store, t) = tracer.scope("persist.replay", Some(root), |_| {
        PersistentAnswerStore::open(&replayed)
    });
    let store = store?;
    layers.insert("persist.replay_s", t.as_secs_f64());
    if probe.program_log.is_none() {
        let (wrong, t) = tracer.scope("persist.lookup", Some(root), |_| {
            kept.iter()
                .filter(|(q, text, a)| store.lookup(SPEC, q, text) != Some(*a))
                .count()
        });
        if wrong > 0 {
            return Err(format!("{wrong} recorded answers read back wrong").into());
        }
        layers.insert(
            "persist.lookup_ns",
            t.as_nanos() as f64 / kept.len().max(1) as f64,
        );
    } else {
        // Look up what the program logged, under the spec it logged.
        let body = std::fs::read(&replayed)?;
        let log =
            semre::oracle::persist::decode_log(&body[semre::oracle::persist::LOG_MAGIC.len()..]);
        let (wrong, t) = tracer.scope("persist.lookup", Some(root), |_| {
            log.records
                .iter()
                .filter(|r| store.lookup(&r.spec, &r.query, &r.text) != Some(r.answer))
                .count()
        });
        if wrong > 0 || log.records.is_empty() {
            return Err(format!(
                "{wrong} of {} logged answers read back wrong",
                log.records.len()
            )
            .into());
        }
        layers.insert(
            "persist.lookup_ns",
            t.as_nanos() as f64 / log.records.len() as f64,
        );
    }
    Ok(())
}

/// The grep layer's input side: directory walk and chunked line reads.
fn grep(tracer: &Tracer, root: SpanId, probe: &Probe<'_>, layers: &mut Layers) -> Result<()> {
    let options = WalkOptions::default();
    let mut files = Vec::new();
    let walk_t = median_time(5, || {
        let (found, t) = tracer.scope("grep.walk", Some(root), |_| walk(probe.input_dir, &options));
        if !found.errors.is_empty() {
            return Err(format!("walk errors: {:?}", found.errors).into());
        }
        files = found.files;
        Ok(t)
    })?;
    if files.is_empty() {
        return Err("the walk found no input files".into());
    }
    let mut bytes = 0u64;
    let read_t = median_time(3, || {
        let (read, t) = tracer.scope("grep.read", Some(root), |_| -> Result<u64> {
            let mut total = 0;
            for file in &files {
                let mut chunks =
                    LineChunks::new(std::fs::File::open(file)?, DEFAULT_STREAM_CHUNK_BYTES);
                while chunks.next_batch()?.is_some() {}
                total += chunks.bytes_read();
            }
            Ok(total)
        });
        bytes = read?;
        Ok(t)
    })?;
    layers.insert("grep.walk_ms", walk_t.as_secs_f64() * 1e3);
    layers.insert(
        "grep.read_mb_per_s",
        bytes as f64 / 1e6 / read_t.as_secs_f64(),
    );
    Ok(())
}

/// The daemon's protocol: idle `PING`, `PING` behind a busy connection,
/// and `COMPILE`.
fn daemon(tracer: &Tracer, root: SpanId, probe: &Probe<'_>, layers: &mut Layers) -> Result<()> {
    let own;
    let daemon = match probe.daemon {
        Some(d) => d,
        None => {
            own = Daemon::start(probe.bin_dir, &["--workers", "2"])?;
            &own
        }
    };
    let mut client = daemon.client()?;
    for _ in 0..10 {
        client.ping()?;
    }
    let mut pings = Vec::new();
    for _ in 0..100 {
        let (ok, t) = tracer.scope("daemon.ping", Some(root), |_| client.ping());
        ok?;
        pings.push(micros(t));
    }
    layers.insert("daemon.ping_us", median(&pings));

    let mut compiles = Vec::new();
    for case in &probe.cases {
        // Each spec is its own pattern-cache entry, so each is a miss.
        for spec in ["always-true", "always-false", "tiered:none:always-true"] {
            let (handle, t) = tracer.scope("daemon.compile", Some(root), |_| {
                client.compile(spec, &case.pattern)
            });
            handle?;
            compiles.push(micros(t));
        }
    }
    layers.insert("daemon.compile_us", median(&compiles));

    let (pattern, payload) = &probe.daemon_scan;
    let mut busy = daemon.client()?;
    let handle = busy.compile(SPEC, pattern)?;
    busy.scan(handle, payload)?;
    let stop = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    let queued = std::thread::scope(|s| -> Result<Vec<f64>> {
        let worker = s.spawn(|| -> std::io::Result<()> {
            while !stop.load(Relaxed) {
                busy.scan(handle, payload)?;
                scans.fetch_add(1, Relaxed);
            }
            Ok(())
        });
        let mut queued = Vec::new();
        let started = Instant::now();
        while queued.len() < 40 && started.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
            let (ok, t) = tracer.scope("daemon.queue_ping", Some(root), |_| client.ping());
            if let Err(e) = ok {
                stop.store(true, Relaxed);
                return Err(e.into());
            }
            queued.push(micros(t));
        }
        stop.store(true, Relaxed);
        worker.join().expect("the busy connection does not panic")?;
        Ok(queued)
    })?;
    if scans.load(Relaxed) == 0 {
        return Err("the busy connection finished no SCAN while PINGs were timed".into());
    }
    layers.insert("daemon.queue_us", median(&queued));
    Ok(())
}
