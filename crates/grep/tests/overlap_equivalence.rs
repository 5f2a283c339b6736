//! Overlapped oracle resolution is an optimization, not a semantics
//! change.  This suite pins the equivalence down on four axes, across the
//! nine paper benchmarks and deterministic random inputs:
//!
//! 1. **Verdicts**: batched scans through a resolver pool produce exactly
//!    the verdict vector of the synchronous batch plane, for every
//!    `--oracle-threads` {1, 2, 8} × scan `--threads` {1, 4} combination.
//! 2. **Spans**: span search from an overlapped handle returns the same
//!    spans (span search itself resolves synchronously by design).
//! 3. **Oracle-call sets**: the *set* of `(query, text)` questions that
//!    reaches the backend is identical — overlapping reorders and
//!    coalesces questions but never invents or drops one.  (Multisets may
//!    differ: a racy double-resolution is harmless because oracles are
//!    deterministic, Assumption 2.4.)
//! 4. **CLI output**: `grepo --oracle-threads N` writes byte-identical
//!    stdout.
//!
//! Both a zero-latency backend and a latency-injecting [`DelayOracle`]
//! are exercised: the delayed runs actually park lines and resume them
//! from their checkpoints, so the suspension protocol itself is covered,
//! not just the fast path.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use semre::workloads::rng::StdRng;
use semre::{Oracle, QueryKey, SemRegex, SemRegexBuilder};
use semre_grep::cli::{run_stream, CliOptions};
use semre_grep::{scan_lines, scan_spans, ScanOptions};
use semre_workloads::{DelayOracle, Workbench};

/// The set of `(query, text)` questions a run's backend saw.
type QuestionLog = Arc<Mutex<HashSet<(String, Vec<u8>)>>>;

/// Records every `(query, text)` question that reaches the wrapped
/// backend, as a set.
struct Recording<O> {
    inner: O,
    log: QuestionLog,
}

impl<O> Recording<O> {
    fn new(inner: O) -> (Self, QuestionLog) {
        let log = Arc::new(Mutex::new(HashSet::new()));
        (
            Recording {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }
}

impl<O: Oracle> Oracle for Recording<O> {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.log
            .lock()
            .unwrap()
            .insert((query.to_owned(), text.to_vec()));
        self.inner.holds(query, text)
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        {
            let mut log = self.log.lock().unwrap();
            for key in batch {
                log.insert((key.query.to_owned(), key.text.to_vec()));
            }
        }
        self.inner.resolve_batch(batch)
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// How to wrap each run's backend before recording.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Backend {
    /// The benchmark's oracle as-is.
    Instant,
    /// The benchmark's oracle behind a [`DelayOracle`], so answers land
    /// late enough that the scan genuinely parks lines.
    Delayed,
}

/// Compiles `semre` with the given overlap configuration over a recording
/// wrapper, returning the handle and the recorded question set.
fn compiled(
    semre: &semre::Semre,
    oracle: &Arc<dyn Oracle>,
    backend: Backend,
    oracle_threads: usize,
    chunk: usize,
) -> (SemRegex, QuestionLog) {
    let base: Arc<dyn Oracle> = match backend {
        Backend::Instant => Arc::clone(oracle),
        Backend::Delayed => Arc::new(DelayOracle::new(
            Arc::clone(oracle),
            Duration::from_micros(150),
            Duration::ZERO,
        )),
    };
    let (recording, log) = Recording::new(base);
    let mut builder = SemRegexBuilder::new().batched(true).chunk_lines(chunk);
    if oracle_threads > 0 {
        builder = builder.overlapped(oracle_threads).in_flight(8);
    }
    let re = builder
        .build_semre_shared(semre.clone(), Arc::new(recording))
        .expect("benchmark SemREs compile");
    (re, log)
}

/// The in-order verdict vector of a batched scan.
fn verdicts(re: &SemRegex, lines: &[&str], threads: usize, chunk: usize) -> Vec<bool> {
    let report = scan_lines(re, lines, ScanOptions::batched(chunk).with_threads(threads));
    assert_eq!(report.records.len(), lines.len());
    let mut by_index: Vec<(usize, bool)> = report
        .records
        .iter()
        .map(|r| (r.index, r.matched))
        .collect();
    by_index.sort_unstable();
    by_index.into_iter().map(|(_, matched)| matched).collect()
}

#[test]
fn nine_benchmarks_agree_with_synchronous_resolution() {
    let wb = Workbench::generate(42, 48, 48);
    let chunk = 4;
    for spec in wb.benchmarks() {
        let corpus = wb.corpus(spec.dataset);
        let lines: Vec<&str> = corpus.lines().iter().map(String::as_str).collect();

        let (sync_re, sync_log) = compiled(&spec.semre, &spec.oracle, Backend::Instant, 0, chunk);
        let expected = verdicts(&sync_re, &lines, 1, chunk);
        let expected_questions = sync_log.lock().unwrap().clone();
        assert!(
            expected.iter().any(|&m| m),
            "benchmark {} matched nothing — the corpus is too small to test",
            spec.name
        );

        for backend in [Backend::Instant, Backend::Delayed] {
            for oracle_threads in [1, 2, 8] {
                for threads in [1, 4] {
                    let (re, log) =
                        compiled(&spec.semre, &spec.oracle, backend, oracle_threads, chunk);
                    assert!(re.resolver_pool().is_some(), "{}", spec.name);
                    let got = verdicts(&re, &lines, threads, chunk);
                    assert_eq!(
                        got, expected,
                        "{} backend={backend:?} oracle_threads={oracle_threads} threads={threads}",
                        spec.name
                    );
                    let questions = log.lock().unwrap().clone();
                    assert_eq!(
                        questions, expected_questions,
                        "{} backend={backend:?} oracle_threads={oracle_threads} \
threads={threads}: overlapping changed the set of backend questions",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn overlapped_span_search_matches_synchronous_spans() {
    let wb = Workbench::generate(7, 32, 32);
    for spec in wb.benchmarks() {
        let corpus = wb.corpus(spec.dataset);
        let lines: Vec<&str> = corpus.lines().iter().map(String::as_str).collect();

        let (sync_re, _) = compiled(&spec.semre, &spec.oracle, Backend::Instant, 0, 4);
        let (_, expected) = scan_spans(&sync_re, &lines, ScanOptions::batched(4), false);

        let (re, _) = compiled(&spec.semre, &spec.oracle, Backend::Instant, 2, 4);
        let (_, got) = scan_spans(&re, &lines, ScanOptions::batched(4), false);
        assert_eq!(got, expected, "{}", spec.name);
    }
}

#[test]
fn random_inputs_agree_under_delay_for_every_thread_mix() {
    // SplitMix64-deterministic noisy lines: some that hit the sim-LLM
    // medicine oracle, some that fail the skeleton, some empty.
    let words = [
        "tramadol", "xanax", "meeting", "viagra", "report", "ambien", "deadline", "standup",
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..48 {
        let mut line = String::new();
        if rng.gen_bool(0.7) {
            line.push_str("Subject: ");
        }
        for _ in 0..rng.gen_range(0usize..4) {
            line.push_str(words[rng.gen_range(0usize..words.len())]);
            line.push(' ');
        }
        lines.push(line.trim_end().to_owned());
    }
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();

    let semre = semre::parse(r"Subject: .*(?<Medicine name>: .+).*").unwrap();
    let oracle: Arc<dyn Oracle> = Arc::new(semre::SimLlmOracle::new());

    let (sync_re, sync_log) = compiled(&semre, &oracle, Backend::Instant, 0, 4);
    let expected = verdicts(&sync_re, &lines, 1, 4);
    let expected_questions = sync_log.lock().unwrap().clone();
    assert!(expected.iter().any(|&m| m));
    assert!(expected.iter().any(|&m| !m));

    for backend in [Backend::Instant, Backend::Delayed] {
        for oracle_threads in [1, 2, 8] {
            for threads in [1, 4] {
                let (re, log) = compiled(&semre, &oracle, backend, oracle_threads, 4);
                let got = verdicts(&re, &lines, threads, 4);
                assert_eq!(
                    got, expected,
                    "backend={backend:?} oracle_threads={oracle_threads} threads={threads}"
                );
                assert_eq!(
                    log.lock().unwrap().clone(),
                    expected_questions,
                    "backend={backend:?} oracle_threads={oracle_threads} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn delayed_runs_actually_park_lines() {
    // The equivalence above would hold vacuously if answers always landed
    // before the evaluator asked.  Under a DelayOracle the pool cannot
    // answer instantly, so at least one line must suspend and resume.
    let wb = Workbench::generate(11, 48, 0);
    let spec = wb.benchmark("spam,1").expect("spam,1 exists");
    let corpus = wb.corpus(spec.dataset);
    let lines: Vec<&str> = corpus.lines().iter().map(String::as_str).collect();

    let (re, _) = compiled(&spec.semre, &spec.oracle, Backend::Delayed, 4, 4);
    let _ = verdicts(&re, &lines, 1, 4);
    let stats = re.resolver_pool().expect("overlapped handle").stats();
    assert!(stats.suspends > 0, "{stats:?}");
    assert_eq!(stats.suspends, stats.resumes, "{stats:?}");
    assert!(stats.backend_keys > 0, "{stats:?}");
}

#[test]
fn grepo_stdout_is_byte_identical_with_oracle_threads() {
    let wb = Workbench::generate(3, 40, 0);
    let text: String = wb
        .spam()
        .lines()
        .iter()
        .flat_map(|l| [l.as_str(), "\n"])
        .collect();
    let membership = r"Subject: .*(?<Medicine name>: .+).*";
    let span = r"(?<Medicine name>: [a-z]+)";

    for (mode_args, pattern) in [
        (vec![], membership),
        (vec!["--only-matching"], span),
        (vec!["--count"], membership),
    ] {
        let sync_args: Vec<&str> = ["--batched"]
            .into_iter()
            .chain(mode_args.iter().copied())
            .chain([pattern])
            .collect();
        let sync_options = CliOptions::parse(sync_args).unwrap();
        let mut expected = Vec::new();
        let expected_outcome = run_stream(&sync_options, text.as_bytes(), &mut expected).unwrap();

        for oracle_threads in ["1", "2", "8"] {
            for threads in ["1", "4"] {
                let args: Vec<&str> = [
                    "--batched",
                    "--oracle-threads",
                    oracle_threads,
                    "--in-flight",
                    "8",
                    "--threads",
                    threads,
                ]
                .into_iter()
                .chain(mode_args.iter().copied())
                .chain([pattern])
                .collect();
                let options = CliOptions::parse(args.iter().copied()).unwrap();
                let mut got = Vec::new();
                let outcome = run_stream(&options, text.as_bytes(), &mut got).unwrap();
                assert_eq!(
                    got, expected,
                    "stdout diverged: {mode_args:?} oracle_threads={oracle_threads} \
threads={threads}"
                );
                assert_eq!(outcome.stdout, expected_outcome.stdout, "{mode_args:?}");
                assert_eq!(outcome.exit_code, expected_outcome.exit_code);
            }
        }
    }
}
