//! Matcher-level routing equivalence for the tiered oracle registry:
//! putting a [`TieredResolver`] stack in front of a benchmark's backend
//! is a *cost* optimization, never a semantics change.  Across the nine
//! paper benchmarks and SplitMix64-random inputs, for every tier stack ×
//! scan-thread × oracle-thread combination, this suite pins down:
//!
//! 1. **Verdicts**: batched scans through any stack produce exactly the
//!    flat backend's verdict vector.
//! 2. **Spans**: span search over a tiered handle returns the same
//!    spans.
//! 3. **Key reduction**: the set of keys that reaches the authoritative
//!    backend is a subset of the flat run's backend keys — tiers only
//!    ever *remove* authoritative questions, and on lexicon-backed
//!    benchmarks they must remove some.
//! 4. **CLI bytes**: `grepo --oracle tiered:...:sim-llm` writes stdout
//!    byte-identical to `--oracle sim-llm`.
//!
//! The oracle-level half (answer equivalence, the driver trust contract,
//! and the escalation-soundness property tests) lives in
//! `crates/oracle/tests/tiered_equivalence.rs`.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use semre::workloads::rng::StdRng;
use semre::{BuiltinTier, Oracle, QueryKey, SemRegex, SemRegexBuilder, TieredResolver};
use semre_grep::cli::{run_stream, CliOptions};
use semre_grep::{scan_lines, scan_spans, ScanOptions};
use semre_workloads::Workbench;

/// The set of `(query, text)` keys a run's authoritative backend saw.
type QuestionLog = Arc<Mutex<HashSet<(String, Vec<u8>)>>>;

/// Records every key that reaches the wrapped backend.
struct Recording {
    inner: Arc<dyn Oracle>,
    log: QuestionLog,
}

impl Recording {
    fn new(inner: Arc<dyn Oracle>) -> (Self, QuestionLog) {
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

impl Oracle for Recording {
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

/// The tier stacks of the equivalence matrix.  `None` is the flat
/// baseline; the rest route through a [`TieredResolver`].
const STACKS: [Option<&[BuiltinTier]>; 3] = [
    Some(&[]), // authoritative-only resolver (the degenerate stack)
    Some(&[BuiltinTier::Screen, BuiltinTier::Dict]), // heuristic + authoritative
    Some(&[BuiltinTier::Cache, BuiltinTier::Screen, BuiltinTier::Dict]), // full stack
];

/// Compiles `semre` over `oracle` behind an optional tier stack, with a
/// recorder on the authoritative side, so the test can compare both
/// verdicts and the keys that actually reached the backend.
fn compiled(
    semre: &semre::Semre,
    oracle: &Arc<dyn Oracle>,
    stack: Option<&[BuiltinTier]>,
    oracle_threads: usize,
    chunk: usize,
) -> (SemRegex, QuestionLog) {
    let (recording, log) = Recording::new(Arc::clone(oracle));
    let backend: Arc<dyn Oracle> = match stack {
        None => Arc::new(recording),
        Some(tiers) => Arc::new(TieredResolver::with_builtins(tiers, Arc::new(recording))),
    };
    let mut builder = SemRegexBuilder::new().batched(true).chunk_lines(chunk);
    if oracle_threads > 0 {
        builder = builder.overlapped(oracle_threads).in_flight(8);
    }
    let re = builder
        .build_semre_shared(semre.clone(), backend)
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

/// Whether any of the benchmark's queries are backed by the simulated
/// LLM's name lexicons — the only queries the built-in screen/dict tiers
/// can decide, so the only benchmarks where a strict key reduction can
/// be demanded.
fn lexicon_backed(spec: &semre_workloads::BenchSpec) -> bool {
    matches!(spec.name, "spam,1" | "spam,2")
}

#[test]
fn nine_benchmarks_agree_across_every_stack_and_thread_mix() {
    let wb = Workbench::generate(42, 48, 48);
    let chunk = 4;
    for spec in wb.benchmarks() {
        let corpus = wb.corpus(spec.dataset);
        let lines: Vec<&str> = corpus.lines().iter().map(String::as_str).collect();

        let (flat_re, flat_log) = compiled(&spec.semre, &spec.oracle, None, 0, chunk);
        let expected = verdicts(&flat_re, &lines, 1, chunk);
        let flat_keys = flat_log.lock().unwrap().clone();
        assert!(
            expected.iter().any(|&m| m),
            "benchmark {} matched nothing — the corpus is too small to test",
            spec.name
        );

        for stack in STACKS {
            for oracle_threads in [0, 4] {
                for threads in [1, 4] {
                    let (re, log) =
                        compiled(&spec.semre, &spec.oracle, stack, oracle_threads, chunk);
                    let got = verdicts(&re, &lines, threads, chunk);
                    assert_eq!(
                        got, expected,
                        "{} stack={stack:?} oracle_threads={oracle_threads} threads={threads}",
                        spec.name
                    );
                    // Tiers only remove authoritative questions, never
                    // invent or rewrite them.
                    let authority_keys = log.lock().unwrap().clone();
                    assert!(
                        authority_keys.is_subset(&flat_keys),
                        "{} stack={stack:?}: the authority saw a key the flat run never asked",
                        spec.name
                    );
                    if stack == Some(&[]) || stack.is_none() {
                        assert_eq!(
                            authority_keys, flat_keys,
                            "{}: the empty stack is the flat backend",
                            spec.name
                        );
                    }
                    if lexicon_backed(&spec) && matches!(stack, Some(s) if !s.is_empty()) {
                        assert!(
                            authority_keys.len() < flat_keys.len(),
                            "{} stack={stack:?}: the dict tier must shed some keys \
({} vs {})",
                            spec.name,
                            authority_keys.len(),
                            flat_keys.len()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn span_search_is_identical_through_every_stack() {
    let wb = Workbench::generate(7, 32, 32);
    for spec in wb.benchmarks() {
        let corpus = wb.corpus(spec.dataset);
        let lines: Vec<&str> = corpus.lines().iter().map(String::as_str).collect();

        let (flat_re, _) = compiled(&spec.semre, &spec.oracle, None, 0, 4);
        let (_, expected) = scan_spans(&flat_re, &lines, ScanOptions::batched(4), false);

        for stack in STACKS {
            let (re, _) = compiled(&spec.semre, &spec.oracle, stack, 0, 4);
            let (_, got) = scan_spans(&re, &lines, ScanOptions::batched(4), false);
            assert_eq!(got, expected, "{} stack={stack:?}", spec.name);
        }
    }
}

#[test]
fn random_semre_inputs_agree_for_every_stack_and_thread_mix() {
    // SplitMix64-deterministic noisy lines over the medicine lexicon:
    // hits, misses, skeleton failures, and empties.
    let words = [
        "tramadol", "xanax", "meeting", "viagra", "report", "ambien", "deadline", "standup",
    ];
    let mut rng = StdRng::seed_from_u64(0x11e7ed);
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

    let (flat_re, flat_log) = compiled(&semre, &oracle, None, 0, 4);
    let expected = verdicts(&flat_re, &lines, 1, 4);
    let flat_keys = flat_log.lock().unwrap().clone();
    assert!(expected.iter().any(|&m| m));
    assert!(expected.iter().any(|&m| !m));

    for stack in STACKS {
        for oracle_threads in [0, 4] {
            for threads in [1, 4] {
                let (re, log) = compiled(&semre, &oracle, stack, oracle_threads, 4);
                let got = verdicts(&re, &lines, threads, 4);
                assert_eq!(
                    got, expected,
                    "stack={stack:?} oracle_threads={oracle_threads} threads={threads}"
                );
                let authority_keys = log.lock().unwrap().clone();
                assert!(authority_keys.is_subset(&flat_keys), "stack={stack:?}");
                if matches!(stack, Some(s) if !s.is_empty()) {
                    assert!(
                        authority_keys.len() < flat_keys.len(),
                        "stack={stack:?}: medicine keys must be decided by the dict tier"
                    );
                }
            }
        }
    }
}

#[test]
fn grepo_stdout_is_byte_identical_with_a_tiered_spec() {
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
        let flat_args: Vec<&str> = ["--batched", "--oracle", "sim-llm"]
            .into_iter()
            .chain(mode_args.iter().copied())
            .chain([pattern])
            .collect();
        let flat_options = CliOptions::parse(flat_args).unwrap();
        let mut expected = Vec::new();
        let expected_outcome = run_stream(&flat_options, text.as_bytes(), &mut expected).unwrap();

        for spec in [
            "tiered:none:sim-llm",
            "tiered:screen+dict:sim-llm",
            "tiered:cache+screen+dict:sim-llm",
        ] {
            for threads in ["1", "4"] {
                let args: Vec<&str> = ["--batched", "--oracle", spec, "--threads", threads]
                    .into_iter()
                    .chain(mode_args.iter().copied())
                    .chain([pattern])
                    .collect();
                let options = CliOptions::parse(args.iter().copied()).unwrap();
                let mut got = Vec::new();
                let outcome = run_stream(&options, text.as_bytes(), &mut got).unwrap();
                assert_eq!(
                    got, expected,
                    "stdout diverged: {mode_args:?} spec={spec} threads={threads}"
                );
                assert_eq!(outcome.stdout, expected_outcome.stdout, "{mode_args:?}");
                assert_eq!(outcome.exit_code, expected_outcome.exit_code);
            }
        }
    }
}

#[test]
fn grepo_stats_surface_the_tier_counters() {
    let text = "Subject: buy xanax online now\nSubject: weekly sync\n";
    let options = CliOptions::parse([
        "--batched",
        "--oracle",
        "tiered:cache+screen+dict:sim-llm",
        "--stats",
        r"Subject: .*(?<Medicine name>: [a-z]+).*",
    ])
    .unwrap();
    let mut out = Vec::new();
    let outcome = run_stream(&options, text.as_bytes(), &mut out).unwrap();
    let tiers = outcome
        .stderr
        .iter()
        .find(|line| line.starts_with("tiers: "))
        .unwrap_or_else(|| panic!("no tiers: line in {:?}", outcome.stderr));
    assert!(tiers.contains("authority_keys="), "{tiers}");
    assert!(
        tiers.contains("dict_hits=") && tiers.contains("screen_hits="),
        "{tiers}"
    );

    // Flat specs keep their historical stats shape: no tiers line.
    let flat = CliOptions::parse([
        "--batched",
        "--oracle",
        "sim-llm",
        "--stats",
        r"Subject: .*(?<Medicine name>: [a-z]+).*",
    ])
    .unwrap();
    let mut out = Vec::new();
    let outcome = run_stream(&flat, text.as_bytes(), &mut out).unwrap();
    assert!(
        !outcome.stderr.iter().any(|l| l.starts_with("tiers:")),
        "{:?}",
        outcome.stderr
    );
}
