//! Randomized differential tests for the multi-file engine.
//!
//! SplitMix64-generated directory trees (nested directories, empty files,
//! non-UTF-8 lines, lines straddling streaming chunk boundaries) are
//! scanned through the full multi-file CLI driver with `--threads`
//! {1, 2, 8}; every parallel run must be **byte-identical** to the
//! sequential one, and a straightforward per-file reference loop built on
//! the facade's `scan_paths` must agree line for line.  On the oracle
//! side, a whole-tree scan through the shared session must reach the
//! backend at most as often as the per-file sum — cross-file
//! deduplication can only remove questions, never add them.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use semre::{
    Instrumented, Oracle, SemRegexBuilder, SharedSession, SimLlmOracle, DEFAULT_CHUNK_LINES,
};
use semre_grep::cli::{expand_targets, run_paths, CliOptions};
use semre_grep::stream::{scan_stream, StreamOptions};
use semre_grep::{
    scan_tree, FileSummary, RangeReader, ScanOptions, ScanUnit, TreeOptions, TreeReport,
};
use semre_workloads::{CorpusTree, CorpusTreeConfig};

const PATTERN: &str = r"Subject: .*(?<Medicine name>: [a-z]+).*";

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("semre-tree-diff-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_with(extra: &[&str], root: &std::path::Path) -> (Vec<u8>, i32) {
    let mut args: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
    args.push(PATTERN.to_owned());
    args.push(root.display().to_string());
    let options = CliOptions::parse(args).unwrap();
    let targets = expand_targets(&options);
    assert!(targets.errors.is_empty(), "{:?}", targets.errors);
    let mut out = Vec::new();
    let outcome = run_paths(&options, &targets, &mut out).unwrap();
    (out, outcome.exit_code)
}

#[test]
fn random_trees_scan_identically_for_any_thread_count() {
    for seed in [1u64, 7, 20250726] {
        let config = CorpusTreeConfig {
            seed,
            files: 14,
            mean_lines: 24,
            pool: 25,
            pool_bias: 0.6,
        };
        let tree = CorpusTree::generate(&config);
        let scratch = Scratch::new(&format!("threads-{seed}"));
        tree.write_to(&scratch.0).unwrap();

        // Tiny stream chunks force lines to straddle I/O boundaries.
        for extra in [
            vec![],
            vec!["--batched"],
            vec!["--stream-chunk-bytes", "7"],
            vec!["--only-matching"],
            vec!["--count"],
            vec!["--heading"],
        ] {
            let (sequential, seq_exit) = run_with(&extra, &scratch.0);
            for threads in ["2", "8"] {
                let mut args = vec!["--threads", threads];
                args.extend(extra.iter().copied());
                let (parallel, par_exit) = run_with(&args, &scratch.0);
                assert_eq!(
                    parallel, sequential,
                    "seed {seed}, extra {extra:?}, threads {threads}"
                );
                assert_eq!(par_exit, seq_exit);
            }
        }
    }
}

#[test]
fn tree_scan_agrees_with_a_sequential_per_file_reference_loop() {
    let config = CorpusTreeConfig {
        seed: 99,
        files: 10,
        mean_lines: 20,
        ..CorpusTreeConfig::default()
    };
    let tree = CorpusTree::generate(&config);
    let scratch = Scratch::new("reference");
    tree.write_to(&scratch.0).unwrap();

    // Reference: the facade's sequential multi-path scan over the same
    // (sorted-walk) file list, rendering `path:line` by hand.
    let options = CliOptions::parse([PATTERN, &scratch.0.display().to_string()]).unwrap();
    let targets = expand_targets(&options);
    let re = SemRegexBuilder::new()
        .build(PATTERN, SimLlmOracle::new())
        .unwrap();
    let mut expected = Vec::new();
    for (path, verdict) in re.scan_paths(targets.files.clone()) {
        let verdict = verdict.expect("scratch tree is readable");
        if verdict.matched {
            expected.extend_from_slice(format!("{}:", path.display()).as_bytes());
            expected.extend_from_slice(&verdict.bytes);
            expected.push(b'\n');
        }
    }

    let (got, exit) = run_with(&[], &scratch.0);
    assert_eq!(got, expected);
    assert_eq!(exit, i32::from(expected.is_empty()));
}

/// A small skewed tree (one file dominating the byte count) written to a
/// scratch directory: the workload sub-file splitting exists for.
fn skewed_scratch(tag: &str, giant_lines: usize) -> (Scratch, CorpusTree) {
    let config = CorpusTreeConfig {
        files: 6,
        mean_lines: 12,
        pool: 20,
        pool_bias: 0.7,
        ..CorpusTreeConfig::default()
    };
    let tree = CorpusTree::generate_skewed(&config, giant_lines);
    let scratch = Scratch::new(tag);
    tree.write_to(&scratch.0).unwrap();
    (scratch, tree)
}

#[test]
fn skewed_trees_scan_identically_across_the_split_and_thread_grid() {
    // The tentpole differential: stdout bytes (lines, spans, counts,
    // headings) must be identical across the full
    // `--split-bytes {off, 4 KiB, 1 MiB} x --threads {1, 2, 8}` grid.
    // 4 KiB splits the giant file into many ranges; 1 MiB splits
    // nothing here, exercising the threshold path.
    let (scratch, _) = skewed_scratch("split-grid", 900);
    for extra in [
        vec![],
        vec!["--batched"],
        vec!["--stream-chunk-bytes", "7"],
        vec!["--only-matching"],
        vec!["--count"],
        vec!["--heading"],
    ] {
        let mut base = vec!["--split-bytes", "off"];
        base.extend(extra.iter().copied());
        let (sequential, seq_exit) = run_with(&base, &scratch.0);
        assert!(!sequential.is_empty(), "skewed tree must produce output");
        for split in ["off", "4096", "1048576"] {
            for threads in ["1", "2", "8"] {
                let mut args = vec!["--split-bytes", split, "--threads", threads];
                args.extend(extra.iter().copied());
                let (got, exit) = run_with(&args, &scratch.0);
                assert_eq!(
                    got, sequential,
                    "extra {extra:?}, split {split}, threads {threads}"
                );
                assert_eq!(exit, seq_exit);
            }
        }
    }
}

/// An oracle that records every `(query, text)` question it is asked.
/// Interposed *below* the shared session, it sees exactly the questions
/// that survive cross-file deduplication — the set that would reach a
/// paid backend.
struct RecordingOracle {
    inner: SimLlmOracle,
    seen: Mutex<BTreeSet<(String, Vec<u8>)>>,
}

impl RecordingOracle {
    fn new() -> RecordingOracle {
        RecordingOracle {
            inner: SimLlmOracle::new(),
            seen: Mutex::new(BTreeSet::new()),
        }
    }
}

impl Oracle for RecordingOracle {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.seen
            .lock()
            .unwrap()
            .insert((query.to_owned(), text.to_vec()));
        self.inner.holds(query, text)
    }
}

/// Scans `files` through the real tree scheduler with a recording
/// backend, mirroring the CLI's scan-unit closure (whole file or
/// [`RangeReader`] sub-range, one cross-file shared session).  Returns
/// the assembled output, the report, and the backend question set.
type QuestionSet = BTreeSet<(String, Vec<u8>)>;

fn tree_scan_with(
    re: &semre::SemRegex,
    files: &[PathBuf],
    threads: usize,
    split_bytes: Option<u64>,
) -> (Vec<u8>, TreeReport) {
    let stream_options = StreamOptions {
        scan: ScanOptions::batched(DEFAULT_CHUNK_LINES),
        ..StreamOptions::default()
    };
    let mut out = Vec::new();
    let report = scan_tree(
        files,
        &TreeOptions {
            threads,
            split_bytes,
            ..TreeOptions::default()
        },
        &mut out,
        |unit: &ScanUnit, path: &Path, buffer: &mut Vec<u8>| {
            let file = File::open(path).map_err(|e| e.to_string())?;
            let mut summary = FileSummary::default();
            let mut sink = |_line: u64, bytes: &[u8], is_match: bool| {
                summary.lines += 1;
                if is_match {
                    summary.matched_lines += 1;
                    buffer.extend_from_slice(format!("{}:", path.display()).as_bytes());
                    buffer.extend_from_slice(bytes);
                    buffer.push(b'\n');
                }
                true
            };
            match unit.range {
                Some((start, end)) => {
                    let reader = RangeReader::new(file, start, end).map_err(|e| e.to_string())?;
                    scan_stream(re, reader, &stream_options, &mut sink)
                        .map_err(|e| e.to_string())?;
                }
                None => {
                    scan_stream(re, file, &stream_options, &mut sink).map_err(|e| e.to_string())?;
                }
            }
            Ok(summary)
        },
        |_, _, _, _| {},
    )
    .unwrap();
    (out, report)
}

fn scan_skewed_recording(
    files: &[PathBuf],
    threads: usize,
    split_bytes: Option<u64>,
) -> (Vec<u8>, TreeReport, QuestionSet) {
    let recording = Arc::new(RecordingOracle::new());
    let session = SharedSession::new(recording.clone());
    let re = SemRegexBuilder::new()
        .batched(true)
        .build_shared(PATTERN, Arc::new(session))
        .unwrap();
    let (out, report) = tree_scan_with(&re, files, threads, split_bytes);
    let seen = std::mem::take(&mut *recording.seen.lock().unwrap());
    (out, report, seen)
}

#[test]
fn splitting_preserves_the_oracle_question_set() {
    // Range boundaries resync to line starts, so the *lines* scanned —
    // and therefore the oracle questions asked — are independent of the
    // split plan.  The deduplicated backend question set must be
    // identical across every split x thread combination, not merely the
    // same size.
    let (scratch, _) = skewed_scratch("question-set", 500);
    let options = CliOptions::parse([PATTERN, &scratch.0.display().to_string()]).unwrap();
    let files = expand_targets(&options).files;

    let (base_out, base_report, base_questions) = scan_skewed_recording(&files, 1, None);
    assert!(base_report.matched_lines > 0);
    assert!(!base_questions.is_empty());
    for split_bytes in [Some(4096u64), Some(1 << 20)] {
        for threads in [1usize, 2, 8] {
            let (out, report, questions) = scan_skewed_recording(&files, threads, split_bytes);
            assert_eq!(
                out, base_out,
                "split {split_bytes:?}, threads {threads}: output diverged"
            );
            assert_eq!(report.lines, base_report.lines);
            assert_eq!(report.matched_lines, base_report.matched_lines);
            assert_eq!(
                questions, base_questions,
                "split {split_bytes:?}, threads {threads}: question set diverged"
            );
        }
    }
}

#[test]
fn skewed_contention_sweep_is_stable_and_attributes_ranges_once() {
    // The contention experiment: 1/2/4/8 workers over a skewed plan with
    // 4 KiB splits.  Every worker count must produce the sequential
    // bytes, report the same per-file batch-plane totals (per-range
    // counters merged once per file, never double-counted), and actually
    // split the giant file into many claimable ranges.
    let (scratch, tree) = skewed_scratch("contention", 700);
    let options = CliOptions::parse([PATTERN, &scratch.0.display().to_string()]).unwrap();
    let files = expand_targets(&options).files;

    let (base_out, base_report, _) = scan_skewed_recording(&files, 1, Some(4096));
    assert!(base_report.split_files >= 1, "giant file must split");
    assert!(
        base_report.ranges >= base_report.files + 4,
        "the giant file must contribute several ranges ({} ranges over {} files)",
        base_report.ranges,
        base_report.files
    );
    assert_eq!(base_report.lines as usize, tree.total_lines);
    for workers in [2usize, 4, 8] {
        let (out, report, _) = scan_skewed_recording(&files, workers, Some(4096));
        assert_eq!(out, base_out, "{workers} workers diverged");
        assert_eq!(report.files, base_report.files);
        assert_eq!(report.lines, base_report.lines);
        assert_eq!(report.matched_lines, base_report.matched_lines);
        assert_eq!(report.split_files, base_report.split_files);
        assert_eq!(report.ranges, base_report.ranges);
    }
}

#[test]
fn shared_session_never_exceeds_the_per_file_query_sum() {
    let config = CorpusTreeConfig {
        seed: 4242,
        files: 12,
        mean_lines: 30,
        pool: 20,
        pool_bias: 0.75,
    };
    let tree = CorpusTree::generate(&config);

    let backend_calls = |share_across_files: bool| -> u64 {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let oracle: Arc<dyn Oracle> = if share_across_files {
            Arc::new(SharedSession::new(backend.clone()))
        } else {
            backend.clone()
        };
        let re = SemRegexBuilder::new()
            .batched(true)
            .build_shared(PATTERN, oracle)
            .unwrap();
        let after_compile = backend.stats().calls;
        let stream_options = StreamOptions {
            scan: ScanOptions::batched(DEFAULT_CHUNK_LINES),
            ..StreamOptions::default()
        };
        for file in &tree.files {
            scan_stream(&re, &file.contents[..], &stream_options, |_, _, _| true).unwrap();
        }
        backend.stats().calls - after_compile
    };

    let shared = backend_calls(true);
    let per_file_sum = backend_calls(false);
    assert!(
        shared <= per_file_sum,
        "sharing can only remove backend questions ({shared} vs {per_file_sum})"
    );
    // On this pool-heavy corpus the shared session must dedupe for real.
    assert!(
        shared < per_file_sum,
        "shared-query corpus must dedupe across files ({shared} vs {per_file_sum})"
    );

    // Sub-file splitting must not re-open the dedupe: the same tree
    // scanned through the tree scheduler with 4-way range splitting and
    // one shared session still reaches the backend at most the per-file
    // sum (ranges of a file share the file's session, so per-range
    // scans add no duplicate backend questions).
    let scratch = Scratch::new("split-shared");
    tree.write_to(&scratch.0).unwrap();
    let options = CliOptions::parse([PATTERN, &scratch.0.display().to_string()]).unwrap();
    let files = expand_targets(&options).files;
    let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
    let session = SharedSession::new(backend.clone());
    let re = SemRegexBuilder::new()
        .batched(true)
        .build_shared(PATTERN, Arc::new(session))
        .unwrap();
    let after_compile = backend.stats().calls;
    let (_, report) = tree_scan_with(&re, &files, 4, Some(1024));
    let split_shared = backend.stats().calls - after_compile;
    assert!(
        split_shared <= per_file_sum,
        "split ranges must not duplicate backend questions ({split_shared} vs {per_file_sum})"
    );
    assert!(
        report.batch.keys_submitted == 0
            || report.batch.backend_keys <= report.batch.keys_submitted,
        "per-file merged batch counters must stay consistent"
    );
}

/// Scan threads that reach the same fresh question at the same time ask
/// the backend once between them: over files that repeat the same
/// medicine lines, the shared session's `backend_keys` equals the number
/// of records appended to the answer log.
#[test]
fn racing_scan_threads_ask_the_backend_once_per_logged_answer() {
    let scratch = Scratch::new("single-flight");
    let tree = scratch.0.join("tree");
    std::fs::create_dir_all(&tree).unwrap();
    let lines = "Subject: cheap tramadol now\nSubject: buy xanax\nSubject: hello friend\n";
    for file in 0..4 {
        std::fs::write(tree.join(format!("f{file}.txt")), lines).unwrap();
    }
    let mut args: Vec<String> = "--batched --threads 2 --oracle-delay 1000 --stats --count"
        .split(' ')
        .map(String::from)
        .collect();
    let log = scratch.0.join("answers.log").display().to_string();
    args.extend(["--answer-log".into(), log, PATTERN.into()]);
    args.push(tree.display().to_string());
    let options = CliOptions::parse(args).unwrap();
    let outcome = run_paths(&options, &expand_targets(&options), &mut Vec::new()).unwrap();
    let field = |prefix: &str, name: &str| stderr_field(&outcome.stderr, prefix, name);
    let appended = field("answer_store:", "appended");
    assert!(appended > 0);
    assert_eq!(
        field("shared_session:", "backend_keys"),
        appended,
        "{:?}",
        outcome.stderr
    );
}

/// The numeric field `name` of the `--stats` line starting with `prefix`.
fn stderr_field(stderr: &[String], prefix: &str, name: &str) -> u64 {
    let line = stderr.iter().find(|l| l.starts_with(prefix));
    let line = line.unwrap_or_else(|| panic!("no {prefix} line: {stderr:?}"));
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {line}"))
}

/// The synchronous batched plane parks every line of a chunk on its next
/// missing key and asks the union in one round trip, so on a tree whose
/// giant file names a fresh medicine on most lines the backend sees far
/// fewer round trips than keys — while the keys asked, and the output,
/// stay those of the overlapped plane.
#[test]
fn synchronous_scans_carry_many_keys_per_round_trip() {
    let scratch = Scratch::new("sync-round-trips");
    let tree = scratch.0.join("tree");
    let config = CorpusTreeConfig {
        seed: 17,
        files: 3,
        mean_lines: 20,
        ..CorpusTreeConfig::default()
    };
    CorpusTree::generate_skewed(&config, 300)
        .write_to(&tree)
        .unwrap();
    let run = |plane: &[&str], log: &str| {
        let mut args: Vec<String> = plane.iter().map(|s| s.to_string()).collect();
        args.extend(
            "--batched --oracle-delay 1000 --split-bytes 4096 --stats --count --answer-log"
                .split(' ')
                .map(String::from),
        );
        args.push(scratch.0.join(log).display().to_string());
        args.push(PATTERN.into());
        args.push(tree.display().to_string());
        let options = CliOptions::parse(args).unwrap();
        let mut out = Vec::new();
        let outcome = run_paths(&options, &expand_targets(&options), &mut out).unwrap();
        (out, outcome.stderr)
    };
    let (sync_out, stderr) = run(&["--threads", "1"], "sync.log");
    let field = |prefix: &str, name: &str| stderr_field(&stderr, prefix, name);
    let keys = field("shared_session:", "backend_keys");
    let round_trips = field("shared_session:", "backend_calls");
    assert!(keys > 0, "{stderr:?}");
    assert!(round_trips * 3 <= keys, "{stderr:?}");
    assert_eq!(keys, field("answer_store:", "appended"), "{stderr:?}");

    let (pooled_out, _) = run(&["--threads", "1", "--oracle-threads", "2"], "pooled.log");
    assert!(!sync_out.is_empty());
    assert_eq!(sync_out, pooled_out);
}
