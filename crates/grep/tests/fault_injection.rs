//! Fault injection: the oracle plane under failing, flaky, and panicking
//! backends.  The contract this suite pins down:
//!
//! 1. **Transparency**: transient faults absorbed by the retry layer are
//!    invisible — a `flaky:30` backend behind enough retry attempts
//!    produces byte-identical CLI output to the fault-free run, and the
//!    `--stats` retry line proves retries actually happened.
//! 2. **Fail-stop**: when retries are exhausted under the default `fail`
//!    policy, the scan stops with exit 2 and a diagnostic on stderr — a
//!    fault is never silently swallowed into a verdict.
//! 3. **Explicit degradation**: under `skip-line` / `no-match` a degraded
//!    scan reports *exactly* which lines were affected; every healthy
//!    line's verdict equals the fault-free verdict; the whole thing is
//!    deterministic for a fixed failure schedule.
//! 4. **Panic containment**: a backend that panics inside a resolver-pool
//!    worker or a parallel scan worker surfaces as a scan fault, not a
//!    hang or a process abort.

use std::sync::Arc;

use semre::oracle::persist::{decode_log, LOG_MAGIC};
use semre::{
    Instrumented, Oracle, PersistentAnswerStore, RetryOracle, RetryPolicy, SemRegex,
    SemRegexBuilder, SharedSession, SimLlmOracle,
};
use semre_grep::cli::{run_on_text, run_stream, CliOptions};
use semre_grep::{scan_lines, FaultPolicy, ScanOptions, ScanReport};
use semre_oracle::OracleStats;
use semre_workloads::{FlakyOracle, FlakySchedule, PanickingOracle};

const MEMBERSHIP: &str = r"Subject: .*(?<Medicine name>: .+).*";

/// A deterministic corpus mixing true matches (medicine names under the
/// skeleton), skeleton hits the oracle rejects, and lines the skeleton
/// rules out without consulting the oracle at all.
fn corpus_lines() -> Vec<String> {
    let drugs = ["xanax", "tramadol", "viagra", "ambien", "zoloft", "valium"];
    let noise = ["meeting", "deadline", "standup", "retro", "budget"];
    let mut lines = Vec::new();
    for i in 0..30usize {
        match i % 3 {
            0 => lines.push(format!(
                "Subject: buy {} online now",
                drugs[i / 3 % drugs.len()]
            )),
            1 => lines.push(format!(
                "Subject: {} notes week {}",
                noise[i % noise.len()],
                i
            )),
            _ => lines.push(format!(
                "{} without a subject header {}",
                noise[i % noise.len()],
                i
            )),
        }
    }
    lines
}

fn corpus_text() -> String {
    corpus_lines()
        .iter()
        .flat_map(|l| [l.as_str(), "\n"])
        .collect()
}

/// Parses `name=value` out of a `--stats` stderr line.
fn stat(line: &str, name: &str) -> u64 {
    line.split_whitespace()
        .find_map(|field| field.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no field {name} in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("field {name} in {line:?} is not a number"))
}

fn retry_line(stderr: &[String]) -> String {
    stderr
        .iter()
        .find(|l| l.starts_with("retry: "))
        .unwrap_or_else(|| panic!("no retry stats line in {stderr:?}"))
        .clone()
}

#[test]
fn transient_faults_behind_retries_are_byte_identical_to_fault_free() {
    let text = corpus_text();
    let baseline = CliOptions::parse(["--batched", "--stats", MEMBERSHIP]).unwrap();
    let mut expected_out = Vec::new();
    let expected = run_stream(&baseline, text.as_bytes(), &mut expected_out).unwrap();
    assert!(!expected_out.is_empty(), "corpus must produce matches");

    // 30% of backend calls fail transiently; 8 attempts make the chance
    // of an exhausted retry vanishingly small, and the fixed seed makes
    // the schedule (hence the whole run) reproducible.
    let flaky = CliOptions::parse([
        "--batched",
        "--stats",
        "--oracle",
        "flaky:30:7:8:sim-llm",
        MEMBERSHIP,
    ])
    .unwrap();
    let mut got_out = Vec::new();
    let got = run_stream(&flaky, text.as_bytes(), &mut got_out).unwrap();

    assert_eq!(
        got_out, expected_out,
        "verdicts diverged under transient faults"
    );
    assert_eq!(got.stdout, expected.stdout);
    assert_eq!(got.exit_code, expected.exit_code);
    assert!(
        !got.stderr.iter().any(|l| l.starts_with("grepo: ")),
        "absorbed faults must not warn: {:?}",
        got.stderr
    );

    let retries = retry_line(&got.stderr);
    assert!(
        stat(&retries, "retries") > 0,
        "faults were scheduled: {retries}"
    );
    assert_eq!(
        stat(&retries, "failures"),
        0,
        "all faults absorbed: {retries}"
    );
    assert!(
        !expected.stderr.iter().any(|l| l.starts_with("retry: ")),
        "non-flaky specs have no retry layer to report"
    );

    // Same schedule, same run: the whole outcome is deterministic.
    let mut again_out = Vec::new();
    let again = run_stream(&flaky, text.as_bytes(), &mut again_out).unwrap();
    assert_eq!(again_out, got_out);
    assert_eq!(again.exit_code, got.exit_code);
}

#[test]
fn exhausted_retries_under_fail_policy_exit_2_with_a_diagnostic() {
    // Every call fails, two attempts each: the first oracle question
    // exhausts its retries and the default `fail` policy stops the scan.
    let options = CliOptions::parse([
        "--batched",
        "--stats",
        "--oracle",
        "flaky:100:1:2:sim-llm",
        MEMBERSHIP,
    ])
    .unwrap();
    let text = corpus_text();

    let mut out = Vec::new();
    let outcome = run_stream(&options, text.as_bytes(), &mut out).unwrap();
    assert_eq!(outcome.exit_code, 2, "stderr: {:?}", outcome.stderr);
    let diagnostic = outcome
        .stderr
        .iter()
        .find(|l| l.starts_with("grepo: "))
        .unwrap_or_else(|| panic!("no fault diagnostic in {:?}", outcome.stderr));
    assert!(
        diagnostic.contains("oracle"),
        "diagnostic names the oracle: {diagnostic}"
    );
    let retries = retry_line(&outcome.stderr);
    assert!(stat(&retries, "failures") > 0, "{retries}");

    // The in-memory path agrees with the stream path.
    let on_text = run_on_text(&options, &text).unwrap();
    assert_eq!(on_text.exit_code, 2);
    assert!(on_text.stderr.iter().any(|l| l.starts_with("grepo: ")));
}

#[test]
fn degraded_policies_warn_exactly_and_still_exit_2() {
    let text = corpus_text();
    let healthy = CliOptions::parse(["--batched", MEMBERSHIP]).unwrap();
    let mut healthy_out = Vec::new();
    let healthy_outcome = run_stream(&healthy, text.as_bytes(), &mut healthy_out).unwrap();
    assert_eq!(healthy_outcome.exit_code, 0);

    for policy in ["skip-line", "no-match"] {
        let options = CliOptions::parse([
            "--batched",
            "--on-oracle-error",
            policy,
            "--oracle",
            "flaky:100:3:1:sim-llm",
            MEMBERSHIP,
        ])
        .unwrap();
        let mut out = Vec::new();
        let outcome = run_stream(&options, text.as_bytes(), &mut out).unwrap();

        // Every would-be match needed the oracle, and the oracle always
        // fails: nothing may be printed, and degradation is an error.
        assert!(out.is_empty(), "{policy}: degraded lines leaked: {out:?}");
        assert_eq!(
            outcome.exit_code, 2,
            "{policy}: degradation must not exit 0/1"
        );
        let warning = outcome
            .stderr
            .iter()
            .find(|l| l.contains("degraded"))
            .unwrap_or_else(|| panic!("{policy}: no degradation warning in {:?}", outcome.stderr));
        assert!(
            warning.contains(policy),
            "{policy}: warning names the policy: {warning}"
        );
        assert!(
            warning.contains("line "),
            "{policy}: warning lists line numbers: {warning}"
        );

        // Fixed schedule, fixed warning: stderr is fully deterministic
        // without --stats (no timings to vary).
        let mut again_out = Vec::new();
        let again = run_stream(&options, text.as_bytes(), &mut again_out).unwrap();
        assert_eq!(again.stderr, outcome.stderr, "{policy}");
        assert_eq!(again_out, out, "{policy}");
    }
}

/// Builds the membership pattern over `RetryOracle(FlakyOracle(sim-llm))`
/// with the given schedule — the engine-level twin of `--oracle flaky:`.
fn flaky_regex(rate: f64, seed: u64, attempts: u32) -> SemRegex {
    let flaky = FlakyOracle::new(SimLlmOracle::new(), FlakySchedule::with_rate(rate, seed));
    let retry = RetryOracle::with_policy(flaky, RetryPolicy::attempts(attempts));
    SemRegexBuilder::new()
        .batched(true)
        .chunk_lines(4)
        .build(MEMBERSHIP, retry)
        .expect("pattern compiles")
}

fn scan_with(re: &SemRegex, lines: &[String], policy: FaultPolicy) -> ScanReport {
    scan_lines(re, lines, ScanOptions::batched(4).with_fault_policy(policy))
}

#[test]
fn degraded_scans_report_exactly_the_faulted_lines() {
    let lines = corpus_lines();
    let healthy = SemRegexBuilder::new()
        .batched(true)
        .chunk_lines(4)
        .build(MEMBERSHIP, SimLlmOracle::new())
        .expect("pattern compiles");
    let expected: Vec<bool> = semre_grep::scan(
        &healthy,
        &lines,
        OracleStats::default,
        ScanOptions::unlimited(),
    )
    .records
    .iter()
    .map(|r| r.matched)
    .collect();
    assert!(expected.iter().any(|&m| m));
    assert!(expected.iter().any(|&m| !m));

    for rate in [0.1, 0.3, 0.6] {
        for seed in [1u64, 9] {
            for policy in [FaultPolicy::SkipLine, FaultPolicy::NoMatch] {
                let report = scan_with(&flaky_regex(rate, seed, 1), &lines, policy);
                let label = format!("rate={rate} seed={seed} policy={}", policy.name());

                assert!(
                    report.fault.is_none(),
                    "{label}: degrading policies never fail-stop"
                );
                assert!(
                    report.degraded.windows(2).all(|w| w[0] < w[1]),
                    "{label}: degraded indices sorted and unique: {:?}",
                    report.degraded
                );
                assert!(
                    report.degraded.iter().all(|&i| i < lines.len()),
                    "{label}: degraded indices in range"
                );

                match policy {
                    FaultPolicy::SkipLine => {
                        // Skipped lines produce no record; everything
                        // else is accounted for with its true verdict.
                        assert_eq!(
                            report.records.len() + report.degraded.len(),
                            lines.len(),
                            "{label}: every line is either recorded or skipped"
                        );
                        for record in &report.records {
                            assert!(
                                !report.degraded.contains(&record.index),
                                "{label}: line {} both recorded and skipped",
                                record.index
                            );
                            assert!(!record.degraded, "{label}");
                            assert_eq!(
                                record.matched, expected[record.index],
                                "{label}: healthy line {} changed verdict",
                                record.index
                            );
                        }
                    }
                    FaultPolicy::NoMatch => {
                        // Every line gets a record; degraded ones are
                        // reported (not decided) as non-matches.
                        assert_eq!(report.records.len(), lines.len(), "{label}");
                        for record in &report.records {
                            if report.degraded.contains(&record.index) {
                                assert!(record.degraded, "{label}: line {}", record.index);
                                assert!(!record.matched, "{label}: line {}", record.index);
                            } else {
                                assert!(!record.degraded, "{label}: line {}", record.index);
                                assert_eq!(
                                    record.matched, expected[record.index],
                                    "{label}: healthy line {} changed verdict",
                                    record.index
                                );
                            }
                        }
                    }
                    FaultPolicy::Fail => unreachable!(),
                }

                // Deterministic schedule ⇒ deterministic degradation.
                let again = scan_with(&flaky_regex(rate, seed, 1), &lines, policy);
                assert_eq!(again.degraded, report.degraded, "{label}");
                assert_eq!(
                    again
                        .records
                        .iter()
                        .map(|r| (r.index, r.matched))
                        .collect::<Vec<_>>(),
                    report
                        .records
                        .iter()
                        .map(|r| (r.index, r.matched))
                        .collect::<Vec<_>>(),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn enough_retry_attempts_make_engine_verdicts_fault_free() {
    let lines = corpus_lines();
    let healthy = SemRegexBuilder::new()
        .batched(true)
        .chunk_lines(4)
        .build(MEMBERSHIP, SimLlmOracle::new())
        .expect("pattern compiles");
    let expected: Vec<(usize, bool)> = scan_lines(&healthy, &lines, ScanOptions::batched(4))
        .records
        .iter()
        .map(|r| (r.index, r.matched))
        .collect();

    for seed in [2u64, 5, 11] {
        let report = scan_with(&flaky_regex(0.3, seed, 10), &lines, FaultPolicy::Fail);
        assert!(
            report.fault.is_none(),
            "seed={seed}: retries absorb 30% faults"
        );
        assert!(report.degraded.is_empty(), "seed={seed}");
        let got: Vec<(usize, bool)> = report
            .records
            .iter()
            .map(|r| (r.index, r.matched))
            .collect();
        assert_eq!(got, expected, "seed={seed}");
    }
}

/// The synchronous plane asks the missing keys of every parked line of a
/// chunk in one round trip.  When that round trip fails, exactly the lines
/// waiting on it degrade (under `skip-line`: dropped and listed), no
/// placeholder answer is cached or logged, and the failed keys are asked
/// again by the later lines that need them.
#[test]
fn a_failed_chunk_round_trip_degrades_exactly_the_lines_waiting_on_it() {
    let lines = corpus_lines();
    let counted = Arc::new(Instrumented::new(SimLlmOracle::new()));
    let healthy = SemRegexBuilder::new()
        .batched(true)
        .build_shared(MEMBERSHIP, counted.clone() as Arc<dyn Oracle>)
        .expect("pattern compiles");
    let reference = semre_grep::scan(
        &healthy,
        &lines,
        || counted.stats(),
        ScanOptions::unlimited(),
    );

    let dir = std::env::temp_dir().join(format!("semre-fault-flush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The stack of a logged tree scan: shared session and answer log over
    // a retry layer (one attempt) over a backend failing the given calls.
    let build = |log: &str, fail_nth: Vec<u64>| {
        let log = dir.join(log);
        let _ = std::fs::remove_file(&log);
        let flaky = FlakyOracle::new(SimLlmOracle::new(), FlakySchedule::with_fail_nth(fail_nth));
        let retry = RetryOracle::with_policy(flaky, RetryPolicy::attempts(1));
        let store = Arc::new(PersistentAnswerStore::open(&log).unwrap());
        let shared = SharedSession::with_persistence(Arc::new(retry), store, "flaky");
        let re = SemRegexBuilder::new()
            .batched(true)
            .chunk_lines(4)
            .build_shared(MEMBERSHIP, Arc::new(shared.clone()) as Arc<dyn Oracle>)
            .expect("pattern compiles");
        (re, shared, log)
    };
    // Fail the first round trip after the compile's ε-probes: the first
    // chunk's flush, which every oracle-bearing line of that chunk parked
    // on.
    let probes = build("probe.log", Vec::new()).1.stats().batches;
    let (re, shared, log) = build("answers.log", vec![probes]);
    let report = scan_lines(
        &re,
        &lines,
        ScanOptions::batched(4).with_fault_policy(FaultPolicy::SkipLine),
    );

    assert!(report.fault.is_none());
    let waiting: Vec<usize> = reference.records[..4]
        .iter()
        .filter(|r| r.oracle.calls > 0)
        .map(|r| r.index)
        .collect();
    assert!(!waiting.is_empty());
    assert_eq!(report.degraded, waiting);
    assert_eq!(report.records.len() + waiting.len(), lines.len());
    // Every other line keeps its healthy verdict — including later lines
    // that repeat a waiting line and so need the keys that failed.
    for record in &report.records {
        assert_eq!(
            record.matched, reference.records[record.index].matched,
            "line {}",
            record.index
        );
    }
    assert!(report
        .records
        .iter()
        .any(|r| r.matched && lines[r.index] == lines[waiting[0]]));

    // The log holds real answers only, one per key the session stores.
    let stored = shared.len();
    drop((re, shared));
    let bytes = std::fs::read(&log).unwrap();
    let records = decode_log(bytes.strip_prefix(&LOG_MAGIC[..]).unwrap()).records;
    assert_eq!(records.len(), stored);
    let llm = SimLlmOracle::new();
    for record in &records {
        assert_eq!(
            llm.holds(&record.query, &record.text),
            record.answer,
            "{record:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Counts the oracle calls a compile makes (ε-probes and such), so panic
/// ordinals can be scheduled to land inside the scan proper.
fn compile_probe_calls(overlapped: usize) -> u64 {
    let counter = Arc::new(PanickingOracle::new(SimLlmOracle::new(), Vec::new()));
    let mut builder = SemRegexBuilder::new().batched(true).chunk_lines(4);
    if overlapped > 0 {
        builder = builder.overlapped(overlapped);
    }
    let _re = builder
        .build_shared(MEMBERSHIP, counter.clone() as Arc<dyn Oracle>)
        .expect("pattern compiles");
    counter.calls()
}

#[test]
fn resolver_worker_panic_is_a_scan_fault_not_a_hang() {
    let lines = corpus_lines();
    let probes = compile_probe_calls(2);
    let panicking = Arc::new(PanickingOracle::new(SimLlmOracle::new(), vec![probes]));
    let re = SemRegexBuilder::new()
        .batched(true)
        .chunk_lines(4)
        .overlapped(2)
        .build_shared(MEMBERSHIP, panicking as Arc<dyn Oracle>)
        .expect("pattern compiles");

    // The panic fires on a pool worker thread; the scan must come back
    // with a fault (fail policy), not wedge waiting for answers.
    let report = scan_lines(&re, &lines, ScanOptions::batched(4));
    let fault = report.fault.expect("worker panic surfaces as a scan fault");
    assert!(
        fault.to_string().contains("panic"),
        "fault names the panic: {fault}"
    );
    let stats = re.resolver_pool().expect("overlapped handle").stats();
    assert!(
        stats.failed_batches > 0 || stats.dead_workers > 0,
        "pool accounted for the failure: {stats:?}"
    );
}

#[test]
fn parallel_scan_worker_panic_is_a_scan_fault_not_a_hang() {
    let lines = corpus_lines();
    let probes = compile_probe_calls(0);
    let panicking = Arc::new(PanickingOracle::new(SimLlmOracle::new(), vec![probes]));
    let re = SemRegexBuilder::new()
        .batched(true)
        .chunk_lines(4)
        .build_shared(MEMBERSHIP, panicking as Arc<dyn Oracle>)
        .expect("pattern compiles");

    let report = scan_lines(&re, &lines, ScanOptions::batched(4).with_threads(4));
    let fault = report
        .fault
        .expect("scan worker panic surfaces as a scan fault");
    assert!(
        fault.to_string().contains("panic"),
        "fault names the panic: {fault}"
    );
}
