//! Cross-crate integration tests: the full pipeline from concrete syntax
//! through oracles, corpora, matching, and the grep engine — driven
//! through the `semre` facade wherever a user would be.

use std::sync::Arc;

use semre::{
    Instrumented, LatencyModel, MatcherConfig, Oracle, SemRegex, SemRegexBuilder, SharedSession,
    SimLlmOracle,
};
use semre_grep::{scan, scan_lines, ScanOptions};
use semre_workloads::{Dataset, Workbench};

#[test]
fn both_algorithms_agree_on_a_corpus_sample() {
    let workbench = Workbench::generate(123, 400, 400);
    for spec in workbench.benchmarks() {
        let corpus = workbench.corpus(spec.dataset).truncated_to(120);
        let lines: Vec<&String> = corpus.lines().iter().take(120).collect();
        let snfa = SemRegexBuilder::new()
            .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
            .expect("benchmark SemREs compile");
        let dp = SemRegexBuilder::new()
            .dp_baseline(true)
            .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
            .expect("benchmark SemREs compile");
        for line in lines {
            assert_eq!(
                snfa.is_match(line.as_bytes()),
                dp.is_match(line.as_bytes()),
                "{}: algorithms disagree on {line:?}",
                spec.name
            );
        }
    }
}

#[test]
fn matcher_configurations_agree_on_membership() {
    let workbench = Workbench::generate(321, 200, 200);
    let spec = workbench.benchmark("edom").expect("edom exists");
    let corpus = workbench.corpus(Dataset::Spam).truncated_to(150);
    let default = SemRegexBuilder::new()
        .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
        .unwrap();
    let eager = SemRegexBuilder::new()
        .matcher_config(MatcherConfig::eager())
        .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
        .unwrap();
    for line in corpus.lines().iter().take(150) {
        assert_eq!(
            default.is_match(line.as_bytes()),
            eager.is_match(line.as_bytes())
        );
    }
}

#[test]
fn caching_reduces_oracle_traffic_without_changing_answers() {
    let workbench = Workbench::generate(55, 300, 0);
    let spec = workbench.benchmark("spam,1").expect("spam,1 exists");
    let corpus = workbench.corpus(Dataset::Spam).truncated_to(120);

    let raw = Arc::new(Instrumented::new(Arc::clone(&spec.oracle)));
    let uncached = SemRegexBuilder::new()
        .per_call()
        .build_semre_shared(spec.semre.clone(), raw.clone())
        .unwrap();
    let uncached_hits: Vec<bool> = corpus
        .lines()
        .iter()
        .map(|l| uncached.is_match(l.as_bytes()))
        .collect();

    let backend = Arc::new(Instrumented::new(Arc::clone(&spec.oracle)));
    let cached_stack = Arc::new(SharedSession::new(backend.clone()));
    let cached = SemRegexBuilder::new()
        .per_call()
        .build_semre_shared(spec.semre.clone(), cached_stack.clone())
        .unwrap();
    let cached_hits: Vec<bool> = corpus
        .lines()
        .iter()
        .map(|l| cached.is_match(l.as_bytes()))
        .collect();

    assert_eq!(uncached_hits, cached_hits);
    assert!(
        backend.stats().calls < raw.stats().calls,
        "the cache should absorb repeated (query, substring) pairs ({} vs {})",
        backend.stats().calls,
        raw.stats().calls
    );
    assert!(cached_stack.stats().keys_deduped > 0);
}

#[test]
fn grep_engine_matches_cli_outcome() {
    let pattern = r"Subject: .*(?<Medicine name>: .+).*";
    let re = SemRegex::new(pattern, SimLlmOracle::new()).unwrap();
    let lines = vec![
        "Subject: cheap adderall pills".to_owned(),
        "Subject: faculty meeting".to_owned(),
        "unrelated line".to_owned(),
    ];
    let report = scan(
        &re,
        &lines,
        semre::oracle::OracleStats::default,
        ScanOptions::unlimited(),
    );
    assert_eq!(report.matched_lines(), 1);

    let parallel = scan_lines(&re, &lines, ScanOptions::unlimited().with_threads(3));
    assert_eq!(parallel.matched_lines(), 1);

    let options = semre_grep::cli::CliOptions::parse(["--count", pattern]).expect("valid options");
    let outcome =
        semre_grep::cli::run_on_text(&options, &lines.join("\n")).expect("cli run succeeds");
    assert_eq!(outcome.stdout, vec!["1".to_owned()]);
}

#[test]
fn cli_span_search_agrees_with_facade_find_iter() {
    let pattern = r"(?<Medicine name>: [a-z]+)";
    let text = "order tramadol now\nno meds\nambien ambien\n";
    let re = SemRegex::new(pattern, SimLlmOracle::new()).unwrap();
    let expected: Vec<String> = text
        .lines()
        .flat_map(|line| {
            re.find_iter(line.as_bytes())
                .map(|m| m.as_str().unwrap().to_owned())
                .collect::<Vec<_>>()
        })
        .collect();

    let options =
        semre_grep::cli::CliOptions::parse(["--only-matching", pattern]).expect("valid options");
    let outcome = semre_grep::cli::run_on_text(&options, text).expect("cli run succeeds");
    assert_eq!(outcome.stdout, expected);
    assert_eq!(expected, vec!["tramadol", "ambien", "ambien"]);
}

#[test]
fn latency_model_shows_up_in_oracle_fraction() {
    let workbench = Workbench::generate(77, 250, 0);
    let spec = workbench.benchmark("spam,1").expect("spam,1 exists");
    let corpus = workbench.corpus(Dataset::Spam).truncated_to(100);
    let oracle = Arc::new(Instrumented::with_spun_latency(
        Arc::clone(&spec.oracle),
        LatencyModel::llm(),
    ));
    let re = SemRegexBuilder::new()
        .per_call()
        .build_semre_shared(spec.semre.clone(), oracle.clone())
        .unwrap();
    let report = scan(
        &re,
        corpus.lines(),
        || oracle.stats(),
        ScanOptions::unlimited(),
    );
    // With a (scaled) LLM-like latency injected, matching time is dominated
    // by the oracle, as in the paper's LLM-backed rows of Table 2.
    assert!(
        report.oracle_fraction() > 0.5,
        "expected an oracle-dominated run, fraction = {}",
        report.oracle_fraction()
    );
}

#[test]
fn skeleton_prefilter_spares_the_oracle_entirely_on_clean_corpora() {
    // A corpus with no `Subject:` lines never needs the medicine oracle.
    let lines: Vec<String> = (0..50)
        .map(|i| format!("ordinary log line number {i} with no e-mail headers"))
        .collect();
    let oracle = Arc::new(Instrumented::new(SimLlmOracle::new()));
    let re = SemRegexBuilder::new()
        .per_call()
        .build_shared(r"Subject: .*(?<Medicine name>: .+).*", oracle.clone())
        .unwrap();
    let report = scan(&re, &lines, || oracle.stats(), ScanOptions::unlimited());
    assert_eq!(report.matched_lines(), 0);
    assert_eq!(report.oracle_totals().calls, 0);
}

#[test]
fn facade_reexports_are_usable_together() {
    // Build an oracle stack exactly like the paper's LLM setup and drive it
    // through the facade's re-exports only.
    let stack = SharedSession::new(Arc::new(Instrumented::with_latency(
        SimLlmOracle::new(),
        LatencyModel::llm(),
    )));
    assert!(stack.holds("Medicine name", b"cialis"));
    let r = semre::parse("(?<Medicine name>: [a-z]+)").unwrap();
    assert!(semre::skeleton(&r).is_classical());
    let re = SemRegex::builder().build_semre(r, stack).unwrap();
    assert!(re.is_match(b"cialis"));
    assert!(!re.is_match(b"42"));
    assert_eq!(re.find(b"__cialis__").unwrap().as_bytes(), b"cialis");
}
