//! Equivalence of the three execution paths on the nine benchmark SemREs:
//!
//! * `Matcher` on the batched query plane (the default),
//! * `Matcher` on the per-call plane (the paper's prototype behaviour),
//! * `DpMatcher`, the dynamic-programming baseline,
//!
//! including the batch-plane accounting invariants the refactor promises:
//! the batched plane issues exactly the per-call plane's logical requests,
//! and the ledger resolves at most as many unique keys as the per-call
//! plane issues calls — and, for a line parked on a resolver pool, the
//! breadth-first question schedule asks exactly the keys of the
//! per-position schedule.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use semre::automata::{compile, EpsClosure};
use semre::core::GadgetTopology;
use semre::oracle::{Oracle, PredicateOracle, ResolverPool};
use semre::{parse, DpMatcher, EvalReport, Matcher, MatcherConfig, Semre};
use semre_workloads::Workbench;

/// A corpus sample small enough for the cubic DP baseline.
fn sample_lines(workbench: &Workbench, spec: &semre_workloads::BenchSpec) -> Vec<String> {
    workbench
        .corpus(spec.dataset)
        .truncated_to(100)
        .lines()
        .iter()
        .take(80)
        .cloned()
        .collect()
}

#[test]
fn batched_per_call_and_dp_agree_on_the_bench_set() {
    let workbench = Workbench::generate(20250613, 400, 400);
    for spec in workbench.benchmarks() {
        let lines = sample_lines(&workbench, &spec);
        let batched = Matcher::new(spec.semre.clone(), Arc::clone(&spec.oracle));
        let per_call = Matcher::with_config(
            spec.semre.clone(),
            Arc::clone(&spec.oracle),
            MatcherConfig::per_call(),
        );
        let dp = DpMatcher::new(spec.semre.clone(), Arc::clone(&spec.oracle));

        let mut matched_lines = 0;
        for line in &lines {
            let b = batched.run(line.as_bytes());
            let p = per_call.run(line.as_bytes());
            let d = dp.run(line.as_bytes());
            assert_eq!(
                b.matched, p.matched,
                "{}: batched and per-call planes disagree on {line:?}",
                spec.name
            );
            assert_eq!(
                b.matched, d.matched,
                "{}: query-graph and DP matchers disagree on {line:?}",
                spec.name
            );
            assert_eq!(
                b.oracle_calls, p.oracle_calls,
                "{}: the planes must issue identical logical requests on {line:?}",
                spec.name
            );
            assert!(
                b.unique_keys <= p.oracle_calls,
                "{}: ledger resolved {} unique keys, per-call issued {} calls on {line:?}",
                spec.name,
                b.unique_keys,
                p.oracle_calls
            );
            assert!(
                b.batches <= b.unique_keys.max(1),
                "{}: more round trips than resolved keys on {line:?}",
                spec.name
            );
            matched_lines += usize::from(b.matched);
        }
        assert!(
            matched_lines > 0,
            "{}: sample contains no positives",
            spec.name
        );
        assert!(
            matched_lines < lines.len(),
            "{}: sample contains no negatives",
            spec.name
        );
    }
}

#[test]
fn shared_sessions_preserve_verdicts_on_the_bench_set() {
    let workbench = Workbench::generate(77, 300, 300);
    for spec in workbench.benchmarks() {
        let lines = sample_lines(&workbench, &spec);
        let matcher = Matcher::new(spec.semre.clone(), Arc::clone(&spec.oracle));

        let independent: Vec<bool> = lines
            .iter()
            .map(|l| matcher.is_match(l.as_bytes()))
            .collect();

        let mut session = matcher.session();
        let mut shared = Vec::with_capacity(lines.len());
        let mut unique_keys = 0;
        let mut logical_requests = 0;
        for line in &lines {
            let report = matcher.run_in_session(line.as_bytes(), &mut session);
            shared.push(report.matched);
            unique_keys += report.unique_keys;
            logical_requests += report.oracle_calls;
        }
        assert_eq!(
            shared, independent,
            "{}: chunk session changed verdicts",
            spec.name
        );

        let stats = session.stats();
        assert_eq!(
            stats.keys_submitted, unique_keys,
            "{}: the session sees exactly the ledgers' unique keys",
            spec.name
        );
        assert!(
            stats.backend_keys <= unique_keys,
            "{}: content dedup cannot increase keys",
            spec.name
        );
        assert!(logical_requests >= unique_keys, "{}", spec.name);
    }
}

#[test]
fn dp_baseline_sessions_never_increase_backend_traffic() {
    use semre::Instrumented;
    let workbench = Workbench::generate(9, 200, 200);
    for name in ["spam,1", "ip", "file"] {
        let spec = workbench.benchmark(name).expect("bench set row");
        let lines = sample_lines(&workbench, &spec);
        let lines: Vec<&String> = lines.iter().take(30).collect();

        let backend = Instrumented::new(Arc::clone(&spec.oracle));
        let dp = DpMatcher::new(spec.semre.clone(), &backend);

        let before = backend.stats().calls;
        let independent: Vec<bool> = lines.iter().map(|l| dp.is_match(l.as_bytes())).collect();
        let per_call_calls = backend.stats().calls - before;

        let before = backend.stats().calls;
        let mut session = dp.session();
        let shared: Vec<bool> = lines
            .iter()
            .map(|l| dp.run_in_session(l.as_bytes(), &mut session).matched)
            .collect();
        let session_calls = backend.stats().calls - before;

        assert_eq!(shared, independent, "{name}: session changed DP verdicts");
        assert!(
            session_calls <= per_call_calls,
            "{name}: session increased backend traffic ({session_calls} vs {per_call_calls})"
        );
    }
}

/// Records the `(query, text)` questions that reach the wrapped oracle.
struct Recording {
    inner: Arc<dyn Oracle>,
    asked: Mutex<BTreeSet<(String, Vec<u8>)>>,
}

impl Oracle for Recording {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.asked
            .lock()
            .unwrap()
            .insert((query.to_owned(), text.to_vec()));
        self.inner.holds(query, text)
    }
}

impl Recording {
    fn new(inner: Arc<dyn Oracle>) -> Arc<Self> {
        Arc::new(Recording {
            inner,
            asked: Mutex::new(BTreeSet::new()),
        })
    }

    fn take(&self) -> BTreeSet<(String, Vec<u8>)> {
        std::mem::take(&mut self.asked.lock().unwrap())
    }
}

/// Decides `line` on a session over a one-worker resolver pool, resuming
/// the parked evaluation as the pool publishes answers.
fn run_parked(matcher: &Matcher<Arc<dyn Oracle>>, pool: &ResolverPool, line: &[u8]) -> EvalReport {
    let mut session = matcher.session_with_pool(pool);
    let mut seen = pool.generation();
    let mut outcome = matcher.try_run_in_session(line, &mut session);
    loop {
        match outcome {
            Ok(report) => return report,
            Err(parked) => {
                seen = pool.wait_for_progress(seen);
                outcome = matcher.resume_run_in_session(parked, line, &mut session);
            }
        }
    }
}

/// Whether the pattern's parked lines take the breadth-first schedule.
fn schedules(semre: &Semre, oracle: &dyn Oracle) -> bool {
    let snfa = compile(semre);
    GadgetTopology::new(&snfa, &EpsClosure::compute(&snfa, oracle)).answer_free_opens()
}

/// Checks, line by line, that a line parked on a resolver pool, a line on
/// an inline session and a line on the per-call plane ask the backend the
/// same `(query, text)` keys, with the same verdict and report counts
/// (round trips aside).
fn assert_identical_key_sets(
    name: &str,
    semre: &Semre,
    oracle: &Arc<dyn Oracle>,
    lines: &[String],
) {
    let per_call_backend = Recording::new(Arc::clone(oracle));
    let inline_backend = Recording::new(Arc::clone(oracle));
    let pool_backend = Recording::new(Arc::clone(oracle));
    let per_call = Matcher::with_config(
        semre.clone(),
        per_call_backend.clone() as Arc<dyn Oracle>,
        MatcherConfig::per_call(),
    );
    let inline = Matcher::new(semre.clone(), inline_backend.clone() as Arc<dyn Oracle>);
    let parked = Matcher::new(semre.clone(), Arc::clone(oracle));
    per_call_backend.take();
    inline_backend.take();
    for line in lines {
        // A fresh pool per line, so each line asks its own keys.
        let pool = ResolverPool::new(pool_backend.clone(), 1, 0);
        let p = per_call.run(line.as_bytes());
        let i = inline.run(line.as_bytes());
        let s = run_parked(&parked, &pool, line.as_bytes());
        let asked = pool_backend.take();
        assert_eq!(asked, inline_backend.take(), "{name}: {line:?}");
        assert_eq!(asked, per_call_backend.take(), "{name}: {line:?}");
        assert_eq!(
            (
                s.matched,
                s.oracle_calls,
                s.unique_keys,
                s.keys_deduped,
                s.vertices_alive
            ),
            (
                i.matched,
                i.oracle_calls,
                i.unique_keys,
                i.keys_deduped,
                i.vertices_alive
            ),
            "{name}: {line:?}"
        );
        assert_eq!(
            (s.matched, s.oracle_calls, s.vertices_alive),
            (p.matched, p.oracle_calls, p.vertices_alive),
            "{name}: {line:?}"
        );
    }
}

#[test]
fn question_schedules_ask_identical_key_sets_on_the_bench_set() {
    let workbench = Workbench::generate(20250613, 400, 400);
    let mut scheduled = 0;
    for spec in workbench.benchmarks() {
        let lines = sample_lines(&workbench, &spec);
        let lines = &lines[..40];
        assert_identical_key_sets(spec.name, &spec.semre, &spec.oracle, lines);
        scheduled += usize::from(schedules(&spec.semre, spec.oracle.as_ref()));
    }
    assert!(scheduled > 0, "no bench-set pattern takes the schedule");

    // Sequenced and nested queries make an open depend on an oracle
    // answer, so their parked lines keep the per-position schedule.
    let oracle: Arc<dyn Oracle> = Arc::new(PredicateOracle::new(|query: &str, text: &[u8]| {
        text.len() % 3 == usize::from(query.len() % 2 == 0)
    }));
    let lines: Vec<String> = ["ab cd", "abc de fgh", "x yz", "hello world again"]
        .iter()
        .map(|line| (*line).to_owned())
        .collect();
    for pattern in [
        "(?<A>: [a-z]+) (?<B>: [a-z]+)",
        ".*(?<Outer>: (?<Inner>: [a-z]+) [a-z]+).*",
    ] {
        let semre = parse(pattern).unwrap();
        assert!(!schedules(&semre, oracle.as_ref()), "{pattern}");
        assert_identical_key_sets(pattern, &semre, &oracle, &lines);
    }
}
