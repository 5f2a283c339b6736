//! Property-based equivalence between the query-graph matcher and the
//! dynamic-programming baseline.
//!
//! The two algorithms implement the same denotational semantics
//! (Equation 2 of the paper) by completely different means; Theorem 3.6 /
//! Theorem 3.9 assert that the query-graph algorithm is correct.  These
//! tests check that claim empirically on randomly generated SemREs, input
//! strings, and (deterministic, pseudo-random) oracles, across every
//! matcher configuration — including the batched oracle plane against the
//! per-call plane.  Randomness comes from a seeded SplitMix64 sweep, so the
//! suite is deterministic without external crates.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use semre_automata::{compile, EpsClosure};
use semre_core::{DpMatcher, EvalReport, GadgetTopology, Matcher, MatcherConfig};
use semre_oracle::{Oracle, PredicateOracle, ResolverPool};
use semre_syntax::{CharClass, Semre};
use semre_workloads::rng::StdRng as Rng;

/// A deterministic pseudo-random oracle: accepts roughly a third of all
/// `(query, text)` pairs, decided by hashing.
fn hash_oracle(seed: u64) -> impl Oracle {
    PredicateOracle::new(move |query: &str, text: &[u8]| {
        let mut h = DefaultHasher::new();
        seed.hash(&mut h);
        query.hash(&mut h);
        text.hash(&mut h);
        h.finish() % 3 == 0
    })
}

/// Random SemREs over the alphabet {a, b, c} with queries drawn from
/// {q0, q1}, including nested refinements.
fn random_semre(rng: &mut Rng, depth: u32) -> Semre {
    if depth == 0 || rng.gen_range(0..3u32) == 0 {
        return match rng.gen_range(0..6u32) {
            0 => Semre::Eps,
            1 => Semre::byte(b'a'),
            2 => Semre::byte(b'b'),
            3 => Semre::byte(b'c'),
            4 => Semre::class(CharClass::from_bytes([b'a', b'b'])),
            _ => Semre::any(),
        };
    }
    match rng.gen_range(0..4u32) {
        0 => Semre::concat(random_semre(rng, depth - 1), random_semre(rng, depth - 1)),
        1 => Semre::union(random_semre(rng, depth - 1), random_semre(rng, depth - 1)),
        2 => Semre::star(random_semre(rng, depth - 1)),
        _ => Semre::query(
            random_semre(rng, depth - 1),
            format!("q{}", rng.gen_range(0..2u32)),
        ),
    }
}

/// Random short input strings over {a, b, c}.
fn random_input(rng: &mut Rng) -> Vec<u8> {
    let len = rng.gen_range(0..9usize);
    (0..len)
        .map(|_| b'a' + rng.gen_range(0..3u32) as u8)
        .collect()
}

fn all_configs() -> Vec<MatcherConfig> {
    vec![
        MatcherConfig::default(),
        MatcherConfig::per_call(),
        MatcherConfig::eager(),
        MatcherConfig {
            batched_oracle: true,
            ..MatcherConfig::eager()
        },
        MatcherConfig {
            skeleton_prefilter: false,
            prune_coreachable: true,
            lazy_oracle: true,
            batched_oracle: true,
            ..MatcherConfig::default()
        },
        MatcherConfig {
            skeleton_prefilter: true,
            prune_coreachable: false,
            lazy_oracle: false,
            batched_oracle: false,
            ..MatcherConfig::default()
        },
        MatcherConfig::nfa_prefilter(),
    ]
}

/// The query-graph matcher agrees with the DP baseline on random
/// (SemRE, string, oracle) triples, in every configuration.
#[test]
fn snfa_matches_iff_baseline_matches() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for case in 0..250 {
        let semre = random_semre(&mut rng, 4);
        let input = random_input(&mut rng);
        let oracle = hash_oracle(rng.gen_range(0..32u64));
        let baseline = DpMatcher::new(semre.clone(), &oracle);
        let expected = baseline.is_match(&input);
        for config in all_configs() {
            let matcher = Matcher::with_config(semre.clone(), &oracle, config);
            assert_eq!(
                matcher.is_match(&input),
                expected,
                "case {case}: config {:?} disagrees on r = {} and w = {:?}",
                config,
                semre,
                String::from_utf8_lossy(&input)
            );
        }
    }
}

/// On classical expressions (no refinements), matching is independent of
/// the oracle and agrees across seeds.
#[test]
fn classical_expressions_ignore_the_oracle() {
    let mut rng = Rng::seed_from_u64(0xA11CE);
    for _ in 0..200 {
        let semre = random_semre(&mut rng, 4);
        let input = random_input(&mut rng);
        let skeleton = semre_syntax::skeleton(&semre);
        let a = Matcher::new(skeleton.clone(), hash_oracle(0)).is_match(&input);
        let b = Matcher::new(skeleton.clone(), hash_oracle(1)).is_match(&input);
        assert_eq!(a, b, "skeleton {skeleton} depends on the oracle");
    }
}

/// Lazy oracle discharge and co-reachability pruning never *increase* the
/// number of oracle calls compared to the eager configuration.
#[test]
fn optimizations_do_not_increase_oracle_calls() {
    let mut rng = Rng::seed_from_u64(0xBADA55);
    for _ in 0..200 {
        let semre = random_semre(&mut rng, 4);
        let input = random_input(&mut rng);
        let oracle = hash_oracle(rng.gen_range(0..16u64));
        let optimized = Matcher::new(semre.clone(), &oracle);
        let eager = Matcher::with_config(semre.clone(), &oracle, MatcherConfig::eager());
        let opt_calls = optimized.run(&input).oracle_calls;
        let eager_calls = eager.run(&input).oracle_calls;
        assert!(
            opt_calls <= eager_calls,
            "optimized made {opt_calls} calls, eager made {eager_calls} (r = {semre})"
        );
    }
}

/// The batched plane never resolves more unique oracle keys than the
/// per-call plane issues calls, and issues the same logical requests.
#[test]
fn batched_plane_is_no_worse_than_per_call() {
    let mut rng = Rng::seed_from_u64(0x1ED6E2);
    for _ in 0..250 {
        let semre = random_semre(&mut rng, 4);
        let input = random_input(&mut rng);
        let oracle = hash_oracle(rng.gen_range(0..16u64));
        let batched = Matcher::with_config(
            semre.clone(),
            &oracle,
            MatcherConfig {
                batched_oracle: true,
                ..MatcherConfig::default()
            },
        );
        let per_call = Matcher::with_config(semre.clone(), &oracle, MatcherConfig::per_call());
        let b = batched.run(&input);
        let p = per_call.run(&input);
        assert_eq!(b.matched, p.matched, "verdicts diverge on r = {semre}");
        assert_eq!(
            b.oracle_calls, p.oracle_calls,
            "logical request counts diverge on r = {semre}"
        );
        assert!(
            b.unique_keys <= p.oracle_calls,
            "ledger resolved {} unique keys but per-call issued only {} calls (r = {semre})",
            b.unique_keys,
            p.oracle_calls
        );
        assert_eq!(b.keys_deduped, b.oracle_calls - b.unique_keys);
    }
}

/// Records the `(query, text)` questions that reach the wrapped oracle.
struct Recording<O> {
    inner: O,
    asked: Mutex<BTreeSet<(String, Vec<u8>)>>,
}

impl<O: Oracle> Oracle for Recording<O> {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.asked
            .lock()
            .unwrap()
            .insert((query.to_owned(), text.to_vec()));
        self.inner.holds(query, text)
    }
}

impl<O> Recording<O> {
    fn new(inner: O) -> Self {
        Recording {
            inner,
            asked: Mutex::new(BTreeSet::new()),
        }
    }

    fn take(&self) -> BTreeSet<(String, Vec<u8>)> {
        std::mem::take(&mut self.asked.lock().unwrap())
    }
}

/// Evaluates `input` on a session over a one-worker resolver pool, parking
/// and resuming until it is decided: the path on which a parked line's
/// questions follow the breadth-first schedule (when the pattern allows
/// one).
fn run_parked<O: Oracle>(matcher: &Matcher<O>, pool: &ResolverPool, input: &[u8]) -> EvalReport {
    let mut session = matcher.session_with_pool(pool);
    let mut seen = pool.generation();
    let mut outcome = matcher.try_run_in_session(input, &mut session);
    loop {
        match outcome {
            Ok(report) => return report,
            Err(parked) => {
                seen = pool.wait_for_progress(seen);
                outcome = matcher.resume_run_in_session(parked, input, &mut session);
            }
        }
    }
}

/// The breadth-first schedule of a parked line, the per-position schedule
/// of an inline session, and the per-call plane ask the backend the same
/// set of `(query, text)` questions and agree on the verdict and on every
/// count of the report but the round trips — on random SemREs, whether
/// or not their opens allow a schedule (nested and sequenced queries,
/// queries under a star do not).
#[test]
fn question_schedules_ask_identical_key_sets() {
    let mut rng = Rng::seed_from_u64(0x5C4ED);
    let (mut scheduled, mut fallback) = (0, 0);
    for case in 0..600 {
        let semre = random_semre(&mut rng, 4);
        let input = random_input(&mut rng);
        let seed = rng.gen_range(0..16u64);
        for lazy_oracle in [true, false] {
            let config = MatcherConfig {
                lazy_oracle,
                ..MatcherConfig::default()
            };
            let per_call_config = MatcherConfig {
                batched_oracle: false,
                ..config
            };
            let per_call = Matcher::with_config(
                semre.clone(),
                Recording::new(hash_oracle(seed)),
                per_call_config,
            );
            let inline =
                Matcher::with_config(semre.clone(), Recording::new(hash_oracle(seed)), config);
            let parked = Matcher::with_config(semre.clone(), hash_oracle(seed), config);
            let backend = Arc::new(Recording::new(hash_oracle(seed)));
            let pool = ResolverPool::new(backend.clone(), 1, 0);
            per_call.oracle().take();
            inline.oracle().take();

            let p = per_call.run(&input);
            let i = inline.run(&input);
            let s = run_parked(&parked, &pool, &input);
            let label = format!(
                "case {case}, lazy={lazy_oracle}: r = {semre}, w = {:?}",
                String::from_utf8_lossy(&input)
            );
            let asked = backend.take();
            assert_eq!(asked, inline.oracle().take(), "{label}");
            assert_eq!(asked, per_call.oracle().take(), "{label}");
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
                "{label}"
            );
            assert_eq!(
                (s.matched, s.oracle_calls, s.vertices_alive),
                (p.matched, p.oracle_calls, p.vertices_alive),
                "{label}"
            );
            if !asked.is_empty() {
                let snfa = compile(&semre);
                let closure = EpsClosure::compute(&snfa, &hash_oracle(seed));
                if GadgetTopology::new(&snfa, &closure).answer_free_opens() {
                    scheduled += 1;
                } else {
                    fallback += 1;
                }
            }
        }
    }
    assert!(
        scheduled > 20 && fallback > 20,
        "{scheduled} scheduled, {fallback} fallback"
    );
}
