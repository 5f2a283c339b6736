//! The public matching API.
//!
//! [`Matcher`] packages the full pipeline of the paper's algorithm — SemRE →
//! SNFA (Fig. 1), ε-feasibility closure (Fig. 11), gadget topology (Eq. 13)
//! — and exposes per-line membership testing via the query-graph evaluation
//! of Fig. 9.  Construction work is done once; matching a line costs
//! `O(|r|²|w|² + |r||w|³)` in the worst case (`O(|r|²|w|²)` without nested
//! queries) plus the oracle's own response time.

use semre_automata::{compile, EpsClosure, LazyDfa, Prescan, Snfa};
use semre_oracle::{BatchSession, Oracle, ResolverPool};
use semre_syntax::{skeleton, Semre};

use crate::eval::{
    evaluate_in_session, evaluate_resumable, evaluate_search_in_session,
    evaluate_search_with_scratch, evaluate_with_scratch, EvalOptions, EvalReport, QueryTable,
    ScratchPool, SearchKind, SuspendedEval,
};
use crate::topology::GadgetTopology;

/// A membership evaluation parked mid-line on a suspending session: the
/// verdict depends on oracle answers the session does not have yet, and
/// this value carries everything needed to continue the evaluation from
/// the exact position that suspended — the frontier of the preceding
/// position, the LOQ arena, the packed co-reachability bitmap, and the
/// question ledger whose pending keys the session is waiting on.
///
/// Obtained from [`Matcher::try_run_in_session`]; hand it back to
/// [`Matcher::resume_run_in_session`] (same matcher, same input, the same
/// session) once the session has made progress.  Resuming continues at
/// the suspended question, so a line that parks at `k` distinct flush
/// points costs `O(|w|)` evaluator work in total, not `O(k · |w|)` as
/// replaying from scratch would.
#[derive(Debug)]
pub struct SuspendedMatch(Box<SuspendedEval>);

impl SuspendedMatch {
    /// The 1-based query-graph position the evaluation resumes at.  It
    /// never decreases across re-suspensions of the same line, so a scan
    /// driver can tell a resumption that advanced (and submitted new keys
    /// to the pool) from one still waiting on the same answers.
    pub fn position(&self) -> usize {
        self.0.position()
    }
}

/// Tuning knobs for the query-graph matcher.
///
/// The defaults correspond to the optimized configuration evaluated in the
/// paper (Note A.4): skeleton prefilter on, evaluation pruned to vertices
/// that can reach `end`, and lazy oracle discharge.  The alternative
/// settings exist for the ablation benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatcherConfig {
    /// Run a classical simulation of `skel(r)` first and skip the query
    /// graph entirely when it rejects (sound because `⟦r⟧ ⊆ ⟦skel(r)⟧`).
    pub skeleton_prefilter: bool,
    /// Run the skeleton prefilter as a lazily-determinized DFA (one table
    /// lookup per byte) instead of the NFA state-set simulation.  Verdicts
    /// are identical; only the constant factor changes.  Ignored when
    /// [`skeleton_prefilter`](Self::skeleton_prefilter) is off.
    pub dfa_prefilter: bool,
    /// Run the literal prescan (length / first-byte / required-literal
    /// screens, SWAR substring search) in front of the skeleton prefilter,
    /// skipping the DFA — and everything behind it — on lines that cannot
    /// contain a match.  Sound by construction; verdicts are identical.
    pub literal_prescan: bool,
    /// Restrict query-graph evaluation to vertices that are syntactically
    /// co-reachable from `end`.
    pub prune_coreachable: bool,
    /// Short-circuit oracle calls at close vertices whenever the skipped
    /// calls cannot influence backreference propagation.
    pub lazy_oracle: bool,
    /// Route oracle questions through the batched, deduplicating query
    /// plane (collect → flush → apply per position) instead of one
    /// `holds` call per question.
    pub batched_oracle: bool,
    /// Number of background resolver threads for the overlapped oracle
    /// plane (`0` = fully synchronous, the default).  The matcher itself
    /// only records the knob; the scan drivers and the facade build the
    /// [`ResolverPool`](semre_oracle::ResolverPool) and drive the
    /// suspend/resume loop.  Requires
    /// [`batched_oracle`](Self::batched_oracle).
    pub oracle_threads: usize,
    /// Bound on queued-plus-in-flight oracle keys when overlapped
    /// (`0` = the pool's default window).  Ignored when
    /// [`oracle_threads`](Self::oracle_threads) is `0`.
    pub in_flight: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            skeleton_prefilter: true,
            dfa_prefilter: true,
            literal_prescan: true,
            prune_coreachable: true,
            lazy_oracle: true,
            batched_oracle: true,
            oracle_threads: 0,
            in_flight: 0,
        }
    }
}

impl MatcherConfig {
    /// The configuration used by the paper's measurements (all
    /// optimizations on).  Same as `Default`.
    pub fn optimized() -> Self {
        MatcherConfig::default()
    }

    /// The fully optimized configuration on the per-call oracle plane:
    /// every question travels as its own `holds` call, as in the paper's
    /// prototype.  The reference point for batch-efficiency comparisons.
    pub fn per_call() -> Self {
        MatcherConfig {
            batched_oracle: false,
            ..MatcherConfig::default()
        }
    }

    /// A deliberately naive configuration: no prefilter, no pruning, eager
    /// oracle discharge, per-call oracle plane.  Used by the ablation
    /// benchmarks.
    pub fn eager() -> Self {
        MatcherConfig {
            skeleton_prefilter: false,
            dfa_prefilter: false,
            literal_prescan: false,
            prune_coreachable: false,
            lazy_oracle: false,
            batched_oracle: false,
            oracle_threads: 0,
            in_flight: 0,
        }
    }

    /// The optimized configuration with the overlapped oracle plane
    /// enabled: `threads` background resolvers and the pool's default
    /// in-flight window.
    pub fn overlapped(threads: usize) -> Self {
        MatcherConfig {
            oracle_threads: threads.max(1),
            ..MatcherConfig::default()
        }
    }

    /// The optimized configuration with the skeleton prefilter forced onto
    /// the classical NFA simulation — the reference point the lazy-DFA
    /// path is benchmarked against.
    pub fn nfa_prefilter() -> Self {
        MatcherConfig {
            dfa_prefilter: false,
            ..MatcherConfig::default()
        }
    }

    /// The optimized configuration with the literal prescan disabled —
    /// the reference point the prescan is benchmarked against.
    pub fn no_prescan() -> Self {
        MatcherConfig {
            literal_prescan: false,
            ..MatcherConfig::default()
        }
    }
}

/// The SNFA/query-graph membership tester (the paper's `grepₒ` matcher).
///
/// A `Matcher` owns its oracle; construction compiles the SemRE, computes
/// the ε-feasibility closure (issuing only `(q, ε)` probes), and
/// precomputes the gadget topology.  Matching then never allocates
/// automaton structures again.
///
/// # Examples
///
/// ```
/// use semre_core::Matcher;
/// use semre_oracle::SetOracle;
/// use semre_syntax::parse;
///
/// let mut oracle = SetOracle::new();
/// oracle.insert("Sportsperson", "Simone Biles");
/// let matcher = Matcher::new(parse(".*<Sportsperson>.*").unwrap(), oracle);
/// assert!(matcher.is_match(b"gold for Simone Biles!"));
/// assert!(!matcher.is_match(b"gold for Erased Name!"));
/// ```
#[derive(Clone, Debug)]
pub struct Matcher<O> {
    semre: Semre,
    skeleton: Semre,
    snfa: Snfa,
    skeleton_snfa: Snfa,
    /// Skeleton of `Σ* skel(r) Σ*`: the classical prefilter for unanchored
    /// span search (a line without any skeleton span has no semantic span).
    search_skeleton_snfa: Snfa,
    /// Lazily-determinized DFA of `skel(r)`, the default prefilter engine.
    skeleton_dfa: LazyDfa,
    /// Lazily-determinized DFA of `Σ* skel(r) Σ*` for span-search seeding.
    search_skeleton_dfa: LazyDfa,
    /// Literal prescan for anchored membership (length + first-byte +
    /// required-literal screens), run before the skeleton DFA.
    prescan: Prescan,
    /// Literal prescan gating span seeding: a line without any required
    /// literal seeds no span search at all.
    search_prescan: Prescan,
    topo: GadgetTopology,
    query_table: QueryTable,
    /// Reusable evaluator buffers, checked out per evaluation.
    scratch: ScratchPool,
    oracle: O,
    config: MatcherConfig,
}

impl<O: Oracle> Matcher<O> {
    /// Builds a matcher with the default (fully optimized) configuration.
    pub fn new(semre: Semre, oracle: O) -> Self {
        Matcher::with_config(semre, oracle, MatcherConfig::default())
    }

    /// Builds a matcher with an explicit configuration.
    pub fn with_config(semre: Semre, oracle: O, config: MatcherConfig) -> Self {
        let snfa = compile(&semre);
        let closure = EpsClosure::compute(&snfa, &oracle);
        let topo = GadgetTopology::new(&snfa, &closure);
        let query_table = QueryTable::build(&snfa, &topo);
        let skel = skeleton(&semre);
        let skeleton_snfa = compile(&skel);
        let search_skeleton_snfa = compile(&Semre::padded(skel.clone()));
        let skeleton_dfa = LazyDfa::new(&skeleton_snfa);
        let search_skeleton_dfa = LazyDfa::new(&search_skeleton_snfa);
        let prescan = Prescan::for_membership(&skeleton_snfa, &skel);
        let search_prescan = Prescan::for_search(&skel);
        Matcher {
            semre,
            skeleton: skel,
            snfa,
            skeleton_snfa,
            search_skeleton_snfa,
            skeleton_dfa,
            search_skeleton_dfa,
            prescan,
            search_prescan,
            topo,
            query_table,
            scratch: ScratchPool::new(),
            oracle,
            config,
        }
    }

    /// Whether the skeleton prefilter (if enabled) proves `input ∉ ⟦r⟧`
    /// without touching the oracle, via the DFA or NFA engine per
    /// [`MatcherConfig::dfa_prefilter`].
    fn skeleton_rejects(&self, input: &[u8]) -> bool {
        if self.config.literal_prescan && self.prescan.rejects(input) {
            return true;
        }
        self.config.skeleton_prefilter
            && if self.config.dfa_prefilter {
                !self.skeleton_dfa.matches(input)
            } else {
                !semre_automata::skeleton_matches(&self.skeleton_snfa, input)
            }
    }

    /// Like [`skeleton_rejects`](Self::skeleton_rejects) for unanchored
    /// search: a line without a skeleton span has no semantic span.  The
    /// prescan gates span seeding — a line without any required literal
    /// never reaches the query graph, so no position in it is seeded.
    fn search_skeleton_rejects(&self, input: &[u8]) -> bool {
        if self.config.literal_prescan && self.search_prescan.rejects(input) {
            return true;
        }
        self.config.skeleton_prefilter
            && if self.config.dfa_prefilter {
                !self.search_skeleton_dfa.matches(input)
            } else {
                !semre_automata::skeleton_matches(&self.search_skeleton_snfa, input)
            }
    }

    /// Whether `input` belongs to `⟦r⟧`.
    pub fn is_match(&self, input: &[u8]) -> bool {
        self.run(input).matched
    }

    /// Matches `input` and reports evaluation statistics (oracle calls,
    /// batch-plane usage, alive vertices).
    pub fn run(&self, input: &[u8]) -> EvalReport {
        if self.skeleton_rejects(input) {
            return EvalReport {
                positions: input.len() + 1,
                ..EvalReport::default()
            };
        }
        let mut scratch = self.scratch.take();
        let report = if self.config.batched_oracle {
            // Transient single-line session, reusing the precomputed query
            // table rather than rebuilding it per line.
            let mut session = self.session();
            evaluate_in_session(
                &self.snfa,
                &self.topo,
                &self.query_table,
                input,
                self.eval_options(),
                &mut session,
                &mut scratch,
            )
        } else {
            evaluate_with_scratch(
                &self.snfa,
                &self.topo,
                input,
                &self.oracle,
                self.eval_options(),
                &mut scratch,
            )
        };
        self.scratch.put(scratch);
        report
    }

    /// A fresh [`BatchSession`] over this matcher's oracle, to be shared by
    /// many [`run_in_session`](Matcher::run_in_session) calls (e.g. every
    /// line of a grep chunk) so identical `(query, text)` questions reach
    /// the backend once.
    pub fn session(&self) -> BatchSession<'_> {
        BatchSession::new(&self.oracle)
    }

    /// A fresh [`BatchSession`] whose straggler flushes go through `pool`
    /// instead of blocking on the backend: batches the pool cannot answer
    /// yet suspend the evaluation, which
    /// [`try_run_in_session`](Matcher::try_run_in_session) hands back for
    /// [`resume_run_in_session`](Matcher::resume_run_in_session) once the
    /// pool has made progress.
    pub fn session_with_pool<'s>(&'s self, pool: &'s ResolverPool) -> BatchSession<'s> {
        BatchSession::with_pool(&self.oracle, pool)
    }

    /// A fresh [`BatchSession`] that defers its misses: an evaluation
    /// needing an answer the session does not have suspends, and the
    /// caller answers every deferred key of every parked evaluation in one
    /// round trip ([`BatchSession::flush_deferred`]) before resuming them.
    /// While the backend's round trips are quicker than parking costs, the
    /// session asks inline and nothing suspends.
    pub fn deferring_session(&self) -> BatchSession<'_> {
        BatchSession::deferring(&self.oracle)
    }

    /// Like [`run`](Matcher::run), but resolves oracle questions through
    /// `session`, batching and deduplicating across every evaluation that
    /// shares it.  Always uses the batched plane.
    ///
    /// # Panics
    ///
    /// If `session` is a suspending one (wired to a resolver pool, or
    /// deferring) and the evaluation suspends; such sessions go through
    /// [`try_run_in_session`](Matcher::try_run_in_session).
    pub fn run_in_session(&self, input: &[u8], session: &mut BatchSession<'_>) -> EvalReport {
        if self.skeleton_rejects(input) {
            return EvalReport {
                positions: input.len() + 1,
                ..EvalReport::default()
            };
        }
        let mut scratch = self.scratch.take();
        let report = evaluate_in_session(
            &self.snfa,
            &self.topo,
            &self.query_table,
            input,
            self.eval_options(),
            session,
            &mut scratch,
        );
        self.scratch.put(scratch);
        report
    }

    /// The suspension-aware flavour of
    /// [`run_in_session`](Matcher::run_in_session): on a suspending session
    /// ([`session_with_pool`](Matcher::session_with_pool) or
    /// [`deferring_session`](Matcher::deferring_session)), a line whose
    /// oracle answers the session does not have yet returns `Err` with the
    /// parked evaluation.  Resume it with
    /// [`resume_run_in_session`](Matcher::resume_run_in_session) once the
    /// session has made progress.  Inline sessions never suspend.
    pub fn try_run_in_session(
        &self,
        input: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<EvalReport, SuspendedMatch> {
        if self.skeleton_rejects(input) {
            return Ok(EvalReport {
                positions: input.len() + 1,
                ..EvalReport::default()
            });
        }
        self.evaluate_resumable(input, session, None)
    }

    /// Continues a [suspended](Matcher::try_run_in_session) evaluation from
    /// the position that parked it, re-suspending (with updated state) when
    /// the next needed answers are still missing.  `input` must be the
    /// line the evaluation was suspended on and `session` the session it
    /// suspended on — the parked state is only meaningful against them.
    pub fn resume_run_in_session(
        &self,
        parked: SuspendedMatch,
        input: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<EvalReport, SuspendedMatch> {
        self.evaluate_resumable(input, session, Some(parked.0))
    }

    fn evaluate_resumable(
        &self,
        input: &[u8],
        session: &mut BatchSession<'_>,
        parked: Option<Box<SuspendedEval>>,
    ) -> Result<EvalReport, SuspendedMatch> {
        let mut scratch = self.scratch.take();
        let outcome = evaluate_resumable(
            &self.snfa,
            &self.topo,
            &self.query_table,
            input,
            self.eval_options(),
            session,
            &mut scratch,
            parked,
        );
        self.scratch.put(scratch);
        outcome.map_err(SuspendedMatch)
    }

    /// The leftmost-earliest span `(start, end)` with
    /// `input[start..end] ∈ ⟦r⟧`: the smallest start, and among spans with
    /// that start the smallest end.  `None` when no span of `input`
    /// matches.
    ///
    /// Search evaluates the query graph of `Σ* r` in one pass (Fig. 9 rules
    /// unchanged): every position seeds the start vertex, and each seed
    /// rides the backreference machinery so that only starts whose oracle
    /// path validates survive to the accept vertex.
    pub fn find(&self, input: &[u8]) -> Option<(usize, usize)> {
        self.search(input, SearchKind::Leftmost).span
    }

    /// Unanchored search with an explicit [`SearchKind`], reporting full
    /// evaluation statistics; the span is in [`EvalReport::span`].
    pub fn search(&self, input: &[u8], kind: SearchKind) -> EvalReport {
        if self.search_skeleton_rejects(input) {
            return EvalReport {
                positions: input.len() + 1,
                ..EvalReport::default()
            };
        }
        let mut scratch = self.scratch.take();
        let report = if self.config.batched_oracle {
            let mut session = self.session();
            evaluate_search_in_session(
                &self.snfa,
                &self.topo,
                &self.query_table,
                input,
                self.eval_options(),
                kind,
                &mut session,
                &mut scratch,
            )
        } else {
            evaluate_search_with_scratch(
                &self.snfa,
                &self.topo,
                input,
                &self.oracle,
                self.eval_options(),
                kind,
                &mut scratch,
            )
        };
        self.scratch.put(scratch);
        report
    }

    /// Like [`search`](Matcher::search), but resolving oracle questions
    /// through `session`, so the successive searches of an iteration (or
    /// the other lines of a chunk) share `(query, text)` answers.  Always
    /// uses the batched plane.
    pub fn search_in_session(
        &self,
        input: &[u8],
        kind: SearchKind,
        session: &mut BatchSession<'_>,
    ) -> EvalReport {
        if self.search_skeleton_rejects(input) {
            return EvalReport {
                positions: input.len() + 1,
                ..EvalReport::default()
            };
        }
        let mut scratch = self.scratch.take();
        let report = evaluate_search_in_session(
            &self.snfa,
            &self.topo,
            &self.query_table,
            input,
            self.eval_options(),
            kind,
            session,
            &mut scratch,
        );
        self.scratch.put(scratch);
        report
    }

    /// The end of the earliest-ending matching span: the first position at
    /// which some span of `input` is known to match, like
    /// `Regex::shortest_match`.
    pub fn shortest_match(&self, input: &[u8]) -> Option<usize> {
        self.search(input, SearchKind::EarliestEnd)
            .span
            .map(|(_, end)| end)
    }

    fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            prune_coreachable: self.config.prune_coreachable,
            lazy_oracle: self.config.lazy_oracle,
            batched: self.config.batched_oracle,
        }
    }

    /// The SemRE this matcher was built from.
    pub fn semre(&self) -> &Semre {
        &self.semre
    }

    /// The classical skeleton `skel(r)`.
    pub fn skeleton(&self) -> &Semre {
        &self.skeleton
    }

    /// The compiled semantic NFA.
    pub fn snfa(&self) -> &Snfa {
        &self.snfa
    }

    /// The literal prescan guarding anchored membership.
    pub fn prescan(&self) -> &Prescan {
        &self.prescan
    }

    /// The literal prescan gating span seeding in unanchored search.
    pub fn search_prescan(&self) -> &Prescan {
        &self.search_prescan
    }

    /// The active configuration.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }

    /// A reference to the backing oracle.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Consumes the matcher and returns the backing oracle.
    pub fn into_oracle(self) -> O {
        self.oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semre_oracle::{ConstOracle, Instrumented, PalindromeOracle, SetOracle, SimLlmOracle};
    use semre_syntax::{examples, parse};

    #[test]
    fn default_and_eager_configs_agree_on_membership() {
        let mut oracle = SetOracle::new();
        oracle.insert("q", "bb");
        let pattern = parse("a*(?<q>: b*)c?").unwrap();
        let inputs: &[&[u8]] = &[b"", b"a", b"abb", b"abbc", b"bbc", b"ac", b"abc", b"aabbbc"];
        let default = Matcher::new(pattern.clone(), &oracle);
        let eager = Matcher::with_config(pattern, &oracle, MatcherConfig::eager());
        for &input in inputs {
            assert_eq!(
                default.is_match(input),
                eager.is_match(input),
                "disagreement on {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn skeleton_prefilter_avoids_all_work() {
        let oracle = Instrumented::new(ConstOracle::always_true());
        let matcher = Matcher::new(parse("x+(?<q>: y+)z").unwrap(), oracle);
        let report = matcher.run(b"completely different");
        assert!(!report.matched);
        assert_eq!(report.oracle_calls, 0);
        assert_eq!(report.vertices_alive, 0);
        // Only the (q, ε) probe from construction reached the oracle.
        assert!(matcher.oracle().stats().calls <= 1);
    }

    #[test]
    fn accessors_expose_components() {
        let matcher = Matcher::new(examples::r_pal(), PalindromeOracle);
        assert_eq!(matcher.semre(), &examples::r_pal());
        assert!(matcher.skeleton().is_classical());
        assert!(matcher.snfa().validate().is_ok());
        assert_eq!(matcher.config(), &MatcherConfig::default());
        assert!(matcher.oracle().holds("pal", b"aba"));
        let oracle = matcher.into_oracle();
        assert!(oracle.holds("pal", b"aa"));
    }

    #[test]
    fn benchmark_semres_match_planted_lines() {
        let llm = SimLlmOracle::new();
        let spam = Matcher::new(Semre::padded(examples::r_spam1()), &llm);
        assert!(spam.is_match(b"Subject: cheap viagra now"));
        assert!(!spam.is_match(b"Subject: meeting notes for tuesday"));
        assert!(!spam.is_match(b"Re: cheap viagra now"));

        let spam2 = Matcher::new(Semre::padded(examples::r_spam2()), &llm);
        assert!(spam2.is_match(b"Subject: buy xanax online today"));
        assert!(!spam2.is_match(b"Subject: buyxanaxonline today"));

        let pass = Matcher::new(Semre::padded(examples::r_pass()), &llm);
        assert!(pass.is_match(br#"private key = "Tr0ub4dor&3x!Len" // TODO remove"#));
        assert!(!pass.is_match(br#"message = "hello world""#));
    }

    #[test]
    fn config_constructors() {
        assert_eq!(MatcherConfig::optimized(), MatcherConfig::default());
        assert!(MatcherConfig::default().batched_oracle);
        assert!(MatcherConfig::default().dfa_prefilter);
        assert!(MatcherConfig::default().literal_prescan);
        let eager = MatcherConfig::eager();
        assert!(!eager.skeleton_prefilter && !eager.prune_coreachable && !eager.lazy_oracle);
        assert!(!eager.batched_oracle && !eager.dfa_prefilter && !eager.literal_prescan);
        let no_prescan = MatcherConfig::no_prescan();
        assert!(no_prescan.skeleton_prefilter && !no_prescan.literal_prescan);
        assert_eq!(
            MatcherConfig {
                literal_prescan: true,
                ..no_prescan
            },
            MatcherConfig::default()
        );
        let per_call = MatcherConfig::per_call();
        assert!(per_call.skeleton_prefilter && per_call.prune_coreachable && per_call.lazy_oracle);
        assert!(!per_call.batched_oracle);
        let nfa = MatcherConfig::nfa_prefilter();
        assert!(nfa.skeleton_prefilter && !nfa.dfa_prefilter);
        assert_eq!(
            MatcherConfig {
                dfa_prefilter: true,
                ..nfa
            },
            MatcherConfig::default()
        );
    }

    #[test]
    fn prescan_gates_without_changing_verdicts() {
        let llm = SimLlmOracle::new();
        let pattern = Semre::padded(examples::r_spam1());
        let with = Matcher::new(pattern.clone(), &llm);
        let without = Matcher::with_config(pattern, &llm, MatcherConfig::no_prescan());
        assert!(with.prescan().has_literals());
        let lines: [&[u8]; 5] = [
            b"Subject: cheap viagra now",
            b"Subject: meeting notes",
            b"no subject at all",
            b"Subj",
            b"",
        ];
        for line in lines {
            assert_eq!(with.is_match(line), without.is_match(line), "{line:?}");
            assert_eq!(with.find(line), without.find(line), "{line:?}");
        }
        // A prescan rejection costs no oracle work and no DFA work.
        let report = with.run(b"completely unrelated line");
        assert!(!report.matched);
        assert_eq!(report.oracle_calls, 0);
    }

    #[test]
    fn dfa_and_nfa_prefilters_agree_on_verdicts() {
        let llm = SimLlmOracle::new();
        let pattern = Semre::padded(examples::r_spam1());
        let dfa = Matcher::new(pattern.clone(), &llm);
        let nfa = Matcher::with_config(pattern, &llm, MatcherConfig::nfa_prefilter());
        let lines: [&[u8]; 4] = [
            b"Subject: cheap viagra now",
            b"Subject: meeting notes",
            b"no subject at all",
            b"",
        ];
        for line in lines {
            assert_eq!(dfa.is_match(line), nfa.is_match(line), "{line:?}");
            assert_eq!(dfa.find(line), nfa.find(line), "{line:?}");
        }
    }

    #[test]
    fn find_locates_spans_and_respects_the_prefilter() {
        let mut oracle = SetOracle::new();
        oracle.insert("Medicine name", "tramadol");
        let matcher = Matcher::new(
            parse("Subject: .*(?<Medicine name>: [a-z]+)").unwrap(),
            Instrumented::new(&oracle),
        );
        let line = b"x-header; Subject: cheap tramadol";
        let span = matcher.find(line).expect("span exists");
        assert_eq!(&line[span.0..span.1], b"Subject: cheap tramadol");
        assert!(matcher.is_match(&line[span.0..span.1]));
        assert_eq!(matcher.shortest_match(line), Some(span.1));

        // The unanchored skeleton prefilter rejects without oracle work.
        let before = matcher.oracle().stats().calls;
        let report = matcher.search(b"no subject here", SearchKind::Leftmost);
        assert_eq!(report.span, None);
        assert_eq!(report.oracle_calls, 0);
        assert_eq!(matcher.oracle().stats().calls, before);
    }

    #[test]
    fn search_sessions_share_answers_across_suffixes() {
        let backend = Instrumented::new(SimLlmOracle::new());
        let matcher = Matcher::new(parse("(?<Medicine name>: [a-z]+)").unwrap(), &backend);
        let line = b"viagra viagra";

        let before = backend.stats().calls;
        let mut session = matcher.session();
        let first = matcher
            .search_in_session(line, SearchKind::Leftmost, &mut session)
            .span
            .expect("span exists");
        assert_eq!(&line[first.0..first.1], b"viagra");
        let after_first = backend.stats().calls - before;
        // Searching the rest of the line reuses the session's answers for
        // the repeated word.
        let second = matcher
            .search_in_session(&line[first.1..], SearchKind::Leftmost, &mut session)
            .span
            .expect("second span exists");
        assert_eq!(&line[first.1..][second.0..second.1], b"viagra");
        let total = backend.stats().calls - before;
        assert!(
            total - after_first < after_first,
            "suffix search should be mostly deduplicated ({after_first} then {total})"
        );
    }

    #[test]
    fn shared_session_deduplicates_across_lines() {
        let backend = Instrumented::new(SimLlmOracle::new());
        let matcher = Matcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            &backend,
        );
        let lines: [&[u8]; 3] = [
            b"Subject: cheap viagra now",
            b"Subject: cheap viagra now",
            b"Subject: cheap viagra today",
        ];

        // Independent runs: every line pays for its own questions.
        let before = backend.stats().calls;
        for line in lines {
            matcher.run(line);
        }
        let independent_calls = backend.stats().calls - before;

        // One shared session: the duplicate line costs nothing, and the
        // near-duplicate reuses most answers.
        let before = backend.stats().calls;
        let mut session = matcher.session();
        let reports: Vec<_> = lines
            .iter()
            .map(|l| matcher.run_in_session(l, &mut session))
            .collect();
        let shared_calls = backend.stats().calls - before;

        assert!(reports.iter().all(|r| r.matched));
        assert_eq!(reports[0].matched, matcher.is_match(lines[0]));
        assert!(
            shared_calls < independent_calls,
            "session should absorb repeats: {shared_calls} vs {independent_calls}"
        );
        let stats = session.stats();
        assert!(stats.keys_deduped > 0);
        assert_eq!(stats.backend_keys, shared_calls);
    }

    #[test]
    fn overlapped_sessions_suspend_then_replay_to_synchronous_verdicts() {
        use semre_oracle::ResolverPool;

        let llm = SimLlmOracle::new();
        let matcher = Matcher::new(Semre::padded(examples::r_spam1()), &llm);
        let pool = ResolverPool::new(std::sync::Arc::new(SimLlmOracle::new()), 2, 0);
        let lines: [&[u8]; 4] = [
            b"Subject: cheap viagra now",
            b"Subject: meeting notes for tuesday",
            b"Re: cheap viagra now",
            b"Subject: buy tramadol online",
        ];
        let mut suspensions = 0u32;
        for line in lines {
            let mut session = matcher.session_with_pool(&pool);
            let mut generation = pool.generation();
            let mut outcome = matcher.try_run_in_session(line, &mut session);
            let report = loop {
                match outcome {
                    Ok(report) => break report,
                    Err(parked) => {
                        suspensions += 1;
                        pool.wait_for_progress(generation);
                        generation = pool.generation();
                        outcome = matcher.resume_run_in_session(parked, line, &mut session);
                    }
                }
            };
            assert_eq!(report.matched, matcher.is_match(line), "{line:?}");
        }
        assert!(
            suspensions > 0,
            "a cold pool must suspend at least one oracle-bearing line"
        );
        assert!(pool.stats().backend_keys > 0);
    }
}
