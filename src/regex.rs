//! The compiled-pattern handle: a `regex`-style API over the SemRE engine.
//!
//! [`SemRegex`] packages the whole pipeline — parse → ⊥-elimination →
//! Thompson construction → ε-feasibility closure → gadget topology — into
//! one reusable handle holding the compiled SNFA and an
//! `Arc<dyn Oracle>`.  Handles are `Clone + Send + Sync`: cloning shares
//! the oracle and duplicates only the compiled automata, so a pattern is
//! elaborated once and used from many threads.
//!
//! Three questions can be asked of a haystack:
//!
//! * [`is_match`](SemRegex::is_match) — whole-input membership, the
//!   paper's `w ∈ ⟦r⟧` (note: *anchored*, unlike `regex::Regex`);
//! * [`find`](SemRegex::find) / [`find_iter`](SemRegex::find_iter) —
//!   unanchored span search with leftmost-earliest semantics;
//! * [`shortest_match`](SemRegex::shortest_match) — the first position at
//!   which some span is known to match.

use std::ops::Range;
use std::sync::Arc;

use semre_core::{DpMatcher, Matcher, MatcherConfig, SearchKind, SuspendedMatch};
use semre_oracle::{BatchSession, Oracle, ResolverPool};
use semre_syntax::{eliminate_bot, parse, Semre};

use crate::Error;

/// Default number of lines per batch-session chunk for scanning tools.
pub const DEFAULT_CHUNK_LINES: usize = 256;

/// Default number of bytes per I/O chunk for streaming scans
/// ([`SemRegex::scan_reader`], `grepo --stream`).
pub const DEFAULT_STREAM_CHUNK_BYTES: usize = 64 * 1024;

/// A compiled semantic regular expression bound to an oracle.
///
/// Built with [`SemRegex::new`] or a [`SemRegexBuilder`]; cheap to clone
/// and shareable across threads without re-elaboration.
///
/// # Examples
///
/// ```
/// use semre::{SemRegex, SimLlmOracle};
///
/// let re = SemRegex::new(
///     r"Subject: .*(?<Medicine name>: [a-z]+)",
///     SimLlmOracle::new(),
/// )?;
/// let line = b"fwd: Subject: cheap tramadol today";
/// let m = re.find(line).expect("span found");
/// assert_eq!(m.as_bytes(), b"Subject: cheap tramadol");
/// assert!(re.is_match(m.as_bytes()));
/// # Ok::<(), semre::Error>(())
/// ```
#[derive(Clone)]
pub struct SemRegex {
    pattern: String,
    semre: Semre,
    engine: Engine,
    config: MatcherConfig,
    chunk_lines: usize,
    threads: usize,
    stream_chunk_bytes: usize,
    /// Background resolver pool for the overlapped oracle plane; present
    /// when built with [`SemRegexBuilder::overlapped`].  Clones share it.
    pool: Option<Arc<ResolverPool>>,
}

#[derive(Clone)]
enum Engine {
    Snfa(Box<Matcher<Arc<dyn Oracle>>>),
    Dp(DpMatcher<Arc<dyn Oracle>>),
}

impl SemRegex {
    /// Compiles `pattern` against `oracle` with the default configuration
    /// (query-graph matcher, batched oracle plane, all optimizations).
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] for malformed patterns, [`Error::Elaboration`] if
    /// the compiled SNFA is structurally invalid.
    pub fn new<O: Oracle + 'static>(pattern: &str, oracle: O) -> Result<SemRegex, Error> {
        SemRegexBuilder::new().build(pattern, oracle)
    }

    /// Like [`new`](SemRegex::new), for an oracle that is already shared.
    pub fn new_shared(pattern: &str, oracle: Arc<dyn Oracle>) -> Result<SemRegex, Error> {
        SemRegexBuilder::new().build_shared(pattern, oracle)
    }

    /// A builder for non-default configurations (per-call plane, DP
    /// baseline, chunk size).
    pub fn builder() -> SemRegexBuilder {
        SemRegexBuilder::new()
    }

    /// The concrete syntax this handle was compiled from (pretty-printed
    /// when built from a [`Semre`] value).
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The compiled (⊥-eliminated) SemRE.
    pub fn semre(&self) -> &Semre {
        &self.semre
    }

    /// The shared oracle backend.
    pub fn oracle(&self) -> &Arc<dyn Oracle> {
        match &self.engine {
            Engine::Snfa(m) => m.oracle(),
            Engine::Dp(m) => m.oracle(),
        }
    }

    /// The matcher configuration in effect.
    pub fn config(&self) -> MatcherConfig {
        self.config
    }

    /// Which algorithm answers queries: `"snfa"` (query graph) or `"dp"`
    /// (dynamic-programming baseline).
    pub fn algorithm(&self) -> &'static str {
        match &self.engine {
            Engine::Snfa(_) => "snfa",
            Engine::Dp(_) => "dp",
        }
    }

    /// The preferred number of lines per batch-session chunk for scanning
    /// tools (see [`SemRegexBuilder::chunk_lines`]).
    pub fn chunk_lines(&self) -> usize {
        self.chunk_lines
    }

    /// The preferred number of worker threads for scanning tools built on
    /// this handle (see [`SemRegexBuilder::threads`]); `1` means
    /// sequential.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The preferred I/O chunk size in bytes for streaming scans (see
    /// [`SemRegexBuilder::stream_chunk_bytes`]).
    pub fn stream_chunk_bytes(&self) -> usize {
        self.stream_chunk_bytes
    }

    /// Whether the whole `haystack` belongs to `⟦r⟧`.
    ///
    /// This is the paper's membership test — **anchored** at both ends,
    /// unlike `regex::Regex::is_match`.  Use [`find`](SemRegex::find) to
    /// search for a matching span inside the haystack.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        match &self.engine {
            Engine::Snfa(m) => m.is_match(haystack),
            Engine::Dp(m) => m.is_match(haystack),
        }
    }

    /// Like [`is_match`](SemRegex::is_match), resolving oracle questions
    /// through `session` so answers are shared with every other test using
    /// it (e.g. the other lines of a grep chunk).
    pub fn is_match_in_session(&self, haystack: &[u8], session: &mut BatchSession<'_>) -> bool {
        match &self.engine {
            Engine::Snfa(m) => m.run_in_session(haystack, session).matched,
            Engine::Dp(m) => m.run_in_session(haystack, session).matched,
        }
    }

    /// The leftmost-earliest matching span: among all spans
    /// `haystack[start..end] ∈ ⟦r⟧`, the one with the smallest start and,
    /// for that start, the smallest end.
    ///
    /// Note the *earliest* (shortest) tie-break: SemRE matching has no
    /// greedy/lazy distinction, so a nullable pattern matches the empty
    /// span at position 0.
    pub fn find<'h>(&self, haystack: &'h [u8]) -> Option<Match<'h>> {
        self.find_at(haystack, 0)
    }

    /// Like [`find`](SemRegex::find), but only considering spans starting
    /// at or after `start`.
    pub fn find_at<'h>(&self, haystack: &'h [u8], start: usize) -> Option<Match<'h>> {
        let mut session = self.session();
        self.find_at_in_session(haystack, start, &mut session)
    }

    /// Like [`find_at`](SemRegex::find_at), resolving oracle questions
    /// through `session` (used by [`find_iter`](SemRegex::find_iter) so the
    /// successive suffix searches share answers).
    pub fn find_at_in_session<'h>(
        &self,
        haystack: &'h [u8],
        start: usize,
        session: &mut BatchSession<'_>,
    ) -> Option<Match<'h>> {
        if start > haystack.len() {
            return None;
        }
        let suffix = &haystack[start..];
        let span = match &self.engine {
            Engine::Snfa(m) => {
                if self.config.batched_oracle {
                    m.search_in_session(suffix, SearchKind::Leftmost, session)
                        .span
                } else {
                    // The per-call plane routes every question straight to
                    // the backend, as the paper's prototype would.
                    m.search(suffix, SearchKind::Leftmost).span
                }
            }
            Engine::Dp(m) => {
                if self.config.batched_oracle {
                    m.find_in_session(suffix, session)
                } else {
                    m.find_per_call(suffix)
                }
            }
        };
        span.map(|(s, e)| Match {
            haystack,
            start: start + s,
            end: start + e,
        })
    }

    /// An iterator over successive non-overlapping leftmost-earliest
    /// matches.  One [`BatchSession`] spans the whole iteration, so on the
    /// batched plane oracle questions repeated across spans reach the
    /// backend once; a handle built with
    /// [`per_call`](SemRegexBuilder::per_call) bypasses the session on both
    /// engines and re-asks the backend on every suffix search, as the
    /// paper's prototype would.
    pub fn find_iter<'r, 'h>(&'r self, haystack: &'h [u8]) -> Matches<'r, 'h> {
        Matches {
            re: self,
            haystack,
            session: self.session(),
            at: 0,
            done: false,
        }
    }

    /// The end of the earliest-ending matching span — the first position at
    /// which some span of `haystack` is known to match — or `None` when no
    /// span matches.
    pub fn shortest_match(&self, haystack: &[u8]) -> Option<usize> {
        match &self.engine {
            Engine::Snfa(m) => m.shortest_match(haystack),
            Engine::Dp(m) => {
                if self.config.batched_oracle {
                    m.shortest_match(haystack)
                } else {
                    m.shortest_match_per_call(haystack)
                }
            }
        }
    }

    /// A fresh [`BatchSession`] over this handle's oracle: session-scoped
    /// answer reuse for many membership tests or searches (one session per
    /// grep chunk, per `find_iter`, …).
    pub fn session(&self) -> BatchSession<'_> {
        match &self.engine {
            Engine::Snfa(m) => m.session(),
            Engine::Dp(m) => m.session(),
        }
    }

    /// The background resolver pool, when this handle was built with
    /// [`SemRegexBuilder::overlapped`].  Scan drivers use it to wait for
    /// progress between re-evaluation rounds and to read the resolver
    /// counters.
    pub fn resolver_pool(&self) -> Option<&Arc<ResolverPool>> {
        self.pool.as_ref()
    }

    /// A fresh suspending [`BatchSession`] for
    /// [`try_is_match_suspending`](SemRegex::try_is_match_suspending): a
    /// test needing answers the session does not have yet suspends instead
    /// of blocking.  On an overlapped handle the session submits its
    /// misses to the resolver pool; otherwise it defers them until the
    /// caller's [`BatchSession::flush_deferred`], which asks the keys of
    /// every test parked on the session in one round trip (or asks inline
    /// while the backend answers quicker than parking costs).  `None` for the
    /// DP baseline, which always resolves inline.
    pub fn suspending_session(&self) -> Option<BatchSession<'_>> {
        match (&self.engine, self.pool.as_deref()) {
            (Engine::Snfa(m), Some(pool)) => Some(m.session_with_pool(pool)),
            (Engine::Snfa(m), None) => Some(m.deferring_session()),
            (Engine::Dp(_), _) => None,
        }
    }

    /// Like [`is_match_in_session`](SemRegex::is_match_in_session), but
    /// suspension-aware: on a [suspending
    /// session](SemRegex::suspending_session), when the verdict depends on
    /// oracle answers the session does not have yet, `Err` returns the
    /// parked evaluation state ([`SuspendedMatch`]) so the caller resumes
    /// from the suspended position with
    /// [`resume_is_match`](SemRegex::resume_is_match) once the session has
    /// made progress.  This is what the scan driver uses: parked lines cost
    /// `O(|w|)` evaluator work across all resumptions.  Inline sessions
    /// and the DP baseline never suspend.
    pub fn try_is_match_suspending(
        &self,
        haystack: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        match &self.engine {
            Engine::Snfa(m) => m
                .try_run_in_session(haystack, session)
                .map(|report| report.matched),
            Engine::Dp(m) => Ok(m.run_in_session(haystack, session).matched),
        }
    }

    /// Continues an evaluation parked by
    /// [`try_is_match_suspending`](SemRegex::try_is_match_suspending), from
    /// the position that suspended it.  `haystack` must be the line the
    /// evaluation was parked on, and `session` the session it suspended
    /// on; re-suspends (with updated state) when the next needed answers
    /// are still missing.
    pub fn resume_is_match(
        &self,
        parked: SuspendedMatch,
        haystack: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        match &self.engine {
            Engine::Snfa(m) => m
                .resume_run_in_session(parked, haystack, session)
                .map(|report| report.matched),
            // The DP baseline never suspends, so it can never have produced
            // `parked`; answer synchronously rather than panic on misuse.
            Engine::Dp(m) => Ok(m.run_in_session(haystack, session).matched),
        }
    }
}

impl std::fmt::Debug for SemRegex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemRegex")
            .field("pattern", &self.pattern)
            .field("algorithm", &self.algorithm())
            .field("oracle", &self.oracle().describe())
            .field("config", &self.config)
            .finish()
    }
}

impl std::fmt::Display for SemRegex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.pattern)
    }
}

/// Configures and builds [`SemRegex`] handles.
///
/// ```
/// use semre::{SemRegexBuilder, SetOracle};
///
/// let mut cities = SetOracle::new();
/// cities.insert("City", "Paris");
/// let re = SemRegexBuilder::new()
///     .per_call()          // paper-prototype oracle plane
///     .build(r"(?<City>: [A-Z][a-z]+)", cities)?;
/// assert!(re.is_match(b"Paris"));
/// # Ok::<(), semre::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct SemRegexBuilder {
    config: MatcherConfig,
    baseline: bool,
    chunk_lines: usize,
    threads: usize,
    stream_chunk_bytes: usize,
}

impl Default for SemRegexBuilder {
    fn default() -> Self {
        SemRegexBuilder {
            config: MatcherConfig::default(),
            baseline: false,
            chunk_lines: DEFAULT_CHUNK_LINES,
            threads: 1,
            stream_chunk_bytes: DEFAULT_STREAM_CHUNK_BYTES,
        }
    }
}

impl SemRegexBuilder {
    /// A builder with the default configuration: query-graph matcher, all
    /// optimizations, batched oracle plane, 256-line chunks.
    pub fn new() -> Self {
        SemRegexBuilder::default()
    }

    /// Replaces the whole matcher configuration (prefilter, pruning, lazy
    /// discharge, plane).
    pub fn matcher_config(mut self, config: MatcherConfig) -> Self {
        self.config = config;
        self
    }

    /// Routes oracle questions through the batched, deduplicating query
    /// plane (`true`, the default) or one `holds` call at a time.
    pub fn batched(mut self, batched: bool) -> Self {
        self.config.batched_oracle = batched;
        self
    }

    /// Shorthand for `batched(false)`: the per-call plane of the paper's
    /// prototype.
    pub fn per_call(self) -> Self {
        self.batched(false)
    }

    /// Enables the overlapped oracle plane with `threads` background
    /// resolver workers (clamped to at least 1; `0` disables overlap, the
    /// default).  The built handle owns a [`ResolverPool`]; scans through
    /// it suspend lines whose answers are in flight and keep scanning,
    /// hiding backend latency while producing byte-identical output.
    /// Implies the batched plane and is ignored by the DP baseline.
    pub fn overlapped(mut self, threads: usize) -> Self {
        self.config.oracle_threads = threads;
        if threads > 0 {
            self.config.batched_oracle = true;
        }
        self
    }

    /// Bounds the overlapped plane's queued-plus-in-flight oracle keys
    /// (`0` = the pool's default window).  Only meaningful together with
    /// [`overlapped`](SemRegexBuilder::overlapped).
    pub fn in_flight(mut self, window: usize) -> Self {
        self.config.in_flight = window;
        self
    }

    /// Enables or disables the literal prescan (`true`, the default): the
    /// length / first-byte / required-literal screens run in front of the
    /// skeleton DFA and skip all matching work on lines that cannot
    /// contain a match.  Verdicts are identical either way.
    pub fn prescan(mut self, prescan: bool) -> Self {
        self.config.literal_prescan = prescan;
        self
    }

    /// Uses the dynamic-programming baseline (the SMORE-style `O(|r||w|³)`
    /// algorithm) instead of the query-graph matcher.
    pub fn dp_baseline(mut self, baseline: bool) -> Self {
        self.baseline = baseline;
        self
    }

    /// Preferred lines per batch-session chunk for scanning tools built on
    /// this handle (clamped to at least 1; `grepo` honours it).
    pub fn chunk_lines(mut self, lines: usize) -> Self {
        self.chunk_lines = lines.max(1);
        self
    }

    /// Preferred number of worker threads for scanning tools built on this
    /// handle (clamped to at least 1; `grepo --threads` overrides it).
    /// Parallel scans fan chunks out across workers, each with its own
    /// batch session, and reassemble results in line order — verdicts and
    /// output are identical to a sequential scan.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Preferred I/O chunk size in bytes for streaming scans built on this
    /// handle (clamped to at least 1; `grepo --stream-chunk-bytes`
    /// overrides it).  Smaller chunks bound memory more tightly; larger
    /// chunks amortize read calls.  Lines longer than a chunk are handled
    /// correctly regardless — the chunker grows its carry buffer until a
    /// newline arrives.
    pub fn stream_chunk_bytes(mut self, bytes: usize) -> Self {
        self.stream_chunk_bytes = bytes.max(1);
        self
    }

    /// Parses `pattern` and compiles it against `oracle`.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] or [`Error::Elaboration`].
    pub fn build<O: Oracle + 'static>(self, pattern: &str, oracle: O) -> Result<SemRegex, Error> {
        self.build_shared(pattern, Arc::new(oracle))
    }

    /// Parses `pattern` and compiles it against a shared oracle.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] or [`Error::Elaboration`].
    pub fn build_shared(self, pattern: &str, oracle: Arc<dyn Oracle>) -> Result<SemRegex, Error> {
        let semre = parse(pattern)?;
        self.compile(pattern.to_owned(), semre, oracle)
    }

    /// Compiles an already-parsed [`Semre`] (e.g. one of the benchmark
    /// expressions) against `oracle`.
    ///
    /// # Errors
    ///
    /// [`Error::Elaboration`].
    pub fn build_semre<O: Oracle + 'static>(
        self,
        semre: Semre,
        oracle: O,
    ) -> Result<SemRegex, Error> {
        self.build_semre_shared(semre, Arc::new(oracle))
    }

    /// Compiles an already-parsed [`Semre`] against a shared oracle.
    ///
    /// # Errors
    ///
    /// [`Error::Elaboration`].
    pub fn build_semre_shared(
        self,
        semre: Semre,
        oracle: Arc<dyn Oracle>,
    ) -> Result<SemRegex, Error> {
        let pattern = semre.to_string();
        self.compile(pattern, semre, oracle)
    }

    fn compile(
        self,
        pattern: String,
        semre: Semre,
        oracle: Arc<dyn Oracle>,
    ) -> Result<SemRegex, Error> {
        // ⊥-elimination first (Section 3.1): the downstream constructions
        // assume ⊥-free input.
        let semre = eliminate_bot(&semre);
        // The resolver pool shares the oracle Arc with the engine, so a
        // question answered on either path lands in the same backend.
        let pool = if self.config.oracle_threads > 0 && self.config.batched_oracle && !self.baseline
        {
            Some(Arc::new(ResolverPool::new(
                oracle.clone(),
                self.config.oracle_threads,
                self.config.in_flight,
            )))
        } else {
            None
        };
        let engine = if self.baseline {
            Engine::Dp(DpMatcher::new(semre.clone(), oracle))
        } else {
            let matcher = Matcher::with_config(semre.clone(), oracle, self.config);
            matcher.snfa().validate().map_err(Error::Elaboration)?;
            Engine::Snfa(Box::new(matcher))
        };
        Ok(SemRegex {
            pattern,
            semre,
            engine,
            config: self.config,
            chunk_lines: self.chunk_lines,
            threads: self.threads,
            stream_chunk_bytes: self.stream_chunk_bytes,
            pool,
        })
    }
}

/// A matched span of the haystack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match<'h> {
    haystack: &'h [u8],
    start: usize,
    end: usize,
}

impl<'h> Match<'h> {
    /// Byte offset of the start of the span.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Byte offset one past the end of the span.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The span as a half-open byte range.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The matched bytes.
    pub fn as_bytes(&self) -> &'h [u8] {
        &self.haystack[self.start..self.end]
    }

    /// The matched text, when it is valid UTF-8.
    pub fn as_str(&self) -> Option<&'h str> {
        std::str::from_utf8(self.as_bytes()).ok()
    }

    /// Where a non-overlapping iteration resumes after this match: `end()`,
    /// or `end() + 1` after an empty match so iteration always advances.
    /// [`find_iter`](SemRegex::find_iter) and the grep engine's span scan
    /// share this rule.
    pub fn next_search_start(&self) -> usize {
        if self.is_empty() {
            self.end + 1
        } else {
            self.end
        }
    }
}

/// Iterator over the successive non-overlapping leftmost-earliest matches
/// in a haystack, returned by [`SemRegex::find_iter`].
///
/// After a match `[s, e)` the search resumes at `e` (or `e + 1` after an
/// empty match, so iteration always advances).
pub struct Matches<'r, 'h> {
    re: &'r SemRegex,
    haystack: &'h [u8],
    session: BatchSession<'r>,
    at: usize,
    done: bool,
}

impl<'h> Iterator for Matches<'_, 'h> {
    type Item = Match<'h>;

    fn next(&mut self) -> Option<Match<'h>> {
        if self.done {
            return None;
        }
        match self
            .re
            .find_at_in_session(self.haystack, self.at, &mut self.session)
        {
            Some(m) => {
                self.at = m.next_search_start();
                Some(m)
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

impl std::iter::FusedIterator for Matches<'_, '_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use semre_oracle::{Instrumented, PalindromeOracle, SetOracle, SimLlmOracle};

    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}

    #[test]
    fn handles_are_clone_send_sync() {
        assert_send_sync_clone::<SemRegex>();
        let re = SemRegex::new("a+", PalindromeOracle).unwrap();
        let clone = re.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || assert!(clone.is_match(b"aa")));
            scope.spawn(|| assert!(!re.is_match(b"b")));
        });
    }

    #[test]
    fn parse_and_elaboration_errors_surface() {
        let err = SemRegex::new("(unclosed", PalindromeOracle).unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        assert!(err.to_string().contains("offset"));
    }

    #[test]
    fn find_iter_yields_non_overlapping_spans_in_order() {
        let mut oracle = SetOracle::new();
        oracle.insert("Medicine name", "tramadol");
        oracle.insert("Medicine name", "ambien");
        let re = SemRegex::new(r"(?<Medicine name>: [a-z]+)", oracle).unwrap();
        let line = b"take tramadol or ambien daily";
        let spans: Vec<(usize, usize)> = re.find_iter(line).map(|m| (m.start(), m.end())).collect();
        assert_eq!(spans, vec![(5, 13), (17, 23)]);
        assert_eq!(&line[5..13], b"tramadol");
        let mut last_end = 0;
        for (s, e) in spans {
            assert!(s >= last_end, "overlap");
            assert!(re.is_match(&line[s..e]));
            last_end = e.max(s + 1);
        }
    }

    #[test]
    fn find_iter_terminates_on_nullable_patterns() {
        let re = SemRegex::new("a*", PalindromeOracle).unwrap();
        let spans: Vec<(usize, usize)> =
            re.find_iter(b"ba").map(|m| (m.start(), m.end())).collect();
        // Leftmost-earliest semantics: a nullable pattern yields the empty
        // span at every position.
        assert_eq!(spans, vec![(0, 0), (1, 1), (2, 2)]);
        let mut it = re.find_iter(b"ba");
        it.by_ref().count();
        assert!(it.next().is_none(), "fused after exhaustion");
    }

    #[test]
    fn dp_baseline_engine_answers_like_the_query_graph() {
        let re = SemRegex::new(r"(?<Medicine name>: [a-z]+)!", SimLlmOracle::new()).unwrap();
        let dp = SemRegexBuilder::new()
            .dp_baseline(true)
            .build(r"(?<Medicine name>: [a-z]+)!", SimLlmOracle::new())
            .unwrap();
        assert_eq!(re.algorithm(), "snfa");
        assert_eq!(dp.algorithm(), "dp");
        for line in [&b"buy xanax! now"[..], b"no meds here", b"ambien!"] {
            assert_eq!(re.is_match(line), dp.is_match(line), "{line:?}");
            assert_eq!(
                re.find(line).map(|m| m.range()),
                dp.find(line).map(|m| m.range()),
                "{line:?}"
            );
            assert_eq!(re.shortest_match(line), dp.shortest_match(line));
        }
    }

    #[test]
    fn sessions_absorb_repeated_questions_across_calls() {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let re =
            SemRegex::new_shared(r"Subject: (?<Medicine name>: [a-z]+)", backend.clone()).unwrap();
        let mut session = re.session();
        let before = backend.stats().calls;
        assert!(re.is_match_in_session(b"Subject: viagra", &mut session));
        let first = backend.stats().calls - before;
        assert!(re.is_match_in_session(b"Subject: viagra", &mut session));
        assert_eq!(
            backend.stats().calls - before,
            first,
            "second identical line must be answered from the session"
        );
    }

    #[test]
    fn builder_knobs_are_recorded() {
        let re = SemRegexBuilder::new()
            .per_call()
            .chunk_lines(0)
            .build("ab", PalindromeOracle)
            .unwrap();
        assert!(!re.config().batched_oracle);
        assert_eq!(re.chunk_lines(), 1);
        assert_eq!(re.pattern(), "ab");
        assert_eq!(re.to_string(), "ab");
        assert_eq!(re.find(b"xxabxx").unwrap().range(), 2..4);

        // ⊥-elimination happens during compilation.
        let bot = SemRegex::new("[]a|b", PalindromeOracle).unwrap();
        assert!(!bot.semre().contains_bot());
        assert!(bot.is_match(b"b"));
    }

    #[test]
    fn match_accessors() {
        let re = SemRegex::new("b+", PalindromeOracle).unwrap();
        let hay = b"aabbaa";
        let m = re.find(hay).unwrap();
        assert_eq!((m.start(), m.end()), (2, 3));
        assert_eq!(m.range(), 2..3);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert_eq!(m.as_bytes(), b"b");
        assert_eq!(m.as_str(), Some("b"));
    }
}
