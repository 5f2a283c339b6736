//! Oracle combinators: instrumentation and latency simulation.
//!
//! The paper's prototype mediates all LLM access through a query cache
//! (Assumption 2.4) and reports oracle-call counts, oracle time, and query
//! lengths (Table 2).  [`Instrumented`] reproduces the accounting: it
//! counts calls / bytes / positives and (optionally) injects a simulated
//! per-call latency, accumulating the time spent "inside the oracle".  The
//! query cache is [`SharedSession`](crate::SharedSession), which memoizes
//! `(query, text)` pairs, both to determinize nondeterministic backends
//! and to avoid paying for repeated queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::OracleStats;
use crate::Oracle;

/// A model of how long an oracle invocation takes.
///
/// The simulated cost of a call is `base + per_byte · |text|`.  The paper's
/// oracles range from microsecond-scale lookups (file system, IP
/// geolocation, Whois snapshot) to second-scale LLM invocations; scaled-down
/// defaults for each are provided so that benchmarks preserve the relative
/// cost structure at laptop time scales.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed cost per invocation.
    pub base: Duration,
    /// Additional cost per submitted byte.
    pub per_byte: Duration,
}

impl LatencyModel {
    /// No simulated latency (the default).
    pub fn zero() -> Self {
        LatencyModel {
            base: Duration::ZERO,
            per_byte: Duration::ZERO,
        }
    }

    /// A latency model with the given fixed and per-byte costs.
    pub fn new(base: Duration, per_byte: Duration) -> Self {
        LatencyModel { base, per_byte }
    }

    /// Scaled-down stand-in for a locally hosted LLM: 200 µs per call plus
    /// 2 µs per byte (prompt processing).
    pub fn llm() -> Self {
        LatencyModel::new(Duration::from_micros(200), Duration::from_micros(2))
    }

    /// Stand-in for a pre-populated network-service snapshot (Whois, IP
    /// geolocation, phishing list): 5 µs per call.
    pub fn service() -> Self {
        LatencyModel::new(Duration::from_micros(5), Duration::ZERO)
    }

    /// Stand-in for a local check such as a file-system probe: 1 µs.
    pub fn local() -> Self {
        LatencyModel::new(Duration::from_micros(1), Duration::ZERO)
    }

    /// The simulated duration of a call submitting `bytes` bytes.
    pub fn cost(&self, bytes: usize) -> Duration {
        self.base + self.per_byte.saturating_mul(bytes as u32)
    }

    /// Whether this model adds any latency at all.
    pub fn is_zero(&self) -> bool {
        self.base.is_zero() && self.per_byte.is_zero()
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::zero()
    }
}

/// Busy-waits for the given duration.
///
/// Sleeping is too coarse at microsecond scales, so simulated latency is
/// injected by spinning on [`Instant`].
fn spin_for(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Wraps an oracle, counting usage and optionally simulating latency.
///
/// All counters use atomics, so the wrapper remains `Sync` and can be
/// shared across matching threads.
///
/// # Examples
///
/// ```
/// use semre_oracle::{Instrumented, Oracle, SetOracle};
///
/// let mut set = SetOracle::new();
/// set.insert("City", "Paris");
/// let oracle = Instrumented::new(set);
/// assert!(oracle.holds("City", b"Paris"));
/// assert!(!oracle.holds("City", b"Gotham"));
/// assert_eq!(oracle.stats().calls, 2);
/// assert_eq!(oracle.stats().positive, 1);
/// ```
#[derive(Debug)]
pub struct Instrumented<O> {
    inner: O,
    latency: LatencyModel,
    /// When `true`, the simulated latency is actually spent (busy-wait);
    /// when `false` it is only accounted in the statistics.
    spin: bool,
    calls: AtomicU64,
    query_bytes: AtomicU64,
    positive: AtomicU64,
    oracle_nanos: AtomicU64,
    batches: AtomicU64,
}

impl<O: Oracle> Instrumented<O> {
    /// Wraps `inner` with counting only (no simulated latency).
    pub fn new(inner: O) -> Self {
        Instrumented::with_latency(inner, LatencyModel::zero())
    }

    /// Wraps `inner`, accounting (but not spending) the given simulated
    /// latency per call.
    pub fn with_latency(inner: O, latency: LatencyModel) -> Self {
        Instrumented {
            inner,
            latency,
            spin: false,
            calls: AtomicU64::new(0),
            query_bytes: AtomicU64::new(0),
            positive: AtomicU64::new(0),
            oracle_nanos: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` and *spends* the simulated latency on every call by
    /// busy-waiting, so that wall-clock measurements include oracle time.
    pub fn with_spun_latency(inner: O, latency: LatencyModel) -> Self {
        let mut this = Instrumented::with_latency(inner, latency);
        this.spin = true;
        this
    }

    /// The current cumulative usage snapshot.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            calls: self.calls.load(Ordering::Relaxed),
            query_bytes: self.query_bytes.load(Ordering::Relaxed),
            positive: self.positive.load(Ordering::Relaxed),
            oracle_nanos: self.oracle_nanos.load(Ordering::Relaxed),
        }
    }

    /// Number of batched round trips answered via
    /// [`resolve_batch`](Oracle::resolve_batch) (point-wise `holds` calls
    /// are not counted here).
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.query_bytes.store(0, Ordering::Relaxed);
        self.positive.store(0, Ordering::Relaxed);
        self.oracle_nanos.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
    }

    /// A reference to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Consumes the wrapper and returns the wrapped oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }
}

impl<O: Oracle> Oracle for Instrumented<O> {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        let started = Instant::now();
        let simulated = self.latency.cost(text.len());
        if self.spin {
            spin_for(simulated);
        }
        let answer = self.inner.holds(query, text);
        let mut elapsed = started.elapsed();
        if !self.spin {
            elapsed += simulated;
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.query_bytes
            .fetch_add(text.len() as u64, Ordering::Relaxed);
        if answer {
            self.positive.fetch_add(1, Ordering::Relaxed);
        }
        self.oracle_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        answer
    }

    fn resolve_batch(&self, batch: &[crate::QueryKey<'_>]) -> Vec<bool> {
        if batch.is_empty() {
            return Vec::new();
        }
        let started = Instant::now();
        let total_bytes: usize = batch.iter().map(|key| key.text.len()).sum();
        // One round trip for the whole batch: the fixed per-call cost is
        // paid once, the per-byte cost for every submitted byte — exactly
        // why real backends amortize under batching.
        let simulated = self.latency.cost(total_bytes);
        if self.spin {
            spin_for(simulated);
        }
        let answers = self.inner.resolve_batch(batch);
        let mut elapsed = started.elapsed();
        if !self.spin {
            elapsed += simulated;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.calls.fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.query_bytes
            .fetch_add(total_bytes as u64, Ordering::Relaxed);
        let positives = answers.iter().filter(|&&a| a).count() as u64;
        self.positive.fetch_add(positives, Ordering::Relaxed);
        self.oracle_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        answers
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        self.inner.question_cost(query, text)
    }

    fn describe(&self) -> String {
        format!("instrumented({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::PredicateOracle;

    #[test]
    fn instrumented_counts_everything() {
        let oracle = Instrumented::new(PredicateOracle::new(|q: &str, t: &[u8]| {
            q == "yes" && !t.is_empty()
        }));
        assert!(oracle.holds("yes", b"abc"));
        assert!(!oracle.holds("no", b"abc"));
        assert!(!oracle.holds("yes", b""));
        let s = oracle.stats();
        assert_eq!(s.calls, 3);
        assert_eq!(s.query_bytes, 6);
        assert_eq!(s.positive, 1);
        oracle.reset();
        assert_eq!(oracle.stats(), OracleStats::default());
    }

    #[test]
    fn latency_is_accounted_without_spinning() {
        let model = LatencyModel::new(Duration::from_millis(10), Duration::from_micros(100));
        let oracle = Instrumented::with_latency(PredicateOracle::new(|_, _| true), model);
        let started = Instant::now();
        oracle.holds("q", b"0123456789");
        let wall = started.elapsed();
        let accounted = oracle.stats().oracle_time();
        // 10 ms + 10 * 100 µs = 11 ms accounted, but essentially no wall time.
        assert!(accounted >= Duration::from_millis(11));
        assert!(
            wall < Duration::from_millis(5),
            "accounting should not block ({wall:?})"
        );
    }

    #[test]
    fn spun_latency_is_spent() {
        let model = LatencyModel::new(Duration::from_micros(300), Duration::ZERO);
        let oracle = Instrumented::with_spun_latency(PredicateOracle::new(|_, _| true), model);
        let started = Instant::now();
        oracle.holds("q", b"x");
        assert!(started.elapsed() >= Duration::from_micros(300));
        assert!(oracle.stats().oracle_time() >= Duration::from_micros(300));
    }

    #[test]
    fn latency_model_costs() {
        let m = LatencyModel::new(Duration::from_micros(10), Duration::from_micros(2));
        assert_eq!(m.cost(0), Duration::from_micros(10));
        assert_eq!(m.cost(5), Duration::from_micros(20));
        assert!(LatencyModel::zero().is_zero());
        assert!(!LatencyModel::llm().is_zero());
        assert!(LatencyModel::llm().cost(10) > LatencyModel::service().cost(10));
        assert!(LatencyModel::service().cost(10) > LatencyModel::local().cost(10));
    }

    #[test]
    fn cache_deduplicates_and_reports() {
        let counted = std::sync::Arc::new(Instrumented::new(PredicateOracle::new(
            |_, t: &[u8]| t.len() % 2 == 0,
        )));
        let cached = crate::SharedSession::new(counted.clone());
        assert!(cached.is_empty());
        for _ in 0..5 {
            assert!(cached.holds("q", b"ab"));
            assert!(!cached.holds("q", b"abc"));
        }
        assert_eq!(counted.stats().calls, 2);
        let stats = cached.stats();
        assert_eq!(stats.keys_submitted, 10);
        assert_eq!(stats.keys_deduped, 8);
        assert_eq!(stats.backend_keys, 2);
        assert_eq!(cached.len(), 2);
        assert!(!cached.is_empty());
    }

    #[test]
    fn cache_distinguishes_queries_and_texts() {
        let cached = crate::SharedSession::new(std::sync::Arc::new(PredicateOracle::new(
            |q: &str, _: &[u8]| q == "a",
        )));
        assert!(cached.holds("a", b"x"));
        assert!(!cached.holds("b", b"x"));
        assert!(cached.holds("a", b"y"));
        assert_eq!(cached.len(), 3);
        assert_eq!(cached.stats().keys_deduped, 0);
    }

    #[test]
    fn describe_mentions_wrappers() {
        let o = crate::SharedSession::new(std::sync::Arc::new(Instrumented::new(
            PredicateOracle::new(|_, _| true),
        )));
        let d = o.describe();
        assert!(d.contains("shared-session"));
        assert!(d.contains("instrumented"));
    }

    #[test]
    fn wrappers_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Instrumented<crate::simple::SetOracle>>();
        assert_send_sync::<crate::SharedSession>();
    }
}
