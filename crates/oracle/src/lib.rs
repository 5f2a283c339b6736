//! Oracles for semantic regular expressions.
//!
//! A SemRE refinement `r ∧ ⟨q⟩` delegates the judgement "does this substring
//! belong to the semantic category `q`?" to an external *oracle*
//! `⟦·⟧ : Q × Σ* → bool` (Equation 2 of the paper).  The oracle might be a
//! large language model, a Whois snapshot, a phishing-domain list, an IP
//! geolocation database, a file system, or any other source of information
//! (Note 2.6).  This crate defines:
//!
//! * the [`Oracle`] trait — the single point of contact between matching
//!   algorithms and the outside world;
//! * [`Instrumented`] (call counting + simulated latency, feeding the
//!   Table 2 statistics) and [`SharedSession`] (single-flight memoization /
//!   determinization, Assumption 2.4);
//! * basic oracles: [`ConstOracle`], [`PredicateOracle`], [`SetOracle`],
//!   [`TableOracle`], [`PalindromeOracle`];
//! * stand-ins for the paper's experimental backends: [`SimLlmOracle`],
//!   [`WhoisDb`], [`PhishingList`], [`IpGeoDb`], [`FileSystemOracle`];
//! * the [`persist`] module — an append-only, checksummed, crash-recovering
//!   answer log ([`PersistentAnswerStore`]) that carries oracle answers
//!   across processes and runs;
//! * the fault-tolerant plane: [`TryOracle`] + [`OracleError`] for fallible
//!   backends, [`RetryOracle`] (deterministic backoff + circuit breaking),
//!   the thread-local fault sink ([`record_fault`] / [`take_fault`]), and
//!   [`ScanControl`] (deadline / cancel / budget checks at line boundaries).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use semre_oracle::{Instrumented, LatencyModel, Oracle, SharedSession, SimLlmOracle};
//!
//! // The paper's LLM setup: a deterministic model behind a query cache,
//! // with every call's cost accounted.
//! let llm = Arc::new(Instrumented::with_latency(SimLlmOracle::new(), LatencyModel::llm()));
//! let oracle = SharedSession::new(llm.clone());
//!
//! assert!(oracle.holds("Medicine name", b"tramadol"));
//! assert!(oracle.holds("Medicine name", b"tramadol")); // answered from cache
//! assert_eq!(llm.stats().calls, 1);
//! assert_eq!(oracle.stats().keys_deduped, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod control;
mod error;
mod overlap;
pub mod persist;
pub mod registry;
mod retry;
mod services;
mod sim_llm;
mod simple;
mod stats;
mod wrappers;

pub use batch::{BatchOracle, BatchSession, LedgerSlot, QueryKey, QueryLedger, SharedSession};
pub use control::{BudgetProbe, ScanControl, ScanInterrupt};
pub use error::{
    clear_fault, fault_pending, record_fault, take_fault, OracleError, OracleErrorKind, TryOracle,
};
pub use overlap::{ResolverPool, ResolverStats, DEFAULT_IN_FLIGHT_WINDOW};
pub use persist::{PersistConfig, PersistentAnswerStore, ReplayReport};
pub use registry::{
    BuiltinTier, DictDriver, DriverCaps, LatencyClass, ScreenDriver, TierAnswer, TierCounters,
    TierDriver, TierStats, TierTally, TieredResolver, AUTHORITY_TIER,
};
pub use retry::{RetryCounters, RetryOracle, RetryPolicy, RetryStats};
pub use services::{
    FileSystemOracle, IpGeoDb, PhishingList, WhoisDb, DEAD_DOMAIN_QUERY, FOREIGN_IP_QUERY,
    NONEXISTENT_PATH_QUERY, PHISHING_QUERY, REGISTERED_AFTER_PREFIX,
};
pub use sim_llm::{
    SimLlmOracle, CELEBRITY_NAMES, CITY_NAMES, MEDICINE_NAMES, POLITICIAN_NAMES, SCIENTIST_NAMES,
    SPORTSPERSON_NAMES,
};
pub use simple::{ConstOracle, PalindromeOracle, PredicateOracle, SetOracle, TableOracle};
pub use stats::{BatchStats, OracleStats};
pub use wrappers::{Instrumented, LatencyModel};

/// The cost [`Oracle::question_cost`] reports when an oracle has no
/// better estimate: the price of one authoritative (LLM-class) question.
///
/// The scale is relative, not a unit of time or money; cheaper tiers in
/// [`registry`] report small values (0 for a cache hit) on the same scale
/// so that flush paths can order certain questions cheapest first.
pub const DEFAULT_QUESTION_COST: u32 = 100;

/// An external oracle `⟦·⟧ : Q × Σ* → bool`.
///
/// Implementations must be deterministic: the matching algorithms may ask
/// the same `(query, text)` pair any number of times (possibly zero) and in
/// any order, and correctness relies on always receiving the same answer
/// (Assumption 2.4 of the paper).  Nondeterministic backends should be
/// wrapped in a [`SharedSession`], which asks each distinct question once.
///
/// Oracles answer through a shared reference and must be usable from
/// multiple matching threads, hence the `Send + Sync` supertraits; use
/// interior mutability (as [`SharedSession`] does) for stateful backends.
pub trait Oracle: Send + Sync {
    /// Does the string `text` belong to the semantic category named by
    /// `query`?
    fn holds(&self, query: &str, text: &[u8]) -> bool;

    /// Answers a whole batch of questions in one call: `result[i]` answers
    /// `batch[i]`.
    ///
    /// The default implementation is point-wise [`holds`](Oracle::holds),
    /// so every oracle participates in the batched query plane unchanged;
    /// backends that amortize round trips (and the `Instrumented` and
    /// `SharedSession` wrappers) override it.  Overrides must answer
    /// exactly like point-wise `holds` would.
    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        batch
            .iter()
            .map(|key| self.holds(key.query, key.text))
            .collect()
    }

    /// An estimate of what answering `(query, text)` will cost, on the
    /// relative scale anchored by [`DEFAULT_QUESTION_COST`].
    ///
    /// The flush paths use this to order *certain* questions cheapest
    /// first (the paper's cost model: minimize what reaches the expensive
    /// backend).  The estimate is advisory — answers are keyed, so any
    /// order yields identical verdicts — and must be side-effect free.
    /// The default prices every question at the full authoritative cost,
    /// which keeps flat backends order-stable; the tiered resolver in
    /// [`registry`] overrides it with per-tier prices.
    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        let _ = (query, text);
        DEFAULT_QUESTION_COST
    }

    /// A short human-readable description of the oracle, used in logs and
    /// experiment reports.
    fn describe(&self) -> String {
        "oracle".to_owned()
    }
}

impl<O: Oracle + ?Sized> Oracle for &O {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        (**self).holds(query, text)
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        (**self).resolve_batch(batch)
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        (**self).question_cost(query, text)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

impl<O: Oracle + ?Sized> Oracle for Box<O> {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        (**self).holds(query, text)
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        (**self).resolve_batch(batch)
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        (**self).question_cost(query, text)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

impl<O: Oracle + ?Sized> Oracle for std::sync::Arc<O> {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        (**self).holds(query, text)
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        (**self).resolve_batch(batch)
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        (**self).question_cost(query, text)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe_and_blanket_impls_work() {
        let boxed: Box<dyn Oracle> = Box::new(ConstOracle::always_true());
        assert!(boxed.holds("q", b"w"));
        let arc: std::sync::Arc<dyn Oracle> = std::sync::Arc::new(PalindromeOracle);
        assert!(arc.holds("pal", b"aba"));
        let by_ref: &dyn Oracle = &ConstOracle::always_false();
        assert!(!by_ref.holds("q", b"w"));
        // A reference to a reference still implements Oracle.
        fn takes_oracle<O: Oracle>(o: O) -> bool {
            o.holds("pal", b"aa")
        }
        assert!(takes_oracle(PalindromeOracle));
    }

    #[test]
    fn default_describe() {
        struct Bare;
        impl Oracle for Bare {
            fn holds(&self, _: &str, _: &[u8]) -> bool {
                false
            }
        }
        assert_eq!(Oracle::describe(&Bare), "oracle");
        assert_eq!(Oracle::describe(&Box::new(Bare)), "oracle");
    }
}
