//! The fallible oracle plane: typed backend errors, the [`TryOracle`]
//! trait, and the thread-local fault sink that carries failures across
//! the infallible [`Oracle`](crate::Oracle) interface.
//!
//! The paper models oracle queries as calls to an expensive, *unreliable*
//! external service (an LLM).  The rest of the workspace speaks the
//! infallible `Oracle` interface — `holds` returns a bare `bool` — which
//! is the right shape for matchers and scan drivers, but leaves no
//! channel for "the backend is down".  This module adds that channel in
//! three pieces:
//!
//! * [`OracleError`] / [`OracleErrorKind`] — a typed failure
//!   (`Transient`, `Timeout`, `BudgetExhausted`, `Fatal`) with a
//!   human-readable message;
//! * [`TryOracle`] — the fallible counterpart of `Oracle`
//!   (`try_holds` / `try_resolve_batch -> Result<_, OracleError>`), with
//!   a blanket adapter so every existing infallible oracle is a
//!   `TryOracle` that simply never fails;
//! * the **fault sink** ([`record_fault`] / [`take_fault`] /
//!   [`fault_pending`] / [`clear_fault`]) — a thread-local slot through
//!   which a failure that survives retries
//!   (see [`RetryOracle`](crate::RetryOracle)) reaches the scan driver.
//!
//! # The fault-sink contract
//!
//! When a fallible backend ultimately fails, its adapter records the
//! error in the calling thread's sink and returns *placeholder* `false`
//! answers so the matcher can unwind normally.  Two rules keep
//! placeholders from ever becoming wrong verdicts:
//!
//! 1. **No store pollution.** Every answer-store insertion site (the
//!    batch session, the shared session, the tiered resolver's cache
//!    tier, the resolver pool) checks [`fault_pending`] after a backend
//!    call and skips the insert while a fault is pending, so a
//!    placeholder is never cached, persisted, or replayed.  The shared
//!    session releases its claim instead, so a thread waiting on the
//!    same key asks again and records a fault of its own if the backend
//!    is still down; the pool marks the key failed, and every later
//!    lookup of it records the pool's fault.
//! 2. **Explicit degradation.** Scan drivers call [`take_fault`] at
//!    every line boundary; a line whose evaluation consumed a
//!    placeholder is either an error (`fail`), skipped (`skip-line`), or
//!    reported as an explicitly degraded non-match (`no-match`) — never
//!    a silently wrong answer.

use std::cell::RefCell;
use std::fmt;

use crate::batch::QueryKey;
use crate::Oracle;

/// Classification of an oracle backend failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleErrorKind {
    /// A failure that may well succeed on retry (connection reset, rate
    /// limit, service hiccup).
    Transient,
    /// The backend did not answer within its deadline.  Retryable.
    Timeout,
    /// A spending limit was reached; retrying cannot help until the
    /// budget is raised.
    BudgetExhausted,
    /// A permanent failure (bad credentials, unsupported query).
    Fatal,
}

impl OracleErrorKind {
    /// Whether a failure of this kind is worth retrying.
    pub fn is_retryable(self) -> bool {
        matches!(self, OracleErrorKind::Transient | OracleErrorKind::Timeout)
    }

    /// The kind's stable lowercase name (used in stats and messages).
    pub fn name(self) -> &'static str {
        match self {
            OracleErrorKind::Transient => "transient",
            OracleErrorKind::Timeout => "timeout",
            OracleErrorKind::BudgetExhausted => "budget-exhausted",
            OracleErrorKind::Fatal => "fatal",
        }
    }
}

/// A failed oracle call: what went wrong and whether it is worth
/// retrying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleError {
    /// The failure class.
    pub kind: OracleErrorKind,
    /// Human-readable detail, surfaced verbatim in diagnostics.
    pub message: String,
}

impl OracleError {
    /// An error of the given kind.
    pub fn new(kind: OracleErrorKind, message: impl Into<String>) -> Self {
        OracleError {
            kind,
            message: message.into(),
        }
    }

    /// A [`Transient`](OracleErrorKind::Transient) error.
    pub fn transient(message: impl Into<String>) -> Self {
        OracleError::new(OracleErrorKind::Transient, message)
    }

    /// A [`Timeout`](OracleErrorKind::Timeout) error.
    pub fn timeout(message: impl Into<String>) -> Self {
        OracleError::new(OracleErrorKind::Timeout, message)
    }

    /// A [`BudgetExhausted`](OracleErrorKind::BudgetExhausted) error.
    pub fn budget_exhausted(message: impl Into<String>) -> Self {
        OracleError::new(OracleErrorKind::BudgetExhausted, message)
    }

    /// A [`Fatal`](OracleErrorKind::Fatal) error.
    pub fn fatal(message: impl Into<String>) -> Self {
        OracleError::new(OracleErrorKind::Fatal, message)
    }

    /// Whether this failure is worth retrying.
    pub fn is_retryable(&self) -> bool {
        self.kind.is_retryable()
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle {} error: {}", self.kind.name(), self.message)
    }
}

impl std::error::Error for OracleError {}

/// A backend whose calls can fail.
///
/// The fallible counterpart of [`Oracle`]: same questions, but the
/// answer is a `Result`.  Every infallible [`Oracle`] is a `TryOracle`
/// through a blanket adapter that simply never fails, so fallible
/// plumbing (retry wrappers, fault-injection workloads) composes with
/// every existing backend unchanged.
///
/// A `TryOracle` that is **not** also an `Oracle` (e.g. a genuinely
/// fallible backend) re-enters the infallible plane through
/// [`RetryOracle`](crate::RetryOracle), which retries per its policy and
/// reports unrecoverable failures through the fault sink.
pub trait TryOracle: Send + Sync {
    /// Whether `text` belongs to the semantic category named by `query`,
    /// or why the backend could not say.
    ///
    /// # Errors
    ///
    /// The backend's failure, classified by [`OracleErrorKind`].
    fn try_holds(&self, query: &str, text: &[u8]) -> Result<bool, OracleError>;

    /// Answers `batch[i]` in `result[i]`, or fails the batch as a whole
    /// (real backends fail per round trip, not per question).
    ///
    /// # Errors
    ///
    /// The backend's failure, classified by [`OracleErrorKind`].
    fn try_resolve_batch(&self, batch: &[QueryKey<'_>]) -> Result<Vec<bool>, OracleError> {
        batch
            .iter()
            .map(|key| self.try_holds(key.query, key.text))
            .collect()
    }

    /// A short human-readable description of the backend.
    fn describe(&self) -> String {
        "try-oracle".to_owned()
    }
}

/// Every infallible oracle is a fallible oracle that never fails.
impl<O: Oracle + ?Sized> TryOracle for O {
    fn try_holds(&self, query: &str, text: &[u8]) -> Result<bool, OracleError> {
        Ok(self.holds(query, text))
    }

    fn try_resolve_batch(&self, batch: &[QueryKey<'_>]) -> Result<Vec<bool>, OracleError> {
        Ok(self.resolve_batch(batch))
    }

    fn describe(&self) -> String {
        Oracle::describe(self)
    }
}

thread_local! {
    /// The calling thread's pending oracle fault, if any.  First fault
    /// wins: a line that trips several placeholder answers reports the
    /// root cause, not the last symptom.
    static FAULT: RefCell<Option<OracleError>> = const { RefCell::new(None) };
}

/// Records `error` in the calling thread's fault sink.  If a fault is
/// already pending it is kept (first fault wins) and `error` is dropped.
pub fn record_fault(error: OracleError) {
    FAULT.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(error);
        }
    });
}

/// Takes (and clears) the calling thread's pending fault.  Scan drivers
/// call this at every line boundary.
pub fn take_fault() -> Option<OracleError> {
    FAULT.with(|slot| slot.borrow_mut().take())
}

/// Whether a fault is pending on the calling thread.  Answer stores
/// check this after a backend call and skip caching while it is true,
/// so placeholder answers never pollute a store.
pub fn fault_pending() -> bool {
    FAULT.with(|slot| slot.borrow().is_some())
}

/// Clears any pending fault.  Drivers call this when a new scan starts,
/// so a stale fault from an earlier, differently-handled failure cannot
/// leak into fresh work.
pub fn clear_fault() {
    FAULT.with(|slot| *slot.borrow_mut() = None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::PredicateOracle;

    #[test]
    fn error_kinds_classify_retryability() {
        assert!(OracleError::transient("x").is_retryable());
        assert!(OracleError::timeout("x").is_retryable());
        assert!(!OracleError::budget_exhausted("x").is_retryable());
        assert!(!OracleError::fatal("x").is_retryable());
        let e = OracleError::transient("connection reset");
        assert_eq!(e.to_string(), "oracle transient error: connection reset");
        assert_eq!(e.kind.name(), "transient");
    }

    #[test]
    fn blanket_adapter_makes_every_oracle_fallible_but_never_failing() {
        let oracle = PredicateOracle::new(|_, t: &[u8]| t.starts_with(b"a"));
        assert_eq!(oracle.try_holds("q", b"ab"), Ok(true));
        assert_eq!(oracle.try_holds("q", b"xy"), Ok(false));
        let batch = [QueryKey::new("q", b"ab"), QueryKey::new("q", b"xy")];
        assert_eq!(oracle.try_resolve_batch(&batch), Ok(vec![true, false]));
        // Trait objects adapt too.
        let dynamic: &dyn Oracle = &oracle;
        assert_eq!(dynamic.try_holds("q", b"ab"), Ok(true));
        assert_eq!(TryOracle::describe(dynamic), Oracle::describe(dynamic));
    }

    #[test]
    fn fault_sink_is_first_wins_and_thread_local() {
        clear_fault();
        assert!(!fault_pending());
        assert!(take_fault().is_none());

        record_fault(OracleError::transient("first"));
        record_fault(OracleError::fatal("second"));
        assert!(fault_pending());
        let fault = take_fault().unwrap();
        assert_eq!(fault.message, "first", "first fault wins");
        assert!(!fault_pending());

        // Another thread's sink is independent.
        record_fault(OracleError::timeout("mine"));
        std::thread::spawn(|| {
            assert!(!fault_pending(), "sink is thread-local");
            record_fault(OracleError::fatal("theirs"));
            assert_eq!(take_fault().unwrap().message, "theirs");
        })
        .join()
        .unwrap();
        assert_eq!(take_fault().unwrap().message, "mine");

        record_fault(OracleError::fatal("stale"));
        clear_fault();
        assert!(!fault_pending());
    }
}
