//! # semre — semantic regular expressions, end to end
//!
//! A production-oriented Rust implementation of *Membership Testing for
//! Semantic Regular Expressions* (PLDI 2025).  Semantic regular expressions
//! (SemREs) extend classical regular expressions with oracle refinements
//! `r ∧ ⟨q⟩` that delegate judgements like "is this a medicine name?",
//! "does this domain exist?", or "is this a hard-coded password?" to an
//! external oracle — an LLM, a database, a network service, or a file
//! system.
//!
//! ## Quick start
//!
//! The facade API is [`SemRegex`]: a compiled, reusable, cheaply-cloneable
//! pattern handle (`Clone + Send + Sync`) holding the elaborated automaton
//! and a shared oracle.  It answers whole-input membership
//! ([`is_match`](SemRegex::is_match) — the paper's `w ∈ ⟦r⟧`) and
//! unanchored span search ([`find`](SemRegex::find),
//! [`find_iter`](SemRegex::find_iter),
//! [`shortest_match`](SemRegex::shortest_match)):
//!
//! ```
//! use semre::{SemRegex, SimLlmOracle};
//!
//! // Example 2.8 of the paper: spam subjects advertising a medicine.
//! let re = SemRegex::new(r"Subject: .* (?<Medicine name>: [a-zA-Z]+) .*",
//!                        SimLlmOracle::new())?;
//!
//! assert!(re.is_match(b"Subject: buy xanax online today"));
//! assert!(!re.is_match(b"Subject: minutes of the weekly sync"));
//!
//! // Span search: where inside a noisy line does the pattern match?
//! // (Leftmost-earliest: the smallest start, then the smallest end.)
//! let line = b"[fwd] Subject: buy xanax online today (auto)";
//! let m = re.find(line).expect("span");
//! assert_eq!(m.as_bytes(), b"Subject: buy xanax ");
//! assert_eq!(m.start(), 6);
//! # Ok::<(), semre::Error>(())
//! ```
//!
//! Non-default configurations go through [`SemRegexBuilder`] (per-call vs
//! batched oracle plane, the dynamic-programming baseline, scan chunk
//! sizes, the literal prescan), and every fallible facade call returns the
//! unified [`Error`].  Large inputs stream without being materialized:
//! [`SemRegex::scan_reader`] (and the [`stream`] module it builds on)
//! decides membership line by line from chunked reads, with peak memory
//! bounded by the chunk size plus the longest line.
//!
//! ## Internals
//!
//! The facade sits on the workspace's internal crates, re-exported here as
//! modules for direct use (see `DESIGN.md`, "Facade vs internals"):
//!
//! * [`syntax`] — the SemRE AST, parser, printer, and structural analyses;
//! * [`oracle`] — the [`Oracle`] trait, the batched query plane
//!   ([`BatchOracle`], [`QueryLedger`], [`BatchSession`]), the
//!   single-flight [`SharedSession`] memo, instrumentation, and a library
//!   of concrete oracles;
//! * [`automata`] — semantic NFAs, the Thompson construction, and the
//!   ε-feasibility closure;
//! * [`core`] — the query-graph matcher ([`Matcher`]), its unanchored
//!   search entry points, and the DP baseline ([`DpMatcher`]);
//! * [`workloads`] — synthetic corpora, the paper's nine benchmark SemREs,
//!   and the lower-bound / reduction experiments.
//!
//! The `semre-grep` crate (the `grep_O` scanning engine and the `grepo`
//! CLI) builds *on top of* this facade, so it is not re-exported here; use
//! it directly for line-oriented scanning.
//!
//! See the `examples/` directory for larger scenarios (credential scanning,
//! spam filtering, triangle finding), `DESIGN.md` for the architecture, and
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod regex;
mod spec;
pub mod stream;

pub use error::Error;
pub use regex::{
    Match, Matches, SemRegex, SemRegexBuilder, DEFAULT_CHUNK_LINES, DEFAULT_STREAM_CHUNK_BYTES,
};
pub use spec::{parse_set_oracle, BuiltOracle, OracleSpec};
pub use stream::{LineChunks, LineVerdict, PathsScan, ScanReader};

pub use semre_automata as automata;
pub use semre_core as core;
pub use semre_oracle as oracle;
pub use semre_syntax as syntax;
pub use semre_workloads as workloads;

pub use semre_core::{DpMatcher, EvalReport, Matcher, MatcherConfig, SearchKind, SuspendedMatch};
pub use semre_oracle::{
    clear_fault, fault_pending, record_fault, take_fault, BatchOracle, BatchSession, BatchStats,
    ConstOracle, Instrumented, LatencyModel, Oracle, OracleError, OracleErrorKind,
    PalindromeOracle, PersistConfig, PersistentAnswerStore, PredicateOracle, QueryKey, QueryLedger,
    ReplayReport, ResolverPool, ResolverStats, RetryCounters, RetryOracle, RetryPolicy, RetryStats,
    ScanControl, ScanInterrupt, SetOracle, SharedSession, SimLlmOracle, TableOracle, TryOracle,
};
pub use semre_oracle::{
    BuiltinTier, DictDriver, DriverCaps, LatencyClass, ScreenDriver, TierAnswer, TierCounters,
    TierDriver, TierStats, TierTally, TieredResolver, AUTHORITY_TIER, DEFAULT_QUESTION_COST,
};
pub use semre_syntax::{parse, skeleton, CharClass, ParseSemreError, QueryName, Semre};
