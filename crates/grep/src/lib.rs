//! `grep_O`: a grep-like tool for semantic regular expressions.
//!
//! The paper's evaluation (Section 5) is carried out with a prototype
//! called `grep_O` — given a SemRE, an oracle, and an input file, it prints
//! the matching lines and reports throughput and oracle-usage statistics.
//! This crate provides that tool as a library plus a thin binary, built on
//! top of the `semre` facade (a [`semre::SemRegex`] handle is the normal
//! way to drive a scan):
//!
//! * [`LineMatcher`] / [`scan_lines`] / [`scan_spans`] / [`scan`] — the
//!   line-oriented scanning engine, accepting a facade handle or either
//!   internal matcher.  One chunk driver runs every scan: lines are cut
//!   into [`ScanOptions::chunk_lines`]-sized chunks with one batch session
//!   each, claimed by [`ScanOptions::threads`] workers (inline for one),
//!   on the oracle plane [`ScanOptions::batched`] names; lines whose
//!   answers are in flight on an overlapped handle park and resume from
//!   their evaluator checkpoints.  [`scan`] is the sequential per-call
//!   flavour with per-line oracle attribution (Table 2);
//! * [`stream`] — the streaming pipeline ([`scan_stream`],
//!   [`scan_stream_spans`]): chunked reads with lines reassembled across
//!   chunk boundaries, each batch of lines handed to the same driver,
//!   bounded memory, byte-identical output;
//! * [`walk`](mod@walk) — recursive directory traversal: deterministic
//!   ordering, ignore globs, hidden/binary skipping, symlink policy, max
//!   depth;
//! * [`tree`] — the multi-file scheduler ([`scan_tree`]): sub-file work
//!   stealing across worker threads (large files split into line-aligned
//!   byte ranges) with output reassembled in range and file order, so
//!   directory scans are byte-identical for any thread count and split
//!   size;
//! * [`ScanReport`] — per-line records and the aggregate statistics of
//!   Table 2 and Fig. 10;
//! * [`cli`] — option parsing and the drivers behind the `grepo` binary,
//!   including span search (`--only-matching`, `--color`), streaming
//!   (`--stream`, the default), and multi-path / directory scans with
//!   grep-convention exit codes.
//!
//! # Example
//!
//! ```
//! use semre::SemRegex;
//! use semre_grep::{scan, scan_stream, ScanOptions, StreamOptions};
//! use semre_oracle::{OracleStats, SimLlmOracle};
//!
//! let re = SemRegex::new("Subject: .*(?<Medicine name>: .+).*", SimLlmOracle::new())?;
//! let lines = vec!["Subject: cheap cialis".to_owned(), "Subject: agenda".to_owned()];
//! let report = scan(&re, &lines, OracleStats::default, ScanOptions::unlimited());
//! assert_eq!(report.matched_lines(), 1);
//!
//! // The same scan, streaming from any `Read` without materializing it.
//! let text = lines.join("\n");
//! let mut matched = 0;
//! let stream_report = scan_stream(&re, text.as_bytes(), &StreamOptions::default(),
//!     |_, _, is_match| { matched += u64::from(is_match); true })?;
//! assert_eq!(stream_report.lines, 2);
//! assert_eq!(matched, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod engine;
mod stats;
pub mod stream;
#[cfg(test)]
mod testutil;
pub mod tree;
pub mod walk;

pub use engine::{scan, scan_lines, scan_spans, FaultPolicy, LineMatcher, ScanOptions};
pub use stats::{LineRecord, ScanReport};
pub use stream::{scan_stream, scan_stream_spans, RangeReader, StreamOptions, StreamReport};
pub use tree::{scan_tree, FileSummary, ScanUnit, TreeOptions, TreeReport};
pub use walk::{glob_match, walk, WalkError, WalkOptions, WalkResult};
