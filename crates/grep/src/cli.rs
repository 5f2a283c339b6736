//! Command-line interface of the `grepo` binary.
//!
//! ```text
//! grepo [OPTIONS] PATTERN [PATH...]
//!
//!   PATTERN            a SemRE in the concrete syntax of `semre-syntax`
//!   PATH               input files and/or directories (standard input
//!                      when omitted); directories are walked recursively
//!
//!   --oracle KIND      sim-llm (default) | always-true | always-false |
//!                      set:FILE   (FILE holds "query<TAB>accepted text" lines)
//!   --baseline         use the dynamic-programming baseline instead of the
//!                      query-graph algorithm
//!   --batched          share one batch session per chunk of lines, so
//!                      repeated (query, text) questions reach the oracle
//!                      backend once per chunk
//!   --chunk-lines N    lines per batch-session chunk (default 256)
//!   --oracle-threads N resolve oracle questions on N background threads
//!                      while the scan continues; lines waiting on an
//!                      answer are parked and resumed when it lands, so
//!                      oracle latency overlaps matching (requires
//!                      --batched; output stays byte-identical)
//!   --in-flight N      bound on unanswered oracle questions the resolver
//!                      pool accepts before submitters wait (requires
//!                      --oracle-threads; default 512)
//!   --oracle-delay N   sleep N microseconds per oracle backend batch — a
//!                      deterministic stand-in for a remote oracle's
//!                      round-trip, used to demonstrate latency hiding
//!   --threads N        worker threads (default 1): files — and byte
//!                      ranges of large files, see --split-bytes — are
//!                      work-stolen across workers on multi-file scans,
//!                      chunks of lines on single-input scans; output is
//!                      identical to a sequential scan either way
//!   --split-bytes N|off  sub-file work stealing on multi-file scans:
//!                      files of at least 2N bytes are split into ~N-byte
//!                      line-aligned ranges scanned as independent work
//!                      units, so one giant file no longer serializes the
//!                      scan (default 4 MiB; `off` restores whole-file
//!                      stealing; output is byte-identical either way)
//!   --only-matching    print each matched span instead of the whole line
//!                      (lines match when the pattern matches a substring)
//!   --color            highlight matched spans in printed lines
//!   --count            print only the number of matching lines (per file
//!                      on multi-file scans)
//!   --with-filename    prefix matches with "path:" (the default when
//!                      scanning more than one file or any directory)
//!   --no-filename      never prefix matches with the file path
//!   --heading          print the file path once above its matches instead
//!                      of on every line, with a blank line between files
//!   --hidden           also scan hidden (dot-prefixed) files and dirs
//!   --follow           follow symbolic links while walking directories
//!   --binary           also scan files that look binary (NUL in the
//!                      leading bytes); explicit file arguments are always
//!                      scanned
//!   --ignore GLOB      skip files/dirs matching GLOB while walking
//!                      (repeatable; `*`, `?`, `**`; a GLOB with `/` is
//!                      matched against the path relative to the walk root)
//!   --max-depth N      descend at most N directory levels
//!   --stats            print aggregate statistics to standard error
//!   --max-lines N      process at most N lines (per file)
//!   --timeout-secs S   stop after S seconds of wall-clock time (per file)
//!   --on-oracle-error P  what a scan does when an oracle backend call
//!                      fails even after retries: fail (stop with an
//!                      error, the default), skip-line (drop the line from
//!                      the output), or no-match (report the line as a
//!                      non-match); every degraded line is reported on
//!                      standard error and the run exits 2, so degraded
//!                      output is never mistaken for a clean run
//!   --stream           scan in streaming mode: chunked reads, bounded
//!                      memory (the default for files and stdin)
//!   --no-stream        materialize each input in memory first
//!   --stream-chunk-bytes N   bytes per streaming I/O chunk (default 64 KiB)
//!   --no-prescan       disable the literal prescan in front of the DFA
//!   --answer-log FILE  persist oracle answers to FILE and replay them on
//!                      the next run, so a question answered once never
//!                      reaches the backend again — across processes
//!   --daemon ADDR      ship the scan to a running `semred` daemon at
//!                      ADDR instead of matching in-process; output is
//!                      byte-identical to a local run over the same files
//! ```
//!
//! Exit status follows the grep convention: **0** when at least one line
//! matched, **1** when none did, **2** when any error occurred (malformed
//! options, invalid pattern, unreadable input).  On multi-file scans an
//! unreadable file is reported on standard error and the scan continues;
//! the run still exits 2.
//!
//! The driver is built entirely on the `semre` facade: one
//! [`semre::SemRegex`] handle per run, configured by [`SemRegexBuilder`],
//! with oracle backends
//! dispatched by [`semre::OracleSpec`].  By default a line matches when the
//! *whole line* belongs to the SemRE's language (the paper's membership
//! question); `--only-matching` switches to unanchored span search, where
//! a line matches when the pattern matches some substring.  `--color` is
//! purely presentational — it highlights the spans `find` locates inside
//! the printed lines and never changes which lines match.
//!
//! Multi-file scans go through [`crate::walk`](mod@crate::walk)
//! (deterministic,
//! name-sorted traversal) and [`crate::tree::scan_tree`] (file-level work
//! stealing with output reassembled in file order), with one
//! [`SharedSession`] interposed between the pattern and the oracle
//! backend so repeated questions dedupe **globally across files**, not
//! just within a chunk.  Output is byte-identical for any `--threads`.
//!
//! The option parsing and the scan driver live here (rather than in the
//! binary) so they can be unit tested.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{Cursor, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use semre::{
    BatchStats, Instrumented, OracleSpec, PersistentAnswerStore, SemRegexBuilder, SharedSession,
    DEFAULT_CHUNK_LINES,
};
use semre_daemon::DaemonClient;
use semre_oracle::OracleStats;

use crate::engine::{scan_lines, scan_spans, FaultPolicy, ScanOptions};
use crate::stream::{scan_stream, scan_stream_spans, RangeReader, StreamOptions};
use crate::tree::{scan_tree, FileSummary, ScanUnit, TreeOptions, TreeReport};
use crate::walk::{walk, WalkOptions};

/// Errors produced while parsing command-line options or running the scan.
#[derive(Debug)]
pub struct CliError {
    message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for CliError {}

impl From<semre::Error> for CliError {
    fn from(e: semre::Error) -> Self {
        CliError::new(e.to_string())
    }
}

/// Parsed command-line options.
#[derive(Clone, Debug, Default)]
pub struct CliOptions {
    /// The SemRE pattern.
    pub pattern: String,
    /// Input files and/or directories; standard input when empty.
    pub paths: Vec<String>,
    /// `--help` was given: print the usage string and exit 0.
    pub help: bool,
    /// Prefix matches with `path:`; `None` means automatic (on when
    /// scanning more than one file or any directory).
    pub with_filename: Option<bool>,
    /// Print each file's path once above its matches, with a blank line
    /// between files, instead of a per-line prefix.
    pub heading: bool,
    /// Also scan hidden (dot-prefixed) files and directories.
    pub hidden: bool,
    /// Follow symbolic links while walking directories.
    pub follow: bool,
    /// Also scan files that look binary.
    pub binary: bool,
    /// Ignore globs applied while walking directories.
    pub ignore: Vec<String>,
    /// Maximum directory depth for walks.
    pub max_depth: Option<usize>,
    /// Oracle backend specification.
    pub oracle: OracleSpec,
    /// Use the DP baseline instead of the query-graph matcher.
    pub baseline: bool,
    /// Share one batch session per chunk of lines (cross-line
    /// deduplication of oracle questions).
    pub batched: bool,
    /// Lines per batch-session chunk (`0` means the default).
    pub chunk_lines: usize,
    /// Background oracle-resolver threads (`0` means synchronous
    /// resolution, the default).
    pub oracle_threads: usize,
    /// Bound on unanswered oracle questions in the resolver pool (`0`
    /// means the default window).
    pub in_flight: usize,
    /// Sleeping latency charged per oracle backend batch, in microseconds
    /// (`0`, the default, charges nothing).  A deterministic stand-in for
    /// a remote oracle round-trip; the perf harness uses it to measure
    /// how much latency concurrent scanning hides.
    pub oracle_delay_us: u64,
    /// Worker threads for the scan (`0` means the handle's preference,
    /// i.e. sequential).  Output is identical to a sequential scan.
    pub threads: usize,
    /// Sub-file work stealing on multi-file scans: files of at least
    /// twice this many bytes are split into roughly this-sized
    /// line-aligned byte ranges scanned as independent work units.
    /// `None` means the default ([`DEFAULT_SPLIT_BYTES`], except under
    /// per-file `--max-lines`/`--timeout-secs` limits, whose semantics
    /// are order-dependent); `Some(0)` (`--split-bytes off`) restores
    /// whole-file stealing.  Output is byte-identical either way.
    pub split_bytes: Option<u64>,
    /// Print matched spans instead of whole lines (span-search mode).
    pub only_matching: bool,
    /// Highlight matched spans in printed lines (presentational; never
    /// changes which lines match).
    pub color: bool,
    /// Print only the number of matching lines.
    pub count_only: bool,
    /// Print aggregate statistics to standard error.
    pub stats: bool,
    /// Process at most this many lines.
    pub max_lines: Option<usize>,
    /// Wall-clock budget in seconds.
    pub timeout_secs: Option<u64>,
    /// Streaming (chunked I/O) scan mode: `None` = default (on).
    pub stream: Option<bool>,
    /// Bytes per streaming I/O chunk (`0` means the handle's default).
    pub stream_chunk_bytes: usize,
    /// Disable the literal prescan in front of the skeleton DFA
    /// (diagnostic; verdicts are identical either way).
    pub no_prescan: bool,
    /// Persist oracle answers to this file and replay them on the next
    /// run, so previously-answered questions never reach the backend
    /// again (multi-file runs only; answers layer between the in-memory
    /// session and the backend).
    pub answer_log: Option<String>,
    /// Ship the scan to a running `semred` daemon at this address
    /// instead of matching in-process.
    pub daemon: Option<String>,
    /// What a scan does when an oracle backend call fails even after
    /// retries (`None` means the default, [`FaultPolicy::Fail`]).
    /// Degradation is always explicit: the `skip-line` and `no-match`
    /// policies report every degraded line on standard error and the run
    /// exits 2.
    pub on_oracle_error: Option<FaultPolicy>,
}

/// Default `--split-bytes` threshold: on multi-file scans, files of at
/// least twice this size are split into roughly this-sized ranges so a
/// skewed tree (one giant file, many small ones) no longer serializes on
/// its biggest file.
pub const DEFAULT_SPLIT_BYTES: u64 = 4 * 1024 * 1024;

/// The usage string printed on `--help` or malformed invocations.
pub const USAGE: &str = "usage: grepo [--oracle KIND] [--baseline] [--batched] [--chunk-lines N] \
[--oracle-threads N] [--in-flight N] [--oracle-delay N] \
[--threads N] [--split-bytes N|off] [--only-matching] [--color] [--count] \
[--with-filename | --no-filename] [--heading] \
[--hidden] [--follow] [--binary] [--ignore GLOB] [--max-depth N] [--stats] [--max-lines N] \
[--timeout-secs S] [--on-oracle-error fail|skip-line|no-match] \
[--stream | --no-stream] [--stream-chunk-bytes N] [--no-prescan] \
[--answer-log FILE] [--daemon ADDR] \
PATTERN [PATH...]";

impl CliOptions {
    /// Parses command-line arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] describing the first malformed argument or a
    /// missing pattern.
    pub fn parse<I, S>(args: I) -> Result<CliOptions, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut options = CliOptions::default();
        let mut positional: Vec<String> = Vec::new();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--baseline" => options.baseline = true,
                "--batched" => options.batched = true,
                "--chunk-lines" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--chunk-lines needs a value"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| CliError::new("--chunk-lines expects a number"))?;
                    if n == 0 {
                        return Err(CliError::new("--chunk-lines must be positive"));
                    }
                    options.chunk_lines = n;
                }
                "--oracle-threads" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--oracle-threads needs a value"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| CliError::new("--oracle-threads expects a number"))?;
                    if n == 0 {
                        return Err(CliError::new("--oracle-threads must be positive"));
                    }
                    options.oracle_threads = n;
                }
                "--in-flight" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--in-flight needs a value"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| CliError::new("--in-flight expects a number"))?;
                    if n == 0 {
                        return Err(CliError::new("--in-flight must be positive"));
                    }
                    options.in_flight = n;
                }
                "--oracle-delay" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--oracle-delay needs a value"))?;
                    let n: u64 = n
                        .parse()
                        .map_err(|_| CliError::new("--oracle-delay expects microseconds"))?;
                    options.oracle_delay_us = n;
                }
                "--threads" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--threads needs a value"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| CliError::new("--threads expects a number"))?;
                    if n == 0 {
                        return Err(CliError::new("--threads must be positive"));
                    }
                    options.threads = n;
                }
                "--split-bytes" => {
                    let v = args
                        .next()
                        .ok_or_else(|| CliError::new("--split-bytes needs a byte count or off"))?;
                    if v == "off" {
                        options.split_bytes = Some(0);
                    } else {
                        let n: u64 = v.parse().map_err(|_| {
                            CliError::new("--split-bytes expects a byte count or off")
                        })?;
                        if n == 0 {
                            return Err(CliError::new(
                                "--split-bytes must be positive (use off to disable)",
                            ));
                        }
                        options.split_bytes = Some(n);
                    }
                }
                "--only-matching" | "-o" => options.only_matching = true,
                "--color" => options.color = true,
                "--with-filename" | "-H" => options.with_filename = Some(true),
                "--no-filename" => options.with_filename = Some(false),
                "--heading" => options.heading = true,
                "--hidden" => options.hidden = true,
                "--follow" => options.follow = true,
                "--binary" => options.binary = true,
                "--ignore" => {
                    let glob = args
                        .next()
                        .ok_or_else(|| CliError::new("--ignore needs a glob"))?;
                    options.ignore.push(glob);
                }
                "--max-depth" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--max-depth needs a value"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| CliError::new("--max-depth expects a number"))?;
                    if n == 0 {
                        return Err(CliError::new("--max-depth must be positive"));
                    }
                    options.max_depth = Some(n);
                }
                "--stream" => options.stream = Some(true),
                "--no-stream" => options.stream = Some(false),
                "--no-prescan" => options.no_prescan = true,
                "--stream-chunk-bytes" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--stream-chunk-bytes needs a value"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| CliError::new("--stream-chunk-bytes expects a number"))?;
                    if n == 0 {
                        return Err(CliError::new("--stream-chunk-bytes must be positive"));
                    }
                    options.stream_chunk_bytes = n;
                }
                "--answer-log" => {
                    let path = args
                        .next()
                        .ok_or_else(|| CliError::new("--answer-log needs a file"))?;
                    options.answer_log = Some(path);
                }
                "--daemon" => {
                    let addr = args
                        .next()
                        .ok_or_else(|| CliError::new("--daemon needs an address"))?;
                    options.daemon = Some(addr);
                }
                "--count" => options.count_only = true,
                "--stats" => options.stats = true,
                "--help" | "-h" => options.help = true,
                "--oracle" => {
                    let kind = args
                        .next()
                        .ok_or_else(|| CliError::new("--oracle needs a value"))?;
                    options.oracle = OracleSpec::parse(&kind)?;
                }
                "--max-lines" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--max-lines needs a value"))?;
                    options.max_lines = Some(
                        n.parse()
                            .map_err(|_| CliError::new("--max-lines expects a number"))?,
                    );
                }
                "--timeout-secs" => {
                    let n = args
                        .next()
                        .ok_or_else(|| CliError::new("--timeout-secs needs a value"))?;
                    options.timeout_secs = Some(
                        n.parse()
                            .map_err(|_| CliError::new("--timeout-secs expects a number"))?,
                    );
                }
                "--on-oracle-error" => {
                    let policy = args
                        .next()
                        .ok_or_else(|| CliError::new("--on-oracle-error needs a policy"))?;
                    options.on_oracle_error =
                        Some(FaultPolicy::parse(&policy).ok_or_else(|| {
                            CliError::new(format!(
                            "--on-oracle-error expects fail, skip-line, or no-match, got {policy:?}"
                        ))
                        })?);
                }
                other if other.starts_with("--") => {
                    return Err(CliError::new(format!("unknown option {other:?}")));
                }
                _ => positional.push(arg),
            }
        }
        if options.help {
            // `--help` short-circuits: no pattern required, nothing else
            // validated (the binary prints USAGE and exits 0).
            return Ok(options);
        }
        if options.chunk_lines != 0 && !options.batched {
            return Err(CliError::new("--chunk-lines requires --batched"));
        }
        if options.oracle_threads != 0 && !options.batched {
            // Overlapped resolution rides the batch plane; without it
            // every question is asked (and answered) inline.
            return Err(CliError::new("--oracle-threads requires --batched"));
        }
        if options.in_flight != 0 && options.oracle_threads == 0 {
            return Err(CliError::new("--in-flight requires --oracle-threads"));
        }
        if options.stream_chunk_bytes != 0 && options.stream == Some(false) {
            return Err(CliError::new(
                "--stream-chunk-bytes conflicts with --no-stream",
            ));
        }
        if options.with_filename == Some(true) && options.heading {
            return Err(CliError::new("--with-filename conflicts with --heading"));
        }
        if options.split_bytes.is_some_and(|n| n > 0)
            && (options.max_lines.is_some() || options.timeout_secs.is_some())
        {
            // --max-lines/--timeout-secs are per-file limits whose effect
            // depends on scan order within the file; ranges scanned
            // concurrently would each apply their own limit.
            return Err(CliError::new(
                "--split-bytes conflicts with --max-lines/--timeout-secs",
            ));
        }
        if options.daemon.is_some() {
            // A daemon run executes on the server with the server's
            // engine configuration and answer store.  Reject options that
            // would silently change the output or the cost accounting if
            // they were applied locally instead.
            let conflicts = [
                (options.baseline, "--baseline"),
                (options.batched, "--batched"),
                (options.oracle_delay_us != 0, "--oracle-delay"),
                (options.threads != 0, "--threads"),
                (options.split_bytes.is_some(), "--split-bytes"),
                (options.only_matching, "--only-matching"),
                (options.color, "--color"),
                (options.max_lines.is_some(), "--max-lines"),
                (options.timeout_secs.is_some(), "--timeout-secs"),
                (options.stream.is_some(), "--stream/--no-stream"),
                (options.stream_chunk_bytes != 0, "--stream-chunk-bytes"),
                (options.no_prescan, "--no-prescan"),
                (options.answer_log.is_some(), "--answer-log"),
                (options.on_oracle_error.is_some(), "--on-oracle-error"),
            ];
            if let Some((_, flag)) = conflicts.iter().find(|(set, _)| *set) {
                return Err(CliError::new(format!("{flag} conflicts with --daemon")));
            }
        }
        let mut positional = positional.into_iter();
        options.pattern = positional
            .next()
            .ok_or_else(|| CliError::new(format!("missing PATTERN\n{USAGE}")))?;
        options.paths = positional.collect();
        Ok(options)
    }

    /// Whether the run uses unanchored span search instead of whole-line
    /// membership.  Only `--only-matching` changes matching semantics;
    /// `--color` is presentational.
    fn span_mode(&self) -> bool {
        self.only_matching
    }

    /// Whether the scan streams the input in chunks (the default) instead
    /// of materializing it in memory.  Output is byte-identical either
    /// way; streaming bounds peak memory by the chunk size.
    pub fn streaming(&self) -> bool {
        self.stream.unwrap_or(true)
    }

    /// The effective sub-file splitting threshold for multi-file scans
    /// (`None` = whole-file stealing).  Defaults to
    /// [`DEFAULT_SPLIT_BYTES`], except under per-file
    /// `--max-lines`/`--timeout-secs` limits, whose effect depends on
    /// scan order within the file.
    pub fn effective_split_bytes(&self) -> Option<u64> {
        match self.split_bytes {
            Some(0) => None,
            Some(n) => Some(n),
            None if self.max_lines.is_some() || self.timeout_secs.is_some() => None,
            None => Some(DEFAULT_SPLIT_BYTES),
        }
    }

    /// How a single input is scanned: the limits and fault policy, plus
    /// the chunk size (`--chunk-lines`, defaulting to
    /// [`DEFAULT_CHUNK_LINES`]), `--threads`, and the oracle plane.
    fn scan_options(&self) -> ScanOptions {
        ScanOptions {
            max_lines: self.max_lines,
            time_budget: self.timeout_secs.map(Duration::from_secs),
            control: semre::ScanControl::none(),
            fault_policy: self.fault_policy(),
            chunk_lines: if self.chunk_lines == 0 {
                DEFAULT_CHUNK_LINES
            } else {
                self.chunk_lines
            },
            threads: self.threads.max(1),
            batched: self.batched,
        }
    }

    /// The effective fault policy (`--on-oracle-error`, defaulting to
    /// `fail`).
    fn fault_policy(&self) -> FaultPolicy {
        self.on_oracle_error.unwrap_or_default()
    }
}

/// The compiled artifacts one run needs: the facade handle, the
/// instrumented oracle behind it, the cross-file shared session (multi-file
/// runs only), the retry counters when the oracle spec has a retry layer,
/// and the tier counters when it has a `tiered:` registry stack.
struct Compiled {
    re: semre::SemRegex,
    oracle: Arc<Instrumented<Arc<dyn semre::Oracle>>>,
    session: Option<SharedSession>,
    retry: Option<Arc<semre::RetryCounters>>,
    tiers: Option<Arc<semre::TierCounters>>,
}

fn compile(options: &CliOptions) -> Result<Compiled, CliError> {
    compile_with(options, false)
}

/// Compiles the pattern.  With `share_across_files` a [`SharedSession`] is
/// interposed between the matcher and the instrumented backend, so every
/// chunk session of every file resolves through one global answer store —
/// a `(query, text)` question repeated across files reaches the backend
/// once for the whole run.
fn compile_with(options: &CliOptions, share_across_files: bool) -> Result<Compiled, CliError> {
    let built = options.oracle.build_with_counters()?;
    let (backend, retry, tiers) = (built.oracle, built.retry, built.tiers);
    // `--oracle-delay` interposes the sleeping `DelayOracle` *below* the
    // instrumented layer, so the call counters still tick and — when a
    // cross-file shared session dedupes — only genuine backend misses pay
    // the simulated round-trip.  Sleeping (not spinning) latency releases
    // the CPU, so resolver threads can hide it even on a single core.
    let backend: Arc<dyn semre::Oracle> = if options.oracle_delay_us != 0 {
        Arc::new(semre::workloads::DelayOracle::sleeping(
            backend,
            Duration::from_micros(options.oracle_delay_us),
            Duration::ZERO,
        ))
    } else {
        backend
    };
    let oracle = Arc::new(Instrumented::new(backend));
    // Without --batched the per-call plane keeps the per-line
    // `oracle_calls` statistic meaning what it says: one backend call per
    // logical oracle question.
    let instrumented: Arc<dyn semre::Oracle> = oracle.clone();
    let (shared, session) = if share_across_files {
        // --answer-log layers a persistent store between the in-memory
        // session and the backend: questions answered on an earlier run
        // are replayed from disk and never reach the backend again.
        let session = match &options.answer_log {
            Some(path) => {
                let store = PersistentAnswerStore::open(path)
                    .map_err(|e| CliError::new(format!("cannot open answer log {path}: {e}")))?;
                SharedSession::with_persistence(
                    instrumented,
                    Arc::new(store),
                    options.oracle.to_string(),
                )
            }
            None => SharedSession::new(instrumented),
        };
        (
            Arc::new(session.clone()) as Arc<dyn semre::Oracle>,
            Some(session),
        )
    } else {
        (instrumented, None)
    };
    let scan = options.scan_options();
    let mut builder = SemRegexBuilder::new()
        .dp_baseline(options.baseline)
        .batched(scan.batched)
        .prescan(!options.no_prescan)
        .chunk_lines(scan.chunk_lines)
        .threads(scan.threads);
    if options.stream_chunk_bytes != 0 {
        builder = builder.stream_chunk_bytes(options.stream_chunk_bytes);
    }
    if options.oracle_threads != 0 {
        // The pool sits between the matcher and `shared`, so on multi-file
        // runs overlapped answers still publish through the cross-file
        // shared session's sharded store.
        builder = builder.overlapped(options.oracle_threads);
    }
    if options.in_flight != 0 {
        builder = builder.in_flight(options.in_flight);
    }
    let re = builder.build_shared(&options.pattern, shared)?;
    Ok(Compiled {
        re,
        oracle,
        session,
        retry,
        tiers,
    })
}

/// The output of [`run`], ready to be printed by the binary.
#[derive(Clone, Debug, Default)]
pub struct CliOutcome {
    /// Lines to print on standard output (matching lines, spans, or the
    /// count).
    pub stdout: Vec<String>,
    /// Lines to print on standard error (warnings, then statistics).
    pub stderr: Vec<String>,
    /// Process exit code, grep convention: 0 if at least one line
    /// matched, 1 if none did, 2 if any error occurred (multi-file scans
    /// survive per-file errors but still exit 2).
    pub exit_code: i32,
}

/// ANSI escape wrapping for `--color` span highlighting.
const HIGHLIGHT_START: &str = "\x1b[1;31m";
const HIGHLIGHT_END: &str = "\x1b[0m";

/// Widens a byte span outward to UTF-8 character boundaries of `line`, so
/// display slicing never splits a multi-byte character (matching is
/// byte-level, so a span may end mid-character).
fn snap_span(line: &str, start: usize, end: usize) -> (usize, usize) {
    let mut start = start.min(line.len());
    while !line.is_char_boundary(start) {
        start -= 1;
    }
    let mut end = end.min(line.len());
    while !line.is_char_boundary(end) {
        end += 1;
    }
    (start, end)
}

/// Snaps a byte span for display: to character boundaries when the line
/// is valid UTF-8 (matching the in-memory path exactly), clamped to the
/// line otherwise — streaming reads raw bytes, so non-UTF-8 lines are
/// printed verbatim with byte-accurate offsets rather than through a
/// lossy decode that would shift them.
fn snap_span_bytes(line: &[u8], start: usize, end: usize) -> (usize, usize) {
    match std::str::from_utf8(line) {
        Ok(text) => snap_span(text, start, end),
        Err(_) => {
            let start = start.min(line.len());
            (start, end.clamp(start, line.len()))
        }
    }
}

/// Writes one matched span (`--only-matching`) from the raw line bytes.
fn write_span_line<W: Write>(
    out: &mut W,
    line: &[u8],
    start: usize,
    end: usize,
    color: bool,
) -> std::io::Result<()> {
    let (start, end) = snap_span_bytes(line, start, end);
    if color {
        out.write_all(HIGHLIGHT_START.as_bytes())?;
    }
    out.write_all(&line[start..end])?;
    if color {
        out.write_all(HIGHLIGHT_END.as_bytes())?;
    }
    out.write_all(b"\n")
}

/// Writes `line` with every span ANSI-highlighted, from the raw bytes
/// (the byte-level counterpart of [`highlight_spans`]; identical output
/// for valid UTF-8).
fn write_highlighted_line<W: Write>(
    out: &mut W,
    line: &[u8],
    spans: &[(usize, usize)],
) -> std::io::Result<()> {
    let mut pos = 0;
    for &(start, end) in spans {
        let (start, end) = snap_span_bytes(line, start, end);
        if start < pos {
            continue;
        }
        out.write_all(&line[pos..start])?;
        out.write_all(HIGHLIGHT_START.as_bytes())?;
        out.write_all(&line[start..end])?;
        out.write_all(HIGHLIGHT_END.as_bytes())?;
        pos = end;
    }
    out.write_all(&line[pos..])?;
    out.write_all(b"\n")
}

/// Renders `line` with every span wrapped in ANSI highlight codes.
fn highlight_spans(line: &str, spans: &[(usize, usize)]) -> String {
    let mut out = String::new();
    let mut pos = 0;
    for &(start, end) in spans {
        let (start, end) = snap_span(line, start, end);
        if start < pos {
            continue;
        }
        out.push_str(&line[pos..start]);
        out.push_str(HIGHLIGHT_START);
        out.push_str(&line[start..end]);
        out.push_str(HIGHLIGHT_END);
        pos = end;
    }
    out.push_str(&line[pos..]);
    out
}

/// Runs the tool on the given input text (used by the binary after reading
/// the file or standard input).
///
/// # Errors
///
/// Returns a [`CliError`] if the pattern does not parse or the oracle file
/// cannot be loaded.
pub fn run_on_text(options: &CliOptions, text: &str) -> Result<CliOutcome, CliError> {
    let Compiled {
        re,
        oracle,
        retry,
        tiers,
        ..
    } = compile(options)?;
    let scan_options = options.scan_options();
    let threads = scan_options.threads;

    let lines: Vec<&str> = text.lines().collect();
    // Snapshot after compilation so construction-time (q, ε) probes do
    // not count against the scan.
    let oracle_before = oracle.stats();
    // Only the first span per line is needed when nothing but the count
    // will be printed.
    let (report, spans_per_line) = if options.span_mode() {
        scan_spans(&re, &lines, scan_options, options.count_only)
    } else {
        (scan_lines(&re, &lines, scan_options), Vec::new())
    };
    let oracle_delta = oracle.stats() - oracle_before;

    let mut outcome = CliOutcome::default();
    if options.count_only {
        outcome.stdout = vec![report.matched_lines().to_string()];
    } else {
        for record in report.records.iter().filter(|r| r.matched) {
            let line = lines[record.index];
            if options.span_mode() {
                for &(start, end) in &spans_per_line[record.index] {
                    let (start, end) = snap_span(line, start, end);
                    let span = &line[start..end];
                    if options.color {
                        outcome
                            .stdout
                            .push(format!("{HIGHLIGHT_START}{span}{HIGHLIGHT_END}"));
                    } else {
                        outcome.stdout.push(span.to_owned());
                    }
                }
            } else if options.color {
                // Presentational only: membership decided which lines
                // match; `find_iter` locates the spans to highlight.
                let spans: Vec<(usize, usize)> = re
                    .find_iter(line.as_bytes())
                    .map(|m| (m.start(), m.end()))
                    .collect();
                outcome.stdout.push(highlight_spans(line, &spans));
            } else {
                outcome.stdout.push(line.to_owned());
            }
        }
    }

    let degraded: Vec<u64> = report.degraded.iter().map(|&i| i as u64).collect();
    let had_fault = push_fault_warnings(
        &mut outcome.stderr,
        options.fault_policy(),
        report.fault.as_ref(),
        &degraded,
    );
    if options.stats {
        outcome.stderr.push(format!(
            "algorithm={} mode={} threads={} lines={} matched={} timed_out={}",
            re.algorithm(),
            if options.span_mode() {
                "search"
            } else {
                "membership"
            },
            threads,
            report.lines(),
            report.matched_lines(),
            report.timed_out
        ));
        outcome.stderr.push(format!(
            "rt_total={:.3} ms/line rt_matched={:.3} ms/line",
            report.rt_total_ms(),
            report.rt_matched_ms()
        ));
        push_scan_stats(
            &mut outcome.stderr,
            options,
            oracle_delta,
            report.lines() as u64,
            report.total_duration,
            &report.batch,
        );
        push_resolver_stats(&mut outcome.stderr, &re);
        push_retry_stats(&mut outcome.stderr, retry.as_ref());
        push_tier_stats(&mut outcome.stderr, tiers.as_ref());
    }
    outcome.exit_code = if had_fault {
        2
    } else if report.matched_lines() > 0 {
        0
    } else {
        1
    };
    Ok(outcome)
}

/// Appends the oracle-plane `--stats` lines of one scanned input.
///
/// On the sequential per-call membership path the `Instrumented` counters
/// mean one backend call per logical question, so the `oracle_calls=`
/// line reports the scan's oracle delta per line, and the fraction of the
/// scan's wall time spent in the oracle.  Batched, span and parallel scans
/// attribute oracle work to chunks, not lines, and print no such line.
/// Batched runs print the `batches=` line of the chunk sessions (span
/// scans on the per-call plane bypass the chunk session, so its counters
/// would all be zero there).
fn push_scan_stats(
    stderr: &mut Vec<String>,
    options: &CliOptions,
    oracle: OracleStats,
    lines: u64,
    scan_time: Duration,
    batch: &BatchStats,
) {
    if !options.batched && !options.span_mode() && options.threads <= 1 {
        let lines = lines.max(1) as f64;
        let fraction = if scan_time.is_zero() {
            0.0
        } else {
            (oracle.oracle_time().as_secs_f64() / scan_time.as_secs_f64()).min(1.0)
        };
        stderr.push(format!(
            "oracle_calls={:.3}/line oracle_fraction={fraction:.3} query_chars={:.3}/line",
            oracle.calls as f64 / lines,
            oracle.query_bytes as f64 / lines
        ));
    }
    if options.batched {
        push_batch_stats(stderr, batch);
    }
}

/// Appends the `batches=` line of the chunk sessions' [`BatchStats`]
/// (perfbench parses it; keep the keys and their order).
fn push_batch_stats(stderr: &mut Vec<String>, batch: &BatchStats) {
    stderr.push(format!(
        "batches={} keys_submitted={} keys_deduped={} backend_keys={} dedup_ratio={:.3} mean_batch={:.2}",
        batch.batches,
        batch.keys_submitted,
        batch.keys_deduped,
        batch.backend_keys,
        batch.dedup_ratio(),
        batch.mean_batch_size()
    ));
}

/// Appends the resolver-plane `--stats` line when overlapped resolution is
/// on.  The pool's counters are cumulative over the whole run, so every
/// path appends this **once per run** — per-file reporting on multi-file
/// scans would double-count the same pool.
fn push_resolver_stats(stderr: &mut Vec<String>, re: &semre::SemRegex) {
    let Some(pool) = re.resolver_pool() else {
        return;
    };
    let stats = pool.stats();
    stderr.push(format!(
        "resolver: threads={} window={} submitted={} coalesced={} batches={} backend_keys={} \
high_water={} suspends={} resumes={} store_contended={} failed_batches={} failed_keys={} \
dead_workers={}",
        pool.threads(),
        pool.in_flight_window(),
        stats.submitted,
        stats.coalesced,
        stats.batches,
        stats.backend_keys,
        stats.in_flight_high_water,
        stats.suspends,
        stats.resumes,
        stats.store_contended,
        stats.failed_batches,
        stats.failed_keys,
        stats.dead_workers
    ));
}

/// Appends the `--stats` retry line when the oracle spec has a retry
/// layer in front of a fallible backend (`flaky:` specs).  The counters
/// are cumulative over the whole run.
fn push_retry_stats(stderr: &mut Vec<String>, retry: Option<&Arc<semre::RetryCounters>>) {
    let Some(counters) = retry else {
        return;
    };
    let s = counters.snapshot();
    stderr.push(format!(
        "retry: attempts={} retries={} failures={} breaker_trips={} fast_fails={} \
half_open_probes={}",
        s.attempts, s.retries, s.failures, s.breaker_trips, s.fast_fails, s.half_open_probes
    ));
}

/// Appends the `--stats` tier-routing line when the oracle spec has a
/// `tiered:` registry stack: per-tier hit/escalation counters plus the
/// number of keys that reached the authoritative backend.  Cumulative
/// over the whole run, like the retry line.
fn push_tier_stats(stderr: &mut Vec<String>, tiers: Option<&Arc<semre::TierCounters>>) {
    let Some(counters) = tiers else {
        return;
    };
    let stats = counters.snapshot();
    if stats.is_empty() {
        return;
    }
    stderr.push(format!("tiers: {}", stats.render()));
}

/// Appends the explicit-degradation warnings for one scanned input: the
/// oracle fault that stopped the scan under the `fail` policy, and the
/// (1-based) numbers of lines whose verdicts were degraded under
/// `skip-line`/`no-match`.  Returns whether anything was reported — the
/// run must then exit 2, so degraded output is never mistaken for a
/// clean one.
fn push_fault_warnings(
    stderr: &mut Vec<String>,
    policy: FaultPolicy,
    fault: Option<&semre::OracleError>,
    degraded: &[u64],
) -> bool {
    if let Some(fault) = fault {
        stderr.push(format!("grepo: {fault}"));
    }
    if !degraded.is_empty() {
        const SHOWN: usize = 10;
        let mut lines: Vec<String> = degraded
            .iter()
            .take(SHOWN)
            .map(|index| (index + 1).to_string())
            .collect();
        if degraded.len() > SHOWN {
            lines.push(format!("(+{} more)", degraded.len() - SHOWN));
        }
        stderr.push(format!(
            "grepo: {} line(s) degraded by oracle faults under --on-oracle-error {}: line {}",
            degraded.len(),
            policy.name(),
            lines.join(", ")
        ));
    }
    fault.is_some() || !degraded.is_empty()
}

/// Runs the tool in streaming mode: `reader` is consumed in
/// [`stream_chunk_bytes`](semre::SemRegex::stream_chunk_bytes)-sized
/// chunks and matched lines (or spans) are written to `out` as they are
/// decided, so peak memory stays bounded by the chunk size plus the
/// longest line regardless of the input length.  The bytes written to
/// `out` are identical to what [`run_on_text`] would print for the same
/// input, for any chunk size and thread count.
///
/// The returned [`CliOutcome`] carries only what is not known until the
/// end of the scan: the `--count` line, the `--stats` lines, and the exit
/// code; its `stdout` never duplicates lines already written to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] for pattern, oracle, read, or write problems.
pub fn run_stream<R: Read + Send, W: Write>(
    options: &CliOptions,
    reader: R,
    out: &mut W,
) -> Result<CliOutcome, CliError> {
    run_stream_with(options, reader, out, false)
}

/// [`run_stream`] with the read-ahead thread enabled for seekable inputs.
/// Standard input goes through [`run_stream`] directly: a cancelled scan
/// must not leave a producer thread blocked on a read that may never
/// complete.
fn run_stream_with<R: Read + Send, W: Write>(
    options: &CliOptions,
    reader: R,
    out: &mut W,
    read_ahead: bool,
) -> Result<CliOutcome, CliError> {
    let Compiled {
        re,
        oracle,
        retry,
        tiers,
        ..
    } = compile(options)?;
    let stream_options = StreamOptions {
        chunk_bytes: re.stream_chunk_bytes(),
        read_ahead,
        scan: options.scan_options(),
    };
    let threads = stream_options.scan.threads;
    // Snapshot after compilation so construction-time (q, ε) probes do
    // not count against the scan, mirroring the in-memory attribution.
    let oracle_before = oracle.stats();

    // Callbacks cannot return errors; the first write failure is parked
    // here and returning `false` cancels the scan (no point matching —
    // and paying oracle calls for — input whose output pipe is gone).
    let mut write_error: Option<std::io::Error> = None;
    let report = if options.span_mode() {
        scan_stream_spans(
            &re,
            reader,
            &stream_options,
            options.count_only,
            |_, line, spans| {
                if options.count_only || spans.is_empty() {
                    return true;
                }
                for &(start, end) in spans {
                    let result = write_span_line(out, line, start, end, options.color);
                    if let Err(e) = result {
                        write_error = Some(e);
                        return false;
                    }
                }
                true
            },
        )
    } else {
        scan_stream(&re, reader, &stream_options, |_, line, matched| {
            if !matched || options.count_only {
                return true;
            }
            let result = if options.color {
                // Presentational only, exactly as in the in-memory path.
                let spans: Vec<(usize, usize)> =
                    re.find_iter(line).map(|m| (m.start(), m.end())).collect();
                write_highlighted_line(out, line, &spans)
            } else {
                out.write_all(line).and_then(|()| out.write_all(b"\n"))
            };
            match result {
                Ok(()) => true,
                Err(e) => {
                    write_error = Some(e);
                    false
                }
            }
        })
    }
    .map_err(|e| CliError::new(format!("cannot read input: {e}")))?;
    let oracle_delta = oracle.stats() - oracle_before;
    if let Some(e) = write_error {
        return Err(CliError::new(format!("cannot write output: {e}")));
    }

    let mut outcome = CliOutcome::default();
    if options.count_only {
        outcome.stdout.push(report.matched_lines.to_string());
    }
    let had_fault = push_fault_warnings(
        &mut outcome.stderr,
        options.fault_policy(),
        report.fault.as_ref(),
        &report.degraded,
    );
    if options.stats {
        outcome.stderr.push(format!(
            "algorithm={} mode={} threads={} lines={} matched={} timed_out={} stream=yes chunk_bytes={}",
            re.algorithm(),
            if options.span_mode() {
                "search"
            } else {
                "membership"
            },
            threads,
            report.lines,
            report.matched_lines,
            report.timed_out,
            stream_options.chunk_bytes
        ));
        outcome.stderr.push(format!(
            "rt_total={:.3} ms/line throughput={:.1} MB/s",
            report.rt_total_ms(),
            report.mb_per_s()
        ));
        push_scan_stats(
            &mut outcome.stderr,
            options,
            oracle_delta,
            report.lines,
            report.total_duration,
            &report.batch,
        );
        push_resolver_stats(&mut outcome.stderr, &re);
        push_retry_stats(&mut outcome.stderr, retry.as_ref());
        push_tier_stats(&mut outcome.stderr, tiers.as_ref());
    }
    outcome.exit_code = if had_fault {
        2
    } else if report.matched_lines > 0 {
        0
    } else {
        1
    };
    Ok(outcome)
}

/// Scan targets after expanding directory arguments: the files to scan in
/// deterministic order, the expansion errors survived, and whether the
/// run counts as multi-file (which turns the `path:` prefix on by
/// default).
#[derive(Debug, Default)]
pub struct Targets {
    /// Files to scan, in argument order with directories expanded to
    /// their walked (name-sorted) contents in place.
    pub files: Vec<PathBuf>,
    /// Paths that could not be read or walked, in argument order.
    pub errors: Vec<(PathBuf, String)>,
    /// Whether more than one path argument was given or any argument was
    /// a directory.
    pub multi: bool,
}

/// Expands the path arguments of `options` into a deterministic file
/// list.  Directory arguments are walked with the walk-related options
/// (`--hidden`, `--follow`, `--binary`, `--ignore`, `--max-depth`);
/// explicit file arguments are taken as given — naming a hidden or
/// binary file means it should be scanned.
pub fn expand_targets(options: &CliOptions) -> Targets {
    let walk_options = WalkOptions {
        hidden: options.hidden,
        binary: options.binary,
        follow: options.follow,
        ignore: options.ignore.clone(),
        max_depth: options.max_depth,
    };
    let mut targets = Targets {
        multi: options.paths.len() > 1,
        ..Targets::default()
    };
    for arg in &options.paths {
        let path = PathBuf::from(arg);
        match fs::metadata(&path) {
            Ok(metadata) if metadata.is_dir() => {
                targets.multi = true;
                let walked = walk(&path, &walk_options);
                targets.files.extend(walked.files);
                targets.errors.extend(
                    walked
                        .errors
                        .into_iter()
                        .map(|e| (e.path, e.error.to_string())),
                );
            }
            Ok(_) => targets.files.push(path),
            Err(e) => targets.errors.push((path, e.to_string())),
        }
    }
    targets
}

/// Runs the tool over an expanded multi-file target list, writing matches
/// to `out` in deterministic file order (see [`scan_tree`]).  One
/// [`SharedSession`] spans the whole run, so oracle questions repeated
/// across files reach the backend once.  The returned [`CliOutcome`]
/// carries the warnings/statistics lines and the exit code; match output
/// has already been written to `out`.
///
/// # Errors
///
/// Returns a [`CliError`] for pattern, oracle, or output-write problems;
/// per-file read problems are warnings in the outcome instead.
pub fn run_paths<W: Write + Send>(
    options: &CliOptions,
    targets: &Targets,
    out: &mut W,
) -> Result<CliOutcome, CliError> {
    let Compiled {
        re,
        oracle,
        session,
        retry,
        tiers,
    } = compile_with(options, true)?;
    let session = session.expect("multi-file compile interposes a session");
    // --count ignores --heading: a count is one line per file, and a bare
    // count under a heading (or separated by blank lines) would be
    // unattributable — grep's `path:count` shape wins.
    let heading = options.heading && options.with_filename != Some(false) && !options.count_only;
    let show_filename = options
        .with_filename
        .unwrap_or(targets.multi || targets.files.len() > 1)
        && !heading;
    let stream_options = StreamOptions {
        chunk_bytes: re.stream_chunk_bytes(),
        // Files are seekable, so each worker double-buffers its reads
        // (no effect on the --no-stream in-memory slices).
        read_ahead: options.streaming(),
        // File-level parallelism: each file is scanned sequentially; the
        // workers of `scan_tree` provide the concurrency.
        scan: options.scan_options().with_threads(1),
    };

    let scan_unit = |unit: &ScanUnit, path: &Path, buffer: &mut Vec<u8>| {
        scan_one_unit(
            &re,
            options,
            &stream_options,
            path,
            unit.range,
            show_filename,
            buffer,
        )
    };
    // Per-file decoration (--count totals, --heading headers) happens
    // once per file, after a split file's range outputs were reassembled
    // in range order — so it cannot depend on which worker scanned what.
    let finish_file = |_index: usize, path: &Path, summary: &FileSummary, buffer: &mut Vec<u8>| {
        if options.count_only {
            buffer.clear();
            if show_filename {
                buffer.extend_from_slice(format!("{}:", path.display()).as_bytes());
            }
            buffer.extend_from_slice(format!("{}\n", summary.matched_lines).as_bytes());
        } else if heading && !buffer.is_empty() {
            let mut decorated = format!("{}\n", path.display()).into_bytes();
            decorated.append(buffer);
            *buffer = decorated;
        }
    };
    let tree_options = TreeOptions {
        threads: options.threads.max(1),
        separator: if heading { b"\n".to_vec() } else { Vec::new() },
        split_bytes: options.effective_split_bytes(),
        ..TreeOptions::default()
    };
    let report = scan_tree(&targets.files, &tree_options, out, scan_unit, finish_file)
        .map_err(|e| CliError::new(format!("cannot write output: {e}")))?;

    let mut outcome = CliOutcome::default();
    for (path, message) in targets.errors.iter().chain(&report.errors) {
        outcome
            .stderr
            .push(format!("grepo: {}: {message}", path.display()));
    }
    if report.degraded > 0 {
        // Per-file degradation detail lives in each file's summary; the
        // aggregate warning keeps the degraded/clean distinction visible
        // (and the exit code honest) without a line per file.
        outcome.stderr.push(format!(
            "grepo: {} line(s) degraded by oracle faults under --on-oracle-error {}",
            report.degraded,
            options.fault_policy().name()
        ));
    }
    if options.stats {
        push_tree_stats(
            &mut outcome,
            options,
            &re,
            &report,
            &session,
            oracle.as_ref(),
            (retry.as_ref(), tiers.as_ref()),
        );
    }
    let had_errors = !targets.errors.is_empty() || !report.errors.is_empty() || report.degraded > 0;
    outcome.exit_code = if had_errors {
        2
    } else if report.matched_lines > 0 {
        0
    } else {
        1
    };
    Ok(outcome)
}

/// Scans one work unit of a multi-file run into `buffer` — a whole file,
/// or one byte range of a split file (see
/// [`TreeOptions::split_bytes`]) — rendering matched lines exactly as
/// the single-file streaming path would, plus the `path:` prefix.
/// Per-file decoration (`--heading` headers, `--count` totals) is *not*
/// rendered here: it belongs to the `finish_file` stage of
/// [`scan_tree`], which runs once per file after range reassembly.
///
/// Range units resynchronize to line boundaries through
/// [`RangeReader`], so a unit scans exactly the lines whose first byte
/// falls inside its range; the per-range outputs concatenate to the
/// whole-file output.  Every unit's chunk sessions resolve through the
/// run's one [`SharedSession`] (interposed at compile time), so oracle
/// dedupe — and the set of questions reaching the backend — is
/// unchanged by splitting.
fn scan_one_unit(
    re: &semre::SemRegex,
    options: &CliOptions,
    stream_options: &StreamOptions,
    path: &Path,
    range: Option<(u64, u64)>,
    show_filename: bool,
    buffer: &mut Vec<u8>,
) -> Result<FileSummary, String> {
    let prefix: Vec<u8> = if show_filename {
        format!("{}:", path.display()).into_bytes()
    } else {
        Vec::new()
    };
    // Writing to a Vec cannot fail; per-line rendering errors are
    // therefore impossible and the callbacks always continue.
    let mut emit = |buffer: &mut Vec<u8>, render: &mut dyn FnMut(&mut Vec<u8>)| {
        buffer.extend_from_slice(&prefix);
        render(buffer);
    };

    let read = |e: std::io::Error| e.to_string();
    let report = match (options.streaming(), range) {
        (false, None) => {
            // --no-stream: materialize the file, then reuse the streaming
            // renderer over the in-memory bytes (output is identical).
            let text = fs::read(path).map_err(|e| e.to_string())?;
            scan_file_contents(re, options, stream_options, &text[..], buffer, &mut emit)
                .map_err(read)?
        }
        (false, Some((start, end))) => {
            let text = fs::read(path).map_err(|e| e.to_string())?;
            let reader = RangeReader::new(Cursor::new(text), start, end).map_err(read)?;
            scan_file_contents(re, options, stream_options, reader, buffer, &mut emit)
                .map_err(read)?
        }
        (true, None) => {
            let file = fs::File::open(path).map_err(|e| e.to_string())?;
            scan_file_contents(re, options, stream_options, file, buffer, &mut emit)
                .map_err(read)?
        }
        (true, Some((start, end))) => {
            let file = fs::File::open(path).map_err(|e| e.to_string())?;
            let reader = RangeReader::new(file, start, end).map_err(read)?;
            scan_file_contents(re, options, stream_options, reader, buffer, &mut emit)
                .map_err(read)?
        }
    };

    // Under the `fail` policy an oracle fault aborts this file with a
    // per-file error (reported like an unreadable file: warning + exit 2)
    // while the rest of the tree still scans.  For a split file the
    // scheduler fails the whole file on any range's fault.
    if let Some(fault) = &report.fault {
        return Err(fault.to_string());
    }

    Ok(FileSummary {
        lines: report.lines,
        matched_lines: report.matched_lines,
        timed_out: report.timed_out,
        degraded: report.degraded.len() as u64,
        batch: report.batch,
        ranges: 0, // set by the scheduler when per-range summaries merge
    })
}

/// A per-match emitter: writes any pending heading and the `path:` prefix
/// into the buffer, then lets the inner closure render the match body.
type EmitFn<'a> = dyn FnMut(&mut Vec<u8>, &mut dyn FnMut(&mut Vec<u8>)) + 'a;

/// The per-line rendering core shared by the streaming and `--no-stream`
/// flavours of [`scan_one_unit`].
fn scan_file_contents<R: Read + Send>(
    re: &semre::SemRegex,
    options: &CliOptions,
    stream_options: &StreamOptions,
    reader: R,
    buffer: &mut Vec<u8>,
    emit: &mut EmitFn<'_>,
) -> std::io::Result<crate::stream::StreamReport> {
    if options.span_mode() {
        scan_stream_spans(
            re,
            reader,
            stream_options,
            options.count_only,
            |_, line, spans| {
                if options.count_only || spans.is_empty() {
                    return true;
                }
                for &(start, end) in spans {
                    emit(buffer, &mut |buffer| {
                        let (start, end) = snap_span_bytes(line, start, end);
                        if options.color {
                            buffer.extend_from_slice(HIGHLIGHT_START.as_bytes());
                            buffer.extend_from_slice(&line[start..end]);
                            buffer.extend_from_slice(HIGHLIGHT_END.as_bytes());
                        } else {
                            buffer.extend_from_slice(&line[start..end]);
                        }
                        buffer.push(b'\n');
                    });
                }
                true
            },
        )
    } else {
        scan_stream(re, reader, stream_options, |_, line, matched| {
            if !matched || options.count_only {
                return true;
            }
            emit(buffer, &mut |buffer| {
                if options.color {
                    let spans: Vec<(usize, usize)> =
                        re.find_iter(line).map(|m| (m.start(), m.end())).collect();
                    let mut rendered = Vec::new();
                    // Vec writes are infallible.
                    write_highlighted_line(&mut rendered, line, &spans)
                        .expect("writing to a Vec cannot fail");
                    buffer.extend_from_slice(&rendered);
                } else {
                    buffer.extend_from_slice(line);
                    buffer.push(b'\n');
                }
            });
            true
        })
    }
}

/// Appends the `--stats` lines of a multi-file run.  The oracle-plane
/// counters (retry and tier) travel as one pair: both are optional
/// per-backend accounting surfaced on their own stderr lines.
type OracleCounters<'a> = (
    Option<&'a Arc<semre::RetryCounters>>,
    Option<&'a Arc<semre::TierCounters>>,
);

fn push_tree_stats(
    outcome: &mut CliOutcome,
    options: &CliOptions,
    re: &semre::SemRegex,
    report: &TreeReport,
    session: &SharedSession,
    oracle: &Instrumented<Arc<dyn semre::Oracle>>,
    (retry, tiers): OracleCounters<'_>,
) {
    outcome.stderr.push(format!(
        "algorithm={} mode={} threads={} files={} files_matched={} lines={} matched={} \
timed_out={} degraded={} split_files={} ranges={}",
        re.algorithm(),
        if options.span_mode() {
            "search"
        } else {
            "membership"
        },
        options.threads.max(1),
        report.files,
        report.files_with_matches,
        report.lines,
        report.matched_lines,
        report.timed_out,
        report.degraded,
        report.split_files,
        report.ranges
    ));
    let shared = session.stats();
    outcome.stderr.push(format!(
        "shared_session: keys={} deduped={} persisted_hits={} backend_keys={} dedup_ratio={:.3} \
backend_calls={} shards={} contended={}",
        shared.keys_submitted,
        shared.keys_deduped,
        session.persisted_hits(),
        shared.backend_keys,
        shared.dedup_ratio(),
        // Round trips: the shared session reaches the backend only
        // through `resolve_batch`, one call per batch it forwards.
        oracle.batches(),
        session.shards(),
        session.contended()
    ));
    if let Some(store) = session.persist_store() {
        let replay = store.replay_report();
        outcome.stderr.push(format!(
            "answer_store: path={} entries={} replayed={} dropped_bytes={} appended={} \
file_bytes={} compactions={} syncs={} write_errors={}",
            store.path().display(),
            store.len(),
            replay.live,
            replay.dropped_bytes,
            store.appended(),
            store.file_bytes(),
            store.compactions(),
            store.syncs(),
            store.write_errors()
        ));
    }
    if options.batched {
        push_batch_stats(&mut outcome.stderr, &report.batch);
    }
    push_resolver_stats(&mut outcome.stderr, re);
    push_retry_stats(&mut outcome.stderr, retry);
    push_tier_stats(&mut outcome.stderr, tiers);
}

/// Reads the input (files, directories, or standard input) and runs the
/// tool.
///
/// * No path arguments — standard input, streaming by default (see
///   [`run_stream`]; `--no-stream` materializes and uses
///   [`run_on_text`]).
/// * One plain-file argument without filename-display flags — the
///   single-file path, where `--threads` parallelizes over chunks of
///   lines within the file.
/// * Anything else (several paths, a directory, `--with-filename`,
///   `--heading`) — the multi-file path ([`run_paths`]): walked,
///   work-stolen across `--threads` workers a file at a time, output in
///   deterministic path order with one oracle session shared across all
///   files.
///
/// # Errors
///
/// Returns a [`CliError`] for option, pattern, oracle, or I/O problems.
/// Per-file read failures on the multi-file path are reported in the
/// outcome (stderr lines + exit code 2) instead, without aborting the
/// scan.
pub fn run(options: &CliOptions) -> Result<CliOutcome, CliError> {
    if let Some(addr) = options.daemon.clone() {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        return run_daemon(options, &addr, &mut out);
    }
    if options.paths.is_empty() {
        if options.answer_log.is_some() {
            // Persisted answers exist to make *re-runs* cheap; a pipe
            // cannot be re-run, and the single-input paths have no
            // shared session to layer the store under.
            return Err(CliError::new("--answer-log requires file paths"));
        }
        if options.streaming() {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            // `Stdin` (not `StdinLock`) because the streaming engine now
            // wants `Send` readers; it still buffers internally.
            return run_stream(options, std::io::stdin(), &mut out);
        }
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| CliError::new(format!("cannot read standard input: {e}")))?;
        return run_on_text(options, &buffer);
    }

    let single_file = options.paths.len() == 1
        && options.with_filename != Some(true)
        && !options.heading
        // --answer-log rides the multi-file path: that is where the
        // cross-file shared session (and thus the store) is interposed.
        && options.answer_log.is_none()
        && fs::metadata(&options.paths[0])
            .map(|m| m.is_file())
            .unwrap_or(false);
    if single_file {
        let path = &options.paths[0];
        if options.streaming() {
            let file = fs::File::open(path)
                .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            // Files are seekable: overlap the next read with evaluation.
            return run_stream_with(options, file, &mut out, true);
        }
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
        return run_on_text(options, &text);
    }

    let targets = expand_targets(options);
    let mut out = std::io::stdout();
    run_paths(options, &targets, &mut out)
}

/// Runs the scan against a remote `semred` daemon instead of the
/// in-process engine.  The daemon owns the engine configuration and the
/// persistent answer store; the client expands the path arguments with
/// the same walk as a local run, ships each file's bytes as one `SCAN`,
/// and renders the returned matched lines with the prefix/heading/count
/// logic of [`run_paths`] — so output is byte-identical to a local run
/// over the same inputs.
///
/// # Errors
///
/// Returns a [`CliError`] when the daemon is unreachable, rejects the
/// pattern or oracle spec, or output cannot be written.  Per-file
/// problems (unreadable file, per-request refusal such as an exhausted
/// budget) are warnings in the outcome and exit code 2, like a local
/// multi-file run.
pub fn run_daemon<W: Write>(
    options: &CliOptions,
    addr: &str,
    out: &mut W,
) -> Result<CliOutcome, CliError> {
    let mut client = DaemonClient::connect(addr)
        .map_err(|e| CliError::new(format!("cannot connect to daemon at {addr}: {e}")))?;
    let spec = options.oracle.to_string();
    let handle = client
        .compile(&spec, &options.pattern)
        .map_err(|e| CliError::new(format!("daemon: {e}")))?;
    let write_err = |e: std::io::Error| CliError::new(format!("cannot write output: {e}"));
    let mut outcome = CliOutcome::default();

    if options.paths.is_empty() {
        let mut text = Vec::new();
        std::io::stdin()
            .read_to_end(&mut text)
            .map_err(|e| CliError::new(format!("cannot read standard input: {e}")))?;
        let scan = client
            .scan(handle, &text)
            .map_err(|e| CliError::new(format!("daemon: {e}")))?;
        if options.count_only {
            out.write_all(format!("{}\n", scan.matched).as_bytes())
                .map_err(write_err)?;
        } else {
            out.write_all(&scan.payload).map_err(write_err)?;
        }
        if options.stats {
            push_daemon_stats(&mut outcome, &mut client);
        }
        outcome.exit_code = if scan.matched > 0 { 0 } else { 1 };
        return Ok(outcome);
    }

    let targets = expand_targets(options);
    // Same display rules as run_paths: counts ignore --heading, the
    // prefix defaults on for multi-file scans.
    let heading = options.heading && options.with_filename != Some(false) && !options.count_only;
    let show_filename = options
        .with_filename
        .unwrap_or(targets.multi || targets.files.len() > 1)
        && !heading;

    let mut matched_total: u64 = 0;
    let mut errors: Vec<(PathBuf, String)> = Vec::new();
    let mut wrote_any = false;
    for path in &targets.files {
        let text = match fs::read(path) {
            Ok(text) => text,
            Err(e) => {
                errors.push((path.clone(), e.to_string()));
                continue;
            }
        };
        let scan = match client.scan(handle, &text) {
            Ok(scan) => scan,
            Err(e) => {
                errors.push((path.clone(), e.to_string()));
                continue;
            }
        };
        matched_total += scan.matched;
        let mut buffer = Vec::new();
        if options.count_only {
            if show_filename {
                buffer.extend_from_slice(format!("{}:", path.display()).as_bytes());
            }
            buffer.extend_from_slice(format!("{}\n", scan.matched).as_bytes());
        } else if scan.matched > 0 {
            if heading {
                // scan_tree writes its separator between non-empty file
                // outputs; prepending to each later group is equivalent.
                if wrote_any {
                    buffer.push(b'\n');
                }
                buffer.extend_from_slice(format!("{}\n", path.display()).as_bytes());
                buffer.extend_from_slice(&scan.payload);
            } else if show_filename {
                let prefix = format!("{}:", path.display()).into_bytes();
                // Matched lines are newline-terminated and contain no
                // interior newlines, so this split is lossless.
                for line in scan.payload.split_inclusive(|&b| b == b'\n') {
                    buffer.extend_from_slice(&prefix);
                    buffer.extend_from_slice(line);
                }
            } else {
                buffer.extend_from_slice(&scan.payload);
            }
        }
        if !buffer.is_empty() {
            out.write_all(&buffer).map_err(write_err)?;
            wrote_any = true;
        }
    }

    for (path, message) in targets.errors.iter().chain(&errors) {
        outcome
            .stderr
            .push(format!("grepo: {}: {message}", path.display()));
    }
    if options.stats {
        push_daemon_stats(&mut outcome, &mut client);
    }
    let had_errors = !targets.errors.is_empty() || !errors.is_empty();
    outcome.exit_code = if had_errors {
        2
    } else if matched_total > 0 {
        0
    } else {
        1
    };
    Ok(outcome)
}

/// Appends the daemon's `STATS` payload to the outcome, one
/// `daemon:`-prefixed stderr line per server line.
fn push_daemon_stats(outcome: &mut CliOutcome, client: &mut DaemonClient) {
    match client.stats() {
        Ok(stats) => {
            for line in stats.lines() {
                outcome.stderr.push(format!("daemon: {line}"));
            }
        }
        Err(e) => outcome
            .stderr
            .push(format!("grepo: daemon stats unavailable: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_parsing() {
        let o = CliOptions::parse(["--stats", "--count", "a+", "input.txt"]).unwrap();
        assert!(o.stats && o.count_only && !o.baseline);
        assert_eq!(o.pattern, "a+");
        assert_eq!(o.paths, ["input.txt"]);
        assert_eq!(o.oracle, OracleSpec::SimLlm);

        let o = CliOptions::parse(["--oracle", "always-true", "--baseline", "x"]).unwrap();
        assert!(o.baseline);
        assert_eq!(o.oracle, OracleSpec::AlwaysTrue);
        assert!(o.paths.is_empty());

        let o =
            CliOptions::parse(["--oracle", "set:oracle.tsv", "--max-lines", "10", "x"]).unwrap();
        assert_eq!(o.oracle, OracleSpec::SetFile("oracle.tsv".into()));
        assert_eq!(o.max_lines, Some(10));

        let o = CliOptions::parse(["--timeout-secs", "30", "x"]).unwrap();
        assert_eq!(o.timeout_secs, Some(30));

        let o = CliOptions::parse(["--batched", "--chunk-lines", "64", "x"]).unwrap();
        assert!(o.batched);
        assert_eq!(o.chunk_lines, 64);

        let o = CliOptions::parse(["--batched", "--oracle-threads", "4", "x"]).unwrap();
        assert_eq!(o.oracle_threads, 4);
        assert_eq!(o.in_flight, 0);
        let o = CliOptions::parse([
            "--batched",
            "--oracle-threads",
            "2",
            "--in-flight",
            "128",
            "x",
        ])
        .unwrap();
        assert_eq!((o.oracle_threads, o.in_flight), (2, 128));

        let o = CliOptions::parse(["--oracle-delay", "750", "x"]).unwrap();
        assert_eq!(o.oracle_delay_us, 750);
        // Zero is an explicit no-op, not an error — handy for scripts.
        let o = CliOptions::parse(["--oracle-delay", "0", "x"]).unwrap();
        assert_eq!(o.oracle_delay_us, 0);

        let o = CliOptions::parse(["--only-matching", "--color", "x"]).unwrap();
        assert!(o.only_matching && o.color);
        let o = CliOptions::parse(["-o", "x"]).unwrap();
        assert!(o.only_matching);
    }

    #[test]
    fn multi_path_and_walk_flags_parse() {
        let o = CliOptions::parse(["pat", "a.txt", "some/dir", "b.txt"]).unwrap();
        assert_eq!(o.paths, ["a.txt", "some/dir", "b.txt"]);
        assert_eq!(o.with_filename, None);
        assert!(!o.heading && !o.hidden && !o.follow && !o.binary);

        let o = CliOptions::parse([
            "--with-filename",
            "--hidden",
            "--follow",
            "--binary",
            "--ignore",
            "*.log",
            "--ignore",
            "target",
            "--max-depth",
            "3",
            "pat",
            "dir",
        ])
        .unwrap();
        assert_eq!(o.with_filename, Some(true));
        assert!(o.hidden && o.follow && o.binary);
        assert_eq!(o.ignore, ["*.log", "target"]);
        assert_eq!(o.max_depth, Some(3));

        let o = CliOptions::parse(["-H", "pat", "f"]).unwrap();
        assert_eq!(o.with_filename, Some(true));
        let o = CliOptions::parse(["--no-filename", "--heading", "pat", "f"]).unwrap();
        assert_eq!(o.with_filename, Some(false));
        assert!(o.heading);

        // --help short-circuits with exit-0 semantics, even pattern-less.
        let o = CliOptions::parse(["--help"]).unwrap();
        assert!(o.help);
        let o = CliOptions::parse(["-h", "whatever"]).unwrap();
        assert!(o.help);
    }

    #[test]
    fn malformed_options_are_rejected() {
        assert!(CliOptions::parse(Vec::<String>::new()).is_err());
        assert!(CliOptions::parse(["--oracle"]).is_err());
        assert!(CliOptions::parse(["--oracle", "magic", "x"]).is_err());
        assert!(CliOptions::parse(["--oracle", "set:", "x"]).is_err());
        assert!(CliOptions::parse(["--max-lines", "many", "x"]).is_err());
        assert!(CliOptions::parse(["--batched", "--chunk-lines", "0", "x"]).is_err());
        assert!(CliOptions::parse(["--batched", "--chunk-lines"]).is_err());
        // --chunk-lines without --batched would be silently ignored.
        assert!(CliOptions::parse(["--chunk-lines", "64", "x"]).is_err());
        // Overlapped resolution rides the batch plane.
        assert!(CliOptions::parse(["--oracle-threads", "4", "x"]).is_err());
        assert!(CliOptions::parse(["--batched", "--oracle-threads", "0", "x"]).is_err());
        assert!(CliOptions::parse(["--batched", "--oracle-threads"]).is_err());
        assert!(CliOptions::parse(["--batched", "--in-flight", "8", "x"]).is_err());
        assert!(CliOptions::parse([
            "--batched",
            "--oracle-threads",
            "2",
            "--in-flight",
            "0",
            "x"
        ])
        .is_err());
        assert!(CliOptions::parse(["--oracle-delay"]).is_err());
        assert!(CliOptions::parse(["--oracle-delay", "soon", "x"]).is_err());
        assert!(CliOptions::parse(["--frobnicate", "x"]).is_err());
        assert!(CliOptions::parse(["--ignore"]).is_err());
        assert!(CliOptions::parse(["--max-depth", "0", "x"]).is_err());
        assert!(CliOptions::parse(["--max-depth", "deep", "x"]).is_err());
        assert!(CliOptions::parse(["--with-filename", "--heading", "x", "d"]).is_err());
    }

    #[test]
    fn end_to_end_on_text() {
        let options =
            CliOptions::parse(["--stats", r"Subject: .*(?<Medicine name>: .+).*"]).unwrap();
        let text = "Subject: cheap viagra\nSubject: team meeting\nhello\n";
        let outcome = run_on_text(&options, text).unwrap();
        assert_eq!(outcome.stdout, vec!["Subject: cheap viagra".to_owned()]);
        assert_eq!(outcome.exit_code, 0);
        assert_eq!(outcome.stderr.len(), 3);
        assert!(outcome.stderr[0].contains("algorithm=snfa"));
        assert!(outcome.stderr[0].contains("mode=membership"));

        let count = CliOptions::parse([
            "--count",
            "--baseline",
            r"Subject: .*(?<Medicine name>: .+).*",
        ])
        .unwrap();
        let outcome = run_on_text(&count, text).unwrap();
        assert_eq!(outcome.stdout, vec!["1".to_owned()]);

        let none = CliOptions::parse(["--oracle", "always-false", r".*(?<q>: .+).*"]).unwrap();
        let outcome = run_on_text(&none, "abc\n").unwrap();
        assert!(outcome.stdout.is_empty());
        assert_eq!(outcome.exit_code, 1);
    }

    #[test]
    fn batched_scan_from_the_cli() {
        let pattern = r"Subject: .*(?<Medicine name>: .+).*";
        let text = "Subject: cheap viagra\nSubject: cheap viagra\nSubject: team meeting\n";

        let plain = CliOptions::parse([pattern]).unwrap();
        let expected = run_on_text(&plain, text).unwrap();

        let batched = CliOptions::parse(["--batched", "--stats", pattern]).unwrap();
        let outcome = run_on_text(&batched, text).unwrap();
        assert_eq!(outcome.stdout, expected.stdout);
        let batch_line = outcome
            .stderr
            .iter()
            .find(|l| l.starts_with("batches="))
            .expect("batched stats line present");
        assert!(batch_line.contains("keys_deduped="), "{batch_line}");
        assert!(batch_line.contains("dedup_ratio="), "{batch_line}");

        // Per-call membership runs do not print batch-plane statistics.
        let plain_stats = CliOptions::parse(["--stats", pattern]).unwrap();
        let outcome = run_on_text(&plain_stats, text).unwrap();
        assert!(outcome.stderr.iter().all(|l| !l.starts_with("batches=")));

        // The baseline also supports batched scans.
        let baseline = CliOptions::parse(["--batched", "--baseline", "--count", pattern]).unwrap();
        let outcome = run_on_text(&baseline, text).unwrap();
        assert_eq!(outcome.stdout, vec!["2".to_owned()]);
    }

    #[test]
    fn overlapped_scan_from_the_cli_reports_one_resolver_line() {
        let pattern = r"Subject: .*(?<Medicine name>: .+).*";
        let text = "Subject: cheap viagra\nSubject: cheap viagra\nSubject: team meeting\n";

        let plain = CliOptions::parse([pattern]).unwrap();
        let expected = run_on_text(&plain, text).unwrap();

        for args in [
            vec!["--batched", "--oracle-threads", "4", "--stats", pattern],
            vec![
                "--batched",
                "--oracle-threads",
                "2",
                "--in-flight",
                "8",
                "--threads",
                "4",
                "--stats",
                pattern,
            ],
        ] {
            let overlapped = CliOptions::parse(args.iter().copied()).unwrap();
            let outcome = run_on_text(&overlapped, text).unwrap();
            assert_eq!(outcome.stdout, expected.stdout, "{args:?}");
            let resolver_lines: Vec<&String> = outcome
                .stderr
                .iter()
                .filter(|l| l.starts_with("resolver:"))
                .collect();
            assert_eq!(resolver_lines.len(), 1, "{:?}", outcome.stderr);
            assert!(resolver_lines[0].contains("backend_keys="));

            // And in streaming mode, still exactly one resolver line.
            let mut out = Vec::new();
            let streamed = run_stream(&overlapped, text.as_bytes(), &mut out).unwrap();
            assert_eq!(
                String::from_utf8_lossy(&out),
                expected.stdout.join("\n") + "\n",
                "{args:?}"
            );
            let resolver_lines = streamed
                .stderr
                .iter()
                .filter(|l| l.starts_with("resolver:"))
                .count();
            assert_eq!(resolver_lines, 1, "{:?}", streamed.stderr);
        }

        // Without --oracle-threads there is no resolver plane to report.
        let sync = CliOptions::parse(["--batched", "--stats", pattern]).unwrap();
        let outcome = run_on_text(&sync, text).unwrap();
        assert!(outcome.stderr.iter().all(|l| !l.starts_with("resolver:")));
    }

    #[test]
    fn only_matching_prints_spans() {
        // Span-search mode: lines match on substrings, and -o prints the
        // matched spans themselves.
        let options =
            CliOptions::parse(["--only-matching", "--stats", r"(?<Medicine name>: [a-z]+)"])
                .unwrap();
        let text = "please buy tramadol today\nnothing here\nambien and xanax\n";
        let outcome = run_on_text(&options, text).unwrap();
        assert_eq!(
            outcome.stdout,
            vec![
                "tramadol".to_owned(),
                "ambien".to_owned(),
                "xanax".to_owned()
            ]
        );
        assert_eq!(outcome.exit_code, 0);
        assert!(outcome.stderr[0].contains("mode=search"));
        assert!(outcome.stderr[0].contains("matched=2"));
        // Per-call span scans bypass the chunk session: no batch line.
        assert!(outcome.stderr.iter().all(|l| !l.starts_with("batches=")));

        // Batched span scans report the chunk sessions' batch statistics.
        let batched = CliOptions::parse([
            "--only-matching",
            "--batched",
            "--stats",
            r"(?<Medicine name>: [a-z]+)",
        ])
        .unwrap();
        let outcome = run_on_text(&batched, text).unwrap();
        assert_eq!(outcome.stdout.len(), 3);
        let batch_line = outcome
            .stderr
            .iter()
            .find(|l| l.starts_with("batches="))
            .expect("batched span scan reports batch stats");
        assert!(!batch_line.contains("batches=0 "), "{batch_line}");
    }

    #[test]
    fn color_highlights_spans_without_changing_verdicts() {
        // Membership mode with --color: which lines match is unchanged
        // (whole-line membership), and `find` locates the spans to
        // highlight inside each printed line.
        let pattern = r".*(?<Medicine name>: [a-z]+).*";
        let text = "take ambien nightly\nno meds here\n";
        let plain = run_on_text(&CliOptions::parse([pattern]).unwrap(), text).unwrap();
        let colored = run_on_text(&CliOptions::parse(["--color", pattern]).unwrap(), text).unwrap();
        assert_eq!(
            plain.stdout.len(),
            colored.stdout.len(),
            "--color changed verdicts"
        );
        let line = &colored.stdout[0];
        assert!(
            line.contains(HIGHLIGHT_START) && line.contains(HIGHLIGHT_END),
            "span not highlighted: {line:?}"
        );
        assert!(line.ends_with(" nightly"));

        // --color never flips a non-matching line to matching: the
        // unpadded pattern substring-matches this line but the whole line
        // is not a member, so nothing is printed either way.
        let unpadded = r"(?<Medicine name>: [a-z]+)";
        for args in [vec![unpadded], vec!["--color", unpadded]] {
            let outcome = run_on_text(&CliOptions::parse(args).unwrap(), "take ambien\n").unwrap();
            assert!(outcome.stdout.is_empty());
            assert_eq!(outcome.exit_code, 1);
        }

        // --only-matching --color prints highlighted spans only.
        let options = CliOptions::parse(["--only-matching", "--color", unpadded]).unwrap();
        let outcome = run_on_text(&options, "take ambien nightly\n").unwrap();
        assert_eq!(outcome.stdout, vec!["\x1b[1;31mambien\x1b[0m".to_owned()]);
    }

    #[test]
    fn span_mode_counts_lines_not_spans() {
        let options =
            CliOptions::parse(["--only-matching", "--count", r"(?<Medicine name>: [a-z]+)"])
                .unwrap();
        let outcome = run_on_text(&options, "ambien and xanax\nnope\n").unwrap();
        assert_eq!(outcome.stdout, vec!["1".to_owned()]);
    }

    #[test]
    fn invalid_pattern_is_reported() {
        let options = CliOptions::parse(["(unclosed"]).unwrap();
        let err = run_on_text(&options, "x").unwrap_err();
        assert!(err.to_string().contains("invalid pattern"));
    }

    #[test]
    fn stream_flags_parse() {
        let o = CliOptions::parse(["x"]).unwrap();
        assert!(o.streaming(), "streaming is the default");
        let o = CliOptions::parse(["--no-stream", "x"]).unwrap();
        assert!(!o.streaming());
        let o = CliOptions::parse(["--stream", "--stream-chunk-bytes", "512", "x"]).unwrap();
        assert!(o.streaming());
        assert_eq!(o.stream_chunk_bytes, 512);
        let o = CliOptions::parse(["--no-prescan", "x"]).unwrap();
        assert!(o.no_prescan);
        assert!(CliOptions::parse(["--stream-chunk-bytes", "0", "x"]).is_err());
        assert!(CliOptions::parse(["--stream-chunk-bytes"]).is_err());
        assert!(CliOptions::parse(["--no-stream", "--stream-chunk-bytes", "4", "x"]).is_err());
    }

    /// What the grepo binary would print to stdout for an in-memory run.
    fn rendered_stdout(outcome: &CliOutcome) -> Vec<u8> {
        let mut out = Vec::new();
        for line in &outcome.stdout {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn streaming_output_is_byte_identical_to_in_memory() {
        let text = "Subject: cheap viagra\nSubject: team meeting\nhello\n\
                    please buy tramadol today\nambien and xanax here\n";
        let pattern = r"Subject: .*(?<Medicine name>: .+).*";
        let span_pattern = r"(?<Medicine name>: [a-z]+)";
        let variant_args: Vec<Vec<&str>> = vec![
            vec![pattern],
            vec!["--count", pattern],
            vec!["--batched", pattern],
            vec!["--batched", "--threads", "4", pattern],
            vec!["--color", pattern],
            vec!["--baseline", pattern],
            vec!["--no-prescan", pattern],
            vec!["--max-lines", "2", pattern],
            vec!["--only-matching", span_pattern],
            vec!["--only-matching", "--color", span_pattern],
            vec!["--only-matching", "--count", span_pattern],
        ];
        for args in variant_args {
            let in_memory = CliOptions::parse(args.iter().copied().chain(["--no-stream"])).unwrap();
            let expected_outcome = run_on_text(&in_memory, text).unwrap();
            let mut expected = rendered_stdout(&expected_outcome);
            for chunk in ["1", "16", "65536"] {
                let streaming = CliOptions::parse(
                    ["--stream-chunk-bytes", chunk]
                        .into_iter()
                        .chain(args.iter().copied()),
                )
                .unwrap();
                let mut got = Vec::new();
                let outcome = run_stream(&streaming, text.as_bytes(), &mut got).unwrap();
                got.extend(rendered_stdout(&outcome));
                // In-memory runs return the count via `stdout` too; both
                // renderings already include it.
                assert_eq!(
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(&expected),
                    "args {args:?} chunk {chunk}"
                );
                assert_eq!(outcome.exit_code, expected_outcome.exit_code, "{args:?}");
            }
            expected.clear();
        }
    }

    #[test]
    fn streaming_stats_and_missing_newline() {
        let options = CliOptions::parse([
            "--stats",
            "--batched",
            r"Subject: .*(?<Medicine name>: .+).*",
        ])
        .unwrap();
        let mut out = Vec::new();
        let outcome = run_stream(&options, &b"Subject: cheap viagra\nplain"[..], &mut out).unwrap();
        assert_eq!(out, b"Subject: cheap viagra\n");
        assert_eq!(outcome.exit_code, 0);
        assert!(outcome.stderr[0].contains("stream=yes"));
        assert!(outcome.stderr[0].contains("lines=2"));
        assert!(outcome.stderr.iter().any(|l| l.starts_with("batches=")));
        // Batched runs do not pretend to have per-line oracle attribution.
        assert!(outcome
            .stderr
            .iter()
            .all(|l| !l.starts_with("oracle_calls=")));

        // The default invocation (sequential, per-call, membership) keeps
        // its per-line oracle attribution in streaming mode too.
        let options =
            CliOptions::parse(["--stats", r"Subject: .*(?<Medicine name>: .+).*"]).unwrap();
        let mut out = Vec::new();
        let outcome = run_stream(&options, &b"Subject: cheap viagra\nplain"[..], &mut out).unwrap();
        let oracle_line = outcome
            .stderr
            .iter()
            .find(|l| l.starts_with("oracle_calls="))
            .expect("streaming --stats keeps the oracle attribution line");
        assert!(oracle_line.contains("query_chars="), "{oracle_line}");
    }

    #[test]
    fn write_errors_cancel_the_stream() {
        struct BrokenPipe;
        impl std::io::Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let options = CliOptions::parse([r"Subject: .*(?<Medicine name>: .+).*"]).unwrap();
        let text = "Subject: cheap viagra\n".repeat(50);
        let err = run_stream(&options, text.as_bytes(), &mut BrokenPipe).unwrap_err();
        assert!(err.to_string().contains("cannot write output"), "{err}");
    }

    use crate::testutil::Scratch;

    fn run_tree_args<S: Into<String> + Clone>(args: &[S]) -> (Vec<u8>, CliOutcome) {
        let options = CliOptions::parse(args.iter().cloned()).unwrap();
        let targets = expand_targets(&options);
        let mut out = Vec::new();
        let outcome = run_paths(&options, &targets, &mut out).unwrap();
        (out, outcome)
    }

    #[test]
    fn multi_file_scan_prefixes_paths_and_orders_deterministically() {
        let scratch = Scratch::new("multi");
        scratch.file("b/late.txt", "Subject: cheap viagra\n");
        scratch.file("a.txt", "Subject: cheap viagra\nplain\n");
        scratch.file("b/early.txt", "nothing\n");
        let dir = scratch.0.display().to_string();
        let pattern = r"Subject: .*(?<Medicine name>: .+).*";

        let (out, outcome) = run_tree_args(&[pattern, &dir]);
        let expected =
            format!("{dir}/a.txt:Subject: cheap viagra\n{dir}/b/late.txt:Subject: cheap viagra\n");
        assert_eq!(String::from_utf8_lossy(&out), expected);
        assert_eq!(outcome.exit_code, 0);
        assert!(outcome.stderr.is_empty());

        // Byte-identical output for any thread count, and global oracle
        // dedupe means the duplicated subject line is judged once.
        for threads in ["2", "8"] {
            let (parallel, para_outcome) =
                run_tree_args(&["--threads", threads, "--stats", pattern, &dir]);
            assert_eq!(parallel, out.as_slice(), "threads={threads}");
            assert_eq!(para_outcome.exit_code, 0);
            let shared = para_outcome
                .stderr
                .iter()
                .find(|l| l.starts_with("shared_session:"))
                .expect("multi-file stats include the shared session");
            assert!(shared.contains("deduped="), "{shared}");
            assert!(shared.contains("shards=16"), "{shared}");
            assert!(shared.contains("contended="), "{shared}");
        }

        // Overlapped multi-file runs report the resolver pool exactly once
        // for the whole run, not once per file.
        let (overlapped_out, outcome) = run_tree_args(&[
            "--batched",
            "--oracle-threads",
            "2",
            "--threads",
            "2",
            "--stats",
            pattern,
            &dir,
        ]);
        assert_eq!(overlapped_out, out, "overlapped output must be identical");
        let resolver_lines = outcome
            .stderr
            .iter()
            .filter(|l| l.starts_with("resolver:"))
            .count();
        assert_eq!(resolver_lines, 1, "{:?}", outcome.stderr);

        // --no-filename drops the prefix; --heading groups by file.
        let (out, _) = run_tree_args(&["--no-filename", pattern, &dir]);
        assert_eq!(
            String::from_utf8_lossy(&out),
            "Subject: cheap viagra\nSubject: cheap viagra\n"
        );
        let (out, _) = run_tree_args(&["--heading", pattern, &dir]);
        assert_eq!(
            String::from_utf8_lossy(&out),
            format!(
                "{dir}/a.txt\nSubject: cheap viagra\n\n{dir}/b/late.txt\nSubject: cheap viagra\n"
            )
        );

        // --count prints per-file counts.
        let (out, outcome) = run_tree_args(&["--count", pattern, &dir]);
        assert_eq!(
            String::from_utf8_lossy(&out),
            format!("{dir}/a.txt:1\n{dir}/b/early.txt:0\n{dir}/b/late.txt:1\n")
        );
        assert_eq!(outcome.exit_code, 0);
    }

    #[test]
    fn multi_file_scan_survives_unreadable_paths_with_exit_2() {
        let scratch = Scratch::new("errors");
        scratch.file("ok.txt", "Subject: cheap viagra\n");
        let ok = scratch.0.join("ok.txt").display().to_string();
        let missing = scratch.0.join("gone.txt").display().to_string();
        let pattern = r"Subject: .*(?<Medicine name>: .+).*";

        let (out, outcome) = run_tree_args(&[pattern, &ok, &missing]);
        assert_eq!(
            String::from_utf8_lossy(&out),
            format!("{ok}:Subject: cheap viagra\n")
        );
        assert_eq!(outcome.exit_code, 2, "errors trump matches");
        assert_eq!(outcome.stderr.len(), 1);
        assert!(
            outcome.stderr[0].starts_with("grepo: "),
            "{:?}",
            outcome.stderr
        );
        assert!(outcome.stderr[0].contains("gone.txt"));

        // No matches anywhere and no errors: exit 1.
        let (_, outcome) =
            run_tree_args(&["--oracle", "always-false", r".*(?<q>: .+).*", &ok, &ok]);
        assert_eq!(outcome.exit_code, 1);
    }

    #[test]
    fn multi_file_span_mode_and_no_stream_agree() {
        let scratch = Scratch::new("spans");
        scratch.file("one.txt", "please buy tramadol today\n");
        scratch.file("two.txt", "ambien and xanax\nnope\n");
        let dir = scratch.0.display().to_string();
        let pattern = r"(?<Medicine name>: [a-z]+)";

        let (out, outcome) = run_tree_args(&["--only-matching", pattern, &dir]);
        assert_eq!(
            String::from_utf8_lossy(&out),
            format!("{dir}/one.txt:tramadol\n{dir}/two.txt:ambien\n{dir}/two.txt:xanax\n")
        );
        assert_eq!(outcome.exit_code, 0);

        let (buffered, _) = run_tree_args(&["--only-matching", "--no-stream", pattern, &dir]);
        assert_eq!(buffered, out, "--no-stream output must be byte-identical");
    }

    #[test]
    fn daemon_and_answer_log_option_parsing() {
        let o = CliOptions::parse(["--daemon", "127.0.0.1:7878", "x", "dir"]).unwrap();
        assert_eq!(o.daemon.as_deref(), Some("127.0.0.1:7878"));
        let o = CliOptions::parse(["--answer-log", "answers.log", "x", "dir"]).unwrap();
        assert_eq!(o.answer_log.as_deref(), Some("answers.log"));
        assert!(CliOptions::parse(["--daemon"]).is_err());
        assert!(CliOptions::parse(["--answer-log"]).is_err());

        // Options that would change output or cost accounting client-side
        // cannot combine with a daemon run.
        for args in [
            vec!["--daemon", "addr", "--baseline", "x"],
            vec!["--daemon", "addr", "--batched", "x"],
            vec!["--daemon", "addr", "--only-matching", "x"],
            vec!["--daemon", "addr", "--color", "x"],
            vec!["--daemon", "addr", "--threads", "2", "x"],
            vec!["--daemon", "addr", "--max-lines", "5", "x"],
            vec!["--daemon", "addr", "--no-stream", "x"],
            vec!["--daemon", "addr", "--answer-log", "f", "x"],
        ] {
            let err = CliOptions::parse(args.clone()).unwrap_err();
            assert!(err.to_string().contains("--daemon"), "{args:?}: {err}");
        }
        // Display and walk options ride along fine.
        let o = CliOptions::parse([
            "--daemon", "addr", "--count", "--hidden", "--ignore", "*.bin", "x", "d",
        ])
        .unwrap();
        assert!(o.count_only && o.hidden);
    }

    fn stat(line: &str, name: &str) -> u64 {
        line.split_whitespace()
            .find_map(|part| part.strip_prefix(&format!("{name}="))?.parse().ok())
            .unwrap_or_else(|| panic!("no {name}= field in {line:?}"))
    }

    #[test]
    fn stream_and_in_memory_batch_stats_agree() {
        let pattern = "Subject: .*(?<Medicine name>: [a-z]+).*";
        // Repeated lines: the chunk session answers the repeats, so more
        // keys are submitted than reach the backend.
        let text = "Subject: cheap viagra now\nSubject: weekly sync\n\
                    Subject: cheap viagra now\nSubject: cheap viagra now\n";
        let options = CliOptions::parse(["--batched", "--stats", pattern]).unwrap();
        let batch_line = |outcome: &CliOutcome| {
            outcome
                .stderr
                .iter()
                .find(|line| line.starts_with("batches="))
                .cloned()
                .expect("batched --stats prints a batches= line")
        };
        let in_memory = batch_line(&run_on_text(&options, text).unwrap());
        let mut out = Vec::new();
        let streamed = batch_line(&run_stream(&options, text.as_bytes(), &mut out).unwrap());
        assert!(stat(&in_memory, "keys_deduped") > 0, "{in_memory}");
        assert_eq!(
            streamed, in_memory,
            "mean_batch must not depend on --stream"
        );
    }

    #[test]
    fn answer_log_replays_across_runs_with_zero_backend_questions() {
        let scratch = Scratch::new("persisted");
        scratch.file("a.txt", "Subject: cheap viagra\nplain\n");
        scratch.file("b.txt", "Subject: cheap viagra\nSubject: buy xanax\n");
        let dir = scratch.0.display().to_string();
        let log = scratch.0.join("answers.log").display().to_string();
        let pattern = r"Subject: .*(?<Medicine name>: .+).*";
        let args = ["--stats", "--answer-log", &log, pattern, &dir];

        let (cold_out, cold) = run_tree_args(&args);
        let line = |outcome: &CliOutcome| {
            outcome
                .stderr
                .iter()
                .find(|l| l.starts_with("shared_session:"))
                .expect("stats include the shared session")
                .clone()
        };
        let cold_line = line(&cold);
        assert!(stat(&cold_line, "backend_keys") > 0, "{cold_line}");
        assert_eq!(stat(&cold_line, "persisted_hits"), 0, "{cold_line}");
        assert!(
            cold.stderr.iter().any(|l| l.starts_with("answer_store:")),
            "{:?}",
            cold.stderr
        );

        // A second run is a fresh session (fresh process state as far as
        // the oracle plane is concerned) over the same log: identical
        // output, and every question answered from disk.
        let (warm_out, warm) = run_tree_args(&args);
        assert_eq!(warm_out, cold_out, "verdicts must not change");
        let warm_line = line(&warm);
        assert_eq!(
            stat(&warm_line, "backend_keys"),
            0,
            "warm run must not touch the backend: {warm_line}"
        );
        assert!(stat(&warm_line, "persisted_hits") > 0, "{warm_line}");

        // Stdin runs have no store to layer; the flag is rejected there.
        let options = CliOptions::parse(["--answer-log", &log, pattern]).unwrap();
        assert!(run(&options)
            .unwrap_err()
            .to_string()
            .contains("file paths"));
    }

    #[test]
    fn non_utf8_lines_keep_byte_accurate_spans() {
        // Streaming reads raw bytes; invalid UTF-8 before the match must
        // not shift the printed span (a lossy decode would move offsets).
        let options =
            CliOptions::parse(["--only-matching", r"(?<Medicine name>: [a-z]+)"]).unwrap();
        let mut input = vec![0xff, 0xfe, b' '];
        input.extend_from_slice(b"buy tramadol now\n");
        let mut out = Vec::new();
        let outcome = run_stream(&options, &input[..], &mut out).unwrap();
        assert_eq!(outcome.exit_code, 0);
        let printed = String::from_utf8_lossy(&out);
        assert!(
            printed.lines().any(|l| l == "tramadol"),
            "span misaligned: {printed:?}"
        );

        // --color on a valid-UTF-8 line is unchanged by the byte-level
        // writer.
        let options = CliOptions::parse(["--color", r".*(?<Medicine name>: [a-z]+).*"]).unwrap();
        let mut out = Vec::new();
        run_stream(&options, &b"take ambien nightly\n"[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(HIGHLIGHT_START) && text.contains(HIGHLIGHT_END));
        assert!(text.ends_with(" nightly\n"), "{text:?}");
    }
}
