//! The line-oriented scanning engine of `grep_O`.
//!
//! Like the paper's prototype, the engine treats each input line as an
//! independent membership query.  One chunk driver runs every scan: it
//! claims `chunk_lines`-sized chunks (over `threads` workers, or inline
//! on the calling thread), gives each chunk its own [`BatchSession`],
//! parks and resumes lines whose oracle answers the session does not have
//! yet, applies the [`FaultPolicy`] and the line/time limits, and
//! reassembles the records in line order.  Three entry points sit on it:
//!
//! * [`scan_lines`] — membership on the plane [`ScanOptions`] names;
//! * [`scan_spans`] — span search, with each line's spans;
//! * [`scan`] — sequential per-call membership with per-line oracle
//!   attribution, the Table 2 measurement.
//!
//! Batched membership scans suspend on both oracle planes, with one
//! protocol: every line of a chunk runs until it needs an answer the chunk
//! session does not have, and parks; once every line is decided or
//! parked, the driver takes one progress step and resumes the parked
//! lines from their checkpoints.  On the synchronous plane the progress
//! step asks the union of the parked lines' missing keys in one backend
//! round trip ([`BatchSession::flush_deferred`]), so round trips follow
//! the deepest line of a chunk rather than the sum of its lines; on the
//! overlapped plane it waits for the resolver pool to publish answers.
//! A synchronous session whose backend answers quicker than parking a
//! line costs asks inline instead, and its lines do not park.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use semre::{SemRegex, DEFAULT_CHUNK_LINES};
use semre_core::{DpMatcher, Matcher, SuspendedMatch};
use semre_oracle::{
    clear_fault, fault_pending, take_fault, BatchSession, Oracle, OracleError, OracleStats,
    ResolverPool, ScanControl, ScanInterrupt,
};

use crate::stats::{LineRecord, ScanReport};

/// Anything that can decide membership of a single line.
///
/// Implemented by the facade's [`SemRegex`] handle (the normal entry
/// point) and directly by both internal matching algorithms, so that the
/// scanning engine, the CLI, and the benchmark harness can switch between
/// them.
pub trait LineMatcher: Sync {
    /// Whether `line` belongs to the SemRE's language.
    fn matches_line(&self, line: &[u8]) -> bool;

    /// Like [`matches_line`](LineMatcher::matches_line), but resolving
    /// oracle questions through `session`, so answers are batched and
    /// deduplicated across every line sharing the session.
    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool;

    /// A fresh batch session over this matcher's oracle, typically one per
    /// scanned chunk.
    fn session(&self) -> BatchSession<'_>;

    /// A short name identifying the algorithm ("snfa" or "dp").
    fn algorithm(&self) -> &'static str;

    /// Suspension-aware membership through `session`: on a
    /// [suspending session](LineMatcher::suspending_session), `Err` carries
    /// the evaluation parked at the position whose oracle answers the
    /// session does not have yet, and
    /// [`resume_matches_line`](LineMatcher::resume_matches_line) continues
    /// from exactly there — so a parked line costs `O(|line|)` evaluator
    /// work across all resumptions, not one full replay per flush point.
    /// Matchers that never suspend (the default) always answer.
    fn try_matches_line_suspending(
        &self,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        Ok(self.matches_line_in_session(line, session))
    }

    /// Continues a line parked by
    /// [`try_matches_line_suspending`](LineMatcher::try_matches_line_suspending),
    /// re-suspending (with updated state) when the next needed answers are
    /// still missing.  The default — for matchers that never suspend and
    /// so can never have produced `parked` — re-evaluates synchronously.
    fn resume_matches_line(
        &self,
        parked: SuspendedMatch,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        let _ = parked;
        Ok(self.matches_line_in_session(line, session))
    }

    /// A session on which
    /// [`try_matches_line_suspending`](LineMatcher::try_matches_line_suspending)
    /// parks lines instead of blocking: wired to the matcher's background
    /// resolver pool when it has one, otherwise deferring misses to the
    /// chunk's next round trip.  Batched membership scans use it; `None`
    /// (the default, for matchers that never suspend) resolves inline.
    fn suspending_session(&self) -> Option<BatchSession<'_>> {
        None
    }
}

impl LineMatcher for SemRegex {
    fn matches_line(&self, line: &[u8]) -> bool {
        self.is_match(line)
    }

    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool {
        self.is_match_in_session(line, session)
    }

    fn session(&self) -> BatchSession<'_> {
        SemRegex::session(self)
    }

    fn algorithm(&self) -> &'static str {
        SemRegex::algorithm(self)
    }

    fn try_matches_line_suspending(
        &self,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        SemRegex::try_is_match_suspending(self, line, session)
    }

    fn resume_matches_line(
        &self,
        parked: SuspendedMatch,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        SemRegex::resume_is_match(self, parked, line, session)
    }

    fn suspending_session(&self) -> Option<BatchSession<'_>> {
        SemRegex::suspending_session(self)
    }
}

impl<O: Oracle> LineMatcher for Matcher<O> {
    fn matches_line(&self, line: &[u8]) -> bool {
        self.is_match(line)
    }

    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool {
        self.run_in_session(line, session).matched
    }

    fn session(&self) -> BatchSession<'_> {
        Matcher::session(self)
    }

    fn algorithm(&self) -> &'static str {
        "snfa"
    }

    fn try_matches_line_suspending(
        &self,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        self.try_run_in_session(line, session)
            .map(|report| report.matched)
    }

    fn resume_matches_line(
        &self,
        parked: SuspendedMatch,
        line: &[u8],
        session: &mut BatchSession<'_>,
    ) -> Result<bool, SuspendedMatch> {
        self.resume_run_in_session(parked, line, session)
            .map(|report| report.matched)
    }

    fn suspending_session(&self) -> Option<BatchSession<'_>> {
        Some(self.deferring_session())
    }
}

impl<O: Oracle> LineMatcher for DpMatcher<O> {
    fn matches_line(&self, line: &[u8]) -> bool {
        self.is_match(line)
    }

    fn matches_line_in_session(&self, line: &[u8], session: &mut BatchSession<'_>) -> bool {
        self.run_in_session(line, session).matched
    }

    fn session(&self) -> BatchSession<'_> {
        DpMatcher::session(self)
    }

    fn algorithm(&self) -> &'static str {
        "dp"
    }
}

/// What a scan driver does when the oracle plane reports a fault for a
/// line — retries exhausted, breaker open, resolver batch failed — instead
/// of an answer.
///
/// Whatever the policy, degradation is explicit: a faulted line either
/// stops the scan, disappears from the report with its index recorded in
/// [`ScanReport::degraded`], or is reported as a flagged non-match.  A
/// fault never silently changes a verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Stop the scan at the first fault and surface it in
    /// [`ScanReport::fault`] (the default — fail loudly).
    #[default]
    Fail,
    /// Drop the affected line from the report, recording its index in
    /// [`ScanReport::degraded`]; the scan continues.
    SkipLine,
    /// Report the affected line as a non-match with
    /// [`LineRecord::degraded`] set (and its index in
    /// [`ScanReport::degraded`]); the scan continues.
    NoMatch,
}

impl FaultPolicy {
    /// Parses the CLI spelling of a policy (`fail`, `skip-line`,
    /// `no-match`).
    pub fn parse(text: &str) -> Option<FaultPolicy> {
        match text {
            "fail" => Some(FaultPolicy::Fail),
            "skip-line" => Some(FaultPolicy::SkipLine),
            "no-match" => Some(FaultPolicy::NoMatch),
            _ => None,
        }
    }

    /// The CLI spelling of this policy.
    pub fn name(self) -> &'static str {
        match self {
            FaultPolicy::Fail => "fail",
            FaultPolicy::SkipLine => "skip-line",
            FaultPolicy::NoMatch => "no-match",
        }
    }
}

/// Options controlling a scan: how lines are chunked, spread over
/// threads and resolved (the oracle plane), plus the limits and the fault
/// policy.  Every scan entry point — in memory or streaming — reads these
/// from here.
#[derive(Clone, Debug)]
pub struct ScanOptions {
    /// Stop scanning (reporting `timed_out`) once this much wall-clock time
    /// has elapsed.
    pub time_budget: Option<Duration>,
    /// Process at most this many lines.
    pub max_lines: Option<usize>,
    /// Cooperative interruption — deadline, cancellation flag, live budget
    /// probe — checked at line boundaries; a tripped control stops the scan
    /// cleanly with [`ScanReport::interrupted`] set.
    pub control: ScanControl,
    /// What to do when the oracle plane faults on a line.
    pub fault_policy: FaultPolicy,
    /// Lines per chunk.  Each chunk gets one [`BatchSession`], so on the
    /// batched plane the chunk is the scope of cross-line deduplication.
    pub chunk_lines: usize,
    /// Worker threads claiming chunks (`<= 1` scans inline on the calling
    /// thread).  Records come back in line order for any thread count.
    pub threads: usize,
    /// The oracle plane of membership scans: `true` decides lines through
    /// the chunk session (batched, deduplicated, and overlapped when the
    /// matcher has a resolver pool); `false` decides every line through
    /// [`LineMatcher::matches_line`], the paper prototype's per-call
    /// transport.  Span scans follow the handle's own plane.
    pub batched: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            time_budget: None,
            max_lines: None,
            control: ScanControl::default(),
            fault_policy: FaultPolicy::default(),
            chunk_lines: DEFAULT_CHUNK_LINES,
            threads: 1,
            batched: false,
        }
    }
}

impl ScanOptions {
    /// No limits: scan every line, sequentially, on the per-call plane.
    pub fn unlimited() -> Self {
        ScanOptions::default()
    }

    /// Scan with a wall-clock budget.
    pub fn with_time_budget(budget: Duration) -> Self {
        ScanOptions {
            time_budget: Some(budget),
            ..ScanOptions::default()
        }
    }

    /// No limits, on the batched plane with `chunk_lines` lines per chunk
    /// session.
    pub fn batched(chunk_lines: usize) -> Self {
        ScanOptions {
            chunk_lines,
            batched: true,
            ..ScanOptions::default()
        }
    }

    /// Returns `self` scanning with `threads` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns `self` with the cooperative [`ScanControl`] installed.
    #[must_use]
    pub fn with_control(mut self, control: ScanControl) -> Self {
        self.control = control;
        self
    }

    /// Returns `self` scanning under the given fault policy.
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }
}

/// Per-chunk fault bookkeeping shared between a driver's admit loop and
/// [`drain_parked`]: the degraded line indices (in whatever order lines
/// decided; drivers sort before merging) and the fault that aborted the
/// chunk under [`FaultPolicy::Fail`].
#[derive(Default)]
struct FaultOutcome {
    degraded: Vec<usize>,
    fault: Option<OracleError>,
}

/// Applies the scan's fault policy to one decided line, given the fault
/// its evaluation recorded (if any), and returns the record to keep (if
/// any) plus whether the scan must abort.
fn apply_fault_policy(
    policy: FaultPolicy,
    record: LineRecord,
    fault: Option<OracleError>,
    outcome: &mut FaultOutcome,
) -> (Option<LineRecord>, bool) {
    match fault {
        None => (Some(record), false),
        Some(error) => match policy {
            FaultPolicy::Fail => {
                outcome.fault = Some(error);
                (None, true)
            }
            FaultPolicy::SkipLine => {
                outcome.degraded.push(record.index);
                (None, false)
            }
            FaultPolicy::NoMatch => {
                outcome.degraded.push(record.index);
                (
                    Some(LineRecord {
                        matched: false,
                        degraded: true,
                        ..record
                    }),
                    false,
                )
            }
        },
    }
}

/// The session a chunk scan works through: the matcher's suspending
/// session when `suspending` is requested and the matcher has one, plain
/// otherwise.
fn chunk_session<M: LineMatcher + ?Sized>(matcher: &M, suspending: bool) -> BatchSession<'_> {
    if suspending {
        if let Some(session) = matcher.suspending_session() {
            return session;
        }
    }
    matcher.session()
}

/// A line whose evaluation is suspended on oracle answers the chunk session
/// does not have yet: its bytes (borrowed from the chunk, which outlives
/// the scan), the evaluator checkpoint to continue from, and any fault its
/// evaluation recorded before it parked — the thread's fault sink belongs
/// to whichever line runs next, so a parked line carries its own.
struct Parked<'l> {
    index: usize,
    line: &'l [u8],
    state: SuspendedMatch,
    fault: Option<OracleError>,
}

/// The suspension protocol of a chunk, the same on both planes: take one
/// progress step, then resume each parked line from its checkpoint, until
/// no line is left parked.  The progress step depends on the chunk
/// session:
///
/// * a deferring session (the synchronous plane) asks the union of the
///   keys the parked lines wait on in one round trip
///   ([`BatchSession::flush_deferred`]) — every parked line then has the
///   answers it parked on, and keeps them until it completes the batch
///   that needs them;
/// * an overlapped session blocks until the resolver pool publishes
///   another batch, but only after a round in which no line completed and
///   none advanced past its parked position.
///
/// Resumes are cheap: a line with `k` flush points costs `O(|line|)`
/// evaluator work *total* across all its resumptions, not `k` replays.
/// Returns the completed records (in whatever order lines resumed; callers
/// re-sort by index).  Faulted lines go through `outcome` under `policy`;
/// a [`FaultPolicy::Fail`] fault aborts the drain, abandoning the remaining
/// parked lines (their keys are dropped, or completed with placeholders by
/// the resolver pool, so nothing blocks — the scan is stopping anyway).
fn drain_parked<M, T, F>(
    matcher: &M,
    session: &mut BatchSession<'_>,
    mut parked: Vec<Parked<'_>>,
    policy: FaultPolicy,
    outcome: &mut FaultOutcome,
    per_line: &F,
) -> Vec<(LineRecord, T)>
where
    M: LineMatcher + ?Sized,
    F: Fn(
        &M,
        &[u8],
        &mut BatchSession<'_>,
        Option<SuspendedMatch>,
    ) -> Result<(bool, T), SuspendedMatch>,
{
    let mut records = Vec::with_capacity(parked.len());
    let pool = session.pool();
    // The pool generation seen before a round that made no progress.
    let mut stalled = None;
    while !parked.is_empty() {
        match (pool, stalled) {
            (None, _) => {
                // Every parked line queued a key when it parked, and a
                // flushed key stays readable until its line completes the
                // batch that needs it, so each round asks something new.
                let asked = session.flush_deferred();
                assert!(asked > 0, "a synchronous round with nothing to ask");
            }
            (Some(pool), Some(seen)) => {
                pool.wait_for_progress(seen);
            }
            (Some(_), None) => {}
        }
        // Snapshot *before* the resumes: a batch published while this
        // round runs must wake the next wait, not be missed.
        let generation = pool.map(ResolverPool::generation);
        let mut advanced = false;
        let mut still = Vec::with_capacity(parked.len());
        for Parked {
            index,
            line,
            state,
            fault,
        } in parked
        {
            let from = state.position();
            let line_start = Instant::now();
            match per_line(matcher, line, session, Some(state)) {
                Ok((matched, extra)) => {
                    if let Some(pool) = pool {
                        pool.note_resume();
                    }
                    advanced = true;
                    let record = LineRecord {
                        index,
                        length: line.len(),
                        matched,
                        degraded: false,
                        duration: line_start.elapsed(),
                        oracle: OracleStats::default(),
                    };
                    // Take the resume's fault even when the line parked
                    // with one, so it cannot leak to the next line.
                    let fault = fault.or(take_fault());
                    let (keep, abort) = apply_fault_policy(policy, record, fault, outcome);
                    if let Some(record) = keep {
                        records.push((record, extra));
                    }
                    if abort {
                        return records;
                    }
                }
                Err(state) => {
                    advanced |= state.position() > from;
                    still.push(Parked {
                        index,
                        line,
                        state,
                        fault: fault.or(take_fault()),
                    });
                }
            }
        }
        parked = still;
        stalled = if advanced { None } else { generation };
    }
    records
}

/// The one scan driver.  Chunks of `options.chunk_lines` lines are
/// claimed off a shared counter by `options.threads` workers (inline on
/// the calling thread when `threads <= 1`); each chunk owns one
/// [`BatchSession`], and the per-chunk results are reassembled in chunk
/// order afterwards — so for a scan that runs to completion the records
/// (and any output derived from them) are identical for any thread count.
///
/// `per_line` decides one line through the chunk's session and returns
/// the verdict plus a per-line extra (the matched spans, the oracle
/// delta, …); extras are returned indexed by absolute line number.  Given
/// a parked evaluation it resumes that instead.  `Err` parks the line until
/// [`drain_parked`] resumes it — only on a `suspending` scan, whose chunks
/// work through the matcher's suspending session; closures that never
/// suspend pass `suspending: false`.
fn scan_chunks<M, L, T, F>(
    matcher: &M,
    lines: &[L],
    options: &ScanOptions,
    suspending: bool,
    per_line: F,
) -> (ScanReport, Vec<T>)
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
    T: Default + Send,
    F: Fn(
            &M,
            &[u8],
            &mut BatchSession<'_>,
            Option<SuspendedMatch>,
        ) -> Result<(bool, T), SuspendedMatch>
        + Sync,
{
    let started = Instant::now();
    let chunk_lines = options.chunk_lines.max(1);
    let limit = options.max_lines.unwrap_or(usize::MAX).min(lines.len());
    let lines = &lines[..limit];
    let num_chunks = lines.len().div_ceil(chunk_lines);
    let threads = options.threads.max(1).min(num_chunks.max(1));
    let next_chunk = AtomicUsize::new(0);
    let timed_out = AtomicBool::new(false);
    // A `Fail` fault, a tripped ScanControl, or a panicked worker stops
    // every worker from claiming further chunks; the first cause wins its
    // slot.  Completed chunks are kept — the report is an honest prefix.
    let stopped = AtomicBool::new(false);
    let fault_slot: Mutex<Option<OracleError>> = Mutex::new(None);
    let interrupt_slot: Mutex<Option<ScanInterrupt>> = Mutex::new(None);

    type ChunkResult<T> = (usize, Vec<(LineRecord, T)>, semre::BatchStats, Vec<usize>);
    let worker = || -> Vec<ChunkResult<T>> {
        clear_fault();
        let mut out = Vec::new();
        loop {
            if timed_out.load(Ordering::Relaxed) || stopped.load(Ordering::Relaxed) {
                break;
            }
            let chunk_index = next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk_index >= num_chunks {
                break;
            }
            let start_line = chunk_index * chunk_lines;
            let chunk = &lines[start_line..(start_line + chunk_lines).min(lines.len())];
            let mut session = chunk_session(matcher, suspending);
            let mut records = Vec::with_capacity(chunk.len());
            let mut parked: Vec<Parked> = Vec::new();
            let mut outcome = FaultOutcome::default();
            for (offset, line) in chunk.iter().enumerate() {
                if let Some(budget) = options.time_budget {
                    if started.elapsed() >= budget {
                        timed_out.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                if let Some(interrupt) = options.control.interrupted() {
                    let mut slot = interrupt_slot
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    slot.get_or_insert(interrupt);
                    stopped.store(true, Ordering::Relaxed);
                    break;
                }
                let index = start_line + offset;
                let line = line.as_ref();
                let line_start = Instant::now();
                match per_line(matcher, line, &mut session, None) {
                    Ok((matched, extra)) => {
                        let record = LineRecord {
                            index,
                            length: line.len(),
                            matched,
                            degraded: false,
                            duration: line_start.elapsed(),
                            oracle: OracleStats::default(),
                        };
                        let (keep, abort) = apply_fault_policy(
                            options.fault_policy,
                            record,
                            take_fault(),
                            &mut outcome,
                        );
                        if let Some(record) = keep {
                            records.push((record, extra));
                        }
                        if abort {
                            break;
                        }
                    }
                    Err(state) => {
                        if let Some(pool) = session.pool() {
                            pool.note_suspend();
                        }
                        parked.push(Parked {
                            index,
                            line,
                            state,
                            fault: take_fault(),
                        });
                    }
                }
            }
            // Every admitted line gets a verdict, even when a limit
            // stopped the chunk early: parked lines already have questions
            // queued or in flight.  (Except under a `Fail` abort: the scan
            // is stopping, so the remaining parked lines are abandoned.)
            if outcome.fault.is_none() {
                records.extend(drain_parked(
                    matcher,
                    &mut session,
                    parked,
                    options.fault_policy,
                    &mut outcome,
                    &per_line,
                ));
            }
            if let Some(error) = outcome.fault.take() {
                let mut slot = fault_slot.lock().unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(error);
                stopped.store(true, Ordering::Relaxed);
            }
            records.sort_unstable_by_key(|(record, _)| record.index);
            outcome.degraded.sort_unstable();
            out.push((chunk_index, records, session.stats(), outcome.degraded));
        }
        out
    };

    let mut chunks: Vec<ChunkResult<T>> = if threads <= 1 {
        worker()
    } else {
        let mut collected = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| catch_unwind(AssertUnwindSafe(worker))))
                .collect();
            for handle in handles {
                match handle.join().expect("scan worker thread died") {
                    Ok(chunk_results) => collected.extend(chunk_results),
                    Err(_) => {
                        // A panicking matcher (or oracle on the synchronous
                        // plane) loses its worker's chunks but surfaces as a
                        // scan fault instead of aborting the process.
                        let mut slot = fault_slot.lock().unwrap_or_else(PoisonError::into_inner);
                        slot.get_or_insert(OracleError::fatal("scan worker panicked"));
                        stopped.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        collected
    };
    chunks.sort_unstable_by_key(|&(index, _, _, _)| index);

    let mut report = ScanReport::default();
    let mut extras: Vec<T> = std::iter::repeat_with(T::default)
        .take(lines.len())
        .collect();
    for (_, records, stats, degraded) in chunks {
        for (record, extra) in records {
            extras[record.index] = extra;
            report.records.push(record);
        }
        report.batch = report.batch.merged(&stats);
        report.degraded.extend(degraded);
    }
    report.timed_out = timed_out.load(Ordering::Relaxed);
    report.fault = fault_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    report.interrupted = interrupt_slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    report.total_duration = started.elapsed();
    (report, extras)
}

/// Scans `lines` for membership with the chunking, threads, plane, limits
/// and fault policy of `options`.
///
/// On the batched plane each chunk shares one [`BatchSession`], so oracle
/// questions are batched within each line (the evaluator's collect phase)
/// *and* deduplicated across the lines of a chunk — repeated domains,
/// medicine names, or paths reach the backend once per chunk instead of
/// once per occurrence.  The per-chunk
/// [`BatchStats`](semre_oracle::BatchStats) are accumulated into
/// [`ScanReport::batch`].  Lines that need answers the chunk session does
/// not have are parked while the chunk's other lines run, and resumed from
/// their checkpoints once the session has made progress: after one round
/// trip that asks every parked line's missing keys together, or, on a
/// matcher with a background resolver pool (built with
/// `SemRegexBuilder::overlapped`), as the pool publishes answers.
///
/// Verdicts and record order are identical for every plane, chunk size
/// and thread count; per-line oracle attribution is not recorded (see
/// [`scan`]).
pub fn scan_lines<M, L>(matcher: &M, lines: &[L], options: ScanOptions) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
{
    let batched = options.batched;
    let (report, _) = scan_chunks(
        matcher,
        lines,
        &options,
        batched,
        |m, line, session, parked| {
            let matched = match parked {
                Some(parked) => m.resume_matches_line(parked, line, session)?,
                None if batched => m.try_matches_line_suspending(line, session)?,
                None => m.matches_line(line),
            };
            Ok((matched, ()))
        },
    );
    report
}

/// Scans `lines` sequentially on the per-call plane, snapshotting
/// `oracle_stats` around every line so that oracle usage is attributed
/// per line in [`LineRecord::oracle`] — the Table 2 measurement.  The
/// thread count and plane of `options` are ignored (attribution needs one
/// line at a time); chunking, limits and the fault policy apply as in
/// [`scan_lines`].
///
/// Pass [`OracleStats::default`] when oracle accounting is not needed.
pub fn scan<M, L, F>(matcher: &M, lines: &[L], oracle_stats: F, options: ScanOptions) -> ScanReport
where
    M: LineMatcher + ?Sized,
    L: AsRef<[u8]> + Sync,
    F: Fn() -> OracleStats + Sync,
{
    let options = ScanOptions {
        threads: 1,
        ..options
    };
    let (mut report, oracle) = scan_chunks(matcher, lines, &options, false, |m, line, _, _| {
        let before = oracle_stats();
        let matched = m.matches_line(line);
        Ok((matched, oracle_stats() - before))
    });
    for record in &mut report.records {
        record.oracle = oracle[record.index];
    }
    report
}

/// Scans `lines` in span-search mode: every processed line is searched for
/// its non-overlapping leftmost-earliest spans, and a line counts as
/// matched when it has at least one.  Chunking, threads, limits, and
/// batch-stats accumulation behave exactly like [`scan_lines`]; the second
/// component maps each processed line index to its spans.  Span search
/// resolves synchronously, on the handle's own oracle plane.
///
/// With `first_span_only` the search of a line stops at its first span —
/// enough to decide the line, and much cheaper when only verdicts or
/// counts are needed.
pub fn scan_spans<L>(
    re: &SemRegex,
    lines: &[L],
    options: ScanOptions,
    first_span_only: bool,
) -> (ScanReport, Vec<Vec<(usize, usize)>>)
where
    L: AsRef<[u8]> + Sync,
{
    scan_chunks(re, lines, &options, false, |re, line, session, _| {
        let mut spans = line_spans(re, line, session, first_span_only);
        // Spans computed from placeholder answers must not leak: a
        // faulted line degrades (or fails) through the driver's policy,
        // never reports half-decided spans.
        if fault_pending() {
            spans.clear();
        }
        Ok((!spans.is_empty(), spans))
    })
}

/// The non-overlapping leftmost-earliest spans of one line (all of them, or
/// just the first).  The advance rule is shared with `find_iter`.
fn line_spans(
    re: &SemRegex,
    line: &[u8],
    session: &mut BatchSession<'_>,
    first_span_only: bool,
) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = 0;
    while at <= line.len() {
        match re.find_at_in_session(line, at, session) {
            Some(m) => {
                at = m.next_search_start();
                spans.push((m.start(), m.end()));
                if first_span_only {
                    break;
                }
            }
            None => break,
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use semre_oracle::{Instrumented, SimLlmOracle};
    use semre_syntax::parse;
    use semre_workloads::DelayOracle;

    fn lines() -> Vec<String> {
        vec![
            "Subject: cheap viagra now".to_owned(),
            "Subject: weekly report attached".to_owned(),
            "nothing to see here".to_owned(),
            "Subject: more tramadol deals".to_owned(),
        ]
    }

    fn matcher() -> Matcher<Instrumented<SimLlmOracle>> {
        let oracle = Instrumented::new(SimLlmOracle::new());
        Matcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            oracle,
        )
    }

    #[test]
    fn sequential_scan_attributes_oracle_usage() {
        let m = matcher();
        let report = scan(
            &m,
            &lines(),
            || m.oracle().stats(),
            ScanOptions::unlimited(),
        );
        assert_eq!(report.lines(), 4);
        assert_eq!(report.matched_lines(), 2);
        assert!(!report.timed_out);
        // The line without the Subject prefix never consults the oracle.
        assert_eq!(report.records[2].oracle.calls, 0);
        assert!(report.records[0].oracle.calls > 0);
        // The cumulative oracle counter may additionally have seen (q, ε)
        // probes issued while the matcher was built, but nothing else.
        let construction_probes = m.oracle().stats().calls - report.oracle_totals().calls;
        assert!(
            construction_probes <= 1,
            "unexpected extra oracle calls: {construction_probes}"
        );
        assert_eq!(m.algorithm(), "snfa");
    }

    #[test]
    fn max_lines_and_time_budget() {
        let m = matcher();
        let limited = scan(
            &m,
            &lines(),
            OracleStats::default,
            ScanOptions {
                max_lines: Some(2),
                ..ScanOptions::default()
            },
        );
        assert_eq!(limited.lines(), 2);
        assert!(!limited.timed_out);

        let exhausted = scan(
            &m,
            &lines(),
            OracleStats::default,
            ScanOptions::with_time_budget(Duration::ZERO),
        );
        assert_eq!(exhausted.lines(), 0);
        assert!(exhausted.timed_out);
    }

    #[test]
    fn dp_matcher_is_a_line_matcher() {
        let oracle = SimLlmOracle::new();
        let dp = DpMatcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            oracle,
        );
        let report = scan(
            &dp,
            &lines(),
            OracleStats::default,
            ScanOptions::unlimited(),
        );
        assert_eq!(report.matched_lines(), 2);
        assert_eq!(dp.algorithm(), "dp");
    }

    #[test]
    fn empty_input() {
        let m = matcher();
        let report = scan(
            &m,
            &Vec::<String>::new(),
            OracleStats::default,
            ScanOptions::unlimited(),
        );
        assert_eq!(report.lines(), 0);
        let parallel = scan_lines(
            &m,
            &Vec::<String>::new(),
            ScanOptions::unlimited().with_threads(4),
        );
        assert_eq!(parallel.matched_lines(), 0);
        let batched = scan_lines(&m, &Vec::<String>::new(), ScanOptions::batched(16));
        assert_eq!(batched.lines(), 0);
        assert_eq!(batched.batch.batches, 0);
    }

    #[test]
    fn semregex_handles_drive_all_scan_modes() {
        let re = semre::SemRegex::new(
            "Subject: .*(?<Medicine name>: .+).*",
            semre_oracle::SimLlmOracle::new(),
        )
        .unwrap();
        let sequential = scan(
            &re,
            &lines(),
            OracleStats::default,
            ScanOptions::unlimited(),
        );
        assert_eq!(sequential.matched_lines(), 2);
        assert_eq!(LineMatcher::algorithm(&re), "snfa");

        let batched = scan_lines(&re, &lines(), ScanOptions::batched(16));
        let got: Vec<bool> = batched.records.iter().map(|r| r.matched).collect();
        let expected: Vec<bool> = sequential.records.iter().map(|r| r.matched).collect();
        assert_eq!(got, expected);
        assert!(batched.batch.keys_submitted > 0);

        let parallel = scan_lines(&re, &lines(), ScanOptions::unlimited().with_threads(2));
        assert_eq!(parallel.matched_lines(), 2);
    }

    #[test]
    fn batched_scan_agrees_with_sequential_and_dedups_across_lines() {
        let m = matcher();
        let mut corpus = lines();
        // Duplicate the whole corpus: the second half must be answered from
        // the chunk session.
        corpus.extend(lines());

        let sequential = scan(&m, &corpus, || m.oracle().stats(), ScanOptions::unlimited());
        let sequential_calls = sequential.oracle_totals().calls;

        m.oracle().reset();
        let batched = scan_lines(&m, &corpus, ScanOptions::batched(corpus.len()));
        let batched_backend_calls = m.oracle().stats().calls;

        let expected: Vec<bool> = sequential.records.iter().map(|r| r.matched).collect();
        let got: Vec<bool> = batched.records.iter().map(|r| r.matched).collect();
        assert_eq!(got, expected);
        assert!(batched.batch.keys_submitted > 0);
        assert!(
            batched.batch.keys_deduped > 0,
            "duplicated lines must dedup: {:?}",
            batched.batch
        );
        assert_eq!(batched.batch.backend_keys, batched_backend_calls);
        assert!(
            batched_backend_calls < sequential_calls,
            "chunk session should reach the backend less often ({batched_backend_calls} vs {sequential_calls})"
        );
        assert!(batched.batch_dedup_ratio() > 0.0);
    }

    #[test]
    fn overlapped_scans_agree_with_synchronous_and_park_lines() {
        let pattern = "Subject: .*(?<Medicine name>: .+).*";
        let overlapped = semre::SemRegexBuilder::new()
            .overlapped(4)
            .build(pattern, SimLlmOracle::new())
            .unwrap();
        let sync = semre::SemRegex::new(pattern, SimLlmOracle::new()).unwrap();
        let mut corpus = lines();
        corpus.extend(lines());

        for chunk in [1, 3, 64] {
            let expected = scan_lines(&sync, &corpus, ScanOptions::batched(chunk));
            let want: Vec<(usize, bool)> = expected
                .records
                .iter()
                .map(|r| (r.index, r.matched))
                .collect();
            let seq = scan_lines(&overlapped, &corpus, ScanOptions::batched(chunk));
            let got: Vec<(usize, bool)> =
                seq.records.iter().map(|r| (r.index, r.matched)).collect();
            assert_eq!(got, want, "sequential overlapped, chunk={chunk}");
            for threads in [1, 4] {
                let par = scan_lines(
                    &overlapped,
                    &corpus,
                    ScanOptions::batched(chunk).with_threads(threads),
                );
                let got: Vec<(usize, bool)> =
                    par.records.iter().map(|r| (r.index, r.matched)).collect();
                assert_eq!(got, want, "chunk={chunk} threads={threads}");
            }
        }

        let stats = overlapped
            .resolver_pool()
            .expect("overlapped handle has a pool")
            .stats();
        assert!(
            stats.suspends > 0,
            "a cold pool must park oracle-bearing lines: {stats:?}"
        );
        assert_eq!(
            stats.suspends, stats.resumes,
            "every parked line resumed: {stats:?}"
        );
        assert!(stats.backend_keys > 0);
    }

    /// A matcher whose backend takes a millisecond per round trip, long
    /// enough for synchronous sessions to park lines and share flushes.
    fn slow_matcher(pattern: &str) -> Matcher<Instrumented<DelayOracle<SimLlmOracle>>> {
        let backend = DelayOracle::sleeping(
            SimLlmOracle::new(),
            Duration::from_millis(1),
            Duration::ZERO,
        );
        Matcher::new(parse(pattern).unwrap(), Instrumented::new(backend))
    }

    /// On the synchronous plane every line of a chunk parks on its next
    /// missing key and the chunk asks the union in one round trip, so a
    /// chunk costs as many round trips as its deepest line, not the sum
    /// over its lines — with the same keys, answers and verdicts.
    #[test]
    fn synchronous_chunks_take_as_many_round_trips_as_their_deepest_line() {
        let m = slow_matcher("Subject: .*(?<Medicine name>: .+).*");
        let corpus: Vec<String> = [
            "Subject: cheap viagra now",
            "Subject: more tramadol deals today",
            "Subject: weekly report attached",
            "Subject: buy xanax or ambien online",
        ]
        .iter()
        .map(|line| (*line).to_owned())
        .collect();
        let depths: Vec<u64> = corpus
            .iter()
            .map(|line| {
                scan_lines(&m, std::slice::from_ref(line), ScanOptions::batched(1))
                    .batch
                    .batches
            })
            .collect();
        assert!(
            depths.iter().all(|&depth| depth >= 2),
            "each line needs several fresh keys in sequence: {depths:?}"
        );

        let sequential = scan(&m, &corpus, OracleStats::default, ScanOptions::unlimited());
        m.oracle().reset();
        let chunk = scan_lines(&m, &corpus, ScanOptions::batched(corpus.len()));
        let deepest = *depths.iter().max().unwrap();
        assert!(
            chunk.batch.batches <= deepest,
            "{} round trips for per-line depths {depths:?}",
            chunk.batch.batches
        );
        assert_eq!(m.oracle().batches(), chunk.batch.batches);
        assert_eq!(chunk.batch.backend_keys, m.oracle().stats().calls);
        let verdicts = |report: &ScanReport| -> Vec<bool> {
            report.records.iter().map(|r| r.matched).collect()
        };
        assert_eq!(verdicts(&chunk), verdicts(&sequential));
    }

    /// Nested queries enlist their keys in the collect phase, so when a
    /// top-level query closes at the same position and comes first in the
    /// close order, a resumed line asks its key together with the ones it
    /// parked on.  That mixed batch parks again, and the line must still
    /// find the keys it parked on after the next flush.
    #[test]
    fn resumed_lines_keep_their_flushed_keys_across_another_park() {
        let corpus: Vec<String> = [
            "Subject: cheap viagra now",
            "Subject: weekly report attached",
            "Subject: see paris hilton in houston",
        ]
        .iter()
        .map(|line| (*line).to_owned())
        .collect();
        let top = "(?<Medicine name>: [a-z]+)";
        for nested in [
            "(?<Celebrity>: (?<City>: [a-z]+) [a-z]+)",
            "(?<Celebrity>: [a-z]+ (?<City>: [a-z]+))",
        ] {
            for (first, second) in [(top, nested), (nested, top)] {
                let pattern = format!("Subject: (.* )?({first}|{second})( .*)?");
                let m = slow_matcher(&pattern);
                let sequential = scan(&m, &corpus, OracleStats::default, ScanOptions::unlimited());
                m.oracle().reset();
                let chunk = scan_lines(&m, &corpus, ScanOptions::batched(corpus.len()));
                let verdicts = |report: &ScanReport| -> Vec<bool> {
                    report.records.iter().map(|r| r.matched).collect()
                };
                assert_eq!(verdicts(&chunk), verdicts(&sequential), "{pattern}");
                assert_eq!(verdicts(&chunk)[..2], [true, false], "{pattern}");
                // Every key reaches the backend once.
                assert_eq!(
                    chunk.batch.backend_keys,
                    m.oracle().stats().calls,
                    "{pattern}"
                );
            }
        }
    }

    #[test]
    fn dp_matcher_supports_batched_scans() {
        let oracle = SimLlmOracle::new();
        let dp = DpMatcher::new(
            parse("Subject: .*(?<Medicine name>: .+).*").unwrap(),
            oracle,
        );
        let report = scan_lines(&dp, &lines(), ScanOptions::batched(16));
        assert_eq!(report.matched_lines(), 2);
        assert!(report.batch.keys_submitted > 0);
    }

    /// The scan modes of the driver table.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        PerCall,
        Batched,
        Spans,
        SpansFirstOnly,
    }

    type Spans = Vec<Vec<(usize, usize)>>;

    /// Runs one table row: the report plus each processed line's spans
    /// (empty for membership modes).
    fn run_mode(
        re: &SemRegex,
        corpus: &[String],
        mode: Mode,
        options: ScanOptions,
    ) -> (ScanReport, Spans) {
        match mode {
            Mode::PerCall => (scan_lines(re, corpus, options), Vec::new()),
            Mode::Batched => (
                scan_lines(
                    re,
                    corpus,
                    ScanOptions {
                        batched: true,
                        ..options
                    },
                ),
                Vec::new(),
            ),
            Mode::Spans => scan_spans(re, corpus, options, false),
            Mode::SpansFirstOnly => scan_spans(re, corpus, options, true),
        }
    }

    /// Every mode × threads × chunk × limit of the one driver must give
    /// the `(index, matched)` records, spans and limit flags of the
    /// sequential per-call [`scan`] (spans: of `find_iter`, line by line),
    /// on a synchronous and on an overlapped handle.
    #[test]
    fn driver_table_agrees_with_sequential_per_call_scan() {
        let pattern = r"(?<Medicine name>: [a-z]+)";
        let sync = SemRegex::new(pattern, SimLlmOracle::new()).unwrap();
        let overlapped = semre::SemRegexBuilder::new()
            .overlapped(4)
            .build(pattern, SimLlmOracle::new())
            .unwrap();
        let mut corpus: Vec<String> = [
            "viagra",
            "take tramadol or ambien daily",
            "nothing here",
            "viagra viagra viagra",
            "tramadol",
            "weekly report",
        ]
        .iter()
        .map(|line| (*line).to_owned())
        .collect();
        // Repeated lines give the chunk sessions something to dedupe.
        corpus.extend(corpus.clone());
        let limits = [
            ("unlimited", ScanOptions::unlimited()),
            (
                "max_lines=2",
                ScanOptions {
                    max_lines: Some(2),
                    ..ScanOptions::default()
                },
            ),
            ("zero budget", ScanOptions::with_time_budget(Duration::ZERO)),
        ];
        let modes = [
            Mode::PerCall,
            Mode::Batched,
            Mode::Spans,
            Mode::SpansFirstOnly,
        ];

        for (handle, re) in [("sync", &sync), ("overlapped", &overlapped)] {
            for (limit, base) in &limits {
                let reference = scan(re, &corpus, OracleStats::default, base.clone());
                let membership: Vec<(usize, bool)> = reference
                    .records
                    .iter()
                    .map(|r| (r.index, r.matched))
                    .collect();
                for mode in modes {
                    let want_spans: Spans = reference
                        .records
                        .iter()
                        .map(|r| {
                            let all = sync.find_iter(corpus[r.index].as_bytes());
                            let all = all.map(|m| (m.start(), m.end()));
                            if mode == Mode::SpansFirstOnly {
                                all.take(1).collect()
                            } else {
                                all.collect()
                            }
                        })
                        .collect();
                    let want: Vec<(usize, bool)> = match mode {
                        Mode::PerCall | Mode::Batched => membership.clone(),
                        Mode::Spans | Mode::SpansFirstOnly => membership
                            .iter()
                            .zip(&want_spans)
                            .map(|(&(index, _), spans)| (index, !spans.is_empty()))
                            .collect(),
                    };
                    let mut submitted_by_chunk = Vec::new();
                    for chunk in [1, 3, 64] {
                        let mut sequential_batch = None;
                        for threads in [1, 2, 8] {
                            let case = format!(
                                "{handle} {mode:?} {limit} chunk={chunk} threads={threads}"
                            );
                            let options = ScanOptions {
                                chunk_lines: chunk,
                                threads,
                                ..base.clone()
                            };
                            let (report, spans) = run_mode(re, &corpus, mode, options);
                            let got: Vec<(usize, bool)> = report
                                .records
                                .iter()
                                .map(|r| (r.index, r.matched))
                                .collect();
                            assert_eq!(got, want, "{case}");
                            assert_eq!(report.timed_out, reference.timed_out, "{case}");
                            if matches!(mode, Mode::Spans | Mode::SpansFirstOnly) {
                                let got_spans: Spans =
                                    got.iter().map(|&(index, _)| spans[index].clone()).collect();
                                assert_eq!(got_spans, want_spans, "{case}");
                            }
                            if mode == Mode::PerCall {
                                assert_eq!(report.batch.keys_submitted, 0, "{case}");
                            }
                            // Same chunk boundaries → same session-level
                            // dedup totals, for any thread count (the
                            // overlapped pool's store outlives one scan,
                            // so only the synchronous handle is exact).
                            if mode == Mode::Batched && handle == "sync" {
                                let batch =
                                    (report.batch.keys_submitted, report.batch.keys_deduped);
                                assert_eq!(*sequential_batch.get_or_insert(batch), batch, "{case}");
                            }
                        }
                        if mode == Mode::Batched && handle == "sync" && *limit == "unlimited" {
                            submitted_by_chunk
                                .extend(sequential_batch.map(|(submitted, _)| submitted));
                        }
                    }
                    // A session per line cannot dedupe across lines.
                    if let [per_line, .., whole] = submitted_by_chunk[..] {
                        assert!(per_line >= whole, "{handle}: {submitted_by_chunk:?}");
                    }
                }
            }
        }
    }
}
