//! The overlapped oracle resolution plane: a background resolver pool.
//!
//! The synchronous batch plane ([`BatchSession`](crate::BatchSession))
//! blocks the scan on every backend round trip — acceptable for in-memory
//! oracles, ruinous for the paper's real backends (LLMs, Whois, geo
//! databases) whose per-batch latency dwarfs the text-side work by orders
//! of magnitude.  This module hides that latency:
//!
//! * a [`ResolverPool`] owns a small team of worker threads (std threads +
//!   mutex/condvar, zero external deps) that drain a queue of *certain*
//!   questions — questions the evaluator provably needs, enlisted through
//!   the usual `QueryLedger` seam — and resolve them through
//!   [`Oracle::resolve_batch`] in the background;
//! * answers are published into the pool's own instance of the crate's
//!   sharded, lock-striped single-flight store (16 stripes, the store
//!   type behind [`SharedSession`](crate::SharedSession)), where any
//!   number of scan threads can probe them without serializing;
//! * submissions **coalesce** through that store: a submitter queues a
//!   key only if it claims it, so a key already answered, already queued,
//!   already in flight or already failed is never queued twice, and
//!   identical questions from different lines, chunks, or files of a scan
//!   cost one backend key;
//! * a bounded **in-flight window** applies backpressure — submitters
//!   block while the queue plus in-flight keys exceed the window, keeping
//!   memory and backend pressure proportional to the window, not the
//!   corpus;
//! * a **completion generation** counter (bumped after every published
//!   batch) lets scan drivers park a suspended line and
//!   [`wait_for_progress`](ResolverPool::wait_for_progress) instead of
//!   spinning.
//!
//! The pool also implements [`Oracle`] itself (blocking: submit, then wait
//! for the answer), so it can stand wherever a synchronous backend does —
//! the DP baseline and the per-call plane keep working unchanged.
//!
//! Correctness leans on Assumption 2.4 of the paper (oracle determinism):
//! each key is asked once and its published answer never changes, so
//! resuming a suspended line against published answers can never change
//! its verdict.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::batch::{Entry, ShardedAnswerStore, ANSWER_STORE_SHARDS};
use crate::error::{record_fault, take_fault, OracleError};
use crate::{Oracle, QueryKey};

/// Default bound on queued-plus-in-flight keys when the caller does not
/// choose one (see [`ResolverPool::new`]).
pub const DEFAULT_IN_FLIGHT_WINDOW: usize = 512;

/// How long a [`wait_for_progress`](ResolverPool::wait_for_progress) call
/// sleeps before defensively re-checking the store even without a
/// completion signal (lost-wakeup insurance, not the normal path).
const PROGRESS_POLL: Duration = Duration::from_millis(20);

/// Counters of the resolver plane, for `--stats` and the benchmarks.
///
/// All counters are cumulative since the pool was created and aggregate
/// across every submitting thread — a multi-file scan reports them **once
/// per run**, not once per worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Keys handed to [`ResolverPool::submit`].
    pub submitted: u64,
    /// Submitted keys that were *not* queued because they were already
    /// answered, already queued, or already in flight (cross-line,
    /// cross-chunk, and cross-file coalescing).
    pub coalesced: u64,
    /// Backend round trips issued by the workers.
    pub batches: u64,
    /// Keys that reached the backend.
    pub backend_keys: u64,
    /// High-water mark of queued-plus-in-flight keys.
    pub in_flight_high_water: u64,
    /// Line evaluations suspended on pending answers (reported by the
    /// scan driver through [`ResolverPool::note_suspend`]).
    pub suspends: u64,
    /// Suspended line evaluations that later completed (reported through
    /// [`ResolverPool::note_resume`]).
    pub resumes: u64,
    /// Lock-stripe contention events in the sharded answer store.
    pub store_contended: u64,
    /// Backend round trips that failed (panicked or reported an
    /// [`OracleError`]) and completed as per-batch failures.
    pub failed_batches: u64,
    /// Keys whose answers were lost to a failed batch (sticky: they
    /// complete with a recorded fault, never silently).
    pub failed_keys: u64,
    /// Resolver workers that died to an unexpected panic outside the
    /// guarded backend call (should stay 0; a nonzero value means the
    /// pool is running degraded).
    pub dead_workers: u64,
}

/// The submission queue, guarded by one mutex (held only for queue
/// bookkeeping — never across a backend call).
#[derive(Default)]
struct Queue {
    /// Keys waiting for a worker, in submission order.  Each was claimed
    /// in the store by its submitter and stays in flight there until a
    /// worker publishes or fails it.
    pending: Vec<(String, Vec<u8>)>,
    /// Keys currently inside a worker's backend round trip.
    in_flight: usize,
    /// Set on shutdown; workers exit once the queue drains.
    closed: bool,
    /// The first failure's error, kept as the pool's root cause.  Failed
    /// keys are sticky for the pool's lifetime: the store keeps them
    /// [`Entry::Failed`], [`ResolverPool::lookup`] answers them with a
    /// placeholder plus this error, and resubmissions coalesce away
    /// instead of retrying (the retry policy lives *below* the pool, in
    /// [`RetryOracle`](crate::RetryOracle)).
    error: Option<OracleError>,
    /// Completion generation: bumped once per completed batch.
    generation: u64,
    /// The pool's counters, all updated under this lock
    /// (`store_contended` is read from the store on snapshot).
    stats: ResolverStats,
}

/// Locks the queue, recovering the guard if a worker died while holding
/// it — the queue is plain bookkeeping, safe to read after any panic,
/// and a poisoned lock must degrade to a reported fault, not a cascade
/// of caller panics.
fn lock_queue(shared: &PoolShared) -> MutexGuard<'_, Queue> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

struct PoolShared {
    oracle: Arc<dyn Oracle>,
    store: ShardedAnswerStore,
    queue: Mutex<Queue>,
    /// Signals workers that `pending` is non-empty (or the pool closed).
    work_ready: Condvar,
    /// Signals submitters that the in-flight window may have room again.
    window_open: Condvar,
    /// Signals waiters that the completion generation moved.
    progressed: Condvar,
    threads: usize,
    in_flight_window: usize,
}

/// A background pool of oracle-resolver threads with a sharded answer
/// store (see the `overlap` module docs for the full picture).
///
/// # Examples
///
/// Submit now, collect later:
///
/// ```
/// use std::sync::Arc;
/// use semre_oracle::{PredicateOracle, QueryKey, ResolverPool};
///
/// let backend = Arc::new(PredicateOracle::new(|_, t: &[u8]| t.len() % 2 == 0));
/// let pool = ResolverPool::new(backend, 2, 64);
/// let key = QueryKey::new("q", b"ab");
/// let generation = pool.generation();
/// pool.submit(std::slice::from_ref(&key));
/// let mut seen = generation;
/// let answer = loop {
///     if let Some(answer) = pool.lookup(&key) {
///         break answer;
///     }
///     seen = pool.wait_for_progress(seen);
/// };
/// assert!(answer);
/// ```
pub struct ResolverPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ResolverPool {
    /// Spawns `threads` resolver workers (at least one) over `oracle`,
    /// with at most `in_flight` keys queued or in flight at once (`0`
    /// means [`DEFAULT_IN_FLIGHT_WINDOW`]).
    pub fn new(oracle: Arc<dyn Oracle>, threads: usize, in_flight: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            oracle,
            store: ShardedAnswerStore::default(),
            queue: Mutex::new(Queue::default()),
            work_ready: Condvar::new(),
            window_open: Condvar::new(),
            progressed: Condvar::new(),
            threads,
            in_flight_window: if in_flight == 0 {
                DEFAULT_IN_FLIGHT_WINDOW
            } else {
                in_flight
            },
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    // Last line of defense: the backend call inside
                    // `worker` is individually guarded, so this only
                    // trips on a bug in the pool's own bookkeeping —
                    // but even then the pool must degrade to reported
                    // faults, never wedge waiters or poison `join`.
                    if catch_unwind(AssertUnwindSafe(|| worker(&shared))).is_err() {
                        worker_died(&shared);
                    }
                })
            })
            .collect();
        ResolverPool { shared, workers }
    }

    /// Number of resolver worker threads.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// The bound on queued-plus-in-flight keys.
    pub fn in_flight_window(&self) -> usize {
        self.shared.in_flight_window
    }

    /// A published answer for `key`, if the pool has resolved it (now or
    /// at any earlier point of the run — answers are never evicted).
    ///
    /// A key lost to a failed batch also *completes* here — with a
    /// placeholder `false` and the batch's error recorded in the calling
    /// thread's fault sink — so waiters observe the failure instead of
    /// spinning forever on an answer that will never be published.
    pub fn lookup(&self, key: &QueryKey<'_>) -> Option<bool> {
        match self.shared.store.get(key)? {
            Entry::Answered(answer) => Some(answer),
            Entry::InFlight => None,
            Entry::Failed => {
                let error = self.fault();
                record_fault(error.unwrap_or_else(|| OracleError::fatal("resolver batch failed")));
                Some(false)
            }
        }
    }

    /// Number of distinct `(query, text)` answers published so far.
    pub fn store_len(&self) -> usize {
        self.shared.store.len()
    }

    /// Queues `keys` for background resolution.  Keys this call cannot
    /// claim in the store (already answered, queued, in flight or failed)
    /// are coalesced away; the rest are enqueued in order.  Blocks while
    /// the in-flight window is full (backpressure), never while a backend
    /// call is running.
    pub fn submit(&self, keys: &[QueryKey<'_>]) {
        if keys.is_empty() {
            return;
        }
        let shared = &*self.shared;
        let mut queued = 0usize;
        let mut queue = lock_queue(shared);
        queue.stats.submitted += keys.len() as u64;
        for key in keys {
            if shared.store.claim(key).is_some() {
                queue.stats.coalesced += 1;
                continue;
            }
            while !queue.closed && queue.pending.len() + queue.in_flight >= shared.in_flight_window
            {
                // Window full: wake the workers (in case this submitter
                // raced ahead of them) and wait for room.
                shared.work_ready.notify_all();
                queue = shared
                    .window_open
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            queue
                .pending
                .push((key.query.to_owned(), key.text.to_vec()));
            queued += 1;
            let depth = (queue.pending.len() + queue.in_flight) as u64;
            queue.stats.in_flight_high_water = queue.stats.in_flight_high_water.max(depth);
        }
        drop(queue);
        if queued > 0 {
            shared.work_ready.notify_all();
        }
    }

    /// The current completion generation; bumped once per completed
    /// batch, successful or failed.
    pub fn generation(&self) -> u64 {
        lock_queue(&self.shared).generation
    }

    /// The first backend failure this pool has seen, if any.  Failures
    /// are sticky: once a batch fails its keys stay failed for the
    /// pool's lifetime (see [`lookup`](ResolverPool::lookup)).
    pub fn fault(&self) -> Option<OracleError> {
        lock_queue(&self.shared).error.clone()
    }

    /// Blocks until the completion generation moves past `seen` (i.e. at
    /// least one batch of answers was published since the caller observed
    /// `seen`), and returns the new generation.  Returns immediately when
    /// progress already happened; wakes defensively every few
    /// milliseconds so a lost wakeup degrades to polling, never to a
    /// hang.
    pub fn wait_for_progress(&self, seen: u64) -> u64 {
        let mut queue = lock_queue(&self.shared);
        while queue.generation == seen {
            let (guard, timeout) = self
                .shared
                .progressed
                .wait_timeout(queue, PROGRESS_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
            if timeout.timed_out() {
                break;
            }
        }
        queue.generation
    }

    /// Records that a line evaluation suspended on pending answers
    /// (called by the scan driver; counted once per suspension event).
    pub fn note_suspend(&self) {
        lock_queue(&self.shared).stats.suspends += 1;
    }

    /// Records that a previously suspended line evaluation completed.
    pub fn note_resume(&self) {
        lock_queue(&self.shared).stats.resumes += 1;
    }

    /// Number of lock stripes in the answer store.
    pub fn shards(&self) -> usize {
        ANSWER_STORE_SHARDS
    }

    /// A snapshot of the resolver-plane counters.
    pub fn stats(&self) -> ResolverStats {
        ResolverStats {
            store_contended: self.shared.store.contended(),
            ..lock_queue(&self.shared).stats
        }
    }
}

impl std::fmt::Debug for ResolverPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolverPool")
            .field("backend", &self.shared.oracle.describe())
            .field("threads", &self.shared.threads)
            .field("in_flight_window", &self.shared.in_flight_window)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for ResolverPool {
    fn drop(&mut self) {
        {
            let mut queue = lock_queue(&self.shared);
            queue.closed = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.window_open.notify_all();
        for worker in self.workers.drain(..) {
            // A dead worker is an error already reported through the
            // fault plane (dead_workers + the queue's sticky error) —
            // never a reason to panic whoever drops the pool.
            if worker.join().is_err() {
                lock_queue(&self.shared).stats.dead_workers += 1;
            }
        }
    }
}

/// Blocking [`Oracle`] facade over the pool: a question not yet published
/// is submitted and awaited, so the pool can stand wherever a synchronous
/// backend does (the per-call plane, the DP baseline).
impl Oracle for ResolverPool {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.resolve_batch(&[QueryKey::new(query, text)])[0]
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        let answered = || batch.iter().map(|key| self.lookup(key)).collect();
        // Snapshot *before* submitting so a completion racing ahead of
        // the first wait is never missed.
        let mut seen = self.generation();
        if let Some(answers) = answered() {
            return answers;
        }
        self.submit(batch);
        loop {
            if let Some(answers) = answered() {
                return answers;
            }
            seen = self.wait_for_progress(seen);
        }
    }

    fn describe(&self) -> String {
        format!(
            "resolver-pool({} threads, window {}, {})",
            self.shared.threads,
            self.shared.in_flight_window,
            self.shared.oracle.describe()
        )
    }
}

/// One resolver worker: claim a fair share of the pending queue, resolve
/// it in one backend round trip, publish (or fail the batch), signal.
fn worker(shared: &PoolShared) {
    loop {
        let batch: Vec<(String, Vec<u8>)> = {
            let mut queue = lock_queue(shared);
            loop {
                if !queue.pending.is_empty() {
                    break;
                }
                if queue.closed {
                    return;
                }
                queue = shared
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            // Claim at most a 1/threads share so concurrent workers split
            // a burst instead of one worker serializing it.
            let take = queue.pending.len().div_ceil(shared.threads).max(1);
            let batch: Vec<(String, Vec<u8>)> = queue.pending.drain(..take).collect();
            queue.in_flight += batch.len();
            batch
        };

        let keys: Vec<QueryKey<'_>> = batch
            .iter()
            .map(|(query, text)| QueryKey::new(query, text))
            .collect();
        // The backend call is the untrusted part: catch its panics, and
        // collect any fault a retry adapter recorded on this worker
        // thread — placeholder answers must fail the batch, not publish.
        let outcome = catch_unwind(AssertUnwindSafe(|| shared.oracle.resolve_batch(&keys)));
        let failure = match outcome {
            Ok(answers) => match take_fault() {
                Some(error) => Some(error),
                None => {
                    for (key, &answer) in keys.iter().zip(&answers) {
                        shared.store.publish(key, answer);
                    }
                    None
                }
            },
            Err(panic) => {
                take_fault();
                Some(OracleError::fatal(format!(
                    "resolver worker panicked: {}",
                    panic_message(panic.as_ref())
                )))
            }
        };

        {
            let mut queue = lock_queue(shared);
            queue.in_flight = queue.in_flight.saturating_sub(batch.len());
            queue.stats.batches += 1;
            queue.stats.backend_keys += batch.len() as u64;
            if let Some(error) = failure {
                // Under the queue lock, so a lookup that sees a failed
                // key also sees the pool's error.
                queue.error.get_or_insert(error);
                for key in &keys {
                    shared.store.fail(key);
                }
                queue.stats.failed_batches += 1;
                queue.stats.failed_keys += batch.len() as u64;
            }
            queue.generation += 1;
        }
        shared.window_open.notify_all();
        shared.progressed.notify_all();
    }
}

/// Recovery when a worker dies outside the guarded backend call: every
/// key it might have owned — every in-flight key, queued or claimed —
/// fails, so no waiter blocks on an answer that will never come.
fn worker_died(shared: &PoolShared) {
    {
        let mut queue = lock_queue(shared);
        queue.stats.dead_workers += 1;
        queue.pending.clear();
        queue.in_flight = 0;
        queue
            .error
            .get_or_insert_with(|| OracleError::fatal("resolver worker died unexpectedly"));
        shared.store.fail_in_flight();
        queue.generation += 1;
    }
    shared.window_open.notify_all();
    shared.work_ready.notify_all();
    shared.progressed.notify_all();
}

/// Best-effort text of a panic payload for diagnostics.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::PredicateOracle;
    use crate::wrappers::Instrumented;

    fn keys<'a>(pairs: &'a [(&'a str, &'a [u8])]) -> Vec<QueryKey<'a>> {
        pairs.iter().map(|&(q, t)| QueryKey::new(q, t)).collect()
    }

    #[test]
    fn pool_resolves_submissions_in_the_background() {
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            t.starts_with(b"a")
        })));
        let pool = ResolverPool::new(backend.clone(), 2, 0);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.in_flight_window(), DEFAULT_IN_FLIGHT_WINDOW);
        assert_eq!(pool.shards(), 16);

        let batch = keys(&[("q", b"ab"), ("q", b"cd")]);
        let mut seen = pool.generation();
        pool.submit(&batch);
        loop {
            if batch.iter().all(|key| pool.lookup(key).is_some()) {
                break;
            }
            seen = pool.wait_for_progress(seen);
        }
        assert_eq!(pool.lookup(&batch[0]), Some(true));
        assert_eq!(pool.lookup(&batch[1]), Some(false));
        assert_eq!(pool.store_len(), 2);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.backend_keys, 2);
        assert!(stats.batches >= 1);
        assert!(stats.in_flight_high_water >= 1);
    }

    #[test]
    fn resubmissions_coalesce_instead_of_requeueing() {
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            t.len() % 2 == 0
        })));
        let pool = ResolverPool::new(backend.clone(), 1, 0);
        let batch = keys(&[("q", b"ab")]);
        // Resolve once through the blocking facade, then resubmit.
        assert_eq!(Oracle::resolve_batch(&pool, &batch), vec![true]);
        pool.submit(&batch);
        pool.submit(&batch);
        let stats = pool.stats();
        assert_eq!(stats.coalesced, 2, "answered keys never requeue");
        assert_eq!(backend.stats().calls, 1);
    }

    #[test]
    fn blocking_oracle_facade_agrees_with_the_backend() {
        let backend = Arc::new(PredicateOracle::new(|q: &str, t: &[u8]| {
            q == "even" && t.len() % 2 == 0
        }));
        let pool = ResolverPool::new(backend, 3, 4);
        assert!(pool.holds("even", b"ab"));
        assert!(!pool.holds("even", b"abc"));
        assert!(!pool.holds("odd", b"ab"));
        let batch = keys(&[("even", b"xyzw"), ("even", b"x"), ("odd", b"")]);
        assert_eq!(
            Oracle::resolve_batch(&pool, &batch),
            vec![true, false, false]
        );
        assert!(pool.describe().contains("resolver-pool"));
    }

    #[test]
    fn many_threads_submit_concurrently_under_a_tiny_window() {
        // A 2-key window forces constant backpressure; every answer must
        // still arrive, and no submission may deadlock.
        let backend = Arc::new(PredicateOracle::new(|_, t: &[u8]| t.first() == Some(&b'y')));
        let pool = ResolverPool::new(backend, 2, 2);
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..32u32 {
                        let text =
                            format!("{}{}-{}", if i % 2 == 0 { "y" } else { "n" }, worker, i);
                        assert_eq!(pool.holds("q", text.as_bytes()), i % 2 == 0);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.backend_keys, 128, "every distinct key resolved once");
        assert!(stats.in_flight_high_water <= 2 + 1, "window respected");
    }

    #[test]
    fn panicking_backend_fails_the_batch_instead_of_wedging_the_pool() {
        let backend = Arc::new(PredicateOracle::new(|_, t: &[u8]| {
            assert!(t != b"boom", "injected backend panic");
            t.starts_with(b"a")
        }));
        let pool = ResolverPool::new(backend, 1, 0);

        crate::error::clear_fault();
        // The doomed key completes (placeholder false) with a fault.
        assert!(!pool.holds("q", b"boom"));
        let fault = crate::error::take_fault().expect("panic surfaces as a fault");
        assert!(fault.message.contains("resolver worker panicked"));
        let stats = pool.stats();
        assert_eq!(stats.failed_batches, 1);
        assert_eq!(stats.failed_keys, 1);
        assert_eq!(stats.dead_workers, 0, "worker survives its batch panic");
        assert!(pool.fault().is_some());

        // The pool keeps serving healthy keys afterwards.
        assert!(pool.holds("q", b"ab"));
        assert!(!pool.holds("q", b"xy"));
        assert!(crate::error::take_fault().is_none());

        // Failed keys are sticky: a resubmission coalesces away and the
        // lookup keeps reporting the fault.
        let doomed = QueryKey::new("q", b"boom");
        let before = pool.stats().coalesced;
        pool.submit(std::slice::from_ref(&doomed));
        assert_eq!(pool.stats().coalesced, before + 1);
        assert_eq!(pool.lookup(&doomed), Some(false));
        assert!(crate::error::take_fault().is_some());
        // Dropping the pool must not panic (the old join().expect did).
    }

    #[test]
    fn retry_adapter_faults_fail_the_batch_through_the_worker_sink() {
        use crate::error::{OracleError, TryOracle};
        use crate::retry::{RetryOracle, RetryPolicy};

        /// Fails every call for one specific text, transiently.
        struct FailText;
        impl TryOracle for FailText {
            fn try_holds(&self, _query: &str, text: &[u8]) -> Result<bool, OracleError> {
                if text == b"down" {
                    Err(OracleError::transient("backend down"))
                } else {
                    Ok(text.len() % 2 == 0)
                }
            }
        }

        let backend = Arc::new(RetryOracle::with_policy(FailText, RetryPolicy::attempts(2)));
        let pool = ResolverPool::new(backend, 2, 0);
        crate::error::clear_fault();
        assert!(!pool.holds("q", b"down"), "placeholder, not a hang");
        let fault = crate::error::take_fault().expect("retry exhaustion surfaces");
        assert_eq!(fault.kind, crate::OracleErrorKind::Transient);
        assert!(pool.stats().failed_batches >= 1);
        // Healthy keys resolve normally through the same pool.
        assert!(pool.holds("q", b"ab"));
        assert!(crate::error::take_fault().is_none());
    }

    #[test]
    fn suspend_resume_counters_are_caller_driven() {
        let backend = Arc::new(PredicateOracle::new(|_, _: &[u8]| true));
        let pool = ResolverPool::new(backend, 1, 0);
        pool.note_suspend();
        pool.note_suspend();
        pool.note_resume();
        let stats = pool.stats();
        assert_eq!((stats.suspends, stats.resumes), (2, 1));
        assert!(format!("{pool:?}").contains("ResolverPool"));
    }
}
