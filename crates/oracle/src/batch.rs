//! The batched, deduplicating oracle query plane.
//!
//! The paper's algorithm bounds *how many* oracle queries are issued; this
//! module bounds *how they travel*.  Real backends (LLMs, Whois snapshots,
//! geo databases) amortize dramatically when questions are shipped in
//! batches, and the query-graph evaluator naturally produces bursts of
//! `(query, substring)` questions per input position.  Three pieces make up
//! the plane:
//!
//! * [`QueryKey`] — one pending question, a `(query, text)` pair borrowed
//!   from the caller;
//! * [`BatchOracle`] — the batched entry point (`resolve(&[QueryKey]) ->
//!   Vec<bool>`), with a blanket adapter so every existing [`Oracle`] keeps
//!   working (the adapter routes through [`Oracle::resolve_batch`], which
//!   wrappers such as `Instrumented` and [`SharedSession`] override with
//!   batch-aware behaviour);
//! * [`QueryLedger`] — a position-keyed, deduplicating accumulator used by
//!   the evaluator: keys are enlisted as the frontier advances, duplicates
//!   across gadget copies collapse onto one slot, and a flush resolves all
//!   outstanding slots in one round trip;
//! * [`BatchSession`] — a content-keyed answer store shared across many
//!   membership tests (e.g. all lines of a grep chunk), so identical
//!   `(query, text)` questions from different lines reach the backend once;
//! * [`SharedSession`] — the thread-safe, single-flight memo over a
//!   backend (and optionally an answer log), shared by every thread and
//!   file of a run.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use crate::error::{record_fault, take_fault, OracleError};
use crate::overlap::ResolverPool;
use crate::stats::BatchStats;
use crate::Oracle;

/// A single pending oracle question: does `text` belong to the semantic
/// category named by `query`?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryKey<'a> {
    /// The query name, e.g. `"Medicine name"`.
    pub query: &'a str,
    /// The substring being judged.
    pub text: &'a [u8],
}

impl<'a> QueryKey<'a> {
    /// Convenience constructor.
    pub fn new(query: &'a str, text: &'a [u8]) -> Self {
        QueryKey { query, text }
    }
}

/// A backend that answers many oracle questions in one round trip.
///
/// Every [`Oracle`] is a `BatchOracle` through a blanket adapter that calls
/// [`Oracle::resolve_batch`] (point-wise by default, overridden by
/// `Instrumented` and [`SharedSession`]), so the batched plane can be
/// threaded through existing code without touching any backend.
pub trait BatchOracle: Send + Sync {
    /// Answers `batch[i]` in `result[i]`, for every `i`.
    fn resolve(&self, batch: &[QueryKey<'_>]) -> Vec<bool>;
}

impl<O: Oracle + ?Sized> BatchOracle for O {
    fn resolve(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        self.resolve_batch(batch)
    }
}

/// Index of a key within a [`QueryLedger`], returned by
/// [`QueryLedger::enlist`] and accepted by [`QueryLedger::answer`].
pub type LedgerSlot = usize;

/// A deduplicating accumulator of oracle questions.
///
/// The evaluator enlists keys as it discovers oracle-dependent frontier
/// transitions; keys equal to an already-enlisted one collapse onto the
/// same slot (`keys_deduped`), so gadget copies that delimit the same
/// substring cost one backend question.  A [`flush`](QueryLedger::flush)
/// materializes and resolves every outstanding slot in one batch.
///
/// The key type is generic so callers can choose the cheapest faithful
/// identity — the evaluator uses `(query id, start, end)` triples, exactly
/// the `(q, i, j)` vertices of the paper's query graph.
#[derive(Clone, Debug)]
pub struct QueryLedger<K> {
    slots: HashMap<K, LedgerSlot>,
    keys: Vec<K>,
    answers: Vec<Option<bool>>,
    resolved: usize,
    /// Distinct keys dropped by [`forget`](QueryLedger::forget).
    forgotten: u64,
    stats: BatchStats,
}

impl<K: Eq + Hash + Clone> QueryLedger<K> {
    /// An empty ledger.
    pub fn new() -> Self {
        QueryLedger {
            slots: HashMap::new(),
            keys: Vec::new(),
            answers: Vec::new(),
            resolved: 0,
            forgotten: 0,
            stats: BatchStats::default(),
        }
    }

    /// Records that `key` is needed, deduplicating against every key seen
    /// so far, and returns its slot.
    pub fn enlist(&mut self, key: K) -> LedgerSlot {
        self.stats.keys_submitted += 1;
        if let Some(&slot) = self.slots.get(&key) {
            self.stats.keys_deduped += 1;
            return slot;
        }
        let slot = self.keys.len();
        self.slots.insert(key.clone(), slot);
        self.keys.push(key);
        self.answers.push(None);
        slot
    }

    /// The answer for `slot`, if it has been resolved by a flush.
    pub fn answer(&self, slot: LedgerSlot) -> Option<bool> {
        self.answers[slot]
    }

    /// Number of enlisted keys not yet resolved.
    pub fn pending(&self) -> usize {
        self.keys.len() - self.resolved
    }

    /// Number of distinct keys enlisted so far.
    pub fn unique_keys(&self) -> u64 {
        self.forgotten + self.keys.len() as u64
    }

    /// Drops every key with its slot and answer, keeping the counters, so
    /// the ledger holds only what its caller can still enlist again.  The
    /// evaluator forgets between positions: a key names its close
    /// position, so no later position enlists a key an earlier one did,
    /// and a line's ledger stays as small as one position's questions.
    /// Slots handed out before are invalid afterwards.
    pub fn forget(&mut self) {
        debug_assert_eq!(self.pending(), 0, "forgetting unresolved keys");
        self.forgotten += self.keys.len() as u64;
        self.slots.clear();
        self.keys.clear();
        self.answers.clear();
        self.resolved = 0;
    }

    /// Batch-plane counters accumulated by this ledger.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Resolves every pending slot in one batch: `materialize` turns each
    /// key into the `(query, text)` question and `resolver` answers the
    /// whole batch (typically [`BatchSession::resolve`] or
    /// [`BatchOracle::resolve`]).
    ///
    /// Does nothing when no key is pending.
    ///
    /// # Panics
    ///
    /// Panics if the resolver returns a wrong-sized answer vector.
    pub fn flush<'k, F, R>(&mut self, materialize: F, resolver: R)
    where
        F: FnMut(&K) -> QueryKey<'k>,
        R: FnOnce(&[QueryKey<'k>]) -> Vec<bool>,
    {
        let flushed = self.try_flush(materialize, |batch| Some(resolver(batch)));
        debug_assert!(flushed, "an infallible resolver always flushes");
    }

    /// The fallible flavour of [`flush`](QueryLedger::flush), for resolvers
    /// that may not have every answer yet (the overlapped resolver plane).
    ///
    /// Returns `true` when every pending slot was resolved.  When the
    /// resolver returns `None` the pending slots stay pending, no counter
    /// moves, and the caller is expected to retry after the answers it
    /// needs have been published.
    ///
    /// # Panics
    ///
    /// Panics if the resolver returns a wrong-sized answer vector.
    pub fn try_flush<'k, F, R>(&mut self, mut materialize: F, resolver: R) -> bool
    where
        F: FnMut(&K) -> QueryKey<'k>,
        R: FnOnce(&[QueryKey<'k>]) -> Option<Vec<bool>>,
    {
        if self.resolved == self.keys.len() {
            return true;
        }
        let batch: Vec<QueryKey<'k>> = self.keys[self.resolved..]
            .iter()
            .map(&mut materialize)
            .collect();
        let Some(answers) = resolver(&batch) else {
            return false;
        };
        assert_eq!(
            answers.len(),
            batch.len(),
            "batch resolver returned a wrong-sized answer vector"
        );
        for (offset, answer) in answers.into_iter().enumerate() {
            self.answers[self.resolved + offset] = Some(answer);
        }
        self.resolved = self.keys.len();
        self.stats.batches += 1;
        self.stats.backend_keys += batch.len() as u64;
        true
    }
}

impl<K: Eq + Hash + Clone> Default for QueryLedger<K> {
    fn default() -> Self {
        QueryLedger::new()
    }
}

/// A `query → text → value` store with allocation-free lookups: answers
/// (`bool`) in a [`BatchSession`], [`Entry`]s in each stripe of a
/// [`ShardedAnswerStore`].
///
/// The nested shape lets hits probe with borrowed `&str` / `&[u8]` keys;
/// owned keys are built only when a miss is inserted.
#[derive(Debug)]
pub(crate) struct AnswerStore<V = bool> {
    map: HashMap<String, HashMap<Vec<u8>, V>>,
}

impl<V> Default for AnswerStore<V> {
    fn default() -> Self {
        AnswerStore {
            map: HashMap::new(),
        }
    }
}

impl<V: Copy> AnswerStore<V> {
    pub(crate) fn get(&self, key: &QueryKey<'_>) -> Option<V> {
        self.map
            .get(key.query)
            .and_then(|texts| texts.get(key.text))
            .copied()
    }

    pub(crate) fn insert(&mut self, key: &QueryKey<'_>, value: V) {
        self.map
            .entry(key.query.to_owned())
            .or_default()
            .insert(key.text.to_vec(), value);
    }

    fn get_mut(&mut self, key: &QueryKey<'_>) -> Option<&mut V> {
        self.map
            .get_mut(key.query)
            .and_then(|texts| texts.get_mut(key.text))
    }

    fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) {
        for texts in self.map.values_mut() {
            texts.retain(|_, value| keep(value));
        }
    }

    fn remove(&mut self, key: &QueryKey<'_>) {
        if let Some(texts) = self.map.get_mut(key.query) {
            texts.remove(key.text);
        }
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.map.values_mut().flat_map(HashMap::values_mut)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.values().map(HashMap::len).sum()
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

/// Number of lock stripes in a [`ShardedAnswerStore`].
pub(crate) const ANSWER_STORE_SHARDS: usize = 16;

/// The state of one key in a [`ShardedAnswerStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Entry {
    /// The key's answer, published by whoever claimed it.
    Answered(bool),
    /// Claimed: exactly one caller is asking the backend for it.
    InFlight,
    /// The claimer's backend round trip failed.  Sticky: only the
    /// resolver pool fails keys, and it never asks for them again.
    Failed,
}

/// One stripe: its share of the entries plus the waiters parked on them.
#[derive(Debug, Default)]
struct StripeState {
    entries: AnswerStore<Entry>,
    /// Callers blocked in [`ShardedAnswerStore::wait`] on this stripe, so
    /// settling a key only signals the condvar when someone listens.
    waiters: usize,
}

#[derive(Debug, Default)]
struct Stripe {
    state: Mutex<StripeState>,
    settled: Condvar,
}

/// The crate's one concurrent answer memo and its only single-flight
/// code, behind [`SharedSession`], [`ResolverPool`] and the tiered
/// resolver's `cache` tier.  A caller that [`claim`](Self::claim)s a
/// fresh key is its one asker, and then publishes, releases (a waiter
/// claims the key again) or fails it; callers that want the key meanwhile
/// [`wait`](Self::wait) on its stripe's condvar.
///
/// The 16 lock stripes are chosen by hashing the `(query, text)` key, so
/// callers of different keys rarely serialize.  Contention that does
/// happen (a failed `try_lock` before the blocking lock) is counted for
/// `--stats`.
#[derive(Debug)]
pub(crate) struct ShardedAnswerStore {
    stripes: Vec<Stripe>,
    contended: AtomicU64,
}

impl Default for ShardedAnswerStore {
    fn default() -> Self {
        ShardedAnswerStore {
            stripes: (0..ANSWER_STORE_SHARDS)
                .map(|_| Stripe::default())
                .collect(),
            contended: AtomicU64::new(0),
        }
    }
}

impl ShardedAnswerStore {
    fn stripe(&self, key: &QueryKey<'_>) -> (&Stripe, MutexGuard<'_, StripeState>) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.query.hash(&mut hasher);
        key.text.hash(&mut hasher);
        let stripe = &self.stripes[(hasher.finish() as usize) % ANSWER_STORE_SHARDS];
        let guard = match stripe.state.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Relaxed);
                lock_stripe(stripe)
            }
            // Entries are only ever set whole, so a stripe whose holder
            // panicked is still consistent.
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        (stripe, guard)
    }

    /// Sets (or, with `None`, removes) `key`'s entry and wakes its
    /// waiters.
    fn settle(&self, key: &QueryKey<'_>, entry: Option<Entry>) {
        let (stripe, mut state) = self.stripe(key);
        match entry {
            Some(entry) => state.entries.insert(key, entry),
            None => state.entries.remove(key),
        }
        if state.waiters > 0 {
            stripe.settled.notify_all();
        }
    }

    /// `key`'s entry, if any, without claiming it.
    pub(crate) fn get(&self, key: &QueryKey<'_>) -> Option<Entry> {
        self.stripe(key).1.entries.get(key)
    }

    /// Claims `key` for the caller: a key with no entry becomes
    /// [`Entry::InFlight`] and `None` is returned, and the caller must
    /// then publish, release or fail it.  Any existing entry is returned
    /// unchanged.
    pub(crate) fn claim(&self, key: &QueryKey<'_>) -> Option<Entry> {
        let (_, mut state) = self.stripe(key);
        let entry = state.entries.get(key);
        if entry.is_none() {
            state.entries.insert(key, Entry::InFlight);
        }
        entry
    }

    /// Records `answer` for `key` and wakes everyone waiting on it.
    pub(crate) fn publish(&self, key: &QueryKey<'_>, answer: bool) {
        self.settle(key, Some(Entry::Answered(answer)));
    }

    /// Drops the caller's claim on `key` without an answer; a waiter can
    /// then claim the key and ask for itself.
    pub(crate) fn release(&self, key: &QueryKey<'_>) {
        self.settle(key, None);
    }

    /// Marks `key` failed and wakes everyone waiting on it.
    pub(crate) fn fail(&self, key: &QueryKey<'_>) {
        self.settle(key, Some(Entry::Failed));
    }

    /// Fails every in-flight key, so nobody waits on a claimer that is
    /// gone (the resolver pool's worker-death recovery).
    pub(crate) fn fail_in_flight(&self) {
        for stripe in &self.stripes {
            let mut state = lock_stripe(stripe);
            for entry in state.entries.values_mut() {
                if *entry == Entry::InFlight {
                    *entry = Entry::Failed;
                }
            }
            stripe.settled.notify_all();
        }
    }

    /// Blocks while `key` is in flight.  The caller must hold no claim of
    /// its own, or two callers could wait on each other.
    pub(crate) fn wait(&self, key: &QueryKey<'_>) {
        let (stripe, mut state) = self.stripe(key);
        while state.entries.get(key) == Some(Entry::InFlight) {
            state.waiters += 1;
            state = stripe
                .settled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiters -= 1;
        }
    }

    /// Number of answered keys.
    pub(crate) fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| {
                let mut state = lock_stripe(stripe);
                state
                    .entries
                    .values_mut()
                    .filter(|entry| matches!(entry, Entry::Answered(_)))
                    .count()
            })
            .sum()
    }

    /// Stripe-lock contention events observed so far.
    pub(crate) fn contended(&self) -> u64 {
        self.contended.load(Relaxed)
    }

    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.stripes.iter().map(|s| lock_stripe(s).waiters).sum()
    }
}

fn lock_stripe(stripe: &Stripe) -> MutexGuard<'_, StripeState> {
    stripe.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where each position of an incoming batch gets its answer from.
enum Source {
    /// Already answered by the store.
    Known(bool),
    /// Answered by the miss sub-batch at this slot.
    Miss(usize),
}

/// One batch classified against an answer store: per-position sources, the
/// deduplicated misses to forward, and how many positions were answered
/// without the backend.  Shared by [`BatchSession`] and
/// [`SharedSession`] so the two-phase logic cannot drift apart.
pub(crate) struct BatchPlan<'a> {
    sources: Vec<Source>,
    pub(crate) misses: Vec<QueryKey<'a>>,
    hits: u64,
}

impl<'a> BatchPlan<'a> {
    /// Splits `batch` into store-answered positions and deduplicated
    /// misses.  `lookup` probes the store; intra-batch duplicates collapse
    /// onto one miss without any allocation.
    pub(crate) fn classify(
        batch: &[QueryKey<'a>],
        mut lookup: impl FnMut(&QueryKey<'a>) -> Option<bool>,
    ) -> Self {
        let mut sources: Vec<Source> = Vec::with_capacity(batch.len());
        let mut misses: Vec<QueryKey<'a>> = Vec::new();
        let mut pending: HashMap<(&'a str, &'a [u8]), usize> = HashMap::new();
        let mut hits = 0;
        for key in batch {
            if let Some(answer) = lookup(key) {
                hits += 1;
                sources.push(Source::Known(answer));
            } else if let Some(&slot) = pending.get(&(key.query, key.text)) {
                hits += 1;
                sources.push(Source::Miss(slot));
            } else {
                pending.insert((key.query, key.text), misses.len());
                sources.push(Source::Miss(misses.len()));
                misses.push(*key);
            }
        }
        BatchPlan {
            sources,
            misses,
            hits,
        }
    }

    /// Positions answered without the backend (store hits plus intra-batch
    /// duplicates).
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Combines the miss sub-batch's answers back into per-position order.
    ///
    /// # Panics
    ///
    /// Panics if `miss_answers` does not answer exactly the misses.
    pub(crate) fn into_answers(self, miss_answers: Vec<bool>) -> Vec<bool> {
        assert_eq!(
            miss_answers.len(),
            self.misses.len(),
            "backend returned a wrong-sized answer vector"
        );
        self.sources
            .into_iter()
            .map(|source| match source {
                Source::Known(answer) => answer,
                Source::Miss(slot) => miss_answers[slot],
            })
            .collect()
    }
}

/// Resolves `misses` through `oracle` with the flush ordered by the
/// oracle's own [`question_cost`](Oracle::question_cost) model, cheapest
/// first; answers come back in the original miss order.
///
/// Cheap questions are the most likely to be answered without the
/// authoritative backend (a cache or heuristic tier), so flushing them
/// first front-loads the pruning.  Answers are keyed, so the reordering
/// is invisible to callers; when every question prices the same (any flat
/// backend under the default cost model) the batch is forwarded as-is.
fn resolve_cost_ordered(oracle: &dyn Oracle, misses: &[QueryKey<'_>]) -> Vec<bool> {
    let costs: Vec<u32> = misses
        .iter()
        .map(|key| oracle.question_cost(key.query, key.text))
        .collect();
    if costs.windows(2).all(|pair| pair[0] == pair[1]) {
        return oracle.resolve_batch(misses);
    }
    let mut order: Vec<usize> = (0..misses.len()).collect();
    // Stable, so equal-cost questions keep their scan order and the
    // flush stays deterministic.
    order.sort_by_key(|&i| costs[i]);
    let ordered: Vec<QueryKey<'_>> = order.iter().map(|&i| misses[i]).collect();
    let answers = oracle.resolve_batch(&ordered);
    let mut by_miss = vec![false; misses.len()];
    for (slot, &i) in order.iter().enumerate() {
        by_miss[i] = answers[slot];
    }
    by_miss
}

/// A content-keyed answer store shared across membership tests.
///
/// A session owns a borrowed backend plus a `(query, text) → bool` map.
/// Resolving a batch first consults the map (and deduplicates identical
/// questions *within* the batch), then ships the remaining questions to the
/// backend as one sub-batch through [`Oracle::resolve_batch`].  Sharing one
/// session across all lines of a grep chunk is what turns per-line batches
/// into chunk-level batches.
///
/// A *suspending* session goes further: [`try_resolve`](Self::try_resolve)
/// does not block on a miss but reports the batch as not yet answerable,
/// so the caller parks the evaluation and runs other lines meanwhile.  A
/// session built [`with_pool`](Self::with_pool) hands its misses to a
/// background resolver pool; a [`deferring`](Self::deferring) session
/// holds them until the caller's next
/// [`flush_deferred`](Self::flush_deferred), which asks every line's
/// missing keys in one round trip.
pub struct BatchSession<'o> {
    oracle: &'o dyn Oracle,
    suspend: Suspend<'o>,
    cache: AnswerStore,
    stats: BatchStats,
}

/// What a session's [`try_resolve`](BatchSession::try_resolve) does with
/// a miss.
enum Suspend<'o> {
    /// Ask the backend inline.
    Never,
    /// Submit it to the resolver pool.
    Pool(&'o ResolverPool),
    /// Hold it for the next [`flush_deferred`](BatchSession::flush_deferred).
    Defer(Deferred),
}

/// A backend round trip shorter than this is not worth parking lines
/// for: a park and its resume cost a few microseconds of bookkeeping per
/// question (about 7 µs on 800-byte lines), so a deferring session whose
/// last round trip took less answers its misses inline, as an inline
/// session would.
pub(crate) const DEFER_ROUND_TRIP_FLOOR: Duration = Duration::from_micros(50);

/// The misses of a deferring session: the keys asked since the last
/// flush, the answers flushes brought back that lines still need, and how
/// long the last backend round trip took.
#[derive(Debug, Default)]
struct Deferred {
    /// Keys missed since the last flush, in the order they were asked
    /// (two lines missing one key queue it twice; the flush asks it once).
    queued: Vec<(String, Vec<u8>)>,
    /// Flushed answers not yet in the session store.  The first batch
    /// that completes without a fault moves the entries it read into the
    /// store.  An entry a line read before parking again is held past
    /// the next flush (that line reads it once more on resume), so a key
    /// that landed is never asked twice for one line; the next flush
    /// drops every other entry, so a failed key nobody holds is asked
    /// again if a later line needs it.
    landed: AnswerStore<Landed>,
    /// The latest failed flush's fault, recorded again for every
    /// evaluation that reads one of its failed keys.
    fault: Option<OracleError>,
    /// The last backend round trip's duration; `None` before the first,
    /// which is deferred.
    last_round_trip: Option<Duration>,
}

/// One flushed key of a [`Deferred`] session.
#[derive(Clone, Copy, Debug)]
struct Landed {
    /// The answer, `None` when the key's round trip failed.
    answer: Option<bool>,
    /// Read since the last flush by a batch that then parked.
    held: bool,
}

impl Deferred {
    /// Whether misses should wait for the next flush: while the backend's
    /// round trips take long enough to be worth sharing between lines.
    fn worth_deferring(&self) -> bool {
        self.last_round_trip
            .map_or(true, |took| took >= DEFER_ROUND_TRIP_FLOOR)
    }

    /// The answers to `misses` plus whether they took an inline backend
    /// round trip, or `None` after queueing every miss that needs the next
    /// flush.  A miss comes from the flushed answers; or, when `oracle`
    /// prices it at zero (already in the oracle's own memory: a shared
    /// session's store, a tier memo) or round trips are too quick to be
    /// worth deferring, from `oracle` inline.  Reading a failed key
    /// yields a placeholder `false` and records the flush's fault, also
    /// when the batch then parks, so the line carries the fault.
    fn answers(
        &mut self,
        misses: &[QueryKey<'_>],
        oracle: &dyn Oracle,
    ) -> Option<(Vec<bool>, bool)> {
        let defer = self.worth_deferring();
        let mut answers = vec![false; misses.len()];
        let (mut read, mut ask, mut queue, mut failed) =
            (Vec::new(), Vec::new(), Vec::new(), false);
        for (i, key) in misses.iter().enumerate() {
            match self.landed.get(key) {
                Some(landed) => {
                    failed |= landed.answer.is_none();
                    answers[i] = landed.answer.unwrap_or(false);
                    read.push(i);
                }
                None if !defer || oracle.question_cost(key.query, key.text) == 0 => ask.push(i),
                None => queue.push(i),
            }
        }
        if failed {
            record_fault(
                self.fault
                    .clone()
                    .unwrap_or_else(|| OracleError::fatal("deferred round trip failed")),
            );
        }
        if !queue.is_empty() {
            for &i in &read {
                if let Some(landed) = self.landed.get_mut(&misses[i]) {
                    landed.held = true;
                }
            }
            self.queued.extend(
                queue
                    .iter()
                    .map(|&i| (misses[i].query.to_owned(), misses[i].text.to_vec())),
            );
            return None;
        }
        if !ask.is_empty() {
            let keys: Vec<QueryKey<'_>> = ask.iter().map(|&i| misses[i]).collect();
            let started = Instant::now();
            for (&i, answer) in ask.iter().zip(resolve_cost_ordered(oracle, &keys)) {
                answers[i] = answer;
            }
            if !defer {
                self.last_round_trip = Some(started.elapsed());
            }
        }
        // Without a fault the caller stores every answer of the batch.
        if !read.is_empty() && !crate::error::fault_pending() {
            for &i in &read {
                self.landed.remove(&misses[i]);
            }
        }
        Some((answers, !defer && !ask.is_empty()))
    }
}

impl<'o> BatchSession<'o> {
    /// A fresh session over `oracle`.
    pub fn new(oracle: &'o dyn Oracle) -> Self {
        BatchSession::with(oracle, Suspend::Never)
    }

    /// A session that resolves through a background [`ResolverPool`]
    /// instead of calling `oracle` inline: misses are *submitted* to the
    /// pool and [`try_resolve`](BatchSession::try_resolve) reports them as
    /// not-yet-available, letting the caller suspend the current line and
    /// keep scanning while the pool works.
    pub fn with_pool(oracle: &'o dyn Oracle, pool: &'o ResolverPool) -> Self {
        BatchSession::with(oracle, Suspend::Pool(pool))
    }

    /// A session whose [`try_resolve`](BatchSession::try_resolve) queues
    /// its misses instead of asking `oracle`: the caller suspends the line,
    /// runs the others, and then answers every queued key at once with
    /// [`flush_deferred`](BatchSession::flush_deferred) — one round trip
    /// for all the lines parked on the session, with no threads.  Misses
    /// that `oracle` prices at zero ([`Oracle::question_cost`]: already in
    /// a shared session's store or a tier memo) cost no round trip, so
    /// they are answered inline instead of parking the line.  So are all
    /// misses while the backend's last round trip took less than
    /// `DEFER_ROUND_TRIP_FLOOR` (50 µs): sharing a round trip that
    /// quick saves less than parking the lines costs.  The first round
    /// trip is always deferred.
    pub fn deferring(oracle: &'o dyn Oracle) -> Self {
        BatchSession::with(oracle, Suspend::Defer(Deferred::default()))
    }

    fn with(oracle: &'o dyn Oracle, suspend: Suspend<'o>) -> Self {
        BatchSession {
            oracle,
            suspend,
            cache: AnswerStore::default(),
            stats: BatchStats::default(),
        }
    }

    /// The resolver pool this session submits to, if overlapped.
    pub fn pool(&self) -> Option<&'o ResolverPool> {
        match self.suspend {
            Suspend::Pool(pool) => Some(pool),
            _ => None,
        }
    }

    /// The backend this session resolves against.
    pub fn backend(&self) -> &'o dyn Oracle {
        self.oracle
    }

    /// Answers `batch[i]` in `result[i]`, consulting the session store
    /// first and forwarding at most one deduplicated sub-batch to the
    /// backend (inline, even on a suspending session).
    pub fn resolve(&mut self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        self.resolve_via(batch, false)
            .expect("an inline resolve always completes")
    }

    /// The non-blocking flavour of [`resolve`](BatchSession::resolve):
    /// answers come from the session store, or from what the session's
    /// resolver pool has published or its last
    /// [`flush_deferred`](BatchSession::flush_deferred) brought back.
    /// Anything still unknown is submitted to the pool or queued for the
    /// next flush, and the whole batch reports `None`, so the caller can
    /// suspend and retry once the session has made progress.
    ///
    /// Sessions built by [`new`](BatchSession::new) resolve inline and
    /// never return `None`, so callers can use `try_resolve`
    /// unconditionally.
    ///
    /// Counters only move when the batch completes, so a retried batch is
    /// counted once — exactly as an inline session would count it.  A
    /// deferring session counts its deferred round trips (`batches`) at
    /// the flush.
    pub fn try_resolve(&mut self, batch: &[QueryKey<'_>]) -> Option<Vec<bool>> {
        self.resolve_via(batch, true)
    }

    fn resolve_via(&mut self, batch: &[QueryKey<'_>], suspend: bool) -> Option<Vec<bool>> {
        let plan = BatchPlan::classify(batch, |key| self.cache.get(key));
        let mut round_trip = true;
        let miss_answers = match &mut self.suspend {
            _ if plan.misses.is_empty() => Vec::new(),
            Suspend::Pool(pool) if suspend => {
                let mut pending: Vec<QueryKey<'_>> = plan
                    .misses
                    .iter()
                    .copied()
                    .filter(|key| pool.lookup(key).is_none())
                    .collect();
                if !pending.is_empty() {
                    // Submit cheapest-first: the pool drains its queue in
                    // FIFO order, so the questions most likely to prune
                    // (cache or heuristic-tier answers) complete ahead of
                    // LLM-class ones.
                    pending
                        .sort_by_cached_key(|key| self.oracle.question_cost(key.query, key.text));
                    pool.submit(&pending);
                    return None;
                }
                // Published answers are never evicted.
                plan.misses
                    .iter()
                    .map(|key| pool.lookup(key).expect("every miss resolved"))
                    .collect()
            }
            Suspend::Defer(deferred) if suspend => {
                let (answers, inline) = deferred.answers(&plan.misses, self.oracle)?;
                round_trip = inline;
                answers
            }
            _ => resolve_cost_ordered(self.oracle, &plan.misses),
        };
        self.stats.keys_submitted += batch.len() as u64;
        self.stats.keys_deduped += plan.hits();
        if !plan.misses.is_empty() {
            // On a suspending session the pool's store or the deferred
            // flush plays the backend role: these keys went past the
            // session, so they count as backend keys even though the true
            // round trips happened in the pool (and are reported by its own
            // counters) or at the flush (which counted the batch).
            if round_trip {
                self.stats.batches += 1;
            }
            self.stats.backend_keys += plan.misses.len() as u64;
            // Placeholder answers from a faulted backend, or from a failed
            // pool or flush key (whose read recorded the fault), must not
            // enter the session store (the fault-sink contract in the
            // `error` module).
            if !crate::error::fault_pending() {
                for (key, &answer) in plan.misses.iter().zip(&miss_answers) {
                    self.cache.insert(key, answer);
                }
            }
        }
        Some(plan.into_answers(miss_answers))
    }

    /// Answers every key a [`deferring`](BatchSession::deferring) session
    /// has queued since the last flush in one cost-ordered round trip
    /// (duplicates asked once), and returns how many keys it asked.  The
    /// parked evaluations then read their answers through
    /// [`try_resolve`](BatchSession::try_resolve).  The previous flush's
    /// answers are dropped, except those a line read before parking again.
    /// If the round trip faults, its keys are marked failed for the
    /// evaluations that asked them, the fault is taken off the calling
    /// thread, and no placeholder enters the session store.  Does nothing
    /// on other sessions.
    pub fn flush_deferred(&mut self) -> usize {
        let Suspend::Defer(deferred) = &mut self.suspend else {
            return 0;
        };
        deferred
            .landed
            .retain(|landed| std::mem::take(&mut landed.held));
        let queued = std::mem::take(&mut deferred.queued);
        let keys: Vec<QueryKey<'_>> = queued
            .iter()
            .map(|(query, text)| QueryKey::new(query, text))
            .collect();
        let plan = BatchPlan::classify(&keys, |_| None);
        if plan.misses.is_empty() {
            return 0;
        }
        let started = Instant::now();
        let answers = resolve_cost_ordered(self.oracle, &plan.misses);
        deferred.last_round_trip = Some(started.elapsed());
        self.stats.batches += 1;
        let fault = take_fault();
        let failed = fault.is_some();
        if failed {
            deferred.fault = fault;
        }
        for (key, answer) in plan.misses.iter().zip(answers) {
            let answer = (!failed).then_some(answer);
            deferred.landed.insert(
                key,
                Landed {
                    answer,
                    held: false,
                },
            );
        }
        plan.misses.len()
    }

    /// Batch-plane counters accumulated by this session.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Number of distinct `(query, text)` answers currently stored.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the session store is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }

    /// Drops all stored answers, deferred keys and counters (e.g. at a
    /// chunk boundary).
    pub fn clear(&mut self) {
        self.cache.clear();
        if let Suspend::Defer(deferred) = &mut self.suspend {
            *deferred = Deferred::default();
        }
        self.stats = BatchStats::default();
    }
}

impl std::fmt::Debug for BatchSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSession")
            .field("backend", &self.oracle.describe())
            .field("entries", &self.cache.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// A session's binding to a cross-process answer log: the store itself
/// plus the spec tag its records are filed under.
#[derive(Debug)]
struct PersistBinding {
    store: Arc<crate::persist::PersistentAnswerStore>,
    spec: String,
}

/// Shared state behind every clone of a [`SharedSession`].
#[derive(Debug, Default)]
struct SharedSessionState {
    cache: ShardedAnswerStore,
    keys_submitted: AtomicU64,
    keys_deduped: AtomicU64,
    backend_keys: AtomicU64,
    batches: AtomicU64,
    persisted_hits: AtomicU64,
    persist: Option<PersistBinding>,
}

/// A thread-safe answer store shared across *many* scans — the cross-file
/// generalization of [`BatchSession`].
///
/// A [`BatchSession`] lives on one thread for the duration of one chunk; a
/// `SharedSession` is `Clone + Send + Sync` and implements [`Oracle`]
/// itself, so it can be interposed *between* a matcher (or many matchers on
/// many threads) and the real backend: every per-chunk session that misses
/// its local store forwards the question here, and only questions never
/// seen by *any* chunk of *any* file reach the backend.  This is what makes
/// a multi-file scan dedupe oracle questions globally — a medicine name
/// repeated across a whole directory tree is judged once.
///
/// Resolution is **single-flight** through a 16-way lock-striped store:
/// one thread claims a fresh key and asks the backend, threads that want
/// the same key wait for its answer.  Each distinct question reaches the
/// backend once per session, however many threads ask it, so
/// `SharedSession::new(backend)` is also the query cache that
/// determinizes a nondeterministic backend (Assumption 2.4).
///
/// Answer-level counters are exposed as a [`BatchStats`]:
/// `keys_submitted` counts questions arriving here (after per-chunk
/// dedup), `keys_deduped` those answered from memory, `backend_keys`
/// those that actually reached the backend, and
/// [`persisted_hits`](SharedSession::persisted_hits) those answered by
/// the answer log; the last three always sum to the first.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use semre_oracle::{Instrumented, Oracle, SharedSession, SimLlmOracle};
///
/// let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
/// let shared = SharedSession::new(backend.clone());
/// // Two "files" asking the same question: one backend call.
/// assert!(shared.holds("Medicine name", b"tramadol"));
/// assert!(shared.clone().holds("Medicine name", b"tramadol"));
/// assert_eq!(backend.stats().calls, 1);
/// assert_eq!(shared.stats().keys_deduped, 1);
/// ```
#[derive(Clone)]
pub struct SharedSession {
    oracle: Arc<dyn Oracle>,
    state: Arc<SharedSessionState>,
}

impl std::fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSession")
            .field("backend", &self.oracle.describe())
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedSession {
    /// A fresh shared session over `oracle`.  Clones share the same store
    /// and counters.
    pub fn new(oracle: Arc<dyn Oracle>) -> Self {
        SharedSession {
            oracle,
            state: Arc::new(SharedSessionState::default()),
        }
    }

    /// A shared session layered over a cross-process answer log.
    ///
    /// The probe order becomes: in-memory sharded store (a hit counts as
    /// `keys_deduped`), then `store` under the tag `spec` (a hit counts
    /// as [`persisted_hits`](SharedSession::persisted_hits) and is pulled
    /// into the in-memory store), and only then the backend — whose fresh
    /// answers are recorded back to `store`.  A question any earlier run
    /// answered therefore never reaches the backend: a warm restart
    /// issues zero backend questions for previously-seen keys.
    ///
    /// `spec` is the canonical oracle tag records are filed under (the
    /// CLI's `OracleSpec` display form); sessions over different oracles
    /// can share one store as long as their tags differ.
    pub fn with_persistence(
        oracle: Arc<dyn Oracle>,
        store: Arc<crate::persist::PersistentAnswerStore>,
        spec: impl Into<String>,
    ) -> Self {
        SharedSession {
            oracle,
            state: Arc::new(SharedSessionState {
                persist: Some(PersistBinding {
                    store,
                    spec: spec.into(),
                }),
                ..SharedSessionState::default()
            }),
        }
    }

    /// The backend this session resolves against.
    pub fn backend(&self) -> &Arc<dyn Oracle> {
        &self.oracle
    }

    /// The persistent answer store this session records to, if any.
    pub fn persist_store(&self) -> Option<&Arc<crate::persist::PersistentAnswerStore>> {
        self.state.persist.as_ref().map(|binding| &binding.store)
    }

    /// Batch-plane counters accumulated across every clone.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            batches: self.state.batches.load(Relaxed),
            keys_submitted: self.state.keys_submitted.load(Relaxed),
            keys_deduped: self.state.keys_deduped.load(Relaxed),
            backend_keys: self.state.backend_keys.load(Relaxed),
        }
    }

    /// Questions answered by the persistent store (a disk hit, distinct
    /// from `keys_deduped`, which counts in-memory hits).  Always zero
    /// for sessions built without
    /// [`with_persistence`](SharedSession::with_persistence).
    pub fn persisted_hits(&self) -> u64 {
        self.state.persisted_hits.load(Relaxed)
    }

    /// Number of lock stripes in the sharded answer store.
    pub fn shards(&self) -> usize {
        ANSWER_STORE_SHARDS
    }

    /// Stripe-lock contention events observed so far: a probe or insert
    /// found its stripe held by another thread and had to block.
    pub fn contended(&self) -> u64 {
        self.state.cache.contended()
    }

    /// Number of distinct `(query, text)` answers currently stored.
    pub fn len(&self) -> usize {
        self.state.cache.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers pairwise-distinct `keys` single-flight: a key is answered
    /// from memory, or by the one caller that claimed it (from the answer
    /// log, else the backend).  Keys another caller has in flight are
    /// waited for only after this caller's own claims are settled, so two
    /// callers never wait on each other.
    fn resolve_distinct(&self, keys: &[QueryKey<'_>]) -> Vec<bool> {
        let mut answers = vec![false; keys.len()];
        let mut waiting = self.claim_round(keys, 0..keys.len(), &mut answers);
        while !waiting.is_empty() {
            for &i in &waiting {
                self.state.cache.wait(&keys[i]);
            }
            // A waited-for key is answered now, or was released by a
            // faulted claimer and is claimed again.
            waiting = self.claim_round(keys, waiting.into_iter(), &mut answers);
        }
        answers
    }

    /// Claims the keys at `round` and settles every claim it gets: from
    /// the answer log, else in one backend round trip.  Returns the keys
    /// another caller has in flight.
    fn claim_round(
        &self,
        keys: &[QueryKey<'_>],
        round: impl Iterator<Item = usize>,
        answers: &mut [bool],
    ) -> Vec<usize> {
        let state = &*self.state;
        let (mut misses, mut waiting) = (Vec::new(), Vec::new());
        for i in round {
            let key = &keys[i];
            match state.cache.claim(key) {
                Some(Entry::Answered(answer)) => {
                    state.keys_deduped.fetch_add(1, Relaxed);
                    answers[i] = answer;
                }
                Some(Entry::InFlight) => waiting.push(i),
                Some(Entry::Failed) => unreachable!("shared sessions never fail a key"),
                None => {
                    match state.persist.as_ref().and_then(|binding| {
                        binding.store.lookup(&binding.spec, key.query, key.text)
                    }) {
                        Some(answer) => {
                            state.persisted_hits.fetch_add(1, Relaxed);
                            state.cache.publish(key, answer);
                            answers[i] = answer;
                        }
                        None => misses.push(i),
                    }
                }
            }
        }
        if misses.is_empty() {
            return waiting;
        }
        let batch: Vec<QueryKey<'_>> = misses.iter().map(|&i| keys[i]).collect();
        state.batches.fetch_add(1, Relaxed);
        state.backend_keys.fetch_add(batch.len() as u64, Relaxed);
        let resolved = catch_unwind(AssertUnwindSafe(|| {
            let resolved = resolve_cost_ordered(self.oracle.as_ref(), &batch);
            assert_eq!(
                resolved.len(),
                batch.len(),
                "backend returned a wrong-sized answer vector"
            );
            resolved
        }))
        .unwrap_or_else(|panic| {
            // Waiters must not block forever on a claimer that unwound.
            batch.iter().for_each(|key| state.cache.release(key));
            resume_unwind(panic)
        });
        // A faulted backend answers with placeholders (fault-sink
        // contract).  They are released, never cached and above all never
        // persisted (a placeholder in the answer log would replay as
        // truth forever); a waiter then claims the key and asks again,
        // recording its own fault if the backend is still down.
        let faulted = crate::error::fault_pending();
        for ((&i, key), answer) in misses.iter().zip(&batch).zip(resolved) {
            answers[i] = answer;
            if faulted {
                state.cache.release(key);
                continue;
            }
            state.cache.publish(key, answer);
            if let Some(binding) = &state.persist {
                binding
                    .store
                    .record(&binding.spec, key.query, key.text, answer);
            }
        }
        waiting
    }
}

impl Oracle for SharedSession {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.resolve_batch(&[QueryKey::new(query, text)])[0]
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        self.state
            .keys_submitted
            .fetch_add(batch.len() as u64, Relaxed);
        // One key cannot repeat within its batch, and the synchronous
        // plane mostly sends one: skip the duplicate scan.
        if batch.len() == 1 {
            return self.resolve_distinct(batch);
        }
        // Intra-batch duplicates count as in-memory hits; each distinct
        // key then goes through the single-flight path once.
        let plan = BatchPlan::classify(batch, |_| None);
        self.state.keys_deduped.fetch_add(plan.hits(), Relaxed);
        let answers = self.resolve_distinct(&plan.misses);
        plan.into_answers(answers)
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        // A key any clone has answered, or is asking right now, costs no
        // further backend question; fresh keys cost whatever the backend
        // charges.
        let key = QueryKey::new(query, text);
        if self.state.cache.get(&key).is_some() {
            return 0;
        }
        self.oracle.question_cost(query, text)
    }

    fn describe(&self) -> String {
        format!("shared-session({})", self.oracle.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::{PredicateOracle, SetOracle};
    use crate::wrappers::Instrumented;

    fn keys<'a>(pairs: &'a [(&'a str, &'a [u8])]) -> Vec<QueryKey<'a>> {
        pairs.iter().map(|&(q, t)| QueryKey::new(q, t)).collect()
    }

    #[test]
    fn blanket_adapter_answers_pointwise() {
        let mut set = SetOracle::new();
        set.insert("City", "Paris");
        let batch = keys(&[("City", b"Paris"), ("City", b"Gotham")]);
        let answers = BatchOracle::resolve(&set, &batch);
        assert_eq!(answers, vec![true, false]);
        // Trait objects work on both sides of the adapter.
        let dynamic: &dyn Oracle = &set;
        assert_eq!(BatchOracle::resolve(&dynamic, &batch), vec![true, false]);
    }

    #[test]
    fn ledger_deduplicates_and_flushes_once() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t.len() % 2 == 0));
        let input = b"abcdef";
        let mut ledger: QueryLedger<(u32, u32, u32)> = QueryLedger::new();
        let a = ledger.enlist((0, 1, 3));
        let b = ledger.enlist((0, 3, 7));
        let dup = ledger.enlist((0, 1, 3));
        assert_eq!(a, dup);
        assert_eq!(ledger.pending(), 2);
        assert_eq!(ledger.unique_keys(), 2);
        assert_eq!(ledger.stats().keys_submitted, 3);
        assert_eq!(ledger.stats().keys_deduped, 1);
        assert!(ledger.answer(a).is_none());

        ledger.flush(
            |&(_, s, e)| QueryKey::new("q", &input[(s - 1) as usize..(e - 1) as usize]),
            |batch| oracle.resolve_batch(batch),
        );
        assert_eq!(ledger.answer(a), Some(true)); // "ab"
        assert_eq!(ledger.answer(b), Some(true)); // "cdef"
        assert_eq!(ledger.pending(), 0);
        assert_eq!(ledger.stats().batches, 1);
        assert_eq!(ledger.stats().backend_keys, 2);
        assert_eq!(oracle.stats().calls, 2);

        // A flush with nothing pending is free.
        ledger.flush(
            |_| QueryKey::new("q", b""),
            |batch| oracle.resolve_batch(batch),
        );
        assert_eq!(ledger.stats().batches, 1);

        // Later enlists only resolve the new suffix.
        let c = ledger.enlist((0, 1, 2));
        ledger.flush(
            |&(_, s, e)| QueryKey::new("q", &input[(s - 1) as usize..(e - 1) as usize]),
            |batch| oracle.resolve_batch(batch),
        );
        assert_eq!(ledger.answer(c), Some(false)); // "a"
        assert_eq!(oracle.stats().calls, 3);
        assert_eq!(ledger.stats().batches, 2);

        // Forgetting keeps the counts but frees the keys.
        ledger.forget();
        assert_eq!(ledger.unique_keys(), 3);
        assert_eq!(ledger.pending(), 0);
        let again = ledger.enlist((0, 1, 2));
        assert!(ledger.answer(again).is_none());
        assert_eq!(ledger.unique_keys(), 4);
    }

    #[test]
    fn session_shares_answers_across_batches() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t.starts_with(b"a")));
        let mut session = BatchSession::new(&oracle);
        let first = keys(&[("q", b"ab"), ("q", b"cd"), ("q", b"ab")]);
        assert_eq!(session.resolve(&first), vec![true, false, true]);
        // Intra-batch duplicate: only two questions reached the backend.
        assert_eq!(oracle.stats().calls, 2);
        assert_eq!(session.stats().batches, 1);
        assert_eq!(session.stats().keys_submitted, 3);
        assert_eq!(session.stats().keys_deduped, 1);
        assert_eq!(session.stats().backend_keys, 2);
        assert_eq!(session.len(), 2);

        // A second batch reuses the stored answers entirely.
        let second = keys(&[("q", b"cd"), ("q", b"ab")]);
        assert_eq!(session.resolve(&second), vec![false, true]);
        assert_eq!(
            oracle.stats().calls,
            2,
            "fully deduplicated batch must not reach the backend"
        );
        assert_eq!(session.stats().batches, 1);
        assert_eq!(session.stats().keys_deduped, 3);

        session.clear();
        assert!(session.is_empty());
        assert_eq!(session.stats(), BatchStats::default());
        assert_eq!(session.resolve(&[]), Vec::<bool>::new());
    }

    #[test]
    fn shared_session_dedupes_across_clones_and_threads() {
        use std::sync::Arc;
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            t.starts_with(b"a")
        })));
        let shared = SharedSession::new(backend.clone());
        assert!(shared.is_empty());

        // Point-wise and batched questions share one store.
        assert!(shared.holds("q", b"ab"));
        assert_eq!(
            shared.resolve_batch(&keys(&[("q", b"ab"), ("q", b"cd")])),
            [true, false]
        );
        assert_eq!(backend.stats().calls, 2, "ab answered from the store");
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.stats().keys_submitted, 3);
        assert_eq!(shared.stats().keys_deduped, 1);
        assert_eq!(shared.stats().backend_keys, 2);

        // Clones on other threads see (and extend) the same store.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let clone = shared.clone();
                scope.spawn(move || {
                    assert!(clone.holds("q", b"ab"));
                    assert!(!clone.holds("q", b"cd"));
                });
            }
        });
        assert_eq!(backend.stats().calls, 2, "no new backend questions");
        // Every repeat is a hit: the batch's `ab` plus eight thread asks.
        assert_eq!(shared.stats().keys_deduped, 9);
        assert_eq!(shared.stats().backend_keys, 2);
        assert_eq!(shared.len(), 2);
        assert!(!shared.is_empty());
        assert!(shared.describe().contains("shared-session"));
    }

    #[test]
    fn shared_session_asks_each_key_once_across_racing_threads() {
        use std::sync::{Arc, Barrier};
        // A slow backend widens the window in which racing threads miss
        // on the same fresh key.
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            t.len() % 2 == 0
        })));
        let shared = SharedSession::new(backend.clone());
        let batch = keys(&[("q", b"ab"), ("q", b"abc"), ("q", b"abcd"), ("q", b"abcde")]);
        let expected = [true, false, true, false];
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let (shared, batch, start) = (shared.clone(), &batch, &start);
                scope.spawn(move || {
                    let point_wise = || {
                        for i in (0..batch.len()).map(|i| (i + worker) % batch.len()) {
                            assert_eq!(shared.holds("q", batch[i].text), expected[i]);
                        }
                    };
                    start.wait();
                    if worker % 2 == 0 {
                        point_wise();
                        assert_eq!(shared.resolve_batch(batch), expected);
                    } else {
                        assert_eq!(shared.resolve_batch(batch), expected);
                        point_wise();
                    }
                });
            }
        });
        assert_eq!(backend.stats().calls, 4, "one question per distinct key");
        let stats = shared.stats();
        assert_eq!(stats.backend_keys, 4);
        assert_eq!(
            stats.keys_submitted,
            stats.keys_deduped + shared.persisted_hits() + stats.backend_keys,
            "{stats:?}"
        );
        assert_eq!(shared.len(), 4);
    }

    #[test]
    fn a_faulted_claim_is_released_to_its_waiter() {
        use crate::error::{record_fault, take_fault, OracleError};
        use crate::persist::PersistentAnswerStore;
        use std::sync::atomic::AtomicU64;
        use std::sync::{Arc, Barrier};

        let dir = std::env::temp_dir().join(format!("semre-batch-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The first call faults; then either every call does, or none.
        for faulty_calls in [u64::MAX, 1] {
            let log = dir.join(format!("answers-{faulty_calls}.log"));
            let _ = std::fs::remove_file(&log);
            let calls = Arc::new(AtomicU64::new(0));
            let entered = Arc::new(Barrier::new(2));
            let proceed = Arc::new(Barrier::new(2));
            let backend = {
                let (calls, entered, proceed) = (calls.clone(), entered.clone(), proceed.clone());
                PredicateOracle::new(move |_, _: &[u8]| {
                    let call = calls.fetch_add(1, Relaxed);
                    if call == 0 {
                        // Hold the claim until the waiter is parked on it.
                        entered.wait();
                        proceed.wait();
                    }
                    if call < faulty_calls {
                        record_fault(OracleError::transient("backend down"));
                        return false;
                    }
                    true
                })
            };
            let store = Arc::new(PersistentAnswerStore::open(&log).unwrap());
            let shared = SharedSession::with_persistence(Arc::new(backend), store.clone(), "flaky");
            let ask = || (shared.holds("q", b"key"), take_fault());
            let (claimer, waiter) = std::thread::scope(|scope| {
                let claimer = scope.spawn(ask);
                entered.wait();
                let waiter = scope.spawn(ask);
                while shared.state.cache.waiters() == 0 {
                    std::thread::yield_now();
                }
                proceed.wait();
                (claimer.join().unwrap(), waiter.join().unwrap())
            });

            assert!(!claimer.0 && claimer.1.is_some(), "placeholder plus fault");
            assert_eq!(calls.load(Relaxed), 2, "the waiter asked for itself");
            // Either a real answer with no fault, or the waiter's own
            // fault; never a placeholder in the store or the answer log.
            let real = (faulty_calls == 1).then_some(true);
            assert_eq!(
                (waiter.0, waiter.1.is_none()),
                (real.is_some(), real.is_some())
            );
            let key = QueryKey::new("q", b"key");
            assert_eq!(shared.state.cache.get(&key), real.map(Entry::Answered));
            assert_eq!(store.lookup("flaky", "q", b"key"), real);
            assert_eq!(store.appended(), u64::from(real.is_some()));
            let stats = shared.stats();
            assert_eq!((stats.keys_submitted, stats.backend_keys), (2, 2));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_sessions_layered_over_a_shared_session_dedupe_globally() {
        use std::sync::Arc;
        // The multi-file topology: each "file" scans with its own
        // BatchSession, all of them resolving through one SharedSession.
        let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            t.len() % 2 == 0
        })));
        let shared = SharedSession::new(backend.clone());
        for _file in 0..3 {
            let mut session = BatchSession::new(&shared);
            assert_eq!(
                session.resolve(&keys(&[("q", b"ab"), ("q", b"abc")])),
                [true, false]
            );
        }
        assert_eq!(
            backend.stats().calls,
            2,
            "three files, one backend question per distinct key"
        );
        assert_eq!(shared.stats().backend_keys, 2);
        assert_eq!(shared.stats().keys_submitted, 6);
        assert_eq!(shared.stats().keys_deduped, 4);
    }

    #[test]
    fn shared_session_layers_a_persistent_store_between_memory_and_backend() {
        use crate::persist::PersistentAnswerStore;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("semre-batch-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("answers.log");
        let _ = std::fs::remove_file(&log);

        // Cold run: everything reaches the backend once and is recorded.
        {
            let store = Arc::new(PersistentAnswerStore::open(&log).unwrap());
            let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
                t.len() % 2 == 0
            })));
            let shared = SharedSession::with_persistence(backend.clone(), store, "pred");
            assert_eq!(
                shared.resolve_batch(&keys(&[("q", b"ab"), ("q", b"abc"), ("q", b"ab")])),
                [true, false, true]
            );
            assert!(shared.holds("q", b"ab"));
            assert_eq!(backend.stats().calls, 2);
            assert_eq!(shared.stats().backend_keys, 2);
            assert_eq!(shared.persisted_hits(), 0);
            assert_eq!(shared.stats().keys_deduped, 2);
            assert!(shared.persist_store().is_some());
        }

        // Warm run: a fresh session + fresh backend, same log.  Zero
        // backend questions; hits are attributed to the disk store, not
        // the in-memory dedupe counter.
        {
            let store = Arc::new(PersistentAnswerStore::open(&log).unwrap());
            assert_eq!(store.replay_report().live, 2);
            let backend = Arc::new(Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
                t.len() % 2 == 0
            })));
            let shared = SharedSession::with_persistence(backend.clone(), store, "pred");
            assert_eq!(
                shared.resolve_batch(&keys(&[("q", b"ab"), ("q", b"abc"), ("q", b"ab")])),
                [true, false, true]
            );
            assert!(!shared.holds("q", b"abc"));
            assert_eq!(
                backend.stats().calls,
                0,
                "warm restart: no backend questions"
            );
            assert_eq!(shared.stats().backend_keys, 0);
            assert_eq!(shared.persisted_hits(), 2, "one disk hit per distinct key");
            assert_eq!(
                shared.stats().keys_deduped,
                2,
                "intra-batch duplicate + repeated holds hit memory"
            );
            // A different spec tag does not see the answers.
            let other = SharedSession::with_persistence(
                backend.clone(),
                shared.persist_store().unwrap().clone(),
                "other-spec",
            );
            assert!(other.holds("q", b"ab"));
            assert_eq!(other.persisted_hits(), 0);
            assert_eq!(backend.stats().calls, 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_store_is_consistent_under_concurrent_mixed_access() {
        let store = ShardedAnswerStore::default();
        std::thread::scope(|scope| {
            for worker in 0..8u32 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..64u32 {
                        let text = format!("text-{}", (worker + i) % 16);
                        let key = QueryKey::new("q", text.as_bytes());
                        let answer = (worker + i) % 16 % 2 == 0;
                        store.publish(&key, answer);
                        assert_eq!(store.claim(&key), Some(Entry::Answered(answer)));
                    }
                });
            }
        });
        assert_eq!(store.len(), 16, "one entry per distinct key");
    }

    #[test]
    fn try_flush_leaves_slots_pending_until_answers_arrive() {
        let input = b"abcdef";
        let mut ledger: QueryLedger<(u32, u32, u32)> = QueryLedger::new();
        let a = ledger.enlist((0, 1, 3));
        let materialize = |&(_, s, e): &(u32, u32, u32)| {
            QueryKey::new("q", &input[(s - 1) as usize..(e - 1) as usize])
        };

        // A resolver without answers leaves the ledger untouched.
        assert!(!ledger.try_flush(materialize, |_| None));
        assert!(ledger.answer(a).is_none());
        assert_eq!(ledger.pending(), 1);
        assert_eq!(ledger.stats().batches, 0);
        assert_eq!(ledger.stats().backend_keys, 0);

        // The retry resolves the same pending suffix and counts one batch.
        assert!(ledger.try_flush(materialize, |batch| Some(vec![true; batch.len()])));
        assert_eq!(ledger.answer(a), Some(true));
        assert_eq!(ledger.pending(), 0);
        assert_eq!(ledger.stats().batches, 1);
        assert_eq!(ledger.stats().backend_keys, 1);

        // Nothing pending: trivially flushed.
        assert!(ledger.try_flush(materialize, |_| None));
    }

    #[test]
    fn try_resolve_without_a_pool_is_resolve() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t.starts_with(b"a")));
        let mut session = BatchSession::new(&oracle);
        assert!(session.pool().is_none());
        let batch = keys(&[("q", b"ab"), ("q", b"cd")]);
        assert_eq!(session.try_resolve(&batch), Some(vec![true, false]));
        assert_eq!(session.stats().backend_keys, 2);
    }

    #[test]
    fn deferring_sessions_answer_parked_batches_at_the_flush() {
        use crate::error::{record_fault, take_fault, OracleError};
        use std::sync::atomic::AtomicU64;

        // The first round trip faults; later ones answer.  Each takes long
        // enough for the session to keep deferring.
        let calls = AtomicU64::new(0);
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            std::thread::sleep(DEFER_ROUND_TRIP_FLOOR);
            if calls.fetch_add(1, Relaxed) == 0 {
                record_fault(OracleError::transient("backend down"));
                return false;
            }
            t.starts_with(b"a")
        }));
        let mut session = BatchSession::deferring(&oracle);
        let (first, second) = (keys(&[("q", b"ab")]), keys(&[("q", b"ab"), ("q", b"cd")]));
        // Two parked lines queue their misses; nothing reaches the backend.
        assert_eq!(session.try_resolve(&first), None);
        assert_eq!(session.try_resolve(&second), None);
        assert_eq!(oracle.stats().calls, 0);

        // One round trip for the union; it faults.  Both lines read the
        // failed keys as placeholders with the fault, and nothing is
        // cached.
        session.flush_deferred();
        assert_eq!(session.stats().batches, 1);
        assert!(take_fault().is_none(), "the flush takes its own fault");
        assert_eq!(session.try_resolve(&first), Some(vec![false]));
        assert!(take_fault().is_some());
        assert_eq!(session.try_resolve(&second), Some(vec![false, false]));
        assert!(take_fault().is_some());
        assert!(session.is_empty());

        // Not sticky: after the next flush the keys are asked again.
        session.flush_deferred();
        assert_eq!(session.try_resolve(&second), None);
        session.flush_deferred();
        assert_eq!(oracle.batches(), 2, "ab and cd in one round trip");
        assert_eq!(session.try_resolve(&second), Some(vec![true, false]));
        assert!(take_fault().is_none());
        assert_eq!(session.try_resolve(&first), Some(vec![true]));
        assert_eq!(session.len(), 2);
        assert_eq!(session.stats().batches, 2);
        // `resolve` still answers inline.
        assert_eq!(session.resolve(&keys(&[("q", b"ax")])), vec![true]);
        assert_eq!(session.stats().batches, 3);
    }

    /// A line that resumes with a batch mixing flushed keys and a new miss
    /// parks again; the flushed keys must still be there after the next
    /// flush, or it would park forever, paying a round trip each time.
    #[test]
    fn flushed_keys_outlive_the_flush_while_their_line_parks_again() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| {
            std::thread::sleep(DEFER_ROUND_TRIP_FLOOR);
            t == b"a"
        }));
        let mut session = BatchSession::deferring(&oracle);
        let (a, ab) = (keys(&[("q", b"a")]), keys(&[("q", b"a"), ("q", b"b")]));
        assert_eq!(session.try_resolve(&a), None);
        assert_eq!(session.flush_deferred(), 1);
        assert_eq!(session.try_resolve(&ab), None);
        assert_eq!(session.flush_deferred(), 1);
        assert_eq!(session.try_resolve(&ab), Some(vec![true, false]));
        assert_eq!(oracle.stats().calls, 2);
        assert_eq!(oracle.batches(), 2);
        // Read by a completed batch, the keys are the store's from now on.
        assert_eq!(session.flush_deferred(), 0);
        assert_eq!(session.try_resolve(&ab), Some(vec![true, false]));
        assert_eq!(oracle.stats().calls, 2);
    }

    /// The same with a backend that always fails: the line reads the
    /// failed key before parking again, so it records the fault then, and
    /// finishes after the second round trip with placeholders.
    #[test]
    fn failed_keys_outlive_the_flush_while_their_line_parks_again() {
        use crate::error::{record_fault, take_fault, OracleError};

        let oracle = Instrumented::new(PredicateOracle::new(|_, _: &[u8]| {
            std::thread::sleep(DEFER_ROUND_TRIP_FLOOR);
            record_fault(OracleError::transient("backend down"));
            false
        }));
        let mut session = BatchSession::deferring(&oracle);
        let (a, ab) = (keys(&[("q", b"a")]), keys(&[("q", b"a"), ("q", b"b")]));
        assert_eq!(session.try_resolve(&a), None);
        session.flush_deferred();
        assert!(take_fault().is_none(), "the flush takes its own fault");
        assert_eq!(session.try_resolve(&ab), None);
        assert!(take_fault().is_some(), "a parked read of a failed key");
        session.flush_deferred();
        assert_eq!(session.try_resolve(&ab), Some(vec![false, false]));
        assert!(take_fault().is_some());
        assert_eq!(oracle.stats().calls, 2);
        assert!(session.is_empty());
    }

    /// A backend whose round trips are quicker than parking a line is
    /// asked inline once the session has timed one round trip.
    #[test]
    fn deferring_sessions_answer_inline_when_round_trips_are_quick() {
        let oracle = Instrumented::new(PredicateOracle::new(|_, t: &[u8]| t == b"a"));
        let mut session = BatchSession::deferring(&oracle);
        assert_eq!(session.try_resolve(&keys(&[("q", b"a")])), None);
        // A descheduled round trip can time as slow; the next is quick.
        let texts: Vec<Vec<u8>> = (0..10).map(|i| vec![b'b', i]).collect();
        let inline = texts.iter().position(|text| {
            session.flush_deferred();
            let key = [QueryKey::new("q", text)];
            session.try_resolve(&key).is_some()
        });
        let inline = inline.expect("a quick backend is asked inline");
        // Every flush and every inline answer is one round trip.
        assert_eq!(session.stats().batches, inline as u64 + 2);
        assert_eq!(oracle.batches(), session.stats().batches);
    }

    #[test]
    fn session_distinguishes_queries_with_identical_text() {
        let oracle = PredicateOracle::new(|q: &str, _: &[u8]| q == "yes");
        let mut session = BatchSession::new(&oracle);
        let batch = keys(&[("yes", b"x"), ("no", b"x")]);
        assert_eq!(session.resolve(&batch), vec![true, false]);
        assert_eq!(session.len(), 2);
        assert!(format!("{session:?}").contains("entries"));
    }
}
