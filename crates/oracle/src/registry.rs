//! Cost-tiered oracle driver registry with escalation on uncertainty.
//!
//! The paper's cost model is blunt: oracle (LLM) invocations dominate
//! matching cost (§1, §6), so the engine should ask as few — and as cheap —
//! questions as possible.  The batched plane already *dedupes* questions;
//! this module makes the remaining ones *cheaper* by routing each key
//! through a stack of drivers ordered by declared cost:
//!
//! 1. a **cache tier** (the answers this resolver has already paid for),
//! 2. any number of **heuristic tiers** — cheap approximations such as a
//!    character-class screen or a dictionary lookup that may answer
//!    [`TierAnswer::Yes`], [`TierAnswer::No`], or abstain with
//!    [`TierAnswer::Uncertain`] —
//! 3. the **authoritative tier**: the real backend (the simulated LLM, or
//!    whatever [`Oracle`] the spec built), which must always answer.
//!
//! A key *escalates* to the next tier only when the cheaper tier is
//! uncertain, and per-tier hit/escalation counters record where answers
//! came from.  Classical membership-testing results (Bringmann et al.,
//! "A Dichotomy for Regular Expression Membership Testing") justify
//! keeping the syntactic tier aggressive: pure-regex screening is the
//! asymptotically cheap path, so a `No` it can prove is a `No` the LLM
//! never has to price.
//!
//! # The trust contract
//!
//! A tier that answers `Yes` or `No` is **trusted**: the resolver does not
//! double-check it against the authoritative backend (doing so would spend
//! exactly the question the tier existed to save).  Heuristic drivers must
//! therefore be *sound* with respect to the authority — abstain unless
//! certain.  A wrong-but-confident driver silently changes verdicts; the
//! routing-equivalence differential suite (`tiered_equivalence.rs`) is the
//! detector: it replays every scan against the flat backend and fails on
//! the first diverging verdict.  The built-in [`ScreenDriver`] and
//! [`DictDriver`] are sound *by construction* against
//! [`SimLlmOracle`](crate::SimLlmOracle)'s built-in lexicons, from which
//! they are derived.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use semre_oracle::{BuiltinTier, Oracle, SimLlmOracle, TieredResolver};
//!
//! let authority: Arc<dyn Oracle> = Arc::new(SimLlmOracle::new());
//! let tiered = TieredResolver::with_builtins(
//!     &[BuiltinTier::Cache, BuiltinTier::Screen, BuiltinTier::Dict],
//!     authority,
//! );
//! // The dictionary tier answers both of these; the authority is never asked.
//! assert!(tiered.holds("Medicine name", b"tramadol"));
//! assert!(!tiered.holds("Medicine name", b"paperclip"));
//! let stats = tiered.stats();
//! assert_eq!(stats.authority_keys(), 0);
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::batch::{Entry, ShardedAnswerStore};
use crate::{Oracle, QueryKey, DEFAULT_QUESTION_COST};

/// How long one key is expected to take on a driver, as an order of
/// magnitude rather than a number: the registry only compares classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencyClass {
    /// An in-process memory lookup (a cache or hash probe).
    Memory,
    /// A local computation or file-system probe.
    Local,
    /// A networked service snapshot (Whois, IP geolocation, …).
    Service,
    /// A remote model invocation — the expensive end of Note 2.6's range.
    Remote,
}

/// The capability sheet a driver declares when it registers.
///
/// The registry orders tiers by [`cost_per_key`](DriverCaps::cost_per_key)
/// ascending, slices batches to [`max_batch`](DriverCaps::max_batch), and
/// memoizes answers only from drivers that declare themselves
/// [`stable`](DriverCaps::stable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverCaps {
    /// The expected latency class of one probe.
    pub latency: LatencyClass,
    /// Relative cost of one key, on the same scale as
    /// [`DEFAULT_QUESTION_COST`]: the cache tier costs 0, the authority
    /// costs the full default.
    pub cost_per_key: u32,
    /// The largest batch the driver accepts in one probe; larger flushes
    /// are sliced.
    pub max_batch: usize,
    /// Whether the driver always returns the same answer for the same key
    /// (Assumption 2.4).  Unstable answers are never memoized.
    pub stable: bool,
    /// Whether the driver may abstain with [`TierAnswer::Uncertain`].  A
    /// driver that cannot abstain decides every key it is offered.
    pub can_abstain: bool,
}

/// One tier's verdict on one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierAnswer {
    /// The key is a member; trusted, no escalation.
    Yes,
    /// The key is not a member; trusted, no escalation.
    No,
    /// The tier cannot decide; the key escalates to the next tier.
    Uncertain,
}

impl TierAnswer {
    /// The decided boolean, if the tier did not abstain.
    pub fn decided(self) -> Option<bool> {
        match self {
            TierAnswer::Yes => Some(true),
            TierAnswer::No => Some(false),
            TierAnswer::Uncertain => None,
        }
    }
}

/// A cheap driver in the tier stack: probes keys and may abstain.
///
/// Drivers are pure routing components — they never see the authoritative
/// backend and have no way to verify their own answers.  See the module
/// docs for the trust contract this implies.
pub trait TierDriver: Send + Sync {
    /// The tier label used in counters and stats lines (must be a valid
    /// stats token: lowercase, no whitespace).
    fn name(&self) -> &str;

    /// The declared capability sheet (consulted once at registration).
    fn caps(&self) -> DriverCaps;

    /// Probes one key.  Must be side-effect free and, when
    /// [`DriverCaps::stable`], deterministic.
    fn probe(&self, query: &str, text: &[u8]) -> TierAnswer;

    /// Probes a batch of keys; `result[i]` answers `batch[i]`.  The
    /// default is point-wise [`probe`](TierDriver::probe); the registry
    /// never passes more than [`DriverCaps::max_batch`] keys per call.
    fn probe_batch(&self, batch: &[QueryKey<'_>]) -> Vec<TierAnswer> {
        batch
            .iter()
            .map(|key| self.probe(key.query, key.text))
            .collect()
    }
}

/// The built-in tiers the `tiered:` oracle spec can stack, cheapest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BuiltinTier {
    /// The resolver's own answer memo (cost 0).
    Cache,
    /// [`ScreenDriver`]: a character-class / length screen that can prove
    /// `No` but never `Yes`.
    Screen,
    /// [`DictDriver`]: a dictionary lookup, complete for the built-in
    /// lexicon queries.
    Dict,
}

impl BuiltinTier {
    /// Parses a stack token (`cache`, `screen`, `dict`).
    pub fn parse(token: &str) -> Option<BuiltinTier> {
        match token {
            "cache" => Some(BuiltinTier::Cache),
            "screen" => Some(BuiltinTier::Screen),
            "dict" => Some(BuiltinTier::Dict),
            _ => None,
        }
    }

    /// The canonical wire token of this tier.
    pub fn token(self) -> &'static str {
        match self {
            BuiltinTier::Cache => "cache",
            BuiltinTier::Screen => "screen",
            BuiltinTier::Dict => "dict",
        }
    }
}

/// The label of the implicit final tier (the real backend).
pub const AUTHORITY_TIER: &str = "authority";

/// The label of the built-in cache tier.
const CACHE_TIER: &str = "cache";

struct TierCounter {
    label: String,
    hits: AtomicU64,
    escalations: AtomicU64,
}

/// Per-tier hit/escalation counters, shared by [`Arc`] so they survive
/// the resolver's type erasure behind `Arc<dyn Oracle>` (the same pattern
/// as [`RetryCounters`](crate::RetryCounters)).
///
/// A *hit* is a key the tier answered; an *escalation* is a key it passed
/// on.  The authoritative tier answers everything that reaches it, so its
/// hit count is exactly the number of backend keys.
pub struct TierCounters {
    tiers: Vec<TierCounter>,
}

impl TierCounters {
    fn new(labels: Vec<String>) -> Arc<TierCounters> {
        Arc::new(TierCounters {
            tiers: labels
                .into_iter()
                .map(|label| TierCounter {
                    label,
                    hits: AtomicU64::new(0),
                    escalations: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    fn hit(&self, tier: usize, keys: u64) {
        self.tiers[tier].hits.fetch_add(keys, Ordering::Relaxed);
    }

    fn escalate(&self, tier: usize, keys: u64) {
        self.tiers[tier]
            .escalations
            .fetch_add(keys, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every tier.
    pub fn snapshot(&self) -> TierStats {
        TierStats {
            tiers: self
                .tiers
                .iter()
                .map(|t| TierTally {
                    label: t.label.clone(),
                    hits: t.hits.load(Ordering::Relaxed),
                    escalations: t.escalations.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for TierCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// One tier's tallies in a [`TierStats`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierTally {
    /// The tier label ([`TierDriver::name`], `cache`, or
    /// [`AUTHORITY_TIER`]).
    pub label: String,
    /// Keys this tier answered.
    pub hits: u64,
    /// Keys this tier passed to the next tier.
    pub escalations: u64,
}

/// A snapshot of [`TierCounters`], cheapest tier first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Per-tier tallies in probe order (the authority last).
    pub tiers: Vec<TierTally>,
}

impl TierStats {
    /// Keys that reached the authoritative backend — the number every
    /// cheaper tier exists to shrink.
    pub fn authority_keys(&self) -> u64 {
        self.tiers
            .iter()
            .filter(|t| t.label == AUTHORITY_TIER)
            .map(|t| t.hits)
            .sum()
    }

    /// Keys answered by some tier cheaper than the authority.
    pub fn cheap_hits(&self) -> u64 {
        self.tiers
            .iter()
            .filter(|t| t.label != AUTHORITY_TIER)
            .map(|t| t.hits)
            .sum()
    }

    /// Whether any key was routed at all.
    pub fn is_empty(&self) -> bool {
        self.tiers.iter().all(|t| t.hits == 0 && t.escalations == 0)
    }

    /// Accumulates another snapshot into this one, matching tiers by
    /// label (used by the daemon to aggregate across sessions).
    pub fn merge(&mut self, other: &TierStats) {
        for tally in &other.tiers {
            if let Some(mine) = self.tiers.iter_mut().find(|t| t.label == tally.label) {
                mine.hits += tally.hits;
                mine.escalations += tally.escalations;
            } else {
                self.tiers.push(tally.clone());
            }
        }
    }

    /// Renders the snapshot as the space-separated `key=value` tokens
    /// both `grepo --stats` and semred `STATS` print on their `tiers:`
    /// line: `<tier>_hits=<n> <tier>_escalated=<n>` per cheap tier, then
    /// `authority_keys=<n>`.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for tally in &self.tiers {
            if tally.label == AUTHORITY_TIER {
                parts.push(format!("authority_keys={}", tally.hits));
            } else {
                parts.push(format!(
                    "{}_hits={} {}_escalated={}",
                    tally.label, tally.hits, tally.label, tally.escalations
                ));
            }
        }
        parts.join(" ")
    }
}

/// A syntactic screen derived from a set of lexicons: it can prove a key
/// is **not** a member (too long, or containing a byte no entry uses) but
/// never that it is one.
///
/// This is the "regex approximation" tier: membership in the complement
/// of a simple character-class language is decidable in linear time
/// (Bringmann et al.), so a `No` here is free compared to any backend.
/// Soundness is by construction — the length bound and byte set are
/// computed from the very lexicon the authority answers from.
pub struct ScreenDriver {
    profiles: HashMap<String, ScreenProfile>,
}

struct ScreenProfile {
    max_len: usize,
    allowed: [bool; 256],
}

impl ScreenDriver {
    /// A screen with no profiles: abstains on everything.
    pub fn empty() -> ScreenDriver {
        ScreenDriver {
            profiles: HashMap::new(),
        }
    }

    /// The screen for [`SimLlmOracle::new`](crate::SimLlmOracle::new)'s
    /// six built-in lexicon queries.
    pub fn builtin() -> ScreenDriver {
        let mut screen = ScreenDriver::empty();
        for (query, entries) in builtin_lexicons() {
            screen.add_profile(query, entries.iter().copied());
        }
        screen
    }

    /// Derives (or widens) the profile for `query` from the lexicon the
    /// authority answers it with.  Entries are normalized exactly as the
    /// simulated LLM normalizes them — trimmed and lowercased — so the
    /// screen can never reject a string the authority would accept.
    pub fn add_profile<I, S>(&mut self, query: impl Into<String>, entries: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let profile = self
            .profiles
            .entry(query.into())
            .or_insert_with(|| ScreenProfile {
                max_len: 0,
                allowed: [false; 256],
            });
        for entry in entries {
            let normalized = entry.as_ref().trim().to_lowercase();
            profile.max_len = profile.max_len.max(normalized.len());
            for byte in normalized.bytes() {
                profile.allowed[byte as usize] = true;
            }
        }
    }
}

impl TierDriver for ScreenDriver {
    fn name(&self) -> &str {
        "screen"
    }

    fn caps(&self) -> DriverCaps {
        DriverCaps {
            latency: LatencyClass::Memory,
            cost_per_key: 1,
            max_batch: usize::MAX,
            stable: true,
            can_abstain: true,
        }
    }

    fn probe(&self, query: &str, text: &[u8]) -> TierAnswer {
        let Some(profile) = self.profiles.get(query) else {
            return TierAnswer::Uncertain;
        };
        let normalized = String::from_utf8_lossy(text);
        let normalized = normalized.trim().to_lowercase();
        if normalized.len() > profile.max_len
            || normalized.bytes().any(|b| !profile.allowed[b as usize])
        {
            return TierAnswer::No;
        }
        TierAnswer::Uncertain
    }
}

/// A dictionary tier: exact (normalized) set membership per query.
///
/// For a query whose lexicon it holds, the driver decides every key —
/// `Yes` if the normalized text is an entry, `No` otherwise — so a
/// [`builtin`](DictDriver::builtin) dictionary is *complete* for the six
/// built-in lexicon queries and the authority is only consulted for
/// queries the dictionary has never heard of (the heuristic sim-LLM
/// queries, or custom lexicons added at runtime).
pub struct DictDriver {
    lexicons: HashMap<String, HashSet<String>>,
}

impl DictDriver {
    /// A dictionary with no lexicons: abstains on everything.
    pub fn empty() -> DictDriver {
        DictDriver {
            lexicons: HashMap::new(),
        }
    }

    /// The dictionary mirroring
    /// [`SimLlmOracle::new`](crate::SimLlmOracle::new)'s six built-in
    /// lexicons.
    pub fn builtin() -> DictDriver {
        let mut dict = DictDriver::empty();
        for (query, entries) in builtin_lexicons() {
            dict.add_lexicon(query, entries.iter().copied());
        }
        dict
    }

    /// Installs (or extends) the lexicon for `query`, normalizing entries
    /// the same way the simulated LLM does.
    pub fn add_lexicon<I, S>(&mut self, query: impl Into<String>, entries: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let set = self.lexicons.entry(query.into()).or_default();
        for entry in entries {
            set.insert(entry.as_ref().trim().to_lowercase());
        }
    }
}

impl TierDriver for DictDriver {
    fn name(&self) -> &str {
        "dict"
    }

    fn caps(&self) -> DriverCaps {
        DriverCaps {
            latency: LatencyClass::Local,
            cost_per_key: 5,
            max_batch: usize::MAX,
            stable: true,
            can_abstain: true,
        }
    }

    fn probe(&self, query: &str, text: &[u8]) -> TierAnswer {
        let Some(set) = self.lexicons.get(query) else {
            return TierAnswer::Uncertain;
        };
        let normalized = String::from_utf8_lossy(text);
        if set.contains(&normalized.trim().to_lowercase()) {
            TierAnswer::Yes
        } else {
            TierAnswer::No
        }
    }
}

/// The six built-in lexicons, paired with their query names — the single
/// source both built-in drivers derive from.
fn builtin_lexicons() -> [(&'static str, &'static [&'static str]); 6] {
    [
        ("Medicine name", crate::MEDICINE_NAMES),
        ("City", crate::CITY_NAMES),
        ("Celebrity", crate::CELEBRITY_NAMES),
        ("Politician", crate::POLITICIAN_NAMES),
        ("Sportsperson", crate::SPORTSPERSON_NAMES),
        ("Scientist", crate::SCIENTIST_NAMES),
    ]
}

/// The cost-tiered resolver: probes tiers cheapest first, escalating a
/// key only while tiers abstain, and asks the authoritative backend last.
///
/// `TieredResolver` implements [`Oracle`] (and therefore, through the
/// blanket adapter, [`TryOracle`](crate::TryOracle)), so it slots into
/// every existing plane — sessions, pools, retries, persistence —
/// unchanged.  Authority faults flow through the thread-local fault sink
/// exactly as for a flat backend, and faulted placeholder answers are
/// never memoized.
pub struct TieredResolver {
    drivers: Vec<Box<dyn TierDriver>>,
    authority: Arc<dyn Oracle>,
    memo: Option<ShardedAnswerStore>,
    counters: Arc<TierCounters>,
    authority_cost: u32,
}

impl TieredResolver {
    /// A resolver with no cheap tiers at all: every key escalates
    /// straight to `authority`.  Routing through this must be
    /// indistinguishable from the flat backend (the degenerate case the
    /// differential suite pins down).
    pub fn new(authority: Arc<dyn Oracle>) -> TieredResolver {
        TieredResolver::from_drivers(Vec::new(), false, authority)
    }

    /// A resolver stacking the given built-in tiers over `authority`.
    pub fn with_builtins(tiers: &[BuiltinTier], authority: Arc<dyn Oracle>) -> TieredResolver {
        let cache = tiers.contains(&BuiltinTier::Cache);
        let mut drivers: Vec<Box<dyn TierDriver>> = Vec::new();
        if tiers.contains(&BuiltinTier::Screen) {
            drivers.push(Box::new(ScreenDriver::builtin()));
        }
        if tiers.contains(&BuiltinTier::Dict) {
            drivers.push(Box::new(DictDriver::builtin()));
        }
        TieredResolver::from_drivers(drivers, cache, authority)
    }

    /// A resolver over custom drivers.  Drivers are reordered by their
    /// declared [`DriverCaps::cost_per_key`] ascending (stably, so
    /// equal-cost drivers keep registration order); `cache` prepends the
    /// cost-0 memo tier.
    pub fn from_drivers(
        mut drivers: Vec<Box<dyn TierDriver>>,
        cache: bool,
        authority: Arc<dyn Oracle>,
    ) -> TieredResolver {
        drivers.sort_by_key(|d| d.caps().cost_per_key);
        let mut labels = Vec::new();
        if cache {
            labels.push(CACHE_TIER.to_owned());
        }
        labels.extend(drivers.iter().map(|d| d.name().to_owned()));
        labels.push(AUTHORITY_TIER.to_owned());
        TieredResolver {
            drivers,
            authority,
            memo: cache.then(ShardedAnswerStore::default),
            counters: TierCounters::new(labels),
            authority_cost: DEFAULT_QUESTION_COST,
        }
    }

    /// The shared counter handle (survives `Arc<dyn Oracle>` erasure).
    pub fn counters(&self) -> Arc<TierCounters> {
        Arc::clone(&self.counters)
    }

    /// A point-in-time snapshot of the per-tier counters.
    pub fn stats(&self) -> TierStats {
        self.counters.snapshot()
    }

    /// The number of cheap tiers (cache + drivers) ahead of the
    /// authority.
    pub fn cheap_tiers(&self) -> usize {
        self.drivers.len() + usize::from(self.memo.is_some())
    }

    /// Routes a batch through the tier stack, returning each key's answer
    /// and whether it may be memoized (answered by a stable tier with no
    /// fault pending is checked by the caller).
    fn route(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        let mut answers: Vec<Option<bool>> = vec![None; batch.len()];
        // Keys answered from the memo must not be re-inserted; keys
        // answered by an unstable driver must not be inserted at all.
        let mut memoize: Vec<bool> = vec![false; batch.len()];
        let mut tier = 0;

        if let Some(memo) = &self.memo {
            let mut hits = 0u64;
            for (answer, key) in answers.iter_mut().zip(batch) {
                if let Some(Entry::Answered(known)) = memo.get(key) {
                    *answer = Some(known);
                    hits += 1;
                }
            }
            self.counters.hit(tier, hits);
            self.counters.escalate(tier, batch.len() as u64 - hits);
            tier += 1;
        }

        for driver in &self.drivers {
            let pending: Vec<usize> = (0..batch.len()).filter(|&i| answers[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            let caps = driver.caps();
            let mut hits = 0u64;
            for chunk in pending.chunks(caps.max_batch.max(1)) {
                let sub: Vec<QueryKey<'_>> = chunk.iter().map(|&i| batch[i]).collect();
                let verdicts = driver.probe_batch(&sub);
                debug_assert_eq!(verdicts.len(), sub.len(), "driver answered off-batch");
                for (&i, verdict) in chunk.iter().zip(verdicts) {
                    if let Some(decided) = verdict.decided() {
                        answers[i] = Some(decided);
                        memoize[i] = caps.stable;
                        hits += 1;
                    }
                }
            }
            self.counters.hit(tier, hits);
            self.counters.escalate(tier, pending.len() as u64 - hits);
            tier += 1;
        }

        let pending: Vec<usize> = (0..batch.len()).filter(|&i| answers[i].is_none()).collect();
        if !pending.is_empty() {
            let sub: Vec<QueryKey<'_>> = pending.iter().map(|&i| batch[i]).collect();
            let resolved = self.authority.resolve_batch(&sub);
            // Tiers are skipped entirely once every key is answered, so
            // the recorded tier index may lag; the authority is always
            // the last counter.
            self.counters
                .hit(self.counters.tiers.len() - 1, pending.len() as u64);
            for (&i, answer) in pending.iter().zip(resolved) {
                answers[i] = Some(answer);
                memoize[i] = true;
            }
        }

        // Faulted placeholder answers are never memoized (the fault-sink
        // contract): the whole flush is skipped, conservatively, because
        // the sink does not say *which* key faulted.
        if let Some(memo) = &self.memo {
            if !crate::error::fault_pending() {
                for (i, key) in batch.iter().enumerate() {
                    if memoize[i] {
                        if let Some(answer) = answers[i] {
                            memo.publish(key, answer);
                        }
                    }
                }
            }
        }

        answers
            .into_iter()
            .map(|a| a.expect("every key routed to some tier"))
            .collect()
    }
}

impl Oracle for TieredResolver {
    fn holds(&self, query: &str, text: &[u8]) -> bool {
        self.route(&[QueryKey::new(query, text)])[0]
    }

    fn resolve_batch(&self, batch: &[QueryKey<'_>]) -> Vec<bool> {
        if batch.is_empty() {
            return Vec::new();
        }
        self.route(batch)
    }

    fn question_cost(&self, query: &str, text: &[u8]) -> u32 {
        // Probes are side-effect free, so pricing a key is itself cheap:
        // a memoized key is free, a key some driver would decide costs
        // that driver's declared price, anything else costs the full
        // authoritative question.
        if let Some(memo) = &self.memo {
            let key = QueryKey::new(query, text);
            if memo.get(&key).is_some() {
                return 0;
            }
        }
        for driver in &self.drivers {
            if driver.probe(query, text) != TierAnswer::Uncertain {
                return driver.caps().cost_per_key;
            }
        }
        self.authority_cost
    }

    fn describe(&self) -> String {
        let mut stack: Vec<&str> = Vec::new();
        if self.memo.is_some() {
            stack.push(CACHE_TIER);
        }
        stack.extend(self.drivers.iter().map(|d| d.name()));
        if stack.is_empty() {
            stack.push("none");
        }
        format!(
            "tiered({}; authority={})",
            stack.join("+"),
            self.authority.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstOracle, Instrumented, SimLlmOracle};

    fn full_stack(authority: Arc<dyn Oracle>) -> TieredResolver {
        TieredResolver::with_builtins(
            &[BuiltinTier::Cache, BuiltinTier::Screen, BuiltinTier::Dict],
            authority,
        )
    }

    #[test]
    fn builtin_tiers_parse_and_roundtrip() {
        for tier in [BuiltinTier::Cache, BuiltinTier::Screen, BuiltinTier::Dict] {
            assert_eq!(BuiltinTier::parse(tier.token()), Some(tier));
        }
        assert_eq!(BuiltinTier::parse("llm"), None);
    }

    #[test]
    fn dict_tier_decides_lexicon_queries_without_the_authority() {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let tiered = full_stack(backend.clone());
        assert!(tiered.holds("Medicine name", b"tramadol"));
        assert!(!tiered.holds("Medicine name", b"paperclip"));
        assert!(tiered.holds("City", b"  Paris "));
        assert_eq!(backend.stats().calls, 0, "lexicon keys must not escalate");
        let stats = tiered.stats();
        assert_eq!(stats.authority_keys(), 0);
        assert!(stats.cheap_hits() >= 3);
    }

    #[test]
    fn unknown_queries_escalate_to_the_authority() {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let tiered = full_stack(backend.clone());
        assert!(tiered.holds("Password or SSH key", b"Tr0ub4dor&3x!Len"));
        assert_eq!(backend.stats().calls, 1);
        assert_eq!(tiered.stats().authority_keys(), 1);
    }

    #[test]
    fn screen_rejects_only_what_the_authority_rejects() {
        let screen = ScreenDriver::builtin();
        let llm = SimLlmOracle::new();
        // Every lexicon entry must survive the screen (soundness).
        for (query, entries) in builtin_lexicons() {
            for entry in entries {
                assert_ne!(
                    screen.probe(query, entry.as_bytes()),
                    TierAnswer::No,
                    "screen rejected lexicon entry {entry:?}"
                );
            }
        }
        // And whatever it rejects, the authority rejects too.
        for text in ["X9!", "definitely-not-a-medicine-name-way-too-long"] {
            if screen.probe("Medicine name", text.as_bytes()) == TierAnswer::No {
                assert!(!llm.holds("Medicine name", text.as_bytes()));
            }
        }
        assert_eq!(
            screen.probe("Medicine name", b"Tr4madol!"),
            TierAnswer::No,
            "digits and punctuation never appear in the lexicon"
        );
    }

    #[test]
    fn cache_tier_answers_repeats_for_free() {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let tiered = TieredResolver::with_builtins(&[BuiltinTier::Cache], backend.clone());
        for _ in 0..3 {
            assert!(tiered.holds("Medicine name", b"tramadol"));
        }
        assert_eq!(backend.stats().calls, 1, "repeats answered from the memo");
        let stats = tiered.stats();
        let cache = &stats.tiers[0];
        assert_eq!(cache.label, "cache");
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.escalations, 1);
        assert_eq!(stats.authority_keys(), 1);
    }

    #[test]
    fn empty_stack_is_the_flat_backend() {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let tiered = TieredResolver::new(backend.clone());
        assert_eq!(tiered.cheap_tiers(), 0);
        assert!(tiered.holds("Medicine name", b"tramadol"));
        assert!(!tiered.holds("Medicine name", b"zzz"));
        assert_eq!(backend.stats().calls, 2);
        assert_eq!(tiered.stats().authority_keys(), 2);
        assert!(tiered.describe().contains("none"));
    }

    #[test]
    fn question_cost_prices_by_deciding_tier() {
        let tiered = full_stack(Arc::new(SimLlmOracle::new()));
        // Decided by the dictionary: its declared price.
        assert_eq!(tiered.question_cost("Medicine name", b"tramadol"), 5);
        // Rejected by the screen: cheaper still.
        assert_eq!(tiered.question_cost("Medicine name", b"Tr4!"), 1);
        // Unknown query: full authoritative price.
        assert_eq!(
            tiered.question_cost("Password or SSH key", b"hunter2"),
            DEFAULT_QUESTION_COST
        );
        // After resolution the key is memoized and free.
        tiered.holds("Password or SSH key", b"hunter2");
        assert_eq!(tiered.question_cost("Password or SSH key", b"hunter2"), 0);
    }

    #[test]
    fn batches_route_per_key_and_count_escalations() {
        let backend = Arc::new(Instrumented::new(SimLlmOracle::new()));
        let tiered = full_stack(backend.clone());
        let batch = [
            QueryKey::new("Medicine name", b"tramadol"),
            QueryKey::new("Medicine name", b"paperclip"),
            QueryKey::new("Password or SSH key", b"hunter2"),
        ];
        let answers = tiered.resolve_batch(&batch);
        assert_eq!(answers, vec![true, false, false]);
        assert_eq!(backend.stats().calls, 1, "only the heuristic key escalates");
        let stats = tiered.stats();
        assert_eq!(stats.authority_keys(), 1);
        let rendered = stats.render();
        assert!(rendered.contains("dict_hits=2"), "{rendered}");
        assert!(rendered.contains("authority_keys=1"), "{rendered}");
    }

    #[test]
    fn stats_merge_matches_by_label() {
        let a = full_stack(Arc::new(ConstOracle::always_false()));
        let b = full_stack(Arc::new(ConstOracle::always_false()));
        a.holds("Medicine name", b"tramadol");
        b.holds("Medicine name", b"tramadol");
        b.holds("unknown", b"x");
        let mut merged = a.stats();
        merged.merge(&b.stats());
        let dict = merged
            .tiers
            .iter()
            .find(|t| t.label == "dict")
            .expect("dict tier present");
        assert_eq!(dict.hits, 2);
        assert_eq!(merged.authority_keys(), 1);
    }

    #[test]
    fn unstable_driver_answers_are_not_memoized() {
        struct Flip(AtomicU64);
        impl TierDriver for Flip {
            fn name(&self) -> &str {
                "flip"
            }
            fn caps(&self) -> DriverCaps {
                DriverCaps {
                    latency: LatencyClass::Memory,
                    cost_per_key: 1,
                    max_batch: usize::MAX,
                    stable: false,
                    can_abstain: false,
                }
            }
            fn probe(&self, _: &str, _: &[u8]) -> TierAnswer {
                if self.0.fetch_add(1, Ordering::Relaxed) % 2 == 0 {
                    TierAnswer::Yes
                } else {
                    TierAnswer::No
                }
            }
        }
        let tiered = TieredResolver::from_drivers(
            vec![Box::new(Flip(AtomicU64::new(0)))],
            true,
            Arc::new(ConstOracle::always_false()),
        );
        assert!(tiered.holds("q", b"x"));
        // The unstable answer was not cached, so the second call reaches
        // the driver again and flips.
        assert!(!tiered.holds("q", b"x"));
        let cache = &tiered.stats().tiers[0];
        assert_eq!(cache.hits, 0, "unstable answers must not populate the memo");
    }

    #[test]
    fn drivers_are_ordered_by_declared_cost() {
        let tiered = TieredResolver::from_drivers(
            vec![
                Box::new(DictDriver::builtin()),
                Box::new(ScreenDriver::builtin()),
            ],
            false,
            Arc::new(SimLlmOracle::new()),
        );
        // The screen (cost 1) must probe before the dict (cost 5): a
        // screen-rejectable key is priced at the screen's cost.
        assert_eq!(tiered.question_cost("Medicine name", b"!!"), 1);
        let stats = tiered.stats();
        assert_eq!(stats.tiers[0].label, "screen");
        assert_eq!(stats.tiers[1].label, "dict");
    }

    #[test]
    fn max_batch_slices_driver_probes() {
        struct Narrow;
        impl TierDriver for Narrow {
            fn name(&self) -> &str {
                "narrow"
            }
            fn caps(&self) -> DriverCaps {
                DriverCaps {
                    latency: LatencyClass::Memory,
                    cost_per_key: 1,
                    max_batch: 2,
                    stable: true,
                    can_abstain: false,
                }
            }
            fn probe(&self, _: &str, text: &[u8]) -> TierAnswer {
                if text.len() % 2 == 0 {
                    TierAnswer::Yes
                } else {
                    TierAnswer::No
                }
            }
            fn probe_batch(&self, batch: &[QueryKey<'_>]) -> Vec<TierAnswer> {
                assert!(batch.len() <= 2, "batch exceeded the declared cap");
                batch.iter().map(|k| self.probe(k.query, k.text)).collect()
            }
        }
        let tiered = TieredResolver::from_drivers(
            vec![Box::new(Narrow)],
            false,
            Arc::new(ConstOracle::always_false()),
        );
        let batch: Vec<QueryKey<'_>> = [
            QueryKey::new("q", b"aa".as_slice()),
            QueryKey::new("q", b"a".as_slice()),
            QueryKey::new("q", b"aaaa".as_slice()),
            QueryKey::new("q", b"aaa".as_slice()),
            QueryKey::new("q", b"".as_slice()),
        ]
        .to_vec();
        assert_eq!(
            tiered.resolve_batch(&batch),
            vec![true, false, true, false, true]
        );
    }

    #[test]
    fn resolver_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TieredResolver>();
        assert_send_sync::<Arc<TierCounters>>();
    }
}
