//! Query-graph evaluation (Sections 3.3.3 and 3.4 of the paper).
//!
//! The query graph `G^w_M` is the DAG obtained by tiling one copy of the
//! inter-character gadget per input position and connecting adjacent copies
//! with the SNFA's character transitions (Eq. 14).  Following Note A.4 of
//! the paper, the graph is never materialized: the evaluator walks the
//! positions left to right, keeping only the per-position `Alive` /
//! `Backref` frontiers, and derives adjacency on the fly from the
//! precomputed [`GadgetTopology`].
//!
//! Evaluation implements the inference rules of Fig. 9:
//!
//! * `Alive(v)` — is there a tentatively feasible path from `start` to `v`?
//! * `Backref(v)` — the last unclosed open vertices along those paths;
//! * `Matched(v)` / `LOQ(v)` — which opens are discharged at a close vertex
//!   and which backreferences they expose (the `Bc` rule; only non-empty for
//!   nested queries).
//!
//! Two optional optimizations reproduce the behaviour of the paper's
//! optimized implementation: pruning the evaluation to vertices that are
//! syntactically co-reachable from `end` (a second, oracle-free pass over
//! the graph, run backwards), and lazily short-circuiting oracle calls at
//! close vertices whenever the discharged opens carry no backreferences
//! (always the case for non-nested SemREs).
//!
//! # The batched query plane
//!
//! With [`EvalOptions::batched`] enabled (the default), oracle questions do
//! not travel one `(q, substring)` pair at a time.  Each position runs in
//! two phases: a *collect* phase walks the close vertices and enlists every
//! oracle question the inference rules are certain to need into a
//! deduplicating [`QueryLedger`] keyed by `(query, start, end)` — exactly
//! the query-graph vertex identity, so gadget copies that delimit the same
//! substring collapse onto one key — and flushes them through a
//! [`BatchSession`] as one backend round trip; the *apply* phase then runs
//! the unchanged Fig. 9 rules, reading answers from the ledger and
//! resolving the (rare) stragglers whose need only becomes apparent as
//! aliveness propagates.  The collect phase never speculates: it enlists a
//! key only when the per-call path would provably issue that question, so
//! batched evaluation issues exactly the same logical requests as per-call
//! evaluation, and the ledger's unique-key count can only be smaller.

use std::sync::Mutex;

use semre_automata::{Label, Snfa, StateId};
use semre_oracle::{BatchSession, Oracle, QueryKey, QueryLedger};
use semre_syntax::QueryName;

use crate::topology::GadgetTopology;

/// Options controlling how the query graph is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Restrict evaluation to vertices from which `end` is syntactically
    /// reachable (computed by an oracle-free backward pass).
    pub prune_coreachable: bool,
    /// Short-circuit oracle calls at close vertices when the outcome cannot
    /// affect backreference propagation.
    pub lazy_oracle: bool,
    /// Route oracle questions through the batched, deduplicating query
    /// plane instead of issuing one `holds` call per question.
    pub batched: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            prune_coreachable: true,
            lazy_oracle: true,
            batched: true,
        }
    }
}

/// Which span the unanchored search entry points look for.
///
/// A *span* `(start, end)` matches when `input[start..end] ∈ ⟦r⟧`.  The
/// search evaluation finds spans by seeding the start vertex at every
/// position — the query-graph effect of an implicit `.*` prefix — and
/// tagging each seed with a pseudo-backreference that rides the Fig. 9
/// rules, so the rule `Bc` discards starts whose oracle path fails exactly
/// like it discards infeasible open vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchKind {
    /// The span with the smallest start; among those, the smallest end
    /// (leftmost-earliest, the natural order for `find` / `find_iter`).
    Leftmost,
    /// The span with the smallest end; among those, the smallest start
    /// (the `shortest_match` question: the first position at which *some*
    /// match is known to exist).
    EarliestEnd,
}

/// The outcome of evaluating the query graph on one input string.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalReport {
    /// Whether the input belongs to `⟦r⟧` (anchored evaluation), or whether
    /// any span matched (search evaluation).
    pub matched: bool,
    /// The span found by a search evaluation ([`SearchKind`] decides which
    /// one); always `None` for anchored evaluation.
    pub span: Option<(usize, usize)>,
    /// Number of logical oracle requests issued by the inference rules
    /// (excluding the `(q, ε)` probes made once when the matcher was
    /// constructed).  Identical between the batched and per-call planes; in
    /// batched mode requests answered by the ledger never reach a backend.
    pub oracle_calls: u64,
    /// Number of distinct `(query, start, end)` keys the ledger resolved.
    /// Never exceeds `oracle_calls`; equals it on the per-call plane, where
    /// nothing deduplicates.
    pub unique_keys: u64,
    /// Number of batches flushed from the ledger.  Each flush is one round
    /// trip to the resolving session, which may still answer some or all
    /// keys from its shared content store — true backend round trips are
    /// the session's `BatchStats::batches`.  On the per-call plane every
    /// request is its own round trip, so this equals `oracle_calls`.
    pub batches: u64,
    /// Logical requests answered without resolving a new key
    /// (`oracle_calls - unique_keys`).
    pub keys_deduped: u64,
    /// Number of query-graph vertices that became alive.
    pub vertices_alive: u64,
    /// Number of gadget copies, i.e. `|w| + 1`.
    pub positions: usize,
}

/// A reference to an open vertex `(state, layer 2, position)`, packed into a
/// `u64` as `position << 32 | state`.
type OpenRef = u64;

/// Pseudo-state used by search evaluation to tag span-start seeds.  Seeds
/// travel through the backreference machinery like open vertices (sorting
/// after any real state of the same position) but never name an SNFA state.
const SEED_STATE: StateId = 0xffff_ffff;

fn open_ref(state: StateId, pos: usize) -> OpenRef {
    ((pos as u64) << 32) | state as u64
}

fn open_ref_state(r: OpenRef) -> StateId {
    (r & 0xffff_ffff) as StateId
}

fn open_ref_pos(r: OpenRef) -> usize {
    (r >> 32) as usize
}

/// Merges `src` into the sorted, deduplicated set `dst`.
fn merge_refs(dst: &mut Vec<OpenRef>, src: &[OpenRef]) {
    if src.is_empty() {
        return;
    }
    dst.extend_from_slice(src);
    dst.sort_unstable();
    dst.dedup();
}

/// Per-layer frontier of one gadget copy.
#[derive(Clone, Debug, Default)]
struct Layer {
    alive: Vec<bool>,
    backref: Vec<Vec<OpenRef>>,
}

impl Layer {
    /// Sizes the frontier for `states` states and clears it, keeping the
    /// backref allocations of earlier evaluations alive for reuse.
    fn ensure(&mut self, states: usize) {
        if self.alive.len() != states {
            self.alive.clear();
            self.alive.resize(states, false);
            self.backref.clear();
            self.backref.resize_with(states, Vec::new);
        } else {
            self.clear();
        }
    }

    fn clear(&mut self) {
        self.alive.iter_mut().for_each(|a| *a = false);
        self.backref.iter_mut().for_each(Vec::clear);
    }

    /// Moves the alive states out with their backreference sets — all a
    /// parked evaluation keeps of a frontier; the buffers stay behind.
    fn take_alive(&mut self) -> Vec<(StateId, Vec<OpenRef>)> {
        (0..self.alive.len())
            .filter(|&state| self.alive[state])
            .map(|state| (state, std::mem::take(&mut self.backref[state])))
            .collect()
    }

    /// Puts states taken by [`take_alive`](Layer::take_alive) back into a
    /// cleared frontier.
    fn restore(&mut self, alive: Vec<(StateId, Vec<OpenRef>)>) {
        for (state, refs) in alive {
            self.alive[state] = true;
            self.backref[state] = refs;
        }
    }
}

/// Arena of `LOQ(o)` sets, keyed by dense `(open index, position)`
/// arithmetic instead of a hash map.  Sets are appended to one backing
/// array and never mutated after insertion; a slot records `(start, len)`
/// into it.  Only nested SemREs and search seeds ever populate this.
#[derive(Debug, Default)]
struct LoqTable {
    num_opens: usize,
    positions: usize,
    /// `(start, len)` into `data`, or `(u32::MAX, 0)` when absent; indexed
    /// by `pos * num_opens + open_index`.  Allocated lazily on the first
    /// insert: most evaluations (every non-nested SemRE outside search
    /// mode) never populate the table, and eagerly zeroing
    /// `positions × num_opens` slots would make anchored matching of a
    /// long haystack pay for a structure it does not use.
    slots: Vec<(u32, u32)>,
    data: Vec<OpenRef>,
    entries: usize,
}

impl LoqTable {
    fn reset(&mut self, positions: usize, num_opens: usize) {
        self.num_opens = num_opens;
        self.positions = positions;
        self.data.clear();
        self.entries = 0;
        self.slots.clear();
    }

    fn get(&self, open_idx: u32, pos: usize) -> Option<&[OpenRef]> {
        if self.entries == 0 {
            return None;
        }
        let (start, len) = self.slots[pos * self.num_opens + open_idx as usize];
        (start != u32::MAX).then(|| &self.data[start as usize..start as usize + len as usize])
    }

    fn insert(&mut self, open_idx: u32, pos: usize, refs: &[OpenRef]) {
        if self.slots.is_empty() {
            self.slots
                .resize(self.positions.saturating_mul(self.num_opens), (u32::MAX, 0));
        }
        let start = self.data.len() as u32;
        self.data.extend_from_slice(refs);
        self.slots[pos * self.num_opens + open_idx as usize] = (start, refs.len() as u32);
        self.entries += 1;
    }

    fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

/// The `LOQ(o)` set of the open vertex referenced by `o`, if any.  Seeds
/// and non-open states never carry one.
fn loq_of<'b>(topo: &GadgetTopology, loq: &'b LoqTable, o: OpenRef) -> Option<&'b [OpenRef]> {
    let state = open_ref_state(o);
    if state == SEED_STATE {
        return None;
    }
    let idx = topo.open_index(state)?;
    loq.get(idx, open_ref_pos(o))
}

/// Reusable buffers of one evaluation: the per-position frontiers, the
/// packed co-reachability bitmap (plus its one-position staging row), the
/// LOQ arena, and the collect-phase cache.  A [`ScratchPool`] hands the
/// same buffers to successive evaluations, so the steady state of a scan
/// performs no per-line (let alone per-byte) frontier allocation.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    layer1: Layer,
    layer2: Layer,
    layer3: Layer,
    prev3: Layer,
    close_cache: Vec<Option<CachedClose>>,
    /// Co-reachability bits, bit `((pos - 1) * 3 + (layer - 1)) * states +
    /// state`, 64 to a word — one flat allocation of `3·states·(|w| + 1)`
    /// bits instead of `3(|w| + 1)` nested `Vec`s.
    coreach: Vec<u64>,
    /// One position of the backward pass: layers 1–3, then the next
    /// position's layer 1.
    coreach_row: Vec<bool>,
    loq: LoqTable,
    /// Staging buffer for backref merges at open vertices.
    refs_buf: Vec<OpenRef>,
}

/// A lock-guarded stack of [`EvalScratch`] buffers.  `Matcher` keeps one so
/// concurrent `is_match` / `find` calls each check out their own buffers
/// (the lock is held only for the pop/push, never during evaluation).
pub(crate) struct ScratchPool(Mutex<Vec<EvalScratch>>);

impl ScratchPool {
    pub(crate) fn new() -> Self {
        ScratchPool(Mutex::new(Vec::new()))
    }

    pub(crate) fn take(&self) -> EvalScratch {
        self.0
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn put(&self, scratch: EvalScratch) {
        self.0.lock().expect("scratch pool poisoned").push(scratch);
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        // Scratch is transient: clones start with an empty pool.
        ScratchPool::new()
    }
}

impl std::fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScratchPool")
    }
}

/// Ledger key: `(query id, open position, close position)` — the identity
/// of an oracle question in the query graph.
type LedgerKey = (u32, u32, u32);

/// The saved state of a membership evaluation suspended mid-line on
/// answers its session does not have yet: the state positions before the
/// suspension computed (the alive states of the `prev3` frontier with
/// their backreference sets, the LOQ arena and the packed co-reachability
/// bitmap), the question ledger (whose pending slots are exactly the keys
/// the session is waiting on), and the position and apply-phase place to
/// continue at.  The other buffers go back to the [`ScratchPool`] while
/// the line is parked, and the kept ones are moved, never copied, so a
/// park or a resume costs `O(states)` whatever the line length.
///
/// Resuming re-enters the position loop at [`position`](Self::position),
/// at the close vertex that suspended, instead of replaying the line from
/// its first byte — that is what makes a parked line cheap to resume: a
/// line that suspends at `k` flush points costs `O(|w|)` total evaluator
/// work across all resumptions, not `O(k · |w|)`.
#[derive(Debug)]
pub struct SuspendedEval {
    frontier: Vec<(StateId, Vec<OpenRef>)>,
    loq: LoqTable,
    coreach: Vec<u64>,
    ledger: QueryLedger<LedgerKey>,
    report: EvalReport,
    best: Option<(usize, usize)>,
    pos: usize,
    apply: Option<ApplyState>,
    search: Option<SearchKind>,
}

impl SuspendedEval {
    /// The 1-based query-graph position the evaluation re-runs on resume.
    /// Monotonically non-decreasing across re-suspensions of one line, so
    /// drivers can tell a resumption that advanced (and submitted new keys)
    /// from one that is still waiting on the same answers.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Interned query names of an SNFA: the id carried by each open/close
/// state, derivable once from the immutable topology and reused by every
/// evaluation (`Matcher` precomputes one at construction).
#[derive(Clone, Debug)]
pub(crate) struct QueryTable {
    /// Distinct query names; ledger query ids index this table.
    queries: Vec<QueryName>,
    /// Query id carried by each state, if any.
    state_query: Vec<Option<u32>>,
}

impl QueryTable {
    pub(crate) fn build(snfa: &Snfa, topo: &GadgetTopology) -> Self {
        let mut queries: Vec<QueryName> = Vec::new();
        let mut state_query: Vec<Option<u32>> = vec![None; snfa.num_states()];
        for (state, slot) in state_query.iter_mut().enumerate() {
            if let Some(query) = topo.query(state) {
                let id = match queries.iter().position(|known| known == query) {
                    Some(id) => id,
                    None => {
                        queries.push(query.clone());
                        queries.len() - 1
                    }
                };
                *slot = Some(id as u32);
            }
        }
        QueryTable {
            queries,
            state_query,
        }
    }
}

/// One close vertex's candidate computation, cached by the collect phase
/// for reuse in the apply phase.
#[derive(Debug)]
struct CachedClose {
    candidates: Vec<OpenRef>,
    groups: Vec<(usize, bool)>,
}

/// The batched query plane threaded through one evaluation.
struct Plane<'a, 's, 'o> {
    /// Deduplicating accumulator of this line's `(q, i, j)` questions.
    ledger: QueryLedger<LedgerKey>,
    /// Content-level answer store, possibly shared across many lines.
    session: &'s mut BatchSession<'o>,
    /// Interned query names; `LedgerKey.0` indexes `table.queries`.
    table: &'a QueryTable,
}

/// Resolves every pending ledger key through the session in one batch.
/// Returns `false` when the session does not have every answer yet (a
/// suspending session has queued or submitted the missing keys; the
/// evaluation must suspend).  Inline sessions always return `true`.
fn flush_plane(plane: &mut Plane<'_, '_, '_>, input: &[u8]) -> bool {
    let Plane {
        ledger,
        session,
        table,
    } = plane;
    ledger.try_flush(
        |&(qid, start, end)| {
            QueryKey::new(
                table.queries[qid as usize].as_str(),
                &input[start as usize - 1..end as usize - 1],
            )
        },
        |batch| session.try_resolve(batch),
    )
}

/// Evaluates the query graph of `snfa` over `input`, consulting `oracle`
/// for refinement queries.  With `options.batched` a fresh, single-line
/// [`BatchSession`] is used; [`evaluate_in_session`] shares one across
/// lines.
pub(crate) fn evaluate_with_scratch(
    snfa: &Snfa,
    topo: &GadgetTopology,
    input: &[u8],
    oracle: &dyn Oracle,
    options: EvalOptions,
    scratch: &mut EvalScratch,
) -> EvalReport {
    if options.batched {
        let table = QueryTable::build(snfa, topo);
        let mut session = BatchSession::new(oracle);
        return evaluate_in_session(snfa, topo, &table, input, options, &mut session, scratch);
    }
    Evaluator {
        snfa,
        topo,
        input,
        oracle,
        options,
        report: EvalReport {
            positions: input.len() + 1,
            ..EvalReport::default()
        },
        plane: None,
        search: None,
        best: None,
        suspended_at: None,
        apply: None,
    }
    .run(scratch)
}

/// Unanchored search over `input`: finds the [`SearchKind`]-preferred span
/// `(start, end)` with `input[start..end] ∈ ⟦r⟧`, reported in
/// [`EvalReport::span`].  One pass over the text answers all start
/// positions: every position seeds the start vertex (the implicit `.*`
/// prefix) and the seeds ride the backreference rules to the accept vertex.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_search_with_scratch(
    snfa: &Snfa,
    topo: &GadgetTopology,
    input: &[u8],
    oracle: &dyn Oracle,
    options: EvalOptions,
    kind: SearchKind,
    scratch: &mut EvalScratch,
) -> EvalReport {
    if options.batched {
        let table = QueryTable::build(snfa, topo);
        let mut session = BatchSession::new(oracle);
        return evaluate_search_in_session(
            snfa,
            topo,
            &table,
            input,
            options,
            kind,
            &mut session,
            scratch,
        );
    }
    Evaluator {
        snfa,
        topo,
        input,
        oracle,
        options,
        report: EvalReport {
            positions: input.len() + 1,
            ..EvalReport::default()
        },
        plane: None,
        search: Some(kind),
        best: None,
        suspended_at: None,
        apply: None,
    }
    .run(scratch)
}

/// Like [`evaluate_search`], but resolving oracle questions through
/// `session` so answers are shared with every other evaluation using it
/// (e.g. the successive suffix searches of a `find_iter`).  Implies the
/// batched plane.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_search_in_session<'a>(
    snfa: &'a Snfa,
    topo: &'a GadgetTopology,
    table: &'a QueryTable,
    input: &'a [u8],
    options: EvalOptions,
    kind: SearchKind,
    session: &mut BatchSession<'_>,
    scratch: &mut EvalScratch,
) -> EvalReport {
    let oracle = session.backend();
    Evaluator {
        snfa,
        topo,
        input,
        oracle,
        options,
        report: EvalReport {
            positions: input.len() + 1,
            ..EvalReport::default()
        },
        plane: Some(Plane {
            ledger: QueryLedger::new(),
            session,
            table,
        }),
        search: Some(kind),
        best: None,
        suspended_at: None,
        apply: None,
    }
    .run(scratch)
}

/// Evaluates the query graph with oracle questions resolved through
/// `session` (and its backend), so `(query, text)` answers are shared with
/// every other evaluation using the same session (e.g. the other lines of a
/// grep chunk).  Implies the batched plane regardless of `options.batched`.
pub(crate) fn evaluate_in_session<'a>(
    snfa: &'a Snfa,
    topo: &'a GadgetTopology,
    table: &'a QueryTable,
    input: &'a [u8],
    options: EvalOptions,
    session: &mut BatchSession<'_>,
    scratch: &mut EvalScratch,
) -> EvalReport {
    let oracle = session.backend();
    Evaluator {
        snfa,
        topo,
        input,
        oracle,
        options,
        report: EvalReport {
            positions: input.len() + 1,
            ..EvalReport::default()
        },
        plane: Some(Plane {
            ledger: QueryLedger::new(),
            session,
            table,
        }),
        search: None,
        best: None,
        suspended_at: None,
        apply: None,
    }
    .run(scratch)
}

/// The resumable flavour of [`evaluate_in_session`]: evaluates `input`
/// afresh, or, given `parked`, continues that suspended evaluation from
/// the position that parked it (moving its saved state into `scratch`).
/// On a suspending session, an evaluation whose answers are not all there
/// yet returns `Err` with everything needed to continue from the suspended
/// position; the buffers it does not keep stay in `scratch`.  A parked
/// evaluation must be continued with the `snfa` / `topo` / `table` /
/// `input` it started with and the session it suspended on — the parked
/// state is only meaningful against them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_resumable<'a>(
    snfa: &'a Snfa,
    topo: &'a GadgetTopology,
    table: &'a QueryTable,
    input: &'a [u8],
    options: EvalOptions,
    session: &mut BatchSession<'_>,
    scratch: &mut EvalScratch,
    parked: Option<Box<SuspendedEval>>,
) -> Result<EvalReport, Box<SuspendedEval>> {
    let (ledger, report, best, search, resume) = match parked {
        None => {
            let report = EvalReport {
                positions: input.len() + 1,
                ..EvalReport::default()
            };
            (QueryLedger::new(), report, None, None, None)
        }
        Some(parked) => {
            let SuspendedEval {
                frontier,
                loq,
                coreach,
                ledger,
                report,
                best,
                pos,
                apply,
                search,
            } = *parked;
            scratch.prev3.ensure(snfa.num_states());
            scratch.prev3.restore(frontier);
            scratch.loq = loq;
            scratch.coreach = coreach;
            (ledger, report, best, search, Some((pos, apply)))
        }
    };
    let oracle = session.backend();
    let mut evaluator = Evaluator {
        snfa,
        topo,
        input,
        oracle,
        options,
        report,
        plane: Some(Plane {
            ledger,
            session,
            table,
        }),
        search,
        best,
        suspended_at: None,
        apply: None,
    };
    let resume_at = resume.map(|(pos, apply)| {
        evaluator.apply = apply;
        pos
    });
    // The completion half mirrors [`Evaluator::run`]; the suspension half
    // moves the ledger and the kept buffers into a [`SuspendedEval`].
    let mut report = evaluator.run_inner(scratch, resume_at);
    if let Some(pos) = evaluator.suspended_at {
        let plane = evaluator
            .plane
            .take()
            .expect("resumable evaluations run on the batched plane");
        return Err(Box::new(SuspendedEval {
            frontier: scratch.prev3.take_alive(),
            loq: std::mem::take(&mut scratch.loq),
            coreach: std::mem::take(&mut scratch.coreach),
            ledger: plane.ledger,
            report: evaluator.report,
            best: evaluator.best,
            pos,
            apply: evaluator.apply,
            search: evaluator.search,
        }));
    }
    if evaluator.search.is_some() {
        report.span = evaluator.best;
        report.matched = evaluator.best.is_some();
    }
    if let Some(plane) = &evaluator.plane {
        report.unique_keys = plane.ledger.unique_keys();
        report.batches = plane.ledger.stats().batches;
    }
    report.keys_deduped = report.oracle_calls.saturating_sub(report.unique_keys);
    Ok(report)
}

struct Evaluator<'a, 's, 'o> {
    snfa: &'a Snfa,
    topo: &'a GadgetTopology,
    input: &'a [u8],
    oracle: &'a dyn Oracle,
    options: EvalOptions,
    report: EvalReport,
    /// The batched query plane, absent on the per-call path.
    plane: Option<Plane<'a, 's, 'o>>,
    /// Unanchored search mode: `Some` makes every position seed the start
    /// vertex and checks the accept vertex at every position.
    search: Option<SearchKind>,
    /// Best span found so far by a search evaluation.
    best: Option<(usize, usize)>,
    /// The position at which the evaluation suspended on answers its
    /// session does not have yet (suspending sessions only), so the
    /// resumable path knows where to re-enter the position loop.
    suspended_at: Option<usize>,
    /// Where in the apply phase of the resumed position to continue — or,
    /// after a suspension there, where it stopped.
    apply: Option<ApplyState>,
}

/// An apply phase stopped at a straggler question: the close-order index
/// of the vertex to re-evaluate, layer 1 as the vertices before it left it
/// (its alive states with their backreference sets), and the collect
/// phase's cached candidates of that vertex and the ones after it.  Resuming here
/// instead of re-running the position keeps a line with `k` stragglers at
/// one position from paying for that position `k` times.
#[derive(Debug)]
struct ApplyState {
    next: usize,
    layer1: Vec<(StateId, Vec<OpenRef>)>,
    cached: Vec<(StateId, CachedClose)>,
}

impl ApplyState {
    /// Moves what the apply phase needs to continue at `close_order[next]`
    /// out of the scratch buffers.
    fn park(
        next: usize,
        layer1: &mut Layer,
        close_cache: &mut [Option<CachedClose>],
        close_order: &[StateId],
    ) -> Self {
        ApplyState {
            next,
            layer1: layer1.take_alive(),
            cached: close_order[next..]
                .iter()
                .filter_map(|&c| Some((c, close_cache[c].take()?)))
                .collect(),
        }
    }
}

impl Evaluator<'_, '_, '_> {
    fn run(mut self, scratch: &mut EvalScratch) -> EvalReport {
        let mut report = self.run_inner(scratch, None);
        // A suspended report has no verdict; only the resumable entry
        // points may run on a suspending session.
        assert!(
            self.suspended_at.is_none(),
            "a suspending session suspended a non-resumable evaluation"
        );
        if self.search.is_some() {
            report.span = self.best;
            report.matched = self.best.is_some();
        }
        match &self.plane {
            Some(plane) => {
                report.unique_keys = plane.ledger.unique_keys();
                report.batches = plane.ledger.stats().batches;
            }
            None => {
                // Per-call: every request is a distinct round trip and
                // nothing deduplicates.
                report.unique_keys = report.oracle_calls;
                report.batches = report.oracle_calls;
            }
        }
        report.keys_deduped = report.oracle_calls.saturating_sub(report.unique_keys);
        report
    }

    /// The position loop.  `resume_at: Some(pos)` re-enters at `pos` with
    /// the buffers in `scratch` carrying the state a suspension saved
    /// (`prev3` = layer 3 of `pos - 1`, the LOQ arena and co-reachability
    /// bitmap as computed on the initial run); `None` starts fresh.
    fn run_inner(&mut self, scratch: &mut EvalScratch, resume_at: Option<usize>) -> EvalReport {
        let n = self.input.len();
        let states = self.snfa.num_states();
        let EvalScratch {
            layer1,
            layer2,
            layer3,
            prev3,
            close_cache,
            coreach,
            coreach_row,
            loq,
            refs_buf,
        } = scratch;
        layer1.ensure(states);
        layer2.ensure(states);
        layer3.ensure(states);
        close_cache.clear();
        close_cache.resize_with(states, || None);
        let prune = self.options.prune_coreachable;
        if resume_at.is_none() {
            prev3.ensure(states);
            loq.reset(n + 2, self.topo.num_open_states());
            if prune {
                self.co_reachability(coreach, coreach_row);
            }
        }
        let cr: &[u64] = coreach;
        let allowed = move |layer: usize, state: StateId, pos: usize| -> bool {
            let bit = ((pos - 1) * 3 + (layer - 1)) * states + state;
            !prune || cr[bit / 64] & (1 << (bit % 64)) != 0
        };

        // If even the start vertex cannot reach end, the skeleton does not
        // match and no oracle call is needed.  (In search mode each seed is
        // gated individually below; a resumed evaluation proved this on its
        // initial run.)
        if resume_at.is_none() && self.search.is_none() && !allowed(1, self.snfa.start(), 1) {
            return self.report;
        }

        for pos in resume_at.unwrap_or(1)..=n + 1 {
            // Every ledger key names this position as its close position,
            // so the keys of earlier positions can never be enlisted
            // again: keep only this position's (a resumed position keeps
            // the keys its suspended attempt enlisted).
            if resume_at != Some(pos) {
                if let Some(plane) = &mut self.plane {
                    plane.ledger.forget();
                }
            }
            // A suspension rolls the logical request counter back to where
            // its resumption starts asking again, keeping counts identical
            // to an uninterrupted evaluation: to the position's entry value
            // when the collect phase suspends (the resumption asks from the
            // first close vertex), to the vertex's entry value when a close
            // vertex does (the resumption re-evaluates only that vertex,
            // with layer 1 and the cached candidates restored).
            let calls_at_pos = self.report.oracle_calls;
            layer1.clear();
            layer2.clear();
            layer3.clear();
            let apply_from = match self.apply.take() {
                Some(state) if resume_at == Some(pos) => {
                    layer1.restore(state.layer1);
                    for (state_id, cached) in state.cached {
                        close_cache[state_id] = Some(cached);
                    }
                    Some(state.next)
                }
                _ => None,
            };

            // A suspension in the apply phase resumes there, with layer 1
            // and the collect phase's cache as it left them.
            if apply_from.is_none() {
                // ---- Layer 1: character step (targets are always blank) -----
                if pos == 1 {
                    if self.search.is_none() {
                        layer1.alive[self.snfa.start()] = true;
                    }
                } else {
                    let byte = self.input[pos - 2];
                    for s in 0..states {
                        if !prev3.alive[s] {
                            continue;
                        }
                        for &(class, t) in self.snfa.char_out(s) {
                            if !class.contains(byte) || !allowed(1, t, pos) {
                                continue;
                            }
                            layer1.alive[t] = true;
                            merge_refs(&mut layer1.backref[t], &prev3.backref[s]);
                        }
                    }
                }

                // ---- Search seeds: the implicit `.*` prefix ------------------
                // Every position seeds the start vertex, tagged with a
                // pseudo-backreference recording the candidate span start, so
                // one pass answers all start positions.  Seeds that can no
                // longer improve on the best span are suppressed, sparing their
                // oracle questions.
                if let Some(kind) = self.search {
                    let seed_index = pos - 1;
                    let useful = match kind {
                        SearchKind::Leftmost => self.best.map_or(true, |(s, _)| seed_index < s),
                        SearchKind::EarliestEnd => true,
                    };
                    let start = self.snfa.start();
                    if useful && allowed(1, start, pos) {
                        layer1.alive[start] = true;
                        merge_refs(&mut layer1.backref[start], &[open_ref(SEED_STATE, pos)]);
                    }
                }

                // ---- Layer 1: close edges ------------------------------------
                // Collect phase: enlist every oracle question this position is
                // certain to need and resolve them in one batch.
                if self.plane.is_some()
                    && !self.collect_close_queries(pos, layer1, &allowed, close_cache, loq)
                {
                    // Resume at the first close vertex: its question
                    // flushes the pending batch again.
                    self.report.oracle_calls = calls_at_pos;
                    self.suspended_at = Some(pos);
                    let close_order = self.topo.close_order();
                    self.apply = Some(ApplyState::park(0, layer1, close_cache, close_order));
                    return self.report;
                }
            }
            // Apply phase: the Fig. 9 rules, in topological order, reading
            // answers from the ledger (or the oracle, on the per-call
            // plane).
            let close_order = self.topo.close_order();
            for (next, &t) in close_order.iter().enumerate().skip(apply_from.unwrap_or(0)) {
                if !allowed(1, t, pos) {
                    continue;
                }
                let calls_at_vertex = self.report.oracle_calls;
                if !self.eval_close_vertex(t, pos, layer1, close_cache, loq) {
                    // Resume at this vertex: only its own questions are
                    // asked again.
                    self.report.oracle_calls = calls_at_vertex;
                    self.suspended_at = Some(pos);
                    self.apply = Some(ApplyState::park(next, layer1, close_cache, close_order));
                    return self.report;
                }
            }

            // ---- Layer 2: E12 copies, then open edges -------------------
            for s in 0..states {
                if !allowed(2, s, pos) {
                    continue;
                }
                if matches!(self.snfa.label(s), Label::Open(_)) {
                    continue; // handled below in topological order
                }
                if layer1.alive[s] {
                    layer2.alive[s] = true;
                    // Layer 1's set is not read again for non-open states,
                    // so the copy of the Fig. 9 E12 rule can be a swap — no
                    // allocation, no element clone.
                    std::mem::swap(&mut layer2.backref[s], &mut layer1.backref[s]);
                }
            }
            for &t in self.topo.open_order() {
                if !allowed(2, t, pos) {
                    continue;
                }
                self.eval_open_vertex(t, pos, layer1, layer2, loq, refs_buf);
            }

            // ---- Layer 3: balanced ε-reach edges -------------------------
            for t in 0..states {
                if !allowed(3, t, pos) {
                    continue;
                }
                for &s in self.topo.bal_in(t) {
                    if !layer2.alive[s] {
                        continue;
                    }
                    layer3.alive[t] = true;
                    merge_refs(&mut layer3.backref[t], &layer2.backref[s]);
                }
            }

            self.report.vertices_alive += layer1.alive.iter().filter(|&&a| a).count() as u64;
            self.report.vertices_alive += layer2.alive.iter().filter(|&&a| a).count() as u64;
            self.report.vertices_alive += layer3.alive.iter().filter(|&&a| a).count() as u64;

            // ---- Search: check the accept vertex at every position -------
            // The seeds alive in the accept vertex's backreference set are
            // exactly the valid span starts ending here (the Bc rule has
            // already discarded starts whose oracle path failed); the set is
            // sorted, so the first seed is the leftmost valid start.
            if let Some(kind) = self.search {
                let accept = self.snfa.accept();
                if layer3.alive[accept] {
                    let leftmost_seed = layer3.backref[accept]
                        .iter()
                        .find(|&&r| open_ref_state(r) == SEED_STATE);
                    if let Some(&seed) = leftmost_seed {
                        let span = (open_ref_pos(seed) - 1, pos - 1);
                        match kind {
                            SearchKind::EarliestEnd => {
                                self.best = Some(span);
                                return self.report;
                            }
                            SearchKind::Leftmost => {
                                if self.best.map_or(true, |(s, _)| span.0 < s) {
                                    self.best = Some(span);
                                    if span.0 == 0 {
                                        // No span can start earlier, and this
                                        // is the earliest end for that start.
                                        return self.report;
                                    }
                                }
                            }
                        }
                    }
                }
            }

            if pos <= n {
                // Early exit when the frontier dies: nothing downstream can
                // become alive any more.  In search mode the next seed
                // revives the frontier, so bail out only once every seed
                // that could still improve the best span is behind us.
                if layer3.alive.iter().all(|&a| !a) {
                    match self.search {
                        None => return self.report,
                        Some(SearchKind::Leftmost) => {
                            if let Some((s, _)) = self.best {
                                if s <= pos {
                                    return self.report;
                                }
                            }
                        }
                        Some(SearchKind::EarliestEnd) => {}
                    }
                }
                std::mem::swap(prev3, layer3);
            } else if self.search.is_none() {
                self.report.matched = layer3.alive[self.snfa.accept()];
            }
        }
        self.report
    }

    /// Computes the candidate opens of the close vertex `(t, layer 1, pos)`
    /// given the current layer-1 frontier: the union of the backreferences
    /// of the alive predecessors, restricted to opens of `t`'s query.
    /// Returns `None` when no predecessor is alive.
    fn close_candidates(&self, t: StateId, layer1: &Layer) -> Option<Vec<OpenRef>> {
        let query = self.topo.query(t).expect("close states carry a query");
        let mut candidates: Vec<OpenRef> = Vec::new();
        let mut any_alive_pred = false;
        for &p in self.topo.close_in(t) {
            if !layer1.alive[p] {
                continue;
            }
            any_alive_pred = true;
            merge_refs(&mut candidates, &layer1.backref[p]);
        }
        if !any_alive_pred {
            return None;
        }
        candidates.retain(|&o| {
            let state = open_ref_state(o);
            state != SEED_STATE && self.topo.query(state) == Some(query)
        });
        Some(candidates)
    }

    /// Groups candidate opens by their string position: all opens at the
    /// same position delimit the same substring, so one oracle question
    /// answers for all of them.  The second component records whether any
    /// member carries a LOQ set (nested queries).  Candidates are sorted,
    /// so the group order — and in particular the first group — is
    /// identical however the candidate set was reached.
    fn group_candidates(&self, candidates: &[OpenRef], loq: &LoqTable) -> Vec<(usize, bool)> {
        let mut groups: Vec<(usize, bool)> = Vec::new();
        for &o in candidates {
            let p = open_ref_pos(o);
            let has_loq = loq_of(self.topo, loq, o).is_some();
            match groups.iter_mut().find(|(gp, _)| *gp == p) {
                Some((_, h)) => *h |= has_loq,
                None => groups.push((p, has_loq)),
            }
        }
        groups
    }

    /// Collect phase of one position: enlists into the ledger every oracle
    /// question the apply phase is *certain* to issue, then flushes them as
    /// one batch.
    ///
    /// Certainty is what keeps the batched plane's request set identical to
    /// the per-call plane's: at this point the layer-1 frontier contains
    /// only character-step aliveness, a subset of what the close cascade
    /// will see, and aliveness (and alive vertices' backreference sets) only
    /// grow during the cascade.  Hence every group computed here exists in
    /// the apply phase too, and
    ///
    /// * groups whose opens carry backreferences (`with_loq`) are always
    ///   discharged by rule Bc — enlist them;
    /// * under eager discharge every group is asked — enlist them all;
    /// * under lazy discharge, when no open anywhere carries a LOQ set (in
    ///   particular for every non-nested SemRE), the candidate set cannot
    ///   change during the cascade and the per-call path always asks the
    ///   first group — enlist it.
    ///
    /// Anything else is left to the apply phase, which resolves stragglers
    /// through the same ledger.
    ///
    /// Returns `false` when the flush suspended on a suspending session
    /// (the session has queued or submitted the pending keys; the caller
    /// parks this evaluation and resumes it at this position later).
    fn collect_close_queries<F>(
        &mut self,
        pos: usize,
        layer1: &Layer,
        allowed: &F,
        close_cache: &mut [Option<CachedClose>],
        loq: &LoqTable,
    ) -> bool
    where
        F: Fn(usize, StateId, usize) -> bool,
    {
        // The apply phase takes every entry it visits, but clear anyway so
        // a stale computation can never leak across positions.
        close_cache.iter_mut().for_each(|slot| *slot = None);
        // With no LOQ sets anywhere, candidate sets cannot change during
        // the close cascade (newly alive close vertices carry empty
        // backreferences), so the apply phase can reuse what is computed
        // here instead of recomputing it per vertex.
        let cache_reusable = loq.is_empty();
        let mut wanted: Vec<(StateId, usize)> = Vec::new();
        for &t in self.topo.close_order() {
            if !allowed(1, t, pos) {
                continue;
            }
            let candidates = match self.close_candidates(t, layer1) {
                Some(c) if !c.is_empty() => c,
                _ => continue,
            };
            let groups = self.group_candidates(&candidates, loq);
            if !self.options.lazy_oracle {
                wanted.extend(groups.iter().map(|&(open_pos, _)| (t, open_pos)));
            } else {
                let mut any_loq = false;
                for &(open_pos, has_loq) in &groups {
                    if has_loq {
                        any_loq = true;
                        wanted.push((t, open_pos));
                    }
                }
                if !any_loq && cache_reusable {
                    wanted.push((t, groups[0].0));
                }
            }
            if cache_reusable {
                close_cache[t] = Some(CachedClose { candidates, groups });
            }
        }
        if wanted.is_empty() {
            return true;
        }
        let plane = self
            .plane
            .as_mut()
            .expect("collect phase runs on the batched plane");
        for (t, open_pos) in wanted {
            let qid = plane.table.state_query[t].expect("close states carry a query");
            plane.ledger.enlist((qid, open_pos as u32, pos as u32));
        }
        flush_plane(plane, self.input)
    }

    /// Evaluates the close vertex `(t, layer 1, pos)`: discharges oracle
    /// queries for the opens recorded in its predecessors' backreference
    /// sets (rules M, Ac, Bc of Fig. 9).
    ///
    /// Returns `false` when a straggler question suspended on a
    /// suspending session.  Nothing of layer 1 has changed then (the
    /// vertex's own slot is written only once it is decided), and the
    /// resumption re-evaluates this vertex from its cached candidates.
    fn eval_close_vertex(
        &mut self,
        t: StateId,
        pos: usize,
        layer1: &mut Layer,
        close_cache: &mut [Option<CachedClose>],
        loq: &LoqTable,
    ) -> bool {
        // `topo` is a shared borrow independent of `self`, so the query
        // name can stay borrowed across the `&mut self` oracle calls below
        // — no per-vertex clone.
        let topo = self.topo;
        let query = topo.query(t).expect("close states carry a query");
        // Reuse the collect phase's computation when it cached one for this
        // vertex (valid only while no LOQ set exists, which is when the
        // candidate set provably cannot have changed since).
        let (candidates, groups) = match close_cache[t].take() {
            Some(CachedClose { candidates, groups }) => (candidates, groups),
            None => {
                let candidates = match self.close_candidates(t, layer1) {
                    Some(c) if !c.is_empty() => c,
                    _ => return true,
                };
                let groups = self.group_candidates(&candidates, loq);
                (candidates, groups)
            }
        };

        // Reuse the (empty) backref buffer already sitting in the frontier
        // slot instead of allocating a fresh one per close vertex.
        let mut matched_backrefs = std::mem::take(&mut layer1.backref[t]);
        matched_backrefs.clear();
        let mut alive = false;
        let mut suspended = false;

        // Opens that carry backreferences of their own (nested queries) must
        // all be resolved; opens without may be short-circuited.
        for &(open_pos, _) in groups.iter().filter(|&&(_, has_loq)| has_loq) {
            match self.ask_oracle(t, query, open_pos, pos) {
                None => {
                    suspended = true;
                    break;
                }
                Some(false) => {}
                Some(true) => {
                    alive = true;
                    for &o in candidates.iter().filter(|&&o| open_ref_pos(o) == open_pos) {
                        if let Some(refs) = loq_of(topo, loq, o) {
                            merge_refs(&mut matched_backrefs, refs);
                        }
                    }
                }
            }
        }
        for &(open_pos, _) in groups.iter().filter(|&&(_, has_loq)| !has_loq) {
            if suspended || (alive && self.options.lazy_oracle) {
                // The remaining groups cannot change Backref(v) (their LOQ
                // sets are empty) and Alive(v) is already established.
                break;
            }
            match self.ask_oracle(t, query, open_pos, pos) {
                Some(answer) => alive |= answer,
                None => suspended = true,
            }
        }
        if suspended {
            // The resumption re-evaluates this vertex from the same layer 1:
            // keep its candidates rather than work them out again.
            close_cache[t] = Some(CachedClose { candidates, groups });
            return false;
        }

        if alive {
            layer1.alive[t] = true;
        } else {
            matched_backrefs.clear();
        }
        layer1.backref[t] = matched_backrefs;
        true
    }

    /// Evaluates the open vertex `(t, layer 2, pos)`: rule Ao plus the
    /// backreference rules Bo (the vertex references itself) and the LOQ
    /// bookkeeping needed by rule Bc at the matching close.
    fn eval_open_vertex(
        &mut self,
        t: StateId,
        pos: usize,
        layer1: &Layer,
        layer2: &mut Layer,
        loq: &mut LoqTable,
        refs_buf: &mut Vec<OpenRef>,
    ) {
        refs_buf.clear();
        let mut alive = false;
        if layer1.alive[t] {
            alive = true;
            merge_refs(refs_buf, &layer1.backref[t]);
        }
        for &p in self.topo.open_in(t) {
            if !layer2.alive[p] {
                continue;
            }
            alive = true;
            merge_refs(refs_buf, &layer2.backref[p]);
        }
        if !alive {
            return;
        }
        let me = open_ref(t, pos);
        layer2.alive[t] = true;
        let slot = &mut layer2.backref[t];
        slot.clear();
        slot.push(me);
        if !refs_buf.is_empty() {
            let idx = self
                .topo
                .open_index(t)
                .expect("open states have a dense index");
            loq.insert(idx, pos, refs_buf);
        }
    }

    /// Issues the oracle question delimited by an open at `open_pos` and a
    /// close at state `t` / position `close_pos` (both 1-based gadget
    /// positions).  On the batched plane the question goes through the
    /// ledger — usually answered by the collect phase's batch, otherwise
    /// resolved as a straggler flush.  `None` means the straggler flush
    /// suspended on a suspending session (inline sessions always
    /// answer).
    fn ask_oracle(
        &mut self,
        t: StateId,
        query: &QueryName,
        open_pos: usize,
        close_pos: usize,
    ) -> Option<bool> {
        debug_assert!(open_pos <= close_pos);
        self.report.oracle_calls += 1;
        match &mut self.plane {
            Some(plane) => {
                let qid = plane.table.state_query[t].expect("close states carry a query");
                debug_assert_eq!(&plane.table.queries[qid as usize], query);
                let slot = plane
                    .ledger
                    .enlist((qid, open_pos as u32, close_pos as u32));
                if let Some(answer) = plane.ledger.answer(slot) {
                    return Some(answer);
                }
                if !flush_plane(plane, self.input) {
                    return None;
                }
                Some(
                    plane
                        .ledger
                        .answer(slot)
                        .expect("a successful flush resolves every pending slot"),
                )
            }
            None => {
                let text = &self.input[open_pos - 1..close_pos - 1];
                Some(self.oracle.holds(query.as_str(), text))
            }
        }
    }

    /// Backward, oracle-free pass computing for every vertex whether `end`
    /// is syntactically reachable from it, packed into `bits` (bit
    /// `((pos - 1) * 3 + (layer - 1)) * states + state`).  Each position is
    /// worked out in `row` — its layers 1–3 followed by the next
    /// position's layer 1 — and then packed.
    fn co_reachability(&self, bits: &mut Vec<u64>, row: &mut Vec<bool>) {
        let n = self.input.len();
        let states = self.snfa.num_states();
        let stride = 3 * states;
        bits.clear();
        bits.resize((stride * (n + 1)).div_ceil(64), 0);
        row.clear();
        row.resize(4 * states, false);

        for pos in (1..=n + 1).rev() {
            let (current, next1) = row.split_at_mut(stride);
            // `current` still holds position `pos + 1`: keep its layer 1.
            next1.copy_from_slice(&current[..states]);
            current.fill(false);
            let (l1, tail) = current.split_at_mut(states);
            let (l2, l3) = tail.split_at_mut(states);

            // Layer 3: end vertex, or a character edge into an allowed
            // layer-1 vertex of the next position.  Search mode checks the
            // accept vertex at *every* position, so it is always a target.
            if pos == n + 1 {
                l3[self.snfa.accept()] = true;
            } else {
                let byte = self.input[pos - 1];
                for (s, slot) in l3.iter_mut().enumerate() {
                    if self
                        .snfa
                        .char_out(s)
                        .iter()
                        .any(|&(class, t)| class.contains(byte) && next1[t])
                    {
                        *slot = true;
                    }
                }
                if self.search.is_some() {
                    l3[self.snfa.accept()] = true;
                }
            }

            // Layer 2: E23 edges into layer 3, then E22 edges (reverse
            // topological order so that later opens are settled first).
            for (s, slot) in l2.iter_mut().enumerate() {
                if self.topo_balanced(s).iter().any(|&t| l3[t]) {
                    *slot = true;
                }
            }
            for &t in self.topo.open_order().iter().rev() {
                if l2[t] {
                    for &s in self.topo.open_in(t) {
                        l2[s] = true;
                    }
                }
            }

            // Layer 1: E12 edges into layer 2, then E11 edges in reverse
            // topological order.
            l1.copy_from_slice(l2);
            for &t in self.topo.close_order().iter().rev() {
                if l1[t] {
                    for &s in self.topo.close_in(t) {
                        l1[s] = true;
                    }
                }
            }

            let base = (pos - 1) * stride;
            for (offset, _) in current.iter().enumerate().filter(|&(_, &on)| on) {
                let bit = base + offset;
                bits[bit / 64] |= 1 << (bit % 64);
            }
        }
    }

    fn topo_balanced(&self, s: StateId) -> &[StateId] {
        self.topo.balanced_targets(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GadgetTopology;
    use semre_automata::{compile, EpsClosure};
    use semre_oracle::{ConstOracle, Oracle, PalindromeOracle, SetOracle};
    use semre_syntax::{examples, parse, Semre};

    fn run(pattern: &str, oracle: &dyn Oracle, input: &[u8], options: EvalOptions) -> EvalReport {
        run_semre(&parse(pattern).unwrap(), oracle, input, options)
    }

    fn run_semre(r: &Semre, oracle: &dyn Oracle, input: &[u8], options: EvalOptions) -> EvalReport {
        let snfa = compile(r);
        let closure = EpsClosure::compute(&snfa, oracle);
        let topo = GadgetTopology::new(&snfa, &closure);
        evaluate_with_scratch(
            &snfa,
            &topo,
            input,
            oracle,
            options,
            &mut EvalScratch::default(),
        )
    }

    fn all_option_combos() -> Vec<EvalOptions> {
        let mut combos = Vec::new();
        for prune_coreachable in [false, true] {
            for lazy_oracle in [false, true] {
                for batched in [false, true] {
                    combos.push(EvalOptions {
                        prune_coreachable,
                        lazy_oracle,
                        batched,
                    });
                }
            }
        }
        combos
    }

    #[test]
    fn classical_matching_agrees_with_skeleton() {
        let oracle = ConstOracle::always_true();
        for options in all_option_combos() {
            assert!(run("abc", &oracle, b"abc", options).matched);
            assert!(!run("abc", &oracle, b"abd", options).matched);
            assert!(run("(ab)*", &oracle, b"abab", options).matched);
            assert!(!run("(ab)*", &oracle, b"aba", options).matched);
            assert!(run("a|b*", &oracle, b"bbb", options).matched);
            assert!(run("a|b*", &oracle, b"", options).matched);
            assert!(!run("a+", &oracle, b"", options).matched);
        }
    }

    #[test]
    fn refinement_consults_the_oracle() {
        let mut oracle = SetOracle::new();
        oracle.insert("City", "Paris");
        for options in all_option_combos() {
            let r = "go to (?<City>: [A-Za-z]+)!";
            assert!(
                run(r, &oracle, b"go to Paris!", options).matched,
                "{options:?}"
            );
            assert!(
                !run(r, &oracle, b"go to Gotham!", options).matched,
                "{options:?}"
            );
            // Skeleton mismatch: no oracle calls at all.
            let report = run(r, &oracle, b"go to 1234!", options);
            assert!(!report.matched);
            assert_eq!(report.oracle_calls, 0, "{options:?}");
        }
    }

    #[test]
    fn fig2_palindrome_example() {
        // Σ* a ⟨pal⟩ — the worked example of Section 3.2.
        let oracle = PalindromeOracle;
        for options in all_option_combos() {
            let r = examples::r_pal();
            // w4 w3 = babca·cb: feasible via the first `a` (bcacb is a
            // palindrome), infeasible via the second.
            assert!(
                run_semre(&r, &oracle, b"babcacb", options).matched,
                "{options:?}"
            );
            // w2 w3 = bacb·cb from the paper: not a match.
            assert!(
                !run_semre(&r, &oracle, b"bacbcb", options).matched,
                "{options:?}"
            );
            // w1 w3 = babc·cb: match (after the first a, `bccb` is a
            // palindrome).
            assert!(
                run_semre(&r, &oracle, b"babccb", options).matched,
                "{options:?}"
            );
        }
    }

    #[test]
    fn qstar_example_splits_the_string() {
        // (Σ* ∧ ⟨q⟩)* with an oracle accepting only "ab" and "c".
        let mut oracle = SetOracle::new();
        oracle.insert("q", "ab");
        oracle.insert("q", "c");
        for options in all_option_combos() {
            let r = examples::r_qstar("q");
            assert!(
                run_semre(&r, &oracle, b"abc", options).matched,
                "{options:?}"
            );
            assert!(
                run_semre(&r, &oracle, b"cabab", options).matched,
                "{options:?}"
            );
            assert!(run_semre(&r, &oracle, b"", options).matched, "{options:?}");
            assert!(
                !run_semre(&r, &oracle, b"abx", options).matched,
                "{options:?}"
            );
        }
    }

    #[test]
    fn nested_queries_paris_hilton() {
        let mut oracle = SetOracle::new();
        oracle.insert("City", "Paris");
        oracle.insert("Celebrity", "Paris Hilton");
        oracle.insert("Celebrity", "Taylor Swift");
        for options in all_option_combos() {
            let r = examples::r_paris_hilton();
            assert!(
                run_semre(&r, &oracle, b"Paris Hilton", options).matched,
                "{options:?}"
            );
            // A celebrity, but no city inside the name.
            assert!(
                !run_semre(&r, &oracle, b"Taylor Swift", options).matched,
                "{options:?}"
            );
            // Contains a city but is not a celebrity.
            assert!(
                !run_semre(&r, &oracle, b"Paris Metro", options).matched,
                "{options:?}"
            );
        }
    }

    #[test]
    fn empty_string_queries() {
        // (Σ* ∧ ⟨q⟩) where only ε is accepted.
        let mut oracle = SetOracle::new();
        oracle.insert("q", "");
        for options in all_option_combos() {
            assert!(run("<q>", &oracle, b"", options).matched, "{options:?}");
            assert!(
                !run("(?<q>: .*)x", &oracle, b"yx", options).matched,
                "{options:?}"
            );
            assert!(
                run("(?<q>: .*)x", &oracle, b"x", options).matched,
                "{options:?}"
            );
        }
    }

    #[test]
    fn lazy_oracle_reduces_calls() {
        // Σ*⟨q⟩Σ* over a string where many substrings are accepted: the
        // lazy evaluator stops at the first accepted group per close vertex.
        let oracle = ConstOracle::always_true();
        for batched in [false, true] {
            let eager = run(
                ".*<q>.*",
                &oracle,
                b"aaaaaaaa",
                EvalOptions {
                    prune_coreachable: true,
                    lazy_oracle: false,
                    batched,
                },
            );
            let lazy = run(
                ".*<q>.*",
                &oracle,
                b"aaaaaaaa",
                EvalOptions {
                    prune_coreachable: true,
                    lazy_oracle: true,
                    batched,
                },
            );
            assert!(eager.matched && lazy.matched);
            assert!(
                lazy.oracle_calls < eager.oracle_calls,
                "batched={batched} lazy: {} eager: {}",
                lazy.oracle_calls,
                eager.oracle_calls
            );
        }
    }

    #[test]
    fn pruning_skips_oracle_calls_on_hopeless_suffixes() {
        // (?<q>: a+)zzz — after reading many a's the skeleton still demands
        // a literal `zzz`; with a short input the query graph has vertices
        // for the opens but none of them can reach end, so a pruned
        // evaluation never calls the oracle.
        let oracle = ConstOracle::always_true();
        for batched in [false, true] {
            let pruned = run(
                "(?<q>: a+)zzz",
                &oracle,
                b"aaaa",
                EvalOptions {
                    prune_coreachable: true,
                    lazy_oracle: true,
                    batched,
                },
            );
            let unpruned = run(
                "(?<q>: a+)zzz",
                &oracle,
                b"aaaa",
                EvalOptions {
                    prune_coreachable: false,
                    lazy_oracle: true,
                    batched,
                },
            );
            assert!(!pruned.matched && !unpruned.matched);
            assert_eq!(pruned.oracle_calls, 0);
            assert!(unpruned.oracle_calls > 0);
            assert!(pruned.vertices_alive <= unpruned.vertices_alive);
        }
    }

    #[test]
    fn oracle_call_counts_scale_quadratically_for_padded_queries() {
        // Theorem 4.1: matching Σ*⟨q⟩Σ* inherently requires Ω(|w|²) oracle
        // queries in the worst case (oracle rejects everything).  The
        // batched plane issues exactly the same logical requests.
        let oracle = ConstOracle::always_false();
        for batched in [false, true] {
            let options = EvalOptions {
                batched,
                ..EvalOptions::default()
            };
            let calls_at = |len: usize| {
                let input = vec![b'a'; len];
                run(".*<q>.*", &oracle, &input, options).oracle_calls
            };
            let (c8, c16, c32) = (calls_at(8), calls_at(16), calls_at(32));
            // Exact quadratic growth: one query per non-empty substring,
            // n(n+1)/2 of them (the empty substring is probed once during
            // the ε-closure, not here).
            assert_eq!(c8, 36, "batched={batched}");
            assert_eq!(c16, 136, "batched={batched}");
            assert_eq!(c32, 528, "batched={batched}");
        }
    }

    #[test]
    fn batched_plane_matches_per_call_and_never_resolves_more_keys() {
        let mut oracle = SetOracle::new();
        oracle.insert("q", "a");
        oracle.insert("q", "aaa");
        let cases: &[(&str, &[u8])] = &[
            (".*<q>.*", b"aaaa"),
            ("(?<q>: a*)b?", b"aaab"),
            ("<q>a|<q>b", b"xa"),
            ("(<q>)*", b"aaaa"),
        ];
        for &(pattern, input) in cases {
            for lazy_oracle in [false, true] {
                for prune_coreachable in [false, true] {
                    let base = EvalOptions {
                        prune_coreachable,
                        lazy_oracle,
                        batched: false,
                    };
                    let batched = EvalOptions {
                        batched: true,
                        ..base
                    };
                    let per_call_report = run(pattern, &oracle, input, base);
                    let batched_report = run(pattern, &oracle, input, batched);
                    assert_eq!(batched_report.matched, per_call_report.matched, "{pattern}");
                    assert_eq!(
                        batched_report.oracle_calls, per_call_report.oracle_calls,
                        "{pattern}: logical request counts must agree"
                    );
                    assert!(
                        batched_report.unique_keys <= per_call_report.oracle_calls,
                        "{pattern}: {} unique keys vs {} per-call requests",
                        batched_report.unique_keys,
                        per_call_report.oracle_calls
                    );
                    assert!(
                        batched_report.batches <= batched_report.unique_keys.max(1),
                        "{pattern}: more batches than resolved keys"
                    );
                }
            }
        }
    }

    #[test]
    fn ledger_deduplicates_across_gadget_copies() {
        // Two refinement nodes with the same query name close over the same
        // substring: per-call evaluation asks twice, the ledger resolves
        // one key.
        let oracle = ConstOracle::always_false();
        let options = EvalOptions {
            prune_coreachable: false,
            lazy_oracle: false,
            batched: true,
        };
        let report = run("<q>a|<q>b", &oracle, b"xa", options);
        assert!(!report.matched);
        assert!(
            report.keys_deduped > 0,
            "expected cross-copy dedup: {report:?}"
        );
        assert!(report.unique_keys < report.oracle_calls, "{report:?}");
        assert_eq!(
            report.keys_deduped,
            report.oracle_calls - report.unique_keys
        );
    }

    #[test]
    fn batched_evaluation_groups_round_trips() {
        // Eager + batched: all groups of a position travel together, so
        // there are far fewer round trips than logical requests.
        let oracle = ConstOracle::always_false();
        let input = vec![b'a'; 16];
        let batched = run(
            ".*<q>.*",
            &oracle,
            &input,
            EvalOptions {
                prune_coreachable: true,
                lazy_oracle: false,
                batched: true,
            },
        );
        assert!(batched.oracle_calls > 0);
        assert!(
            batched.batches < batched.oracle_calls,
            "expected amortization: {} batches for {} requests",
            batched.batches,
            batched.oracle_calls
        );
        // One collect-phase batch per position that asks anything.
        assert!(batched.batches as usize <= input.len() + 1, "{batched:?}");
    }

    fn find(
        pattern: &str,
        oracle: &dyn Oracle,
        input: &[u8],
        options: EvalOptions,
    ) -> Option<(usize, usize)> {
        search(pattern, oracle, input, options, SearchKind::Leftmost).span
    }

    fn search(
        pattern: &str,
        oracle: &dyn Oracle,
        input: &[u8],
        options: EvalOptions,
        kind: SearchKind,
    ) -> EvalReport {
        let r = parse(pattern).unwrap();
        let snfa = compile(&r);
        let closure = EpsClosure::compute(&snfa, oracle);
        let topo = GadgetTopology::new(&snfa, &closure);
        evaluate_search_with_scratch(
            &snfa,
            &topo,
            input,
            oracle,
            options,
            kind,
            &mut EvalScratch::default(),
        )
    }

    #[test]
    fn search_finds_classical_spans() {
        let oracle = ConstOracle::always_true();
        for options in all_option_combos() {
            assert_eq!(
                find("abc", &oracle, b"xxabcxx", options),
                Some((2, 5)),
                "{options:?}"
            );
            assert_eq!(find("abc", &oracle, b"ab", options), None, "{options:?}");
            // Leftmost start wins, then the earliest end: `a+` in "xaaax"
            // is the single `a` at position 1.
            assert_eq!(
                find("a+", &oracle, b"xaaax", options),
                Some((1, 2)),
                "{options:?}"
            );
            // A nullable pattern matches the empty span at position 0.
            assert_eq!(
                find("a*", &oracle, b"ba", options),
                Some((0, 0)),
                "{options:?}"
            );
            assert_eq!(find("a+", &oracle, b"", options), None, "{options:?}");
        }
    }

    #[test]
    fn search_finds_refinement_spans() {
        let mut oracle = SetOracle::new();
        oracle.insert("City", "Paris");
        for options in all_option_combos() {
            let r = "go to (?<City>: [A-Za-z]+)!";
            assert_eq!(
                find(r, &oracle, b"-- go to Paris! --", options),
                Some((3, 15)),
                "{options:?}"
            );
            assert_eq!(
                find(r, &oracle, b"-- go to Gotham! --", options),
                None,
                "{options:?}"
            );
        }
    }

    #[test]
    fn search_does_not_mix_starts_across_oracle_verdicts() {
        // `(?<q>: a*)b` where only "a" is accepted: the span of "aab" is
        // (1, 3), never (0, 3) — a seed at 0 reaches the close vertex
        // tentatively, but its group's oracle answer is negative, so the Bc
        // rule must drop that start.
        let mut oracle = SetOracle::new();
        oracle.insert("q", "a");
        for options in all_option_combos() {
            assert_eq!(
                find("(?<q>: a*)b", &oracle, b"aab", options),
                Some((1, 3)),
                "{options:?}"
            );
        }
    }

    #[test]
    fn earliest_end_prefers_the_shortest_known_match() {
        // Spans: (0, 10) via the long arm, (5, 7) via "cd".  Leftmost picks
        // the first, EarliestEnd the second.
        let oracle = ConstOracle::always_true();
        for options in all_option_combos() {
            let pattern = "a.{8}b|cd";
            let input = b"axxxxcdxxb";
            assert_eq!(
                find(pattern, &oracle, input, options),
                Some((0, 10)),
                "{options:?}"
            );
            assert_eq!(
                search(pattern, &oracle, input, options, SearchKind::EarliestEnd).span,
                Some((5, 7)),
                "{options:?}"
            );
        }
    }

    #[test]
    fn search_agrees_across_planes_and_reports_spans() {
        let mut oracle = SetOracle::new();
        oracle.insert("q", "aa");
        let cases: &[(&str, &[u8])] = &[
            (".*<q>.*", b"xaax"),
            ("(?<q>: a*)b", b"aaab"),
            ("<q>", b"baab"),
            ("(<q>)+", b"aaaa"),
        ];
        for &(pattern, input) in cases {
            for lazy_oracle in [false, true] {
                for prune_coreachable in [false, true] {
                    let base = EvalOptions {
                        prune_coreachable,
                        lazy_oracle,
                        batched: false,
                    };
                    let batched = EvalOptions {
                        batched: true,
                        ..base
                    };
                    let p = search(pattern, &oracle, input, base, SearchKind::Leftmost);
                    let b = search(pattern, &oracle, input, batched, SearchKind::Leftmost);
                    assert_eq!(b.span, p.span, "{pattern}: planes disagree on the span");
                    assert_eq!(b.matched, p.matched, "{pattern}");
                    assert_eq!(
                        b.oracle_calls, p.oracle_calls,
                        "{pattern}: logical request counts must agree"
                    );
                    assert!(b.unique_keys <= p.oracle_calls, "{pattern}");
                }
            }
        }
    }

    #[test]
    fn search_matches_brute_force_on_small_inputs() {
        // Exhaustive cross-check against anchored evaluation over every
        // substring, on a pattern with unions, stars, and a refinement.
        let mut oracle = SetOracle::new();
        oracle.insert("q", "ab");
        oracle.insert("q", "c");
        let pattern = "(a|b)(?<q>: .*)c?";
        let inputs: &[&[u8]] = &[b"", b"a", b"babc", b"aabcc", b"xxabcx", b"ccba"];
        for &input in inputs {
            for options in all_option_combos() {
                let mut expected = None;
                'outer: for i in 0..=input.len() {
                    for j in i..=input.len() {
                        if run(pattern, &oracle, &input[i..j], options).matched {
                            expected = Some((i, j));
                            break 'outer;
                        }
                    }
                }
                assert_eq!(
                    find(pattern, &oracle, input, options),
                    expected,
                    "input {:?}, {options:?}",
                    String::from_utf8_lossy(input)
                );
            }
        }
    }

    #[test]
    fn report_positions_and_vertices() {
        let oracle = ConstOracle::always_true();
        let report = run("a*", &oracle, b"aaa", EvalOptions::default());
        assert!(report.matched);
        assert_eq!(report.positions, 4);
        assert!(report.vertices_alive > 0);
        assert_eq!(report.oracle_calls, 0);
        assert_eq!(report.unique_keys, 0);
        assert_eq!(report.batches, 0);
    }
}
