//! The tracked benchmark trajectory (`BENCH_PR10.json`).
//!
//! Subsequent PRs need a perf baseline to regress against; this module
//! measures it and emits it as JSON.  Five families of numbers are
//! recorded for every one of the nine benchmark SemREs, plus one
//! tree-level entry and one overlapped-resolution entry:
//!
//! * **prefilter micro** — ns/line for the skeleton prefilter alone, NFA
//!   state-set simulation vs the lazy DFA, on both the anchored skeleton
//!   and the padded search skeleton;
//! * **prescan micro** (`prescan-speedup`) — ns/line for the membership
//!   prefilter stage with the literal prescan gating the DFA vs the DFA
//!   alone, plus whether the pattern yielded usable literals;
//! * **stream throughput** (`stream-throughput`) — ns/line for a full
//!   batched scan of the corpus through the streaming (chunked I/O) path
//!   vs the in-memory path, split cost included on both sides;
//! * **end-to-end** — ns/line and oracle calls for `is_match` and `find`
//!   with the DFA prefilter on vs off (the arena'd evaluator has no
//!   runtime toggle — it *is* the evaluator — so its effect is captured by
//!   the end-to-end numbers themselves, tracked across PRs);
//! * **equivalence** — booleans asserting that the DFA and NFA prefilters,
//!   the prescan-on and prescan-off matchers, the batched and per-call
//!   planes, the parallel and sequential scans, and the streaming and
//!   in-memory paths all produce identical verdicts on the sample;
//! * **tree scan** (`tree-scan`) — ns/line for a full multi-file `grepo`
//!   run over a generated corpus tree with a sleeping 2 ms/batch
//!   `--oracle-delay` backend, file-level work stealing on 4 workers vs a
//!   sequential scan.  The workers overlap the backend's sleeps across
//!   files, so the ratio measures *latency hiding* — meaningful even on
//!   a single core, where CPU-bound parallelism cannot win — plus
//!   byte-identity of the output across thread counts and the cross-file
//!   oracle-deduplication check (shared-session backend questions <
//!   per-file sum);
//! * **skewed tree** (`skewed-tree`) — the same kind of run over a tree
//!   whose bytes one giant file of mostly-unique lines dominates,
//!   `--split-bytes` sub-file range stealing on vs off at 4 workers,
//!   plus a 1/2/4/8-worker contention sweep and byte-identity across
//!   the whole split x thread grid;
//! * **overlap** (`overlap-speedup`) — ns/line for a batched scan against
//!   a deterministic 1 ms/batch `DelayOracle`, resolver pool (suspend /
//!   resume scheduling) vs synchronous resolution, plus the verdict
//!   equivalence and the suspends == resumes protocol check;
//! * **persist** (`persist-dedupe`) — the same corpus tree scanned cold
//!   (empty answer log) and then warm (fresh session, same log) through
//!   `SharedSession::with_persistence`: the warm scan must issue **zero**
//!   backend questions for previously-seen keys, with identical verdicts,
//!   and the cold/warm backend-key ratio is gated by `--check`;
//! * **tiered cost** (`tiered-cost`) — the same kind of corpus tree
//!   scanned once against the flat `sim-llm` backend and once through the
//!   full built-in tier stack (`tiered:cache+screen+dict:sim-llm`): the
//!   verdicts must be identical, and the flat-over-tiered ratio of
//!   *authoritative-tier* backend keys — how many questions the cheap
//!   tiers shed before the simulated LLM — is gated by `--check`.
//!
//! Timings are best-of-`repeat` over a fixed corpus sample — indicative,
//! not rigorous; the *trajectory* (same harness, same seed, PR after PR)
//! is what matters.  No latency is injected except in the tree-scan and
//! overlap entries, whose whole point is hiding it: the other numbers
//! isolate engine work, not oracle time.  [`Floors`] turns the trajectory into a regression
//! gate: `bench_trajectory --check` fails when a tracked geomean drops
//! below its stored floor.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use semre::automata::{compile, skeleton_matches, LazyDfa, Prescan, SkeletonMatcher};
use semre_core::{Matcher, MatcherConfig, SearchKind};
use semre_grep::stream::{scan_stream, StreamOptions};
use semre_grep::{scan_lines, ScanOptions};
use semre_syntax::{skeleton, Semre};
use semre_workloads::Workbench;

/// Knobs for a trajectory run.
#[derive(Clone, Copy, Debug)]
pub struct TrajectoryConfig {
    /// Corpus generation seed (fixed across PRs).
    pub seed: u64,
    /// Corpus lines sampled per benchmark for the prefilter micro and
    /// `is_match` measurements.
    pub lines_per_bench: usize,
    /// Lines sampled for the (quadratic) `find` measurements.
    pub find_lines: usize,
    /// Maximum line length in the `find` sample.
    pub find_max_len: usize,
    /// Measurement repetitions (best-of).
    pub repeat: u32,
}

impl TrajectoryConfig {
    /// The checked-in baseline configuration.
    pub fn full() -> Self {
        TrajectoryConfig {
            seed: 20250613,
            lines_per_bench: 400,
            find_lines: 40,
            find_max_len: 120,
            repeat: 5,
        }
    }

    /// A reduced configuration for CI smoke runs.
    pub fn quick() -> Self {
        TrajectoryConfig {
            seed: 20250613,
            lines_per_bench: 80,
            find_lines: 10,
            find_max_len: 80,
            repeat: 2,
        }
    }
}

/// One measured (engine, toggle) timing pair.
#[derive(Clone, Copy, Debug)]
pub struct Toggle {
    /// ns/line on the optimized (DFA / default) path.
    pub fast_ns: f64,
    /// ns/line on the reference (NFA) path.
    pub reference_ns: f64,
}

impl Toggle {
    /// Reference over fast — how many times faster the optimized path is.
    pub fn speedup(&self) -> f64 {
        if self.fast_ns <= 0.0 {
            0.0
        } else {
            self.reference_ns / self.fast_ns
        }
    }
}

/// The trajectory record of one benchmark SemRE.
#[derive(Clone, Debug)]
pub struct BenchTrajectory {
    /// Table 1 name.
    pub name: &'static str,
    /// Lines in the `is_match` / prefilter sample.
    pub lines: usize,
    /// Lines in the `find` sample.
    pub find_lines: usize,
    /// Anchored skeleton prefilter, DFA vs NFA.
    pub prefilter: Toggle,
    /// Padded search-skeleton prefilter, DFA vs NFA.
    pub search_prefilter: Toggle,
    /// Membership prefilter stage, prescan-gated DFA vs DFA alone.
    pub prescan: Toggle,
    /// Whether the literal prescan extracted usable literals (the
    /// `prescan-speedup` criterion only applies to these benchmarks).
    pub has_literals: bool,
    /// Full batched corpus scan, streaming (chunked I/O) vs in-memory.
    pub stream: Toggle,
    /// End-to-end `is_match`, DFA prefilter on vs off.
    pub is_match: Toggle,
    /// End-to-end `find`, DFA prefilter on vs off.
    pub find: Toggle,
    /// Logical oracle requests of the `is_match` sweep (identical across
    /// all toggles and planes).
    pub is_match_oracle_calls: u64,
    /// Logical oracle requests of the `find` sweep.
    pub find_oracle_calls: u64,
    /// DFA and NFA prefilters agreed on every line, batched and per-call
    /// planes agreed on every verdict, and the parallel scan (2 and 8
    /// threads) reproduced the sequential scan.
    pub equivalent: bool,
}

/// One benchmark's overlapped-resolution record: a batched scan against a
/// latency-injecting oracle, resolver pool on vs off.
#[derive(Clone, Debug)]
pub struct OverlapBench {
    /// Table 1 name.
    pub name: &'static str,
    /// Lines in the scanned sample.
    pub lines: usize,
    /// Full batched scan under the `DelayOracle`, overlapped (resolver
    /// pool) vs synchronous resolution.
    pub overlapped: Toggle,
    /// Lines the overlapped scan parked on in-flight answers.
    pub suspends: u64,
    /// Checkpoint resumptions that completed a parked line.
    pub resumes: u64,
    /// Keys that actually reached the backend from the pool.
    pub backend_keys: u64,
    /// Overlapped and synchronous verdict vectors were identical.
    pub equivalent: bool,
}

/// The overlapped-resolution trajectory: latency-hiding measured under a
/// deterministic `DelayOracle`, where resolver time — not engine work —
/// dominates, so the overlap is what the numbers isolate.
#[derive(Clone, Debug)]
pub struct OverlapTrajectory {
    /// Injected backend latency per batch, in microseconds.
    pub per_batch_latency_us: u64,
    /// Resolver threads of the overlapped handle.
    pub oracle_threads: usize,
    /// The tracked benchmarks (`spam,1` and `id`).
    pub benches: Vec<OverlapBench>,
}

impl OverlapTrajectory {
    /// Geometric mean of the overlapped-vs-synchronous speedups.
    pub fn geomean_speedup(&self) -> f64 {
        geomean(self.benches.iter().map(|b| b.overlapped.speedup()))
    }

    /// Whether every tracked benchmark matched the synchronous verdicts
    /// and the suspension protocol was actually exercised.
    pub fn equivalent(&self) -> bool {
        self.benches
            .iter()
            .all(|b| b.equivalent && b.suspends > 0 && b.suspends == b.resumes)
    }
}

/// The tree-scan trajectory record: one multi-file `grepo` run over a
/// generated corpus tree.
#[derive(Clone, Debug)]
pub struct TreeScanTrajectory {
    /// Files in the generated tree.
    pub files: usize,
    /// Lines across all files.
    pub lines: usize,
    /// Full multi-file scan, 4 work-stealing workers vs sequential, with
    /// a sleeping per-batch `--oracle-delay` charged at the backend so
    /// the workers have latency to hide.
    pub parallel: Toggle,
    /// Backend questions of a whole-tree scan through one shared session.
    pub shared_backend_keys: u64,
    /// Backend questions when every file keeps its sessions to itself
    /// (the per-file sum the shared session must beat).
    pub per_file_backend_keys: u64,
    /// Output bytes identical for `--threads` 1, 2, and 8.
    pub equivalent: bool,
}

impl TreeScanTrajectory {
    /// Whether cross-file sharing deduplicated anything: the shared
    /// session reached the backend strictly less often than the per-file
    /// sessions combined.
    pub fn deduped(&self) -> bool {
        self.shared_backend_keys < self.per_file_backend_keys
    }
}

/// The skewed-tree trajectory record (ISSUE 10): a tree whose byte count
/// one giant file dominates, scanned at 4 workers with sub-file range
/// splitting on vs off.  Whole-file stealing degenerates to one worker
/// serializing the giant file's oracle batches while the others idle;
/// range splitting spreads them, so the toggle isolates exactly what
/// sub-file work stealing buys.
#[derive(Clone, Debug)]
pub struct SkewedTreeTrajectory {
    /// Files in the generated tree.
    pub files: usize,
    /// Lines across all files.
    pub lines: usize,
    /// Bytes of the dominating giant file.
    pub giant_bytes: u64,
    /// Bytes across the whole tree (the giant file carries > 90 %).
    pub total_bytes: u64,
    /// The `--split-bytes` value of the split-on runs (sized so the
    /// giant file splits into ~4 ranges).
    pub split_bytes: u64,
    /// Scan units of the split-on run, as reported by the scheduler
    /// (small files count one each; the giant file several).
    pub ranges: u64,
    /// Full multi-file scan at 4 workers under the sleeping per-batch
    /// `--oracle-delay`: sub-file splitting on (fast) vs whole-file
    /// stealing (reference).
    pub split: Toggle,
    /// Split-on ns/line at 1, 2, 4, and 8 workers — the contention
    /// sweep, informational.
    pub worker_sweep: Vec<(usize, f64)>,
    /// Output bytes identical across `--split-bytes` {off, on} x
    /// `--threads` {1, 2, 4, 8}.
    pub equivalent: bool,
}

impl SkewedTreeTrajectory {
    /// Whole-file over split wall time at 4 workers — what range
    /// splitting buys on the skew.
    pub fn speedup(&self) -> f64 {
        self.split.speedup()
    }
}

/// The persistence trajectory record: the same corpus tree scanned cold
/// (empty answer log) and then warm (a fresh session over the same log),
/// through `SharedSession::with_persistence`.
#[derive(Clone, Debug)]
pub struct PersistTrajectory {
    /// Files in the generated tree.
    pub files: usize,
    /// Lines across all files.
    pub lines: usize,
    /// Whole-scan wall time, warm vs cold, under a sleeping 1 ms/batch
    /// backend (informational — the regression gate is on the key
    /// counts, which are deterministic).
    pub warm_vs_cold: Toggle,
    /// Backend questions of the cold scan.
    pub cold_backend_keys: u64,
    /// Backend questions of the warm scan — must be **zero**: every key
    /// was answered on the cold scan and replayed from the log.
    pub warm_backend_keys: u64,
    /// Questions the warm scan answered from the persistent store.
    pub warm_persisted_hits: u64,
    /// Distinct entries replayed from the log on the warm open.
    pub replayed: u64,
    /// Answer-log size after the cold scan, in bytes.
    pub log_bytes: u64,
    /// Warm verdicts identical to cold verdicts on every line.
    pub equivalent: bool,
}

impl PersistTrajectory {
    /// Cold-over-warm backend questions — the cross-process dedupe win.
    /// A zero-question warm scan maps to the full cold count, so the
    /// ratio stays finite and the floor stays meaningful.
    pub fn dedupe_ratio(&self) -> f64 {
        self.cold_backend_keys as f64 / self.warm_backend_keys.max(1) as f64
    }
}

/// The tiered-cost record: the same corpus tree scanned against the flat
/// `sim-llm` backend and against the full built-in tier stack
/// (cache → screen → dict → authority), measuring how many questions the
/// cheap tiers shed before the authoritative backend.
#[derive(Clone, Debug)]
pub struct TieredCostTrajectory {
    /// Files in the generated tree.
    pub files: usize,
    /// Lines across all files.
    pub lines: usize,
    /// Whole-scan wall time, tiered vs flat, under a sleeping 1 ms/batch
    /// authoritative backend (informational — the regression gate is on
    /// the key counts, which are deterministic).
    pub tiered_vs_flat: Toggle,
    /// Backend questions of the flat scan.
    pub flat_backend_keys: u64,
    /// Questions that escaped every cheap tier and reached the
    /// authoritative backend on the tiered scan.
    pub tiered_authority_keys: u64,
    /// Questions the cheap tiers (cache / screen / dict) decided.
    pub tiered_cheap_hits: u64,
    /// The rendered per-tier hit/escalation breakdown of the tiered scan.
    pub tier_stats: String,
    /// Tiered verdicts identical to flat verdicts on every line.
    pub equivalent: bool,
}

impl TieredCostTrajectory {
    /// Flat-over-tiered authoritative-tier backend keys — the question
    /// reduction the cheap tiers buy.  The built-in dict tier decides
    /// every lexicon-backed key, so the real authoritative count is zero;
    /// mapping it to the full flat count keeps the ratio finite.
    pub fn key_reduction(&self) -> f64 {
        self.flat_backend_keys as f64 / self.tiered_authority_keys.max(1) as f64
    }
}

/// A full trajectory run.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// The configuration measured under.
    pub config: TrajectoryConfig,
    /// One record per benchmark SemRE, Table 1 order.
    pub benches: Vec<BenchTrajectory>,
    /// The multi-file tree-scan record.
    pub tree_scan: TreeScanTrajectory,
    /// The skewed-tree sub-file work-stealing record.
    pub skewed_tree: SkewedTreeTrajectory,
    /// The overlapped-resolution record.
    pub overlap: OverlapTrajectory,
    /// The cold-vs-warm persistent-store record.
    pub persist: PersistTrajectory,
    /// The tiered-vs-flat oracle-routing record.
    pub tiered_cost: TieredCostTrajectory,
}

impl Trajectory {
    /// Geometric mean of the anchored-prefilter speedups.
    pub fn geomean_prefilter_speedup(&self) -> f64 {
        geomean(self.benches.iter().map(|b| b.prefilter.speedup()))
    }

    /// Geometric mean of the search-prefilter speedups.
    pub fn geomean_search_prefilter_speedup(&self) -> f64 {
        geomean(self.benches.iter().map(|b| b.search_prefilter.speedup()))
    }

    /// Geometric mean of the end-to-end `is_match` improvements.
    pub fn geomean_is_match_speedup(&self) -> f64 {
        geomean(self.benches.iter().map(|b| b.is_match.speedup()))
    }

    /// Geometric mean of the prescan speedups over the literal-bearing
    /// benchmarks (the only ones the literal screen can accelerate).
    pub fn geomean_prescan_speedup(&self) -> f64 {
        geomean(
            self.benches
                .iter()
                .filter(|b| b.has_literals)
                .map(|b| b.prescan.speedup()),
        )
    }

    /// Geometric mean of in-memory over streaming scan time: 1.0 means
    /// streaming is free, below 1.0 that it costs overhead.
    pub fn geomean_stream_ratio(&self) -> f64 {
        geomean(self.benches.iter().map(|b| b.stream.speedup()))
    }

    /// Whether every benchmark passed all equivalence checks.
    pub fn all_equivalent(&self) -> bool {
        self.benches.iter().all(|b| b.equivalent)
    }

    /// Checks the trajectory against regression floors, returning one
    /// message per violated floor.
    ///
    /// # Errors
    ///
    /// A list of human-readable violations (empty never — `Err` only when
    /// at least one floor is broken).
    pub fn check(&self, floors: &Floors) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        let mut gate = |name: &str, value: f64, floor: f64| {
            if value < floor {
                violations.push(format!(
                    "{name} regressed: {value:.2} is below the stored floor {floor:.2}"
                ));
            }
        };
        gate(
            "geomean prefilter speedup (DFA vs NFA)",
            self.geomean_prefilter_speedup(),
            floors.prefilter_speedup,
        );
        gate(
            "geomean end-to-end is_match speedup",
            self.geomean_is_match_speedup(),
            floors.is_match_speedup,
        );
        gate(
            "geomean prescan speedup (literal-bearing)",
            self.geomean_prescan_speedup(),
            floors.prescan_speedup,
        );
        gate(
            "geomean stream ratio (in-memory / streaming)",
            self.geomean_stream_ratio(),
            floors.stream_ratio,
        );
        gate(
            "tree-scan ratio (sequential / 4-worker)",
            self.tree_scan.parallel.speedup(),
            floors.tree_scan_ratio,
        );
        gate(
            "skewed-tree split speedup (4 workers, sub-file ranges vs whole-file)",
            self.skewed_tree.speedup(),
            floors.skewed_tree_speedup,
        );
        gate(
            "geomean overlap speedup (overlapped vs synchronous resolution)",
            self.overlap.geomean_speedup(),
            floors.overlap_speedup,
        );
        gate(
            "persist dedupe ratio (cold / warm backend keys)",
            self.persist.dedupe_ratio(),
            floors.persist_dedupe,
        );
        gate(
            "tiered-cost key reduction (flat / authoritative-tier backend keys)",
            self.tiered_cost.key_reduction(),
            floors.tiered_cost_ratio,
        );
        if self.persist.warm_backend_keys != 0 {
            violations.push(format!(
                "warm persistent store issued {} backend questions for previously-seen keys (must be 0)",
                self.persist.warm_backend_keys
            ));
        }
        if !self.persist.equivalent {
            violations.push("warm-store verdicts diverged from the cold scan".to_owned());
        }
        if !self.tiered_cost.equivalent {
            violations
                .push("tiered oracle routing diverged from the flat backend's verdicts".to_owned());
        }
        if !self.all_equivalent() {
            violations.push("equivalence check failed on some benchmark".to_owned());
        }
        if !self.overlap.equivalent() {
            violations.push(
                "overlapped resolution diverged from synchronous verdicts (or never parked a line)"
                    .to_owned(),
            );
        }
        if !self.tree_scan.equivalent {
            violations.push("tree-scan output differed across thread counts".to_owned());
        }
        if !self.skewed_tree.equivalent {
            violations.push(
                "skewed-tree output differed across the split-bytes / thread grid".to_owned(),
            );
        }
        if !self.tree_scan.deduped() {
            violations.push(format!(
                "tree-scan shared session did not dedupe across files ({} backend keys vs per-file sum {})",
                self.tree_scan.shared_backend_keys, self.tree_scan.per_file_backend_keys
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// Regression floors for `bench_trajectory --check`: the tracked geomeans
/// must not drop below these.  Values are deliberately far below the
/// checked-in full-run numbers (see `BENCH_PR5.json`) so that CI noise on
/// shared runners does not flake, while a real regression — losing the
/// DFA prefilter, the prescan, or streaming going several times slower
/// than in-memory — still fails loudly.
#[derive(Clone, Copy, Debug)]
pub struct Floors {
    /// Anchored-prefilter DFA-vs-NFA geomean (full run ≈ 17×).
    pub prefilter_speedup: f64,
    /// End-to-end `is_match` DFA-on-vs-off geomean (full run ≈ 1.6×).
    pub is_match_speedup: f64,
    /// Prescan-vs-DFA geomean over literal-bearing benchmarks (full run
    /// ≥ 2×; see ROADMAP / ISSUE 4 acceptance).
    pub prescan_speedup: f64,
    /// In-memory-vs-streaming scan-time geomean (≈ 1.0 when streaming is
    /// free; the floor only rejects pathological slowdowns).
    pub stream_ratio: f64,
    /// Sequential-vs-4-worker tree-scan ratio under the sleeping
    /// per-batch `--oracle-delay`: with the sharded answer store, the
    /// workers must actually hide backend latency (> 1), not merely
    /// avoid a pathological slowdown.
    pub tree_scan_ratio: f64,
    /// Split-on-vs-off wall time at 4 workers on the one-giant-file
    /// tree.  The ISSUE 10 acceptance bar: sub-file range stealing must
    /// beat whole-file stealing at least 1.5x where whole-file stealing
    /// degenerates to a sequential scan of the giant file.
    pub skewed_tree_speedup: f64,
    /// Overlapped-vs-synchronous resolution geomean under the 1 ms/batch
    /// `DelayOracle` (full run well above this; the floor is the PR 6
    /// acceptance bar).
    pub overlap_speedup: f64,
    /// Cold-over-warm backend-key ratio of the persistent answer store.
    /// A correct store answers *every* repeated key from disk, so the
    /// real ratio equals the full cold count (hundreds); the floor only
    /// demands the store at least halve the backend traffic.
    pub persist_dedupe: f64,
    /// Flat-over-tiered authoritative-tier backend keys.  The built-in
    /// dict tier completely decides the lexicon-backed `Medicine name`
    /// query the tiered-cost corpus exercises, so the real authoritative
    /// count is zero and the true ratio equals the full flat count; the
    /// floor only demands the tiers at least halve the authoritative
    /// traffic (the ISSUE 9 acceptance bar).
    pub tiered_cost_ratio: f64,
}

impl Floors {
    /// The floors CI enforces.
    pub fn tracked() -> Floors {
        Floors {
            prefilter_speedup: 3.0,
            is_match_speedup: 1.05,
            prescan_speedup: 1.25,
            stream_ratio: 0.5,
            tree_scan_ratio: 1.0,
            skewed_tree_speedup: 1.5,
            overlap_speedup: 3.0,
            persist_dedupe: 2.0,
            tiered_cost_ratio: 2.0,
        }
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let positive: Vec<f64> = values.filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

/// A scratch path under the temp directory, unique per call: the seed and
/// process id alone are shared by concurrent `measure` runs in one
/// process (two tests with the same config), which would write, scan and
/// delete each other's trees.
fn scratch_path(kind: &str, seed: u64, extension: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "semre-trajectory-{kind}-{seed}-{}-{unique}{extension}",
        std::process::id()
    ))
}

/// Best-of-`repeat` wall time of `f`, expressed as ns per line.
fn ns_per_line(repeat: u32, lines: usize, mut f: impl FnMut()) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..repeat.max(1) {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed());
    }
    best.as_nanos() as f64 / lines.max(1) as f64
}

/// Runs the trajectory measurements.
pub fn measure(config: &TrajectoryConfig) -> Trajectory {
    let workbench = Workbench::generate(config.seed, 2000, 2000);
    let benches = workbench
        .benchmarks()
        .iter()
        .map(|spec| measure_spec(config, &workbench, spec))
        .collect();
    Trajectory {
        config: *config,
        benches,
        tree_scan: measure_tree_scan(config),
        skewed_tree: measure_skewed_tree(config),
        overlap: measure_overlap(config, &workbench),
        persist: measure_persist(config),
        tiered_cost: measure_tiered_cost(config),
    }
}

/// The cold-vs-warm persistence measurement: one corpus tree scanned
/// through `SharedSession::with_persistence` over an empty answer log,
/// then again with a fresh session (fresh process state, as far as the
/// oracle plane is concerned) over the same log.  The oracle is
/// deterministic (Assumption 2.4), so replayed answers are as good as
/// fresh ones — the warm scan must not reach the backend at all.  A
/// sleeping 1 ms/batch `DelayOracle` charges a simulated round-trip per
/// backend batch, so the warm/cold wall-time ratio shows what the store
/// saves; the regression gate itself is on the deterministic key counts.
fn measure_persist(config: &TrajectoryConfig) -> PersistTrajectory {
    use semre::{Oracle, PersistentAnswerStore, SemRegexBuilder, SharedSession, SimLlmOracle};
    use semre_workloads::{CorpusTree, CorpusTreeConfig, DelayOracle};

    let tree_config = CorpusTreeConfig {
        // A different seed than the tree scan, so the two entries do not
        // share a corpus by accident.
        seed: config.seed ^ 0x7e57,
        files: (config.lines_per_bench / 16).clamp(8, 32),
        mean_lines: (config.lines_per_bench / 8).clamp(10, 60),
        ..CorpusTreeConfig::default()
    };
    let tree = CorpusTree::generate(&tree_config);
    let log = scratch_path("persist", config.seed, ".log");
    let _ = std::fs::remove_file(&log);

    let pattern = r"Subject: .*(?<Medicine name>: [a-z]+).*";
    let per_batch = Duration::from_millis(1);
    let scan_all = |log: &std::path::Path| -> (SharedSession, Vec<bool>, Duration) {
        let backend: Arc<dyn Oracle> = Arc::new(DelayOracle::sleeping(
            Arc::new(SimLlmOracle::new()),
            per_batch,
            Duration::ZERO,
        ));
        let store = Arc::new(PersistentAnswerStore::open(log).expect("scratch log opens"));
        let session = SharedSession::with_persistence(backend, store, "sim-llm");
        let shared: Arc<dyn Oracle> = Arc::new(session.clone());
        let re = SemRegexBuilder::new()
            .batched(true)
            .build_shared(pattern, shared)
            .expect("trajectory pattern compiles");
        let stream_options = StreamOptions {
            scan: ScanOptions::batched(semre::DEFAULT_CHUNK_LINES),
            ..StreamOptions::default()
        };
        let mut verdicts = Vec::new();
        let started = Instant::now();
        for file in &tree.files {
            scan_stream(&re, &file.contents[..], &stream_options, |_, _, matched| {
                verdicts.push(matched);
                true
            })
            .expect("in-memory reader cannot fail");
        }
        (session, verdicts, started.elapsed())
    };

    let (cold_session, cold_verdicts, cold_elapsed) = scan_all(&log);
    let cold_backend_keys = cold_session.stats().backend_keys;
    // Dropping the session drops the store, which flushes and syncs the
    // log — the warm open below replays a complete file.
    drop(cold_session);

    let (warm_session, warm_verdicts, warm_elapsed) = scan_all(&log);
    let warm_backend_keys = warm_session.stats().backend_keys;
    let warm_persisted_hits = warm_session.persisted_hits();
    let store = warm_session
        .persist_store()
        .expect("persistence is configured");
    let replayed = store.replay_report().live as u64;
    let log_bytes = store.file_bytes();
    drop(warm_session);

    let _ = std::fs::remove_file(&log);
    let per_line = |elapsed: Duration| elapsed.as_nanos() as f64 / tree.total_lines.max(1) as f64;
    PersistTrajectory {
        files: tree.files.len(),
        lines: tree.total_lines,
        warm_vs_cold: Toggle {
            fast_ns: per_line(warm_elapsed),
            reference_ns: per_line(cold_elapsed),
        },
        cold_backend_keys,
        warm_backend_keys,
        warm_persisted_hits,
        replayed,
        log_bytes,
        equivalent: warm_verdicts == cold_verdicts,
    }
}

/// The tiered-cost measurement: one corpus tree scanned through a
/// `SharedSession` twice — once with the flat `sim-llm` backend, once
/// with the full built-in tier stack (`tiered:cache+screen+dict:sim-llm`)
/// in front of it.  The dict tier is derived from the same lexicons the
/// simulated LLM answers from, so the verdicts must be byte-identical
/// while the authoritative backend sees only the questions no cheap tier
/// could decide.  A sleeping 1 ms/batch `DelayOracle` charges a simulated
/// round-trip per authoritative batch, so the tiered/flat wall-time ratio
/// shows what the shed questions save; the regression gate itself is on
/// the deterministic key counts.
fn measure_tiered_cost(config: &TrajectoryConfig) -> TieredCostTrajectory {
    use semre::{
        BuiltinTier, Oracle, SemRegexBuilder, SharedSession, SimLlmOracle, TieredResolver,
    };
    use semre_workloads::{CorpusTree, CorpusTreeConfig, DelayOracle};

    let tree_config = CorpusTreeConfig {
        // A seed of its own, so this entry shares a corpus with neither
        // the tree-scan nor the persistence entry.
        seed: config.seed ^ 0x71e2,
        files: (config.lines_per_bench / 16).clamp(8, 32),
        mean_lines: (config.lines_per_bench / 8).clamp(10, 60),
        ..CorpusTreeConfig::default()
    };
    let tree = CorpusTree::generate(&tree_config);

    let pattern = r"Subject: .*(?<Medicine name>: [a-z]+).*";
    let per_batch = Duration::from_millis(1);
    let authority = || -> Arc<dyn Oracle> {
        Arc::new(DelayOracle::sleeping(
            Arc::new(SimLlmOracle::new()),
            per_batch,
            Duration::ZERO,
        ))
    };
    let scan_all = |oracle: Arc<dyn Oracle>| -> (SharedSession, Vec<bool>, Duration) {
        let session = SharedSession::new(oracle);
        let shared: Arc<dyn Oracle> = Arc::new(session.clone());
        let re = SemRegexBuilder::new()
            .batched(true)
            .build_shared(pattern, shared)
            .expect("trajectory pattern compiles");
        let stream_options = StreamOptions {
            scan: ScanOptions::batched(semre::DEFAULT_CHUNK_LINES),
            ..StreamOptions::default()
        };
        let mut verdicts = Vec::new();
        let started = Instant::now();
        for file in &tree.files {
            scan_stream(&re, &file.contents[..], &stream_options, |_, _, matched| {
                verdicts.push(matched);
                true
            })
            .expect("in-memory reader cannot fail");
        }
        (session, verdicts, started.elapsed())
    };

    let (flat_session, flat_verdicts, flat_elapsed) = scan_all(authority());
    let flat_backend_keys = flat_session.stats().backend_keys;

    let tiered = TieredResolver::with_builtins(
        &[BuiltinTier::Cache, BuiltinTier::Screen, BuiltinTier::Dict],
        authority(),
    );
    let counters = tiered.counters();
    let (_tiered_session, tiered_verdicts, tiered_elapsed) = scan_all(Arc::new(tiered));
    let stats = counters.snapshot();

    let per_line = |elapsed: Duration| elapsed.as_nanos() as f64 / tree.total_lines.max(1) as f64;
    TieredCostTrajectory {
        files: tree.files.len(),
        lines: tree.total_lines,
        tiered_vs_flat: Toggle {
            fast_ns: per_line(tiered_elapsed),
            reference_ns: per_line(flat_elapsed),
        },
        flat_backend_keys,
        tiered_authority_keys: stats.authority_keys(),
        tiered_cheap_hits: stats.cheap_hits(),
        tier_stats: stats.render(),
        equivalent: tiered_verdicts == flat_verdicts,
    }
}

/// The overlapped-resolution measurement: the tracked benchmarks scanned
/// against their oracles behind a 1 ms/batch `DelayOracle`, once with
/// synchronous resolution and once through an 8-thread resolver pool.
/// Latency dominates engine work here, so the toggle isolates how much of
/// it the suspend/resume scheduling hides.
fn measure_overlap(config: &TrajectoryConfig, workbench: &Workbench) -> OverlapTrajectory {
    use semre::{Oracle, SemRegexBuilder};
    use semre_workloads::DelayOracle;

    let per_batch = Duration::from_millis(1);
    let oracle_threads = 8;
    let chunk = 8;
    let sample_lines = 48;
    // Latency-bound, not engine-bound: one extra repetition is enough to
    // shake scheduler warts without multiplying the injected delays.
    let repeat = config.repeat.min(2);

    let benches = ["spam,1", "id"]
        .into_iter()
        .map(|name| {
            let spec = workbench
                .benchmark(name)
                .expect("tracked overlap benchmark exists");
            let corpus = workbench.corpus(spec.dataset).truncated_to(200);
            let lines: Vec<&str> = corpus
                .lines()
                .iter()
                .take(sample_lines)
                .map(String::as_str)
                .collect();
            let delayed: Arc<dyn Oracle> = Arc::new(DelayOracle::new(
                Arc::clone(&spec.oracle),
                per_batch,
                Duration::ZERO,
            ));
            let build = |threads: usize| {
                let mut builder = SemRegexBuilder::new().batched(true).chunk_lines(chunk);
                if threads > 0 {
                    builder = builder.overlapped(threads);
                }
                builder
                    .build_semre_shared(spec.semre.clone(), Arc::clone(&delayed))
                    .expect("benchmark SemREs compile")
            };
            let sync_re = build(0);
            let over_re = build(oracle_threads);
            let scan = |re: &semre::SemRegex| -> Vec<bool> {
                scan_lines(re, &lines, ScanOptions::batched(chunk))
                    .records
                    .iter()
                    .map(|r| r.matched)
                    .collect()
            };
            let expected = scan(&sync_re);
            let got = scan(&over_re);
            let overlapped = Toggle {
                fast_ns: ns_per_line(repeat, lines.len(), || {
                    std::hint::black_box(scan(&over_re));
                }),
                reference_ns: ns_per_line(repeat, lines.len(), || {
                    std::hint::black_box(scan(&sync_re));
                }),
            };
            let stats = over_re
                .resolver_pool()
                .expect("overlapped handle has a pool")
                .stats();
            OverlapBench {
                name: spec.name,
                lines: lines.len(),
                overlapped,
                suspends: stats.suspends,
                resumes: stats.resumes,
                backend_keys: stats.backend_keys,
                equivalent: got == expected,
            }
        })
        .collect();
    OverlapTrajectory {
        per_batch_latency_us: per_batch.as_micros() as u64,
        oracle_threads,
        benches,
    }
}

/// The multi-file tree-scan measurement: a generated corpus tree scanned
/// through the full `grepo` multi-file driver (walk → work-stealing
/// scheduler → streaming per-file scans → shared oracle session), with a
/// sleeping per-batch `--oracle-delay` charged at the backend so the
/// 4-worker run has real latency to overlap.
fn measure_tree_scan(config: &TrajectoryConfig) -> TreeScanTrajectory {
    use semre::{Oracle, SemRegexBuilder, SharedSession, SimLlmOracle};
    use semre_grep::cli::{expand_targets, run_paths, CliOptions};
    use semre_workloads::{CorpusTree, CorpusTreeConfig};

    let tree_config = CorpusTreeConfig {
        seed: config.seed,
        // Scale the tree with the run size: ~24 files full, ~10 quick.
        files: (config.lines_per_bench / 16).clamp(8, 32),
        mean_lines: (config.lines_per_bench / 8).clamp(10, 60),
        ..CorpusTreeConfig::default()
    };
    let tree = CorpusTree::generate(&tree_config);
    let root = scratch_path("tree", config.seed, "");
    let _ = std::fs::remove_dir_all(&root);
    tree.write_to(&root)
        .expect("cannot write scratch corpus tree");

    let pattern = r"Subject: .*(?<Medicine name>: [a-z]+).*";
    let root_str = root.display().to_string();
    // Each backend batch sleeps for a fixed simulated round-trip
    // (`--oracle-delay`), so the sequential scan serializes one sleep per
    // flush while the 4-worker scan overlaps them across files.  Sleeping
    // latency releases the CPU, which keeps the ratio a latency-hiding
    // measurement rather than a core-count measurement: it stays honest
    // on single-core CI runners where CPU-bound work cannot speed up.
    let per_batch_us: u64 = 2_000;
    let run = |threads: usize| -> Vec<u8> {
        let args: Vec<String> = vec![
            "--batched".to_owned(),
            "--oracle-delay".to_owned(),
            per_batch_us.to_string(),
            "--threads".to_owned(),
            threads.to_string(),
            pattern.to_owned(),
            root_str.clone(),
        ];
        let options = CliOptions::parse(args).expect("trajectory CLI args parse");
        let targets = expand_targets(&options);
        let mut out = Vec::new();
        let outcome = run_paths(&options, &targets, &mut out).expect("tree scan runs");
        assert_ne!(outcome.exit_code, 2, "scratch tree must be readable");
        out
    };

    let sequential_out = run(1);
    let equivalent =
        !sequential_out.is_empty() && [2, 8].iter().all(|&threads| run(threads) == sequential_out);
    let parallel = Toggle {
        fast_ns: ns_per_line(config.repeat, tree.total_lines, || {
            std::hint::black_box(run(4));
        }),
        reference_ns: ns_per_line(config.repeat, tree.total_lines, || {
            std::hint::black_box(run(1));
        }),
    };

    // Cross-file deduplication, measured at the library layer so backend
    // questions can be counted exactly: the same per-file batched scans,
    // once through one shared session, once with each file on its own.
    let count_backend_calls = |share_across_files: bool| -> u64 {
        let backend = Arc::new(semre::Instrumented::new(SimLlmOracle::new()));
        let oracle: Arc<dyn Oracle> = if share_across_files {
            Arc::new(SharedSession::new(backend.clone()))
        } else {
            backend.clone()
        };
        let re = SemRegexBuilder::new()
            .batched(true)
            .build_shared(pattern, oracle)
            .expect("trajectory pattern compiles");
        let after_compile = backend.stats().calls;
        let stream_options = semre_grep::stream::StreamOptions {
            scan: ScanOptions::batched(semre::DEFAULT_CHUNK_LINES),
            ..semre_grep::stream::StreamOptions::default()
        };
        for file in &tree.files {
            scan_stream(&re, &file.contents[..], &stream_options, |_, _, _| true)
                .expect("in-memory reader cannot fail");
        }
        backend.stats().calls - after_compile
    };
    let shared_backend_keys = count_backend_calls(true);
    let per_file_backend_keys = count_backend_calls(false);

    let _ = std::fs::remove_dir_all(&root);
    TreeScanTrajectory {
        files: tree.files.len(),
        lines: tree.total_lines,
        parallel,
        shared_backend_keys,
        per_file_backend_keys,
        equivalent,
    }
}

/// The skewed-tree measurement (ISSUE 10): generate a tree whose bytes
/// one giant file dominates, then scan it at 4 workers with and without
/// sub-file range splitting under the sleeping per-batch
/// `--oracle-delay`.  The giant file's lines are mostly unique, so the
/// shared session cannot flatten its per-batch cost; without splitting,
/// one worker serializes every giant-file batch while the others idle.
/// `--split-bytes` is sized to cut the giant file into ~4 ranges, one
/// per worker.
fn measure_skewed_tree(config: &TrajectoryConfig) -> SkewedTreeTrajectory {
    use semre_grep::cli::{expand_targets, run_paths, CliOptions};
    use semre_workloads::{CorpusTree, CorpusTreeConfig};

    let tree_config = CorpusTreeConfig {
        seed: config.seed ^ 0x5e3d,
        files: 6,
        mean_lines: 10,
        ..CorpusTreeConfig::default()
    };
    let tree = CorpusTree::generate_skewed(&tree_config, 4_000);
    let root = scratch_path("skew", config.seed, "");
    let _ = std::fs::remove_dir_all(&root);
    tree.write_to(&root)
        .expect("cannot write scratch skewed tree");
    let giant_bytes = tree
        .files
        .iter()
        .find(|f| f.path == std::path::Path::new("giant.txt"))
        .map(|f| f.contents.len() as u64)
        .expect("skewed tree has a giant file");
    let total_bytes = tree.total_bytes() as u64;
    // ~4 ranges over the giant file — one per timed worker.
    let split_bytes = (giant_bytes / 4).max(4096);

    let pattern = r"Subject: .*(?<Medicine name>: [a-z]+).*";
    let root_str = root.display().to_string();
    let per_batch_us: u64 = 2_000;
    let run = |threads: usize, split: Option<u64>| -> (Vec<u8>, u64) {
        let args: Vec<String> = vec![
            "--batched".to_owned(),
            // --stats puts the scheduler's split_files=/ranges= counters
            // on stderr, where `ranges` is read back below.
            "--stats".to_owned(),
            "--oracle-delay".to_owned(),
            per_batch_us.to_string(),
            "--threads".to_owned(),
            threads.to_string(),
            "--split-bytes".to_owned(),
            split.map_or_else(|| "off".to_owned(), |n| n.to_string()),
            pattern.to_owned(),
            root_str.clone(),
        ];
        let options = CliOptions::parse(args).expect("trajectory CLI args parse");
        let targets = expand_targets(&options);
        let mut out = Vec::new();
        let outcome = run_paths(&options, &targets, &mut out).expect("skewed tree scan runs");
        assert_ne!(outcome.exit_code, 2, "scratch tree must be readable");
        let ranges = outcome
            .stderr
            .iter()
            .rev()
            .find_map(|line| {
                line.split_whitespace()
                    .find_map(|tok| tok.strip_prefix("ranges=").and_then(|v| v.parse().ok()))
            })
            .unwrap_or(0);
        (out, ranges)
    };

    let (sequential_out, _) = run(1, None);
    let (_, ranges) = run(4, Some(split_bytes));
    let mut equivalent = !sequential_out.is_empty();
    for threads in [1usize, 2, 4, 8] {
        for split in [None, Some(split_bytes)] {
            equivalent &= run(threads, split).0 == sequential_out;
        }
    }
    let split = Toggle {
        fast_ns: ns_per_line(config.repeat, tree.total_lines, || {
            std::hint::black_box(run(4, Some(split_bytes)));
        }),
        reference_ns: ns_per_line(config.repeat, tree.total_lines, || {
            std::hint::black_box(run(4, None));
        }),
    };
    let worker_sweep = [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            (
                workers,
                ns_per_line(config.repeat, tree.total_lines, || {
                    std::hint::black_box(run(workers, Some(split_bytes)));
                }),
            )
        })
        .collect();

    let _ = std::fs::remove_dir_all(&root);
    SkewedTreeTrajectory {
        files: tree.files.len(),
        lines: tree.total_lines,
        giant_bytes,
        total_bytes,
        split_bytes,
        ranges,
        split,
        worker_sweep,
        equivalent,
    }
}

fn measure_spec(
    config: &TrajectoryConfig,
    workbench: &Workbench,
    spec: &semre_workloads::BenchSpec,
) -> BenchTrajectory {
    let corpus = workbench.corpus(spec.dataset).truncated_to(400);
    let lines: Vec<&String> = corpus.lines().iter().take(config.lines_per_bench).collect();
    let find_corpus = workbench
        .corpus(spec.dataset)
        .truncated_to(config.find_max_len);
    let find_lines: Vec<&String> = find_corpus.lines().iter().take(config.find_lines).collect();

    // --- prefilter micro: the skeleton engines head to head -------------
    let skel = skeleton(&spec.semre);
    let skeleton_snfa = compile(&skel);
    let search_skeleton_snfa = compile(&Semre::padded(skel.clone()));
    let skeleton_dfa = LazyDfa::new(&skeleton_snfa);
    let search_skeleton_dfa = LazyDfa::new(&search_skeleton_snfa);

    let repeat = config.repeat;
    let prescan_screen = Prescan::for_membership(&skeleton_snfa, &skel);
    let has_literals = prescan_screen.has_literals();
    let prescan = Toggle {
        // The full membership prefilter stage as the matcher runs it:
        // prescan screens first, the DFA only on surviving lines.
        fast_ns: ns_per_line(repeat, lines.len(), || {
            for line in &lines {
                let bytes = line.as_bytes();
                let verdict = !prescan_screen.rejects(bytes) && skeleton_dfa.matches(bytes);
                std::hint::black_box(verdict);
            }
        }),
        reference_ns: ns_per_line(repeat, lines.len(), || {
            for line in &lines {
                std::hint::black_box(skeleton_dfa.matches(line.as_bytes()));
            }
        }),
    };
    let prefilter = Toggle {
        fast_ns: ns_per_line(repeat, lines.len(), || {
            for line in &lines {
                std::hint::black_box(skeleton_dfa.matches(line.as_bytes()));
            }
        }),
        reference_ns: ns_per_line(repeat, lines.len(), || {
            let mut nfa = SkeletonMatcher::new(&skeleton_snfa);
            for line in &lines {
                std::hint::black_box(nfa.matches(line.as_bytes()));
            }
        }),
    };
    let search_prefilter = Toggle {
        fast_ns: ns_per_line(repeat, lines.len(), || {
            for line in &lines {
                std::hint::black_box(search_skeleton_dfa.matches(line.as_bytes()));
            }
        }),
        reference_ns: ns_per_line(repeat, lines.len(), || {
            let mut nfa = SkeletonMatcher::new(&search_skeleton_snfa);
            for line in &lines {
                std::hint::black_box(nfa.matches(line.as_bytes()));
            }
        }),
    };

    // --- end to end: is_match and find, DFA prefilter on vs off ---------
    let dfa_matcher = Matcher::new(spec.semre.clone(), Arc::clone(&spec.oracle));
    let nfa_matcher = Matcher::with_config(
        spec.semre.clone(),
        Arc::clone(&spec.oracle),
        MatcherConfig::nfa_prefilter(),
    );
    let is_match = Toggle {
        fast_ns: ns_per_line(repeat, lines.len(), || {
            for line in &lines {
                std::hint::black_box(dfa_matcher.is_match(line.as_bytes()));
            }
        }),
        reference_ns: ns_per_line(repeat, lines.len(), || {
            for line in &lines {
                std::hint::black_box(nfa_matcher.is_match(line.as_bytes()));
            }
        }),
    };
    let find = Toggle {
        fast_ns: ns_per_line(repeat, find_lines.len(), || {
            for line in &find_lines {
                std::hint::black_box(dfa_matcher.find(line.as_bytes()));
            }
        }),
        reference_ns: ns_per_line(repeat, find_lines.len(), || {
            for line in &find_lines {
                std::hint::black_box(nfa_matcher.find(line.as_bytes()));
            }
        }),
    };
    let is_match_oracle_calls: u64 = lines
        .iter()
        .map(|line| dfa_matcher.run(line.as_bytes()).oracle_calls)
        .sum();
    let find_oracle_calls: u64 = find_lines
        .iter()
        .map(|line| {
            dfa_matcher
                .search(line.as_bytes(), SearchKind::Leftmost)
                .oracle_calls
        })
        .sum();

    // --- equivalence: every plane and engine, same verdicts --------------
    let per_call_matcher = Matcher::with_config(
        spec.semre.clone(),
        Arc::clone(&spec.oracle),
        MatcherConfig::per_call(),
    );
    let mut equivalent = true;
    for line in &lines {
        let bytes = line.as_bytes();
        let skel_nfa = skeleton_matches(&skeleton_snfa, bytes);
        equivalent &= skeleton_dfa.matches(bytes) == skel_nfa;
        equivalent &=
            search_skeleton_dfa.matches(bytes) == skeleton_matches(&search_skeleton_snfa, bytes);
        let batched = dfa_matcher.is_match(bytes);
        equivalent &= batched == nfa_matcher.is_match(bytes);
        equivalent &= batched == per_call_matcher.is_match(bytes);
    }
    for line in &find_lines {
        let bytes = line.as_bytes();
        equivalent &= dfa_matcher.find(bytes) == nfa_matcher.find(bytes);
        equivalent &= dfa_matcher.find(bytes) == per_call_matcher.find(bytes);
    }
    // Prescan on vs off: identical verdicts on every corpus line.
    let no_prescan_matcher = Matcher::with_config(
        spec.semre.clone(),
        Arc::clone(&spec.oracle),
        MatcherConfig::no_prescan(),
    );
    for line in &lines {
        equivalent &=
            dfa_matcher.is_match(line.as_bytes()) == no_prescan_matcher.is_match(line.as_bytes());
    }

    // Parallel chunk scan vs sequential, on the facade handle.
    let re = semre::SemRegexBuilder::new()
        .build_semre_shared(spec.semre.clone(), Arc::clone(&spec.oracle))
        .expect("benchmark SemREs compile");
    let owned: Vec<String> = lines.iter().map(|l| (*l).clone()).collect();
    let sequential = scan_lines(&re, &owned, ScanOptions::batched(64));
    let expected: Vec<bool> = sequential.records.iter().map(|r| r.matched).collect();
    for threads in [2, 8] {
        let parallel = scan_lines(&re, &owned, ScanOptions::batched(64).with_threads(threads));
        let got: Vec<bool> = parallel.records.iter().map(|r| r.matched).collect();
        equivalent &= got == expected;
    }

    // --- stream throughput: chunked I/O vs in-memory, split included -----
    let text: String = owned.iter().map(|l| format!("{l}\n")).collect();
    let stream_options = StreamOptions {
        chunk_bytes: 64 * 1024,
        read_ahead: false,
        scan: ScanOptions::batched(64),
    };
    let stream = Toggle {
        fast_ns: ns_per_line(repeat, owned.len(), || {
            let mut matched = 0u64;
            scan_stream(&re, text.as_bytes(), &stream_options, |_, _, m| {
                matched += u64::from(m);
                true
            })
            .expect("in-memory reader cannot fail");
            std::hint::black_box(matched);
        }),
        reference_ns: ns_per_line(repeat, owned.len(), || {
            let split: Vec<&str> = text.lines().collect();
            let report = scan_lines(&re, &split, ScanOptions::batched(64));
            std::hint::black_box(report.matched_lines());
        }),
    };
    // Streaming vs in-memory: identical verdicts in identical order.
    let mut stream_verdicts = Vec::new();
    scan_stream(&re, text.as_bytes(), &stream_options, |_, _, m| {
        stream_verdicts.push(m);
        true
    })
    .expect("in-memory reader cannot fail");
    equivalent &= stream_verdicts == expected;

    BenchTrajectory {
        name: spec.name,
        lines: lines.len(),
        find_lines: find_lines.len(),
        prefilter,
        search_prefilter,
        prescan,
        has_literals,
        stream,
        is_match,
        find,
        is_match_oracle_calls,
        find_oracle_calls,
        equivalent,
    }
}

/// Serializes a trajectory as the `BENCH_PR10.json` document
/// (hand-rolled: the workspace has no serde).
pub fn to_json(trajectory: &Trajectory) -> String {
    let mut out = String::new();
    let c = &trajectory.config;
    out.push_str("{\n");
    out.push_str("  \"artifact\": \"BENCH_PR10\",\n");
    out.push_str(
        "  \"description\": \"Perf trajectory: sub-file work stealing on skewed trees, cost-tiered oracle routing, persistent cross-process answer store, overlapped oracle resolution, multi-file tree scan, literal prescan, streaming scan pipeline, lazy-DFA skeleton prefilter, arena evaluator, parallel chunk scan\",\n",
    );
    let _ = writeln!(
        out,
        "  \"config\": {{\"seed\": {}, \"lines_per_bench\": {}, \"find_lines\": {}, \"find_max_len\": {}, \"repeat\": {}}},",
        c.seed, c.lines_per_bench, c.find_lines, c.find_max_len, c.repeat
    );
    out.push_str("  \"benchmarks\": [\n");
    for (i, b) in trajectory.benches.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {:?}, \"lines\": {}, \"find_lines\": {}, \"has_literals\": {},\n      \"prescan\": {},\n      \"stream\": {},\n      \"prefilter\": {},\n      \"search_prefilter\": {},\n      \"is_match\": {},\n      \"find\": {},\n      \"is_match_oracle_calls\": {}, \"find_oracle_calls\": {}, \"equivalent\": {}}}",
            b.name,
            b.lines,
            b.find_lines,
            b.has_literals,
            toggle_json(&b.prescan, "prescan_ns_per_line", "dfa_ns_per_line"),
            toggle_json(&b.stream, "stream_ns_per_line", "in_memory_ns_per_line"),
            toggle_json(&b.prefilter, "dfa_ns_per_line", "nfa_ns_per_line"),
            toggle_json(&b.search_prefilter, "dfa_ns_per_line", "nfa_ns_per_line"),
            toggle_json(&b.is_match, "dfa_ns_per_line", "nfa_ns_per_line"),
            toggle_json(&b.find, "dfa_ns_per_line", "nfa_ns_per_line"),
            b.is_match_oracle_calls,
            b.find_oracle_calls,
            b.equivalent
        );
        out.push_str(if i + 1 < trajectory.benches.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let tree = &trajectory.tree_scan;
    let _ = writeln!(
        out,
        "  \"tree_scan\": {{\"files\": {}, \"lines\": {}, \"parallel\": {}, \"shared_backend_keys\": {}, \"per_file_backend_keys\": {}, \"deduped\": {}, \"equivalent\": {}}},",
        tree.files,
        tree.lines,
        toggle_json(&tree.parallel, "workers4_ns_per_line", "sequential_ns_per_line"),
        tree.shared_backend_keys,
        tree.per_file_backend_keys,
        tree.deduped(),
        tree.equivalent
    );
    let skew = &trajectory.skewed_tree;
    let sweep: Vec<String> = skew
        .worker_sweep
        .iter()
        .map(|(workers, ns)| format!("{{\"workers\": {workers}, \"ns_per_line\": {ns:.1}}}"))
        .collect();
    let _ = writeln!(
        out,
        "  \"skewed_tree\": {{\"files\": {}, \"lines\": {}, \"giant_bytes\": {}, \"total_bytes\": {}, \"split_bytes\": {}, \"ranges\": {}, \"split\": {}, \"worker_sweep\": [{}], \"equivalent\": {}}},",
        skew.files,
        skew.lines,
        skew.giant_bytes,
        skew.total_bytes,
        skew.split_bytes,
        skew.ranges,
        toggle_json(&skew.split, "split_ns_per_line", "whole_file_ns_per_line"),
        sweep.join(", "),
        skew.equivalent
    );
    let overlap = &trajectory.overlap;
    let _ = writeln!(
        out,
        "  \"overlap\": {{\"per_batch_latency_us\": {}, \"oracle_threads\": {}, \"benchmarks\": [",
        overlap.per_batch_latency_us, overlap.oracle_threads
    );
    for (i, b) in overlap.benches.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {:?}, \"lines\": {}, \"overlapped\": {}, \"suspends\": {}, \"resumes\": {}, \"backend_keys\": {}, \"equivalent\": {}}}",
            b.name,
            b.lines,
            toggle_json(&b.overlapped, "overlapped_ns_per_line", "synchronous_ns_per_line"),
            b.suspends,
            b.resumes,
            b.backend_keys,
            b.equivalent
        );
        out.push_str(if i + 1 < overlap.benches.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = writeln!(
        out,
        "  ], \"geomean_overlap_speedup\": {:.2}, \"equivalent\": {}}},",
        overlap.geomean_speedup(),
        overlap.equivalent()
    );
    let persist = &trajectory.persist;
    let _ = writeln!(
        out,
        "  \"persist\": {{\"files\": {}, \"lines\": {}, \"warm_vs_cold\": {}, \"cold_backend_keys\": {}, \"warm_backend_keys\": {}, \"warm_persisted_hits\": {}, \"replayed\": {}, \"log_bytes\": {}, \"dedupe_ratio\": {:.2}, \"equivalent\": {}}},",
        persist.files,
        persist.lines,
        toggle_json(&persist.warm_vs_cold, "warm_ns_per_line", "cold_ns_per_line"),
        persist.cold_backend_keys,
        persist.warm_backend_keys,
        persist.warm_persisted_hits,
        persist.replayed,
        persist.log_bytes,
        persist.dedupe_ratio(),
        persist.equivalent
    );
    let tiered = &trajectory.tiered_cost;
    let _ = writeln!(
        out,
        "  \"tiered_cost\": {{\"files\": {}, \"lines\": {}, \"tiered_vs_flat\": {}, \"flat_backend_keys\": {}, \"tiered_authority_keys\": {}, \"tiered_cheap_hits\": {}, \"tier_stats\": {:?}, \"key_reduction\": {:.2}, \"equivalent\": {}}},",
        tiered.files,
        tiered.lines,
        toggle_json(&tiered.tiered_vs_flat, "tiered_ns_per_line", "flat_ns_per_line"),
        tiered.flat_backend_keys,
        tiered.tiered_authority_keys,
        tiered.tiered_cheap_hits,
        tiered.tier_stats,
        tiered.key_reduction(),
        tiered.equivalent
    );
    let floors = Floors::tracked();
    let _ = writeln!(
        out,
        "  \"floors\": {{\"prefilter_speedup\": {:.2}, \"is_match_speedup\": {:.2}, \"prescan_speedup\": {:.2}, \"stream_ratio\": {:.2}, \"tree_scan_ratio\": {:.2}, \"skewed_tree_speedup\": {:.2}, \"overlap_speedup\": {:.2}, \"persist_dedupe\": {:.2}, \"tiered_cost_ratio\": {:.2}}},",
        floors.prefilter_speedup,
        floors.is_match_speedup,
        floors.prescan_speedup,
        floors.stream_ratio,
        floors.tree_scan_ratio,
        floors.skewed_tree_speedup,
        floors.overlap_speedup,
        floors.persist_dedupe,
        floors.tiered_cost_ratio
    );
    let _ = writeln!(
        out,
        "  \"summary\": {{\"geomean_prefilter_speedup\": {:.2}, \"geomean_search_prefilter_speedup\": {:.2}, \"geomean_is_match_speedup\": {:.2}, \"geomean_prescan_speedup\": {:.2}, \"geomean_stream_ratio\": {:.2}, \"tree_scan_speedup\": {:.2}, \"tree_scan_deduped\": {}, \"skewed_tree_speedup\": {:.2}, \"skewed_tree_ranges\": {}, \"geomean_overlap_speedup\": {:.2}, \"persist_dedupe_ratio\": {:.2}, \"persist_warm_backend_keys\": {}, \"tiered_key_reduction\": {:.2}, \"tiered_authority_keys\": {}, \"all_equivalent\": {}}}",
        trajectory.geomean_prefilter_speedup(),
        trajectory.geomean_search_prefilter_speedup(),
        trajectory.geomean_is_match_speedup(),
        trajectory.geomean_prescan_speedup(),
        trajectory.geomean_stream_ratio(),
        trajectory.tree_scan.parallel.speedup(),
        trajectory.tree_scan.deduped(),
        trajectory.skewed_tree.speedup(),
        trajectory.skewed_tree.ranges,
        trajectory.overlap.geomean_speedup(),
        trajectory.persist.dedupe_ratio(),
        trajectory.persist.warm_backend_keys,
        trajectory.tiered_cost.key_reduction(),
        trajectory.tiered_cost.tiered_authority_keys,
        trajectory.all_equivalent()
            && trajectory.tree_scan.equivalent
            && trajectory.skewed_tree.equivalent
            && trajectory.overlap.equivalent()
            && trajectory.persist.equivalent
            && trajectory.tiered_cost.equivalent
    );
    out.push_str("}\n");
    out
}

fn toggle_json(toggle: &Toggle, fast_key: &str, reference_key: &str) -> String {
    format!(
        "{{\"{}\": {:.1}, \"{}\": {:.1}, \"speedup\": {:.2}}}",
        fast_key,
        toggle.fast_ns,
        reference_key,
        toggle.reference_ns,
        toggle.speedup()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick measurement the tests below check, taken once: it is the
    /// slow part of this suite, and the tests only read it.
    fn quick_trajectory() -> &'static Trajectory {
        static TRAJECTORY: OnceLock<Trajectory> = OnceLock::new();
        TRAJECTORY.get_or_init(|| {
            measure(&TrajectoryConfig {
                lines_per_bench: 25,
                find_lines: 5,
                repeat: 1,
                ..TrajectoryConfig::quick()
            })
        })
    }

    #[test]
    fn quick_trajectory_is_equivalent_and_serializes() {
        let trajectory = quick_trajectory();
        assert_eq!(trajectory.benches.len(), 9);
        assert!(
            trajectory.all_equivalent(),
            "some benchmark failed an equivalence check: {:?}",
            trajectory
                .benches
                .iter()
                .filter(|b| !b.equivalent)
                .map(|b| b.name)
                .collect::<Vec<_>>()
        );
        assert!(
            trajectory.tree_scan.equivalent,
            "tree-scan output must be thread-count independent"
        );
        assert!(
            trajectory.tree_scan.deduped(),
            "shared session must beat the per-file sum ({} vs {})",
            trajectory.tree_scan.shared_backend_keys,
            trajectory.tree_scan.per_file_backend_keys
        );
        assert!(
            trajectory.skewed_tree.equivalent,
            "skewed-tree output must be split- and thread-independent"
        );
        assert!(
            trajectory.skewed_tree.ranges > trajectory.skewed_tree.files as u64,
            "the giant file must split into several ranges: {:?}",
            trajectory.skewed_tree
        );
        assert!(
            trajectory.skewed_tree.giant_bytes * 10 >= trajectory.skewed_tree.total_bytes * 9,
            "the giant file must dominate the tree: {:?}",
            trajectory.skewed_tree
        );
        assert_eq!(trajectory.skewed_tree.worker_sweep.len(), 4);
        assert!(
            trajectory.overlap.equivalent(),
            "overlapped resolution must match synchronous verdicts and park lines: {:?}",
            trajectory.overlap.benches
        );
        assert_eq!(
            trajectory.persist.warm_backend_keys, 0,
            "the warm store must answer every previously-seen key from disk: {:?}",
            trajectory.persist
        );
        assert!(
            trajectory.persist.equivalent && trajectory.persist.cold_backend_keys > 0,
            "{:?}",
            trajectory.persist
        );
        assert!(
            trajectory.persist.warm_persisted_hits > 0 && trajectory.persist.replayed > 0,
            "{:?}",
            trajectory.persist
        );
        assert!(
            trajectory.tiered_cost.equivalent,
            "tiered routing must not change verdicts: {:?}",
            trajectory.tiered_cost
        );
        assert_eq!(
            trajectory.tiered_cost.tiered_authority_keys, 0,
            "the dict tier decides every Medicine-name key: {:?}",
            trajectory.tiered_cost
        );
        assert!(
            trajectory.tiered_cost.flat_backend_keys > 0
                && trajectory.tiered_cost.tiered_cheap_hits > 0,
            "{:?}",
            trajectory.tiered_cost
        );
        assert!(
            trajectory.tiered_cost.key_reduction() >= Floors::tracked().tiered_cost_ratio,
            "the acceptance floor must hold even on the quick corpus: {:?}",
            trajectory.tiered_cost
        );
        let json = to_json(trajectory);
        assert!(json.contains("\"artifact\": \"BENCH_PR10\""));
        assert!(json.contains("\"skewed_tree\""));
        assert!(json.contains("skewed_tree_speedup"));
        assert!(json.contains("\"worker_sweep\""));
        assert!(json.contains("\"name\": \"pass\""));
        assert!(json.contains("geomean_prefilter_speedup"));
        assert!(json.contains("geomean_prescan_speedup"));
        assert!(json.contains("\"prescan\""));
        assert!(json.contains("\"stream\""));
        assert!(json.contains("\"tree_scan\""));
        assert!(json.contains("tree_scan_ratio"));
        assert!(json.contains("\"overlap\""));
        assert!(json.contains("overlap_speedup"));
        assert!(json.contains("\"persist\""));
        assert!(json.contains("persist_dedupe"));
        assert!(json.contains("\"warm_backend_keys\": 0"));
        assert!(json.contains("\"tiered_cost\""));
        assert!(json.contains("tiered_cost_ratio"));
        assert!(json.contains("\"tiered_authority_keys\": 0"));
        assert!(json.contains("dict_hits="));
        assert!(json.contains("\"floors\""));
        assert!(json.trim_end().ends_with('}'));
        // Crude JSON sanity: balanced braces and brackets.
        let braces = json.matches('{').count();
        assert_eq!(braces, json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The literal-bearing benchmarks are known: spam/pass/wdom carry
        // multi-byte literals, edom/file/ip single-byte ones.
        let literal_bearing = trajectory.benches.iter().filter(|b| b.has_literals).count();
        assert!(
            literal_bearing >= 6,
            "only {literal_bearing} literal-bearing"
        );
    }

    #[test]
    fn floors_flag_regressions_and_pass_sane_numbers() {
        let trajectory = quick_trajectory();
        // Impossible floors must be reported as violations.
        let impossible = Floors {
            prefilter_speedup: 1e9,
            is_match_speedup: 1e9,
            prescan_speedup: 1e9,
            stream_ratio: 1e9,
            tree_scan_ratio: 1e9,
            skewed_tree_speedup: 1e9,
            overlap_speedup: 1e9,
            persist_dedupe: 1e9,
            tiered_cost_ratio: 1e9,
        };
        let violations = trajectory.check(&impossible).unwrap_err();
        assert_eq!(violations.len(), 9, "{violations:?}");
        assert!(violations[0].contains("below the stored floor"));
        // Trivial floors always pass (equivalence already asserted above).
        let trivial = Floors {
            prefilter_speedup: 0.0,
            is_match_speedup: 0.0,
            prescan_speedup: 0.0,
            stream_ratio: 0.0,
            tree_scan_ratio: 0.0,
            skewed_tree_speedup: 0.0,
            overlap_speedup: 0.0,
            persist_dedupe: 0.0,
            tiered_cost_ratio: 0.0,
        };
        assert!(trajectory.check(&trivial).is_ok());

        // Byte-divergence across the split/thread grid is a hard
        // violation regardless of floors.
        let mut skew_broken = trajectory.clone();
        skew_broken.skewed_tree.equivalent = false;
        let violations = skew_broken.check(&trivial).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("skewed-tree output differed")),
            "{violations:?}"
        );

        // A trajectory whose warm scan reached the backend is a hard
        // violation even when every floor is trivial.
        let mut broken = trajectory.clone();
        broken.persist.warm_backend_keys = 3;
        let violations = broken.check(&trivial).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("warm persistent store")),
            "{violations:?}"
        );

        // Diverged tiered verdicts are likewise a hard violation.
        let mut forged = trajectory.clone();
        forged.tiered_cost.equivalent = false;
        let violations = forged.check(&trivial).unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("tiered oracle routing diverged")),
            "{violations:?}"
        );
    }
}
