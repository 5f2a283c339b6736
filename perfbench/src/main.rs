//! End-to-end benchmark of the semre workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|long-lines|tree-llm|tree-sync|daemon --seed N --seconds S --trace 0|1
//! ```
//!
//! The run generates its inputs from the seed, builds and drives the
//! shipped `grepo` and `semred` binaries (or calls the `semre` facade
//! in-process for `table1`), checks every output against a reference the
//! benchmark computes itself, and prints one JSON object as its last
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`.  Any wrong output ends the run with a non-zero exit
//! and no JSON line.  See `README.md` next to this package.

mod daemon;
mod inputs;
mod long_lines;
mod probe;
mod programs;
mod report;
mod sys;
mod table1;
mod trace;
mod tree_scan;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use report::{median, quantile, Report};
use trace::{SpanId, Tracer};

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Every workload, gated in `BENCHMARK.json` or not.
const WORKLOADS: &[&str] = &["tree-llm", "tree-sync", "table1", "long-lines", "daemon"];

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("oracle_questions", "count"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// The per-layer metrics, in output order, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("syntax.parse_us", "us"),
    ("automata.compile_us", "us"),
    ("automata.prescan_ns_per_byte", "ns/B"),
    ("automata.dfa_ns_per_byte", "ns/B"),
    ("automata.lines_rejected", "count"),
    ("core.eval_us_per_line", "us"),
    ("core.oracle_requests", "count"),
    ("core.vertices_alive", "count"),
    ("oracle.backend_keys", "count"),
    ("oracle.backend_us", "us"),
    ("oracle.dedup_ratio", "ratio"),
    ("oracle.round_trips", "count"),
    ("oracle.keys_per_round_trip", "ratio"),
    ("oracle.overhead_ratio", "ratio"),
    ("persist.replay_s", "s"),
    ("persist.record_us", "us"),
    ("persist.lookup_ns", "ns"),
    ("grep.walk_ms", "ms"),
    ("grep.read_mb_per_s", "MB/s"),
    ("daemon.ping_us", "us"),
    ("daemon.queue_us", "us"),
    ("daemon.compile_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// The two patterns sent to the programs.  `MEDICINE` asks about every
/// substring after the prefix; `MEDICINE_WORD` only about lowercase runs.
pub const MEDICINE: &str = "Subject: .*(?<Medicine name>: .+).*";
pub const MEDICINE_WORD: &str = "Subject: .*(?<Medicine name>: [a-z]+).*";

/// Everything a workload needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// The tracer for untraced passes: records nothing.
    pub off: Tracer,
    /// Where `grepo` and `semred` were built.
    pub bin_dir: PathBuf,
    /// Per-run scratch directory, removed when the run ends.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A directory under the scratch directory, created if missing.
    pub fn dir(&self, name: &str) -> Result<PathBuf> {
        let dir = self.scratch.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// The seed of pass `k`'s input (pass 0 is the warm-up), for workloads
/// that give every pass inputs of its own so a run averages over many.
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// One timed pass over a workload's fixed operations.
#[derive(Debug)]
pub struct Pass {
    pub wall: Duration,
    pub cpu: Duration,
    pub peak_rss_kb: u64,
    pub ops: u64,
    /// Distinct questions answered by the authoritative backend.
    pub questions: u64,
    /// Per-operation latencies, µs.
    pub latencies_us: Vec<f64>,
}

/// The passes of one measurement.
pub struct Measured {
    pub passes: Vec<Pass>,
    /// Median traced pass time over median untraced pass time (traced
    /// runs only).
    pub trace_overhead: Option<f64>,
}

/// Runs one warm-up pass, then passes until `ctx.seconds` have elapsed
/// (at least three).  In a traced run, traced and untraced passes
/// alternate, and only the untraced ones are kept for the end-to-end
/// figures.
pub fn measure(
    ctx: &Ctx,
    mut pass: impl FnMut(&Tracer, Option<SpanId>) -> Result<Pass>,
) -> Result<Measured> {
    pass(&ctx.off, None)?;
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut k = 0usize;
    while plain.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        if ctx.tracer.enabled() && k % 2 == 1 {
            let id = ctx.tracer.start("pass", None);
            let p = pass(&ctx.tracer, Some(id))?;
            ctx.tracer.end(id);
            traced.push(p.wall.as_secs_f64());
        } else {
            plain.push(pass(&ctx.off, None)?);
        }
        k += 1;
    }
    let trace_overhead = (!traced.is_empty()).then(|| {
        let walls: Vec<f64> = plain.iter().map(|p| p.wall.as_secs_f64()).collect();
        median(&traced) / median(&walls)
    });
    Ok(Measured {
        passes: plain,
        trace_overhead,
    })
}

/// The end-to-end metrics of a measurement.
///
/// Timings come from the faster half of the run's passes (ranked by time
/// per operation).  The host this was tuned on flips between two CPU
/// speeds for seconds at a time, as neighbours load it; medians and means
/// over all passes move with the share of slow time a run happened to
/// get, while the faster half is there in nearly every run.
pub fn end_to_end(report: &mut Report, setup: Duration, measured: &Measured) {
    let passes = &measured.passes;
    let mut ranked: Vec<&Pass> = passes.iter().collect();
    ranked.sort_by(|a, b| per_op(a).total_cmp(&per_op(b)));
    let fast = &ranked[..passes.len().div_ceil(2)];
    let ops: u64 = fast.iter().map(|p| p.ops).sum();
    let wall: f64 = fast.iter().map(|p| p.wall.as_secs_f64()).sum();
    let cpu: f64 = fast.iter().map(|p| p.cpu.as_secs_f64()).sum();
    let latencies: Vec<f64> = fast
        .iter()
        .flat_map(|p| p.latencies_us.iter().copied())
        .collect();
    let first3 = &passes[..3];
    let values = [
        setup.as_secs_f64(),
        ops as f64 / wall,
        cpu / fast.len() as f64,
        // Memory and questions over the first three passes: a fixed
        // amount of work, whatever the run length, for programs whose
        // memory grows and whose answers accumulate over passes.
        first3.iter().map(|p| p.peak_rss_kb).max().unwrap_or(0) as f64 / 1024.0,
        first3.iter().map(|p| p.questions).sum::<u64>() as f64 / 3.0,
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.99),
    ];
    report.attempted = passes.iter().map(|p| p.ops).sum();
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        report.metric(name, value, unit);
    }
    let walls: Vec<String> = measured
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
        .collect();
    eprintln!(
        "perfbench: {} passes ({} s each), the faster {} timed, {} latency samples",
        passes.len(),
        walls.join(" "),
        fast.len(),
        latencies.len()
    );
}

fn per_op(pass: &Pass) -> f64 {
    pass.wall.as_secs_f64() / pass.ops.max(1) as f64
}

/// The per-layer metrics of a traced run: the probe's, then the tracing
/// overhead.
pub fn per_layer(report: &mut Report, mut layers: probe::Layers, measured: &Measured) {
    if let Some(overhead) = measured.trace_overhead {
        layers.insert("trace.overhead_ratio", overhead);
    }
    report.attempted = measured.passes.iter().map(|p| p.ops).sum();
    for (name, unit) in PER_LAYER {
        let value = layers.get(name).copied().unwrap_or(f64::NAN);
        report.metric(name, value, unit);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}").into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<Report> {
    let args = parse_args()?;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf();
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = Scratch(out.join(format!("tmp-{}-{}", args.workload, std::process::id())));
    std::fs::create_dir_all(&scratch.0)?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        off: Tracer::new(false),
        bin_dir: programs::build(&root)?,
        scratch: scratch.0.clone(),
    };
    let report = match args.workload.as_str() {
        "table1" => table1::run(&ctx)?,
        "long-lines" => long_lines::run(&ctx)?,
        "tree-llm" => tree_scan::run(&ctx, &tree_scan::POOLED)?,
        "tree-sync" => tree_scan::run(&ctx, &tree_scan::SYNC)?,
        "daemon" => daemon::run(&ctx)?,
        other => unreachable!("workload {other:?} was checked by parse_args"),
    };
    if args.trace {
        let path = out
            .join("traces")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        ctx.tracer.write(&path)?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    for (name, value, _) in report.metrics() {
        let zero_allowed = *name == "automata.lines_rejected";
        if !value.is_finite() || (*value <= 0.0 && !zero_allowed) {
            return Err(format!("metric {name} measured {value}, not a positive number").into());
        }
    }
    Ok(report)
}

fn main() {
    match run() {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
