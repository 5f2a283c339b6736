//! `tree-llm` and `tree-sync`: a cold directory scan against an LLM-like
//! oracle, `grepo --batched --oracle-delay <µs> --split-bytes 4096
//! --answer-log <fresh file>` over a materialized skewed `CorpusTree`.
//! Wall time is set by simulated round trips and the tree scheduler, and
//! every answer is logged.  `tree-llm` scans with two threads and
//! `--oracle-threads 2`, the resolver pool that overlaps round trips and
//! coalesces keys; `tree-sync` scans with one thread without it, waiting
//! out one round trip per new key.

use std::ffi::OsString;
use std::path::Path;
use std::sync::Arc;

use semre::oracle::persist::{decode_log, LOG_MAGIC};
use semre::oracle::Oracle;
use semre::workloads::{CorpusTree, CorpusTreeConfig};
use semre::SimLlmOracle;

use crate::inputs::join_lines;
use crate::probe::{self, Case, Probe};
use crate::programs::{grepo, grepo_setup};
use crate::report::{median, Report};
use crate::{end_to_end, measure, pass_seed, per_layer, Ctx, Pass, Result, MEDICINE_WORD};

/// Lines of the giant file that dominates the tree.
const GIANT_LINES: usize = 600;
/// Range size for sub-file work stealing, so a giant file is shared
/// between scan threads.
const SPLIT_BYTES: &str = "4096";

/// How `grepo` meets the oracle's round trips.
pub struct Scan {
    /// `--threads`; also `--oracle-threads` when `pool` is on.  The
    /// round trips waited on at once.
    threads: &'static str,
    /// The resolver pool (`--oracle-threads`).
    pool: bool,
    /// `--oracle-delay`: simulated round trip per backend batch, µs.
    delay_us: &'static str,
}

/// `tree-llm`: two scan threads and two resolver threads.
pub const POOLED: Scan = Scan {
    threads: "2",
    pool: true,
    delay_us: "5000",
};

/// `tree-sync`: one scan thread on the synchronous batched plane.  One
/// thread, because two scan threads racing on one new question both
/// reach the backend while the log records it once (see CHANGES.md),
/// which would fail the log check now and then.
pub const SYNC: Scan = Scan {
    threads: "1",
    pool: false,
    delay_us: "1000",
};

pub fn run(ctx: &Ctx, scan: &Scan) -> Result<Report> {
    let tree_for = |k: u64| {
        let config = CorpusTreeConfig {
            seed: pass_seed(ctx.seed, k),
            ..CorpusTreeConfig::default()
        };
        CorpusTree::generate_skewed(&config, GIANT_LINES)
    };
    let empty = ctx.dir("empty")?;
    let args = |log: &Path, root: &Path| -> Vec<OsString> {
        let pool_args = if scan.pool {
            &["--oracle-threads", scan.threads][..]
        } else {
            &[]
        };
        let mut args: Vec<OsString> = pool_args
            .iter()
            .chain(&[
                "--batched",
                "--threads",
                scan.threads,
                "--oracle-delay",
                scan.delay_us,
                "--split-bytes",
                SPLIT_BYTES,
                "--stats",
                "--count",
                "--answer-log",
            ])
            .map(OsString::from)
            .collect();
        args.push(log.into());
        args.push(MEDICINE_WORD.into());
        args.push(root.into());
        args
    };
    let setup = grepo_setup(&ctx.bin_dir, &ctx.scratch, |k| {
        args(&ctx.scratch.join(format!("setup-{k}.log")), &empty)
    })?;

    // Every pass scans a tree of its own, cold, so a run averages over
    // many tree shapes.
    let llm = SimLlmOracle::new();
    let last_log = ctx.scratch.join("last-answers.log");
    let mut serial = 0u64;
    let mut round_trips = Vec::new();
    let mut walls = Vec::new();
    let measured = measure(ctx, |tracer, parent| {
        let tree = tree_for(serial);
        let root = ctx.dir(&format!("tree-{serial}"))?;
        tree.write_to(&root)?;
        let log = ctx.scratch.join(format!("answers-{serial}.log"));
        serial += 1;
        let span = tracer.start("grepo", parent);
        let run = grepo(&ctx.bin_dir, &ctx.scratch, &args(&log, &root))?;
        tracer.end(span);
        std::fs::remove_dir_all(&root)?;
        let matched: u64 = String::from_utf8(run.stdout.clone())?
            .lines()
            .map(|l| {
                l.rsplit_once(':')
                    .and_then(|(_, n)| n.parse::<u64>().ok())
                    .ok_or(l.to_owned())
            })
            .sum::<std::result::Result<u64, String>>()
            .map_err(|l| format!("unexpected --count line {l:?}"))?;
        if matched != tree.planted_positives as u64 {
            return Err(format!(
                "grepo counted {matched} matches, the tree planted {}",
                tree.planted_positives
            )
            .into());
        }
        // The shared session's line counts what reached the backend and
        // in how many calls; the `batches=` line counts chunk-session
        // forwards and `resolver:` the pool's.
        let backend = run.stat("shared_session:", "backend_keys")? as u64;
        check_log(&log, backend, &llm)?;
        std::fs::rename(&log, &last_log)?;
        round_trips.push(run.stat("shared_session:", "backend_calls")?);
        walls.push(run.exit.wall.as_secs_f64());
        Ok(Pass {
            wall: run.exit.wall,
            cpu: run.exit.usage.cpu,
            peak_rss_kb: run.exit.usage.peak_rss_kb,
            ops: tree.total_lines as u64,
            questions: backend,
            latencies_us: vec![run.exit.wall.as_secs_f64() * 1e6],
        })
    })?;

    let mut report = Report::default();
    if !ctx.tracer.enabled() {
        end_to_end(&mut report, setup, &measured);
        return Ok(report);
    }
    let tree = tree_for(0);
    let inputs = ctx.dir("inputs")?;
    tree.write_to(&inputs)?;
    let lines: Vec<Vec<u8>> = tree
        .files
        .iter()
        .flat_map(|f| f.contents.split(|&b| b == b'\n').map(<[u8]>::to_vec))
        .collect();
    let probe = Probe {
        daemon_scan: (
            MEDICINE_WORD.to_owned(),
            join_lines(&lines[..lines.len().min(400)]),
        ),
        cases: vec![Case {
            pattern: MEDICINE_WORD.to_owned(),
            oracle: Arc::new(SimLlmOracle::new()),
            lines,
        }],
        chunk_session: true,
        input_dir: &inputs,
        scratch: &ctx.scratch,
        bin_dir: &ctx.bin_dir,
        program_log: Some(last_log),
        daemon: None,
    };
    let root = ctx.tracer.start("probe", None);
    let mut layers = probe::run(&ctx.tracer, root, &probe)?;
    ctx.tracer.end(root);
    // Round trips as the shipped binary made them, and the paper's
    // overhead figure: wall time over the time spent waiting on the
    // oracle, the round trips' delays spread over the threads that wait
    // on them at once.
    let trips = median(&round_trips);
    let keys = median(
        &measured
            .passes
            .iter()
            .map(|p| p.questions as f64)
            .collect::<Vec<_>>(),
    );
    layers.insert("oracle.round_trips", trips);
    layers.insert("oracle.keys_per_round_trip", keys / trips);
    let delay_s: f64 = scan.delay_us.parse::<f64>()? * 1e-6;
    let waiting = trips * delay_s / scan.threads.parse::<f64>()?;
    layers.insert("oracle.overhead_ratio", median(&walls) / waiting);
    per_layer(&mut report, layers, &measured);
    Ok(report)
}

/// The fresh answer log holds exactly the backend's questions, and
/// every logged answer is what the simulated LLM says.
fn check_log(log: &Path, backend_keys: u64, llm: &SimLlmOracle) -> Result<()> {
    let bytes = std::fs::read(log)?;
    let body = bytes
        .strip_prefix(&LOG_MAGIC[..])
        .ok_or("the answer log lacks its header")?;
    let decoded = decode_log(body);
    if decoded.records.len() as u64 != backend_keys {
        return Err(format!(
            "the answer log holds {} records, the shared session reports {backend_keys} backend keys",
            decoded.records.len()
        )
        .into());
    }
    if let Some(bad) = decoded
        .records
        .iter()
        .find(|r| llm.holds(&r.query, &r.text) != r.answer)
    {
        return Err(format!("logged answer {bad:?} differs from the simulated LLM").into());
    }
    Ok(())
}
