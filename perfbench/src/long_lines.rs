//! `long-lines`: `grepo --batched` with `Subject: .*(?<Medicine name>: .+).*`
//! over one on-disk file of 0.3–0.8 KB subject lines, half of which name
//! a medicine.  Every line passes the prefilters and asks about every
//! substring after the prefix, ≈n²/2 distinct questions, so the forward
//! pass, the ledger and session dedupe and key storage dominate.

use std::sync::Arc;

use semre::oracle::MEDICINE_NAMES;
use semre::workloads::rng::StdRng;
use semre::SimLlmOracle;

use crate::inputs::{join_lines, long_line, medicine_line, shuffle};
use crate::probe::{self, Case, Probe};
use crate::programs::{grepo, grepo_setup};
use crate::report::{median, Report};
use crate::{end_to_end, measure, per_layer, Ctx, Pass, Result, MEDICINE, MEDICINE_WORD};

/// Line lengths, fixed so that every seed asks about as many questions;
/// the seed chooses the words, which lines name a medicine, and the
/// order.
const LENGTHS: [usize; 4] = [320, 480, 640, 800];

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut carries = [true, true, false, false];
    shuffle(&mut rng, &mut carries);
    let mut lines: Vec<Vec<u8>> = LENGTHS
        .iter()
        .zip(carries)
        .map(|(&len, with)| {
            let med = with.then(|| MEDICINE_NAMES[rng.gen_range(0..MEDICINE_NAMES.len())]);
            long_line(&mut rng, len, med)
        })
        .collect();
    shuffle(&mut rng, &mut lines);
    let expected = join_lines(
        &lines
            .iter()
            .filter(|l| medicine_line(l))
            .collect::<Vec<_>>(),
    );
    if expected.is_empty() {
        return Err("no generated line names a medicine".into());
    }
    let max_questions: u64 = lines
        .iter()
        .map(|l| (l.len() * (l.len() + 1) / 2) as u64)
        .sum();

    let inputs = ctx.dir("inputs")?;
    let file = inputs.join("long.txt");
    std::fs::write(&file, join_lines(&lines))?;
    let empty = ctx.dir("empty")?.join("empty.txt");
    std::fs::write(&empty, b"")?;
    let args = |path: &std::path::Path| {
        vec![
            "--batched".into(),
            "--stats".into(),
            MEDICINE.into(),
            path.as_os_str().to_owned(),
        ]
    };
    let setup = grepo_setup(&ctx.bin_dir, &ctx.scratch, |_| args(&empty))?;

    let mut round_trips = Vec::new();
    let mut keys = Vec::new();
    let measured = measure(ctx, |tracer, parent| {
        let span = tracer.start("grepo", parent);
        let run = grepo(&ctx.bin_dir, &ctx.scratch, &args(&file))?;
        tracer.end(span);
        if run.stdout != expected {
            return Err(format!(
                "grepo printed {:?}, the reference expects {:?}",
                String::from_utf8_lossy(&run.stdout),
                String::from_utf8_lossy(&expected)
            )
            .into());
        }
        // The chunk session's line: the only `backend_keys=` this
        // single-file run prints.
        let questions = run.stat("batches=", "backend_keys")? as u64;
        if questions > max_questions {
            return Err(
                format!("{questions} questions exceed Σ n(n+1)/2 = {max_questions}").into(),
            );
        }
        round_trips.push(run.stat("batches=", "batches")?);
        keys.push(questions as f64);
        Ok(Pass {
            wall: run.exit.wall,
            cpu: run.exit.usage.cpu,
            peak_rss_kb: run.exit.usage.peak_rss_kb,
            ops: lines.len() as u64,
            questions,
            latencies_us: vec![run.exit.wall.as_secs_f64() * 1e6],
        })
    })?;

    let mut report = Report::default();
    if !ctx.tracer.enabled() {
        end_to_end(&mut report, setup, &measured);
        return Ok(report);
    }
    let probe = Probe {
        cases: vec![Case {
            pattern: MEDICINE.to_owned(),
            oracle: Arc::new(SimLlmOracle::new()),
            lines: lines.clone(),
        }],
        chunk_session: true,
        input_dir: &inputs,
        scratch: &ctx.scratch,
        bin_dir: &ctx.bin_dir,
        program_log: None,
        daemon: None,
        daemon_scan: (MEDICINE_WORD.to_owned(), join_lines(&lines)),
    };
    let root = ctx.tracer.start("probe", None);
    let mut layers = probe::run(&ctx.tracer, root, &probe)?;
    ctx.tracer.end(root);
    // Round trips as the shipped binary made them.
    let trips = median(&round_trips);
    layers.insert("oracle.round_trips", trips);
    layers.insert("oracle.keys_per_round_trip", median(&keys) / trips);
    per_layer(&mut report, layers, &measured);
    Ok(report)
}
