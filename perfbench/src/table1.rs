//! `table1`: the paper's own workload.  `SemRegex::is_match` (default
//! batched plane, one thread, the in-memory Table-1 oracles) on every
//! line of the seeded `Workbench` spam and Java corpora, for all nine
//! Table-1 benchmarks, in this process.

use std::sync::Arc;
use std::time::{Duration, Instant};

use semre::oracle::Oracle;
use semre::workloads::rng::StdRng;
use semre::workloads::{BenchSpec, Workbench};
use semre::{DpMatcher, SemRegex};

use crate::inputs::join_lines;
use crate::probe::{self, Case, CountingOracle, Probe};
use crate::report::Report;
use crate::sys::self_usage;
use crate::{end_to_end, measure, pass_seed, per_layer, Ctx, Pass, Result};

/// Lines per corpus and pass.
const LINES: usize = 3000;
/// Short lines per benchmark checked against the DP baseline.
const DP_SAMPLE: usize = 12;
/// Longest line the DP baseline is asked about.
const DP_MAX_LEN: usize = 40;

/// One pass's input: a seeded `Workbench` and the nine compiled
/// patterns over its oracles, each behind a counting wrapper.
struct Input {
    bench: Workbench,
    specs: Vec<BenchSpec>,
    patterns: Vec<String>,
    oracles: Vec<Arc<CountingOracle>>,
    regexes: Vec<SemRegex>,
}

impl Input {
    /// Generates the workbench and returns it with the time taken to
    /// parse and compile the nine patterns.
    fn new(seed: u64) -> Result<(Input, Duration)> {
        let bench = Workbench::generate(seed, LINES, LINES);
        let specs = bench.benchmarks();
        let patterns: Vec<String> = specs.iter().map(|s| s.semre.to_string()).collect();
        let oracles: Vec<Arc<CountingOracle>> = specs
            .iter()
            .map(|s| Arc::new(CountingOracle::new(Arc::clone(&s.oracle), false)))
            .collect();
        let clock = Instant::now();
        let regexes = patterns
            .iter()
            .zip(&oracles)
            .map(|(p, o)| SemRegex::builder().build_shared(p, Arc::clone(o) as Arc<dyn Oracle>))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let compile = clock.elapsed();
        let input = Input {
            bench,
            specs,
            patterns,
            oracles,
            regexes,
        };
        input.check_against_dp(seed)?;
        Ok((input, compile))
    }

    fn lines(&self, benchmark: usize) -> &[String] {
        self.bench.corpus(self.specs[benchmark].dataset).lines()
    }

    /// The facade's verdicts equal the paper's DP baseline on a seeded
    /// sample of short lines of every benchmark.
    fn check_against_dp(&self, seed: u64) -> Result<()> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd9);
        let mut checked = 0;
        for (i, (spec, re)) in self.specs.iter().zip(&self.regexes).enumerate() {
            let short: Vec<&String> = self
                .lines(i)
                .iter()
                .filter(|l| l.len() <= DP_MAX_LEN)
                .collect();
            let dp = DpMatcher::new(spec.semre.clone(), Arc::clone(&spec.oracle));
            for _ in 0..DP_SAMPLE.min(short.len()) {
                let line = short[rng.gen_range(0..short.len())].as_bytes();
                if dp.is_match(line) != re.is_match(line) {
                    return Err(format!(
                        "{}: is_match disagrees with the DP baseline on {:?}",
                        spec.name,
                        String::from_utf8_lossy(line)
                    )
                    .into());
                }
                checked += 1;
            }
        }
        if checked < self.specs.len() * DP_SAMPLE / 2 {
            return Err(format!("only {checked} short lines found for the DP check").into());
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    // Cold set-up: the first parse and compile of the nine patterns in
    // this process.  Each pass then runs on a workbench of its own, so
    // a run averages over many corpora, not just one.
    let (first, setup) = Input::new(pass_seed(ctx.seed, 0))?;
    let mut next = Some(first);
    let mut serial = 0;
    let measured = measure(ctx, |tracer, parent| {
        let input = match next.take() {
            Some(input) => input,
            None => {
                serial += 1;
                Input::new(pass_seed(ctx.seed, serial))?.0
            }
        };
        let before = self_usage();
        let asked: u64 = input.oracles.iter().map(|o| o.keys()).sum();
        let mut latencies = Vec::new();
        let clock = Instant::now();
        for (i, re) in input.regexes.iter().enumerate() {
            let span = tracer.start("table1.benchmark", parent);
            for line in input.lines(i) {
                let t = Instant::now();
                std::hint::black_box(re.is_match(std::hint::black_box(line.as_bytes())));
                latencies.push(t.elapsed().as_secs_f64() * 1e6);
            }
            tracer.end(span);
        }
        let wall = clock.elapsed();
        let after = self_usage();
        Ok(Pass {
            wall,
            cpu: after.cpu - before.cpu,
            peak_rss_kb: after.peak_rss_kb,
            ops: latencies.len() as u64,
            questions: input.oracles.iter().map(|o| o.keys()).sum::<u64>() - asked,
            latencies_us: latencies,
        })
    })?;

    let mut report = Report::default();
    if !ctx.tracer.enabled() {
        end_to_end(&mut report, setup, &measured);
        return Ok(report);
    }
    let (input, _) = Input::new(pass_seed(ctx.seed, 0))?;
    let inputs = ctx.dir("inputs")?;
    std::fs::write(
        inputs.join("spam.txt"),
        join_lines(input.bench.spam().lines()),
    )?;
    std::fs::write(
        inputs.join("java.txt"),
        join_lines(input.bench.java().lines()),
    )?;
    let spam1 = input
        .specs
        .iter()
        .position(|s| s.name == "spam,1")
        .expect("Table 1 has spam,1");
    let probe = Probe {
        cases: (0..input.specs.len())
            .map(|i| Case {
                pattern: input.patterns[i].clone(),
                oracle: Arc::clone(&input.specs[i].oracle),
                lines: input
                    .lines(i)
                    .iter()
                    .map(|l| l.clone().into_bytes())
                    .collect(),
            })
            .collect(),
        chunk_session: false,
        input_dir: &inputs,
        scratch: &ctx.scratch,
        bin_dir: &ctx.bin_dir,
        program_log: None,
        daemon: None,
        daemon_scan: (
            input.patterns[spam1].clone(),
            join_lines(&input.bench.spam().lines()[..300]),
        ),
    };
    let root = ctx.tracer.start("probe", None);
    let layers = probe::run(&ctx.tracer, root, &probe)?;
    ctx.tracer.end(root);
    per_layer(&mut report, layers, &measured);
    Ok(report)
}
