//! `daemon`: `semred --workers 2` warm-restarted over an answer log
//! primed earlier in the run, then two closed-loop client connections
//! sending `SCAN` requests of subject lines.  Half of each request's
//! lines are in the log (store reads), half are new (backend questions
//! and log appends).

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use semre::oracle::persist::{decode_log, LOG_MAGIC};
use semre::workloads::rng::StdRng;
use semre::SimLlmOracle;
use semre_daemon::DaemonClient;

use crate::inputs::{join_lines, medicine_line, short_line, shuffle, token};
use crate::probe::{self, Case, Probe};
use crate::programs::{stat_value, Daemon, SETUP_SAMPLES};
use crate::report::{median, Report};
use crate::sys::{proc_cpu, proc_peak_rss_kb};
use crate::{end_to_end, measure, per_layer, Ctx, Pass, Result, MEDICINE_WORD};

/// Lines primed into the log before the warm restart.
const KNOWN: u64 = 2000;
/// Client connections, each a closed loop.
const CONNECTIONS: usize = 2;
/// Requests per connection per pass.
const REQUESTS: usize = 200;
/// Lines per request, half known, half new: enough work per request
/// that a few milliseconds of scheduling delay do not set its latency.
const LINES_PER_REQUEST: usize = 48;
/// Records between log syncs: more than a run appends.
const SYNC_EVERY: &str = "100000000";
/// New lines per request; the rest are known.
const FRESH_PER_REQUEST: usize = 8;

/// One request's payload and the bytes the reference expects back.
struct Request {
    payload: Vec<u8>,
    expected: Vec<u8>,
    matched: u64,
}

fn request(lines: &[Vec<u8>]) -> Request {
    let hits: Vec<&Vec<u8>> = lines.iter().filter(|l| medicine_line(l)).collect();
    Request {
        payload: join_lines(lines),
        expected: join_lines(&hits),
        matched: hits.len() as u64,
    }
}

/// A new line's unique token for connection `c`.  The two connections
/// draw their tokens from disjoint halves of the alphabet, so no question
/// about a new line is ever asked by both tenants: two tenants racing on
/// one new question would both reach the backend, and the log would
/// record it once (see CHANGES.md).
fn fresh_token(c: usize, serial: u64) -> String {
    if c == 0 {
        token(serial, b'a'..=b'm')
    } else {
        token(serial, b'n'..=b'z')
    }
}

fn check_scan(conn: &mut DaemonClient, handle: u64, req: &Request) -> Result<()> {
    let out = conn.scan(handle, &req.payload)?;
    if out.payload != req.expected || out.matched != req.matched {
        return Err(format!(
            "SCAN returned {:?} ({} matched), the reference expects {:?}",
            String::from_utf8_lossy(&out.payload),
            out.matched,
            String::from_utf8_lossy(&req.expected)
        )
        .into());
    }
    Ok(())
}

/// Records in an answer log.
fn log_records(log: &Path) -> Result<usize> {
    let bytes = std::fs::read(log)?;
    let body = bytes
        .strip_prefix(&LOG_MAGIC[..])
        .ok_or("the answer log lacks its header")?;
    Ok(decode_log(body).records.len())
}

/// Backend keys summed over every tenant line of a `STATS` payload.
fn tenant_backend_keys(stats: &str) -> Result<u64> {
    stats
        .lines()
        .filter(|l| l.starts_with("tenant "))
        .map(|l| stat_value(l, "tenant ", "backend_keys").map(|v| v as u64))
        .sum()
}

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let known: Vec<Vec<u8>> = (0..KNOWN)
        .map(|n| short_line(&mut rng, &token(n, b'a'..=b'z')))
        .collect();
    let log = ctx.dir("log")?.join("answers.log");
    let log_arg = log.as_os_str().to_owned();
    // The log is synced at shutdown only: fsync stalls measure the disk
    // the benchmark happens to run on, not the daemon.
    let daemon_args = [
        "--workers".into(),
        "2".into(),
        "--sync-every".into(),
        SYNC_EVERY.into(),
        "--answer-log".into(),
        log_arg,
    ];

    // Prime the log with the known lines, then stop.
    {
        let primer = Daemon::start(&ctx.bin_dir, &daemon_args)?;
        let mut conn = primer.client()?;
        let handle = conn.compile("sim-llm", MEDICINE_WORD)?;
        for chunk in known.chunks(100) {
            check_scan(&mut conn, handle, &request(chunk))?;
        }
        // Each open connection holds one of the two workers, and the
        // server drains its workers before it exits.
        drop(conn);
        primer.shutdown()?;
    }
    let primed = log_records(&log)?;
    let primed_copy = ctx.scratch.join("primed.log");
    std::fs::copy(&log, &primed_copy)?;

    // Warm restart: set-up is spawn to the first answered request,
    // replay included; the median over several restarts, the last of
    // which serves the run.
    let mut ready = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let trial = Daemon::start(&ctx.bin_dir, &daemon_args)?;
        ready.push(trial.ready_after.as_secs_f64());
        trial.shutdown()?;
    }
    let daemon = Daemon::start(&ctx.bin_dir, &daemon_args)?;
    ready.push(daemon.ready_after.as_secs_f64());
    let setup = Duration::from_secs_f64(median(&ready));
    let replayed = stat_value(&daemon.client()?.stats()?, "store:", "replayed")? as usize;
    if replayed != primed {
        return Err(
            format!("semred replayed {replayed} entries, the primed log holds {primed}").into(),
        );
    }

    let mut conns = Vec::new();
    for c in 0..CONNECTIONS {
        let mut conn = daemon.client()?;
        conn.tenant(&format!("client{c}"))?;
        let handle = conn.compile("sim-llm", MEDICINE_WORD)?;
        conns.push((conn, handle));
    }
    let mut serials = [0u64; CONNECTIONS];
    let mut fresh_lines = Vec::new();
    let measured = measure(ctx, |tracer, parent| {
        let requests: Vec<Vec<Request>> = (0..CONNECTIONS)
            .map(|c| {
                (0..REQUESTS)
                    .map(|_| {
                        let mut lines = Vec::with_capacity(LINES_PER_REQUEST);
                        for _ in 0..FRESH_PER_REQUEST {
                            let line = short_line(&mut rng, &fresh_token(c, serials[c]));
                            serials[c] += 1;
                            if fresh_lines.len() < 400 {
                                fresh_lines.push(line.clone());
                            }
                            lines.push(line);
                        }
                        while lines.len() < LINES_PER_REQUEST {
                            lines.push(known[rng.gen_range(0..known.len())].clone());
                        }
                        shuffle(&mut rng, &mut lines);
                        request(&lines)
                    })
                    .collect()
            })
            .collect();
        // With both workers taken by the clients, the first client asks
        // for the counters between passes.
        let keys_before = tenant_backend_keys(&conns[0].0.stats()?)?;
        let cpu_before = proc_cpu(daemon.pid())?;
        let barrier = Barrier::new(CONNECTIONS + 1);
        let (latencies, wall) = std::thread::scope(|s| -> Result<(Vec<f64>, Duration)> {
            let workers: Vec<_> = conns
                .iter_mut()
                .zip(&requests)
                .map(|((conn, handle), reqs)| {
                    let barrier = &barrier;
                    s.spawn(move || -> Result<Vec<f64>> {
                        barrier.wait();
                        let mut lat = Vec::with_capacity(reqs.len());
                        for req in reqs {
                            let span = tracer.start("daemon.request", parent);
                            let t = Instant::now();
                            check_scan(conn, *handle, req)?;
                            lat.push(t.elapsed().as_secs_f64() * 1e6);
                            tracer.end(span);
                        }
                        Ok(lat)
                    })
                })
                .collect();
            barrier.wait();
            let clock = Instant::now();
            let mut all = Vec::new();
            for w in workers {
                all.extend(w.join().expect("client threads do not panic")?);
            }
            Ok((all, clock.elapsed()))
        })?;
        let cpu = proc_cpu(daemon.pid())? - cpu_before;
        let keys = tenant_backend_keys(&conns[0].0.stats()?)? - keys_before;
        Ok(Pass {
            wall,
            cpu,
            peak_rss_kb: proc_peak_rss_kb(daemon.pid())?,
            ops: latencies.len() as u64,
            questions: keys,
            latencies_us: latencies,
        })
    })?;

    drop(conns);
    let mut report = Report::default();
    let mut layers = None;
    if ctx.tracer.enabled() {
        let inputs = ctx.dir("inputs")?;
        std::fs::write(inputs.join("known.txt"), join_lines(&known))?;
        std::fs::write(inputs.join("fresh.txt"), join_lines(&fresh_lines))?;
        let mut lines = known.clone();
        lines.extend(fresh_lines.iter().cloned());
        let probe = Probe {
            cases: vec![Case {
                pattern: MEDICINE_WORD.to_owned(),
                oracle: Arc::new(SimLlmOracle::new()),
                lines,
            }],
            chunk_session: true,
            input_dir: &inputs,
            scratch: &ctx.scratch,
            bin_dir: &ctx.bin_dir,
            program_log: Some(primed_copy),
            daemon: Some(&daemon),
            daemon_scan: (MEDICINE_WORD.to_owned(), join_lines(&known)),
        };
        let root = ctx.tracer.start("probe", None);
        layers = Some(probe::run(&ctx.tracer, root, &probe)?);
        ctx.tracer.end(root);
    }

    // New backend keys equal the growth of the log.
    let new_keys = tenant_backend_keys(&daemon.client()?.stats()?)?;
    daemon.shutdown()?;
    let grown = log_records(&log)? - primed;
    if grown as u64 != new_keys {
        return Err(format!(
            "the log grew by {grown} records, the tenants report {new_keys} backend keys"
        )
        .into());
    }
    match layers {
        Some(layers) => per_layer(&mut report, layers, &measured),
        None => end_to_end(&mut report, setup, &measured),
    }
    Ok(report)
}
