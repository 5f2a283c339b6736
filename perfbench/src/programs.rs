//! The shipped binaries, driven from outside: building them, one-shot
//! `grepo` runs, and a `semred` daemon that is always shut down and
//! waited for.

use std::ffi::OsStr;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use semre_daemon::DaemonClient;

use crate::sys::{self, Exit};
use crate::Result;

/// Builds `grepo` and `semred` from the workspace manifest into the
/// directory this benchmark was built into, and returns that directory.
pub fn build(root: &Path) -> Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let bin_dir = exe
        .parent()
        .ok_or("benchmark executable has no directory")?;
    let target_dir = bin_dir
        .parent()
        .ok_or("benchmark executable is not in a target dir")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bins",
            "-p",
            "semre-grep",
            "-p",
            "semre-daemon",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .current_dir(root)
        .stdin(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(format!("building grepo and semred failed: {status}").into());
    }
    Ok(bin_dir.to_path_buf())
}

/// Process starts timed for a set-up figure: one start of a few
/// milliseconds jitters too much to stand alone.
pub const SETUP_SAMPLES: usize = 11;

/// One finished `grepo` run.
pub struct GrepoRun {
    pub exit: Exit,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

impl GrepoRun {
    /// The value of `key=` on the first `--stats` line starting with
    /// `line_prefix`.
    pub fn stat(&self, line_prefix: &str, key: &str) -> Result<f64> {
        stat_value(&self.stderr, line_prefix, key)
    }
}

/// The value of `key=` on the first line of `text` starting with
/// `line_prefix`.
pub fn stat_value(text: &str, line_prefix: &str, key: &str) -> Result<f64> {
    let line = text
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .ok_or_else(|| format!("no line starting with {line_prefix:?} in:\n{text}"))?;
    let needle = format!("{key}=");
    line.split_whitespace()
        .find_map(|field| field.strip_prefix(needle.as_str()))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no numeric {key}= on line {line:?}").into())
}

/// Runs `grepo` with `args`, its output going to files under `scratch`.
/// Exit codes 0 (a line matched) and 1 (none did) are success.
pub fn grepo<S: AsRef<OsStr>>(bin_dir: &Path, scratch: &Path, args: &[S]) -> Result<GrepoRun> {
    let out_path = scratch.join("grepo.stdout");
    let err_path = scratch.join("grepo.stderr");
    let exit = sys::run_measured(
        Command::new(bin_dir.join("grepo"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(File::create(&out_path)?)
            .stderr(File::create(&err_path)?),
    )?;
    let run = GrepoRun {
        exit,
        stdout: std::fs::read(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    };
    if !matches!(exit.code, 0 | 1) {
        return Err(format!("grepo exited with {}: {}", exit.code, run.stderr).into());
    }
    Ok(run)
}

/// Set-up time of one-shot `grepo`: the median wall time of
/// `SETUP_SAMPLES` runs of `args(k)`, each a fresh process over an empty
/// input.
pub fn grepo_setup<S: AsRef<OsStr>>(
    bin_dir: &Path,
    scratch: &Path,
    args: impl Fn(usize) -> Vec<S>,
) -> Result<Duration> {
    let mut walls = Vec::new();
    for k in 0..SETUP_SAMPLES {
        walls.push(grepo(bin_dir, scratch, &args(k))?.exit.wall.as_secs_f64());
    }
    Ok(Duration::from_secs_f64(crate::report::median(&walls)))
}

/// A running `semred`.  Dropping it shuts the server down and waits for
/// it, killing it if it does not stop in time, so no daemon outlives a
/// run, whether it ends in success, an error or a panic.
pub struct Daemon {
    child: Child,
    /// Drains the daemon's standard output; ends when the daemon exits.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: String,
    /// Spawn to the first answered request (a `PING`).
    pub ready_after: Duration,
}

impl Daemon {
    /// Starts `semred` on a free port with `args` and waits until it
    /// answers a `PING`.
    pub fn start<S: AsRef<OsStr>>(bin_dir: &Path, args: &[S]) -> Result<Daemon> {
        let spawned = Instant::now();
        let mut child = Command::new(bin_dir.join("semred"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // Own the child before anything can fail, so Drop cleans it up.
        let mut daemon = Daemon {
            child,
            drain: None,
            addr: String::new(),
            ready_after: Duration::ZERO,
        };
        let mut reader = BufReader::new(stdout);
        daemon.addr = read_listen_addr(&mut reader)?;
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        }));
        DaemonClient::connect(&daemon.addr)?.ping()?;
        daemon.ready_after = spawned.elapsed();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self) -> Result<DaemonClient> {
        Ok(DaemonClient::connect(&self.addr)?)
    }

    /// Asks the server to stop and waits for it; an error if it does not
    /// exit cleanly.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> Result<()> {
        let result = self.stop_child();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        result
    }

    fn stop_child(&mut self) -> Result<()> {
        if let Ok(Some(_)) = self.child.try_wait() {
            return Ok(());
        }
        let asked = DaemonClient::connect(&self.addr).and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() && asked.is_ok() {
                    Ok(())
                } else {
                    Err(format!("semred ended with {status} (shutdown request: {asked:?})").into())
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err("semred did not stop within 10 s of SHUTDOWN and was killed".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.addr.is_empty() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        } else if let Err(e) = self.stop() {
            eprintln!("perfbench: {e}");
        }
    }
}

/// Reads `semred listening on ADDR` from the daemon's standard output.
fn read_listen_addr(reader: &mut BufReader<ChildStdout>) -> Result<String> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let addr = line
        .trim()
        .strip_prefix("semred listening on ")
        .ok_or_else(|| format!("unexpected first line from semred: {line:?}"))?
        .to_owned();
    Ok(addr)
}
