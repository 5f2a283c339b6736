//! Process accounting, std only: CPU time and peak resident memory of
//! this process and of the program's child processes.
//!
//! Finished children are reaped with the C library's `wait4`, which
//! returns that one child's CPU time; this process reads its own with
//! `getrusage`.  Peak memory is each process's own `VmHWM` from
//! `/proc/<pid>/status`, and a daemon that is still running is read from
//! `/proc/<pid>/stat`.

use std::io;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads struct rusage and /proc as laid out on 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// of which the first is `ru_maxrss` (KiB, not used: see
/// [`run_measured`]).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_CLK_TCK: i32 = 2;

/// CPU time (user plus system) and peak resident memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu: Duration,
    pub peak_rss_kb: u64,
}

impl Rusage {
    fn cpu(&self) -> Duration {
        let micros = |tv: [i64; 2]| Duration::from_micros((tv[0] * 1_000_000 + tv[1]) as u64);
        micros(self.utime) + micros(self.stime)
    }
}

/// This process's CPU time so far and its peak resident memory
/// (`VmHWM`: `getrusage`'s `ru_maxrss` would also count the process
/// that exec'd this one, such as `cargo run`).
pub fn self_usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a writable `struct rusage` with the layout of this
    // target (checked by the `compile_error!` above), and RUSAGE_SELF is
    // a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    Usage {
        cpu: ru.cpu(),
        peak_rss_kb: proc_peak_rss_kb(std::process::id()).expect("/proc/self/status has VmHWM"),
    }
}

/// How a measured child process ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// The exit code, or minus the signal number that killed it.
    pub code: i32,
    /// Spawn to reaped.
    pub wall: Duration,
    /// The child's own CPU time and peak memory.
    pub usage: Usage,
}

/// Spawns `command`, waits for it and returns its wall time, exit code
/// and resource usage.  The caller directs its standard streams (to
/// files, so no pipe can fill up while this waits).
///
/// The child's peak memory is its own `VmHWM`, sampled every
/// millisecond while it runs: `wait4`'s `ru_maxrss` also counts the
/// memory of this process, whose address space the child shares until
/// it execs.
pub fn run_measured(command: &mut Command) -> io::Result<Exit> {
    let start = Instant::now();
    let child = command.spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut ru = Rusage::default();
    let reaped = AtomicBool::new(false);
    let peak_kb = AtomicU64::new(0);
    let mut wall = Duration::ZERO;
    std::thread::scope(|s| -> io::Result<()> {
        s.spawn(|| {
            while !reaped.load(Ordering::SeqCst) {
                if let Ok(kb) = proc_peak_rss_kb(child.id()) {
                    peak_kb.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let waited = loop {
            // SAFETY: `pid` is our own child, not yet waited for (std's
            // `Child` only waits when asked to, and we never ask);
            // `status` and `ru` are valid out-parameters of the right
            // types.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            if rc == pid {
                break Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                break Err(err);
            }
        };
        // Before the sampler is joined, which may take its sleep.
        wall = start.elapsed();
        reaped.store(true, Ordering::SeqCst);
        waited
    })?;
    // Already reaped: dropping the handle neither waits nor kills.
    drop(child);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok(Exit {
        code,
        wall,
        usage: Usage {
            cpu: ru.cpu(),
            peak_rss_kb: peak_kb.load(Ordering::Relaxed),
        },
    })
}

/// User plus system CPU time of a running process, from
/// `/proc/<pid>/stat` (clock-tick resolution).
pub fn proc_cpu(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; the fields after it may not.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) (utime, stime) are 12 and 13 after `)`.
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    let ticks = tick(11)? + tick(12)?;
    // SAFETY: sysconf has no preconditions; _SC_CLK_TCK is a valid name.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Ok(Duration::from_nanos(ticks * 1_000_000_000 / hz))
}

/// Peak resident memory (`VmHWM`, KiB) of a running process.
pub fn proc_peak_rss_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}
