//! Process measurements: wall time, exit status and peak resident set
//! of a child process, and the peak resident set of this process.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and calls wait4 with the 64-bit Linux rusage layout");

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// One finished child process.
pub struct ChildRun {
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Exit code; `None` if a signal ended it.
    pub code: Option<i32>,
    /// Spawn to reap.
    pub wall_s: f64,
    /// Its peak resident set, in KiB.
    pub maxrss_kib: u64,
}

/// Runs `program args`, capturing stdout (stderr is discarded), and
/// reaps it with `wait4` so the peak resident set is this child's own.
///
/// # Errors
///
/// Spawn, read or wait failures.
pub fn run_child(program: &str, args: &[&str]) -> std::io::Result<ChildRun> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4 expects (`int` and 64-bit Linux `struct rusage`); `pid` is
    // our own unreaped child, which std never waits for because `child`
    // is only dropped, not waited on.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    read?;
    let wall_s = t0.elapsed().as_secs_f64();
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        stdout,
        code,
        wall_s,
        maxrss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
