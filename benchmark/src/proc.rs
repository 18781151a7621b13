//! One child process at a time, reaped with `wait4` so wall, CPU and peak RSS
//! of exactly that child come from the kernel.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fault-injection and spill-routing variables the program reads; a run under
/// measurement must not inherit them from the caller's shell.
const SCRUBBED_ENV: [&str; 3] = ["ASJ_FAULTS", "ASJ_FAULT_SEED", "ASJ_SPILL_DIR"];

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s then 14 `long`s, the first
/// of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sync();
}

/// Writes every dirty page to disk and waits. Set-up ends with this so the
/// write-back of the input files it made is paid (and timed) as set-up;
/// otherwise the kernel flushes them ~30 s later, into the middle of the
/// timed repetitions of this run or the next (measured: a steady 1.39 s
/// repetition drifts to 1.66 s over ten back-to-back runs without it).
pub fn flush_disk_writes() {
    // SAFETY: `sync(2)` takes no arguments, cannot fail and touches no memory
    // of this process.
    unsafe { sync() }
}

/// What the kernel reported about one finished child.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Spawn to reaped.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_mib: f64,
    /// Exited normally with status 0.
    pub success: bool,
    pub stdout: String,
}

impl ChildRun {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Runs `cmd` to completion, capturing stdout (stderr passes through).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn run(cmd: &mut Command) -> std::io::Result<ChildRun> {
    for var in SCRUBBED_ENV {
        cmd.env_remove(var);
    }
    let start = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    // Reading to EOF first means a chatty child can never block on a full
    // pipe while we sit in wait4.
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)?;
    let mut status = 0i32;
    // SAFETY: `Rusage` matches the kernel's layout on this target (enforced
    // by the cfg above) and an all-zero bit pattern is valid for it.
    let mut usage: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `child.id()` is an un-reaped child of this process (we never
    // call `Child::wait`), and both out-pointers are valid for writes for the
    // duration of the call.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(ChildRun {
        wall_s,
        user_s: secs(&usage.utime),
        sys_s: secs(&usage.stime),
        peak_rss_mib: usage.maxrss as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaps_true_with_plausible_rusage() {
        let run = run(&mut Command::new("/bin/true")).unwrap();
        assert!(run.success);
        assert!(run.wall_s > 0.0 && run.wall_s < 5.0);
        assert!(run.peak_rss_mib > 0.0, "ru_maxrss must be filled in");
        assert!(run.cpu_s() < run.wall_s + 1.0);
        assert_eq!(run.stdout, "");
    }

    #[test]
    fn reports_a_failing_command_and_captures_stdout() {
        let run = run(Command::new("/bin/sh").args(["-c", "echo out; exit 3"])).unwrap();
        assert!(!run.success);
        assert_eq!(run.stdout, "out\n");
    }

    #[test]
    fn missing_program_is_an_error_not_a_panic() {
        assert!(run(&mut Command::new("/nonexistent/asj")).is_err());
    }
}
