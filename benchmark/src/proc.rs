//! Child processes measured from the parent: wall-clock from spawn to
//! reap, plus the CPU time and peak resident set the kernel reports
//! when the child is reaped (`wait4`).
//!
//! A child's peak also covers the memory of the process it was spawned
//! from, up to its `exec`; the benchmark does all its timed work in
//! children, so the spawning process stays a few MiB.

use std::io;
use std::os::raw::{c_int, c_long, c_uint};
use std::process::Command;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux's `struct rusage` layout (ru_maxrss in KiB)");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen longs, of
/// which only the first (`ru_maxrss`, KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

impl Rusage {
    fn cpu_s(&self) -> f64 {
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        secs(&self.ru_utime) + secs(&self.ru_stime)
    }

    fn max_rss_kb(&self) -> u64 {
        u64::try_from(self.ru_maxrss).unwrap_or(0)
    }
}

extern "C" {
    fn waitid(idtype: c_int, id: c_uint, info: *mut SigInfo, options: c_int) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

/// `siginfo_t`: 128 bytes on Linux. Only its size matters here.
#[repr(C)]
struct SigInfo([u64; 16]);

const P_PID: c_int = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;
const SIGKILL: c_int = 9;

/// How a measured child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    Code(i32),
    Signal(i32),
    /// Killed by the parent after the timeout.
    TimedOut,
}

/// One measured child process.
pub struct Measured {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub max_rss_kb: u64,
    pub exit: Exit,
}

/// Retries `call` while it fails with `EINTR`.
fn retry(mut call: impl FnMut() -> c_int) -> io::Result<c_int> {
    loop {
        let r = call();
        if r >= 0 {
            return Ok(r);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Spawns `cmd`, waits for it (a watchdog thread kills it once `timeout`
/// has passed), and reports its wall-clock, CPU time and peak RSS.
///
/// The parent blocks in the kernel until the child exits, so it neither
/// takes CPU from the child nor adds a polling delay to its wall-clock.
pub fn run_measured(cmd: &mut Command, timeout: Duration) -> io::Result<Measured> {
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = c_int::try_from(child.id()).expect("Linux pids fit in pid_t");
    let (ended, watch) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let expired = watch.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout);
        if expired {
            // SAFETY: a plain syscall. The child is not reaped until this
            // thread has been joined, so `pid` is still that child.
            unsafe { kill(pid, SIGKILL) };
        }
        expired
    });
    // Wait for the exit but leave the child unreaped (WNOWAIT), so its
    // pid cannot be reused while the watchdog may still signal it.
    let mut info = SigInfo([0; 16]);
    // SAFETY: `pid` is this process's own child, and `info` is a live,
    // writable buffer of `siginfo_t`'s size.
    let waited = retry(|| unsafe { waitid(P_PID, pid as c_uint, &mut info, WEXITED | WNOWAIT) });
    let wall_s = start.elapsed().as_secs_f64();
    drop(ended);
    let timed_out = watchdog.join().expect("the watchdog does not panic");
    if let Err(e) = waited {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    // SAFETY: the child has exited and is not yet reaped (only this call
    // reaps it), and both out-pointers refer to live, writable locals of
    // the right types.
    retry(|| unsafe { wait4(pid, &mut status, 0, &mut usage) })?;
    let exit = if timed_out {
        Exit::TimedOut
    } else if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    Ok(Measured {
        wall_s,
        cpu_s: usage.cpu_s(),
        max_rss_kb: usage.max_rss_kb(),
        exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_child_and_its_exit_code() {
        let m = run_measured(
            Command::new("sh").args(["-c", "exit 3"]),
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(m.exit, Exit::Code(3));
        assert!(m.wall_s > 0.0);
        assert!(m.max_rss_kb > 0);
    }

    #[test]
    fn kills_a_child_that_outlives_its_timeout() {
        let m = run_measured(Command::new("sleep").arg("30"), Duration::from_millis(50)).unwrap();
        assert_eq!(m.exit, Exit::TimedOut);
        assert!(m.wall_s < 10.0);
    }
}
