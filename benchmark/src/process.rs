//! Running `smc` children and reading their resource usage.
//!
//! Each child is reaped with `wait4`, which reports that one process's
//! peak RSS and CPU time. (`getrusage(RUSAGE_CHILDREN)` would also count
//! whatever the harness's own parent reaped before exec'ing it, such as
//! the cargo build.) std already links libc, so the call is declared
//! here instead of pulling in a crate.

use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `struct rusage` with the 64-bit Linux layout");

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs, of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Peak resident set, KiB.
    pub maxrss_kb: u64,
    /// User + system CPU time, seconds.
    pub cpu_s: f64,
}

impl Usage {
    /// Folds another child's usage in: peak is the max, CPU the sum.
    pub fn add(&mut self, other: Usage) {
        self.maxrss_kb = self.maxrss_kb.max(other.maxrss_kb);
        self.cpu_s += other.cpu_s;
    }
}

/// Reaps `child` and returns its exit status and usage. The `Child`
/// handle must not be waited on afterwards (std does not wait on drop).
pub fn reap(child: &Child) -> std::io::Result<(ExitStatus, Usage)> {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let mut status = 0i32;
    let mut ru = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the kernel expects (`int` and 64-bit `struct rusage`); `pid`
        // is our own unreaped child, so no other process is affected.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    let usage =
        Usage { maxrss_kb: ru.longs[0].max(0) as u64, cpu_s: secs(&ru.utime) + secs(&ru.stime) };
    Ok((ExitStatus::from_raw(status), usage))
}

/// One finished `smc` invocation.
#[derive(Debug)]
pub struct Finished {
    pub status: ExitStatus,
    pub stdout: String,
    /// From just before spawn to the reap: what a user of the CLI waits.
    pub wall: Duration,
    pub usage: Usage,
}

/// Runs a command to completion with stdin closed, stdout captured and
/// stderr passed through.
pub fn run(cmd: &mut Command) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child =
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn()?;
    let mut stdout = String::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout);
    let (status, usage) = reap(&child)?;
    let wall = start.elapsed();
    read?;
    Ok(Finished { status, stdout, wall, usage })
}
