//! Process plumbing the standard library lacks: the CPU time and peak
//! resident memory of a finished child (`wait4`), the CPU time of a running
//! child and of all reaped ones, and a graceful stop (`SIGTERM`).
//!
//! CPU times come from the kernel's scheduler clock, which on a virtual
//! machine leaves out the time the hypervisor gave the CPU to another guest
//! (steal time). That is why the benchmark times the program in CPU time.

use std::process::Child;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn zeroed() -> Rusage {
        Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        }
    }

    fn cpu_s(&self) -> f64 {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        secs(&self.utime) + secs(&self.stime)
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
/// `CPUCLOCK_SCHED`: a process clock that counts the scheduler's run time
/// of all its threads, in nanoseconds.
const CPUCLOCK_SCHED: i32 = 2;

const SIGTERM: i32 = 15;

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set size in bytes.
    pub peak_rss_bytes: u64,
    /// User plus system CPU time in seconds, all threads.
    pub cpu_s: f64,
}

/// Waits for `child` to end and reaps it, returning its exit code and peak
/// resident memory. Takes the child by value: once reaped, its pid must not
/// be waited on again.
///
/// # Errors
///
/// The OS error when `wait4` fails.
pub fn reap(child: Child) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::zeroed();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` (16 longs after two timevals) on
        // 64-bit Linux; `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Exit {
        code,
        // ru_maxrss is in KiB on Linux.
        peak_rss_bytes: u64::try_from(usage.maxrss).unwrap_or(0) * 1024,
        cpu_s: usage.cpu_s(),
    })
}

/// CPU time in seconds of every child this process has reaped so far.
pub fn reaped_children_cpu_s() -> f64 {
    let mut usage = Rusage::zeroed();
    // SAFETY: `usage` is live, writable and laid out as `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.cpu_s()
    } else {
        f64::NAN
    }
}

/// CPU time in seconds that the running `child` has used so far, all its
/// threads together, with nanosecond resolution.
///
/// # Errors
///
/// The OS error when the clock cannot be read.
pub fn cpu_s(child: &Child) -> std::io::Result<f64> {
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    // The clock id `clock_getcpuclockid(3)` returns for `pid`.
    let clock = (!pid << 3) | CPUCLOCK_SCHED;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is live, writable and laid out as `struct timespec`;
    // `pid` is our own unreaped child, so the pid cannot have been reused.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// Sends `SIGTERM` to `child`.
pub fn terminate(child: &Child) {
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: plain syscall on our own child's pid; it has not been
        // reaped yet, so the pid cannot have been reused.
        unsafe {
            kill(pid, SIGTERM);
        }
    }
}
