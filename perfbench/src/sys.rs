//! The few OS facilities the benchmark needs beyond `std`: nanosecond
//! `ppoll(2)` waits, per-thread CPU time, and `/proc` readings of the
//! server process.  Hand-rolled bindings in the style of the server's
//! `evloop::poll_fds`, so the benchmark adds no dependencies.

use sdp_serve::evloop::PollFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    // `nfds_t` is `c_ulong` (= u64) on 64-bit Linux.
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Waits until an fd is ready or `timeout` passes, with the kernel's
/// timer resolution rather than `poll(2)`'s whole milliseconds (the
/// open-loop schedule has sub-millisecond gaps).  `EINTR` counts as a
/// timeout; the caller re-checks its clock anyway.
pub fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live slice of ABI-compatible `struct pollfd`
    // entries of the stated length, `ts` outlives the call, and a null
    // sigmask leaves the signal mask unchanged.
    unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
}

/// Total CPU time (user + system) of every live thread of process
/// `pid`, in nanoseconds, from `/proc/<pid>/task/*/schedstat`.  The
/// server's threads live as long as the process, so deltas of this
/// figure are the process's CPU with nanosecond resolution (the
/// `stat` tick counters resolve only 10 ms).
pub fn process_cpu_ns(pid: u32) -> std::io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        total += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Ok(total)
}

/// Peak resident set (`VmHWM`) of process `pid`, in kB.
pub fn peak_rss_kb(pid: u32) -> std::io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc status"))
}

/// Pins the calling thread to the last CPU, so the scheduler does not
/// migrate the driver between the cores it shares with the server.
/// Best effort: a refusal leaves the thread unpinned.
pub fn pin_to_last_cpu() {
    let cpu = nproc().saturating_sub(1).min(63);
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set of the stated size; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Online CPUs, as `nproc` reports them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host-wide CPU clock from `/proc/stat`, in ticks: (steal, total).
/// Steal is time this VM's vCPUs were runnable but held off by the
/// hypervisor.
pub fn host_steal_ticks() -> std::io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    Ok((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
}
