//! CPU clocks. On a shared virtual machine the host can take the CPU
//! away for long stretches (steal time); wall clocks count that time,
//! CPU clocks do not, so CPU time is the steady measure of the work a
//! layer does.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on), and both clock
    // ids are defined by POSIX; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process, including
/// threads that have exited.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds a process has used, from `/proc/<pid>/stat` (utime +
/// stime, in clock ticks of 1/100 s).
pub fn of_pid(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process(), thread());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread() > t0);
        assert!(process() >= p0 + (thread() - t0) / 2);
        let own = of_pid(std::process::id()).expect("own /proc stat");
        assert!(own >= 0.0);
    }
}
