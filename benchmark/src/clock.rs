//! The clock every bounded timing is read from, and the machine's steal
//! counter.
//!
//! On a shared virtual machine the hypervisor takes whole CPUs away for
//! milliseconds at a time ("steal"). Wall-clock timings absorb that time:
//! on a 2-CPU guest at 30–80% steal, the median of the same apply moved by
//! 2–5× between half-second windows. The process CPU clock does not: the
//! kernel's paravirtual steal accounting leaves stolen time out of every
//! thread's run time, and the same windows read within ±12% on it. So the
//! bounded metrics are CPU time summed over the process's threads (work
//! done, including the executor's workers), and the wall-clock figures are
//! printed beside them.

use std::ffi::c_long;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds all threads of this process have run so far (NaN where the
/// clock is unavailable, so no figure is read from it silently).
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` and returns the CPU time it took, µs.
pub fn cpu_us_of(f: impl FnOnce()) -> f64 {
    let c0 = cpu_s();
    f();
    (cpu_s() - c0) * 1e6
}

/// Busy and stolen CPU ticks of the whole machine so far, from
/// `/proc/stat`: the share stolen over a run is the time the hypervisor
/// took away from this machine.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    let at = |i: usize| fields.get(i).copied();
    Some((at(0)? + at(1)? + at(2)? + at(5)? + at(6)?, at(7)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cpu_clock_advances_with_work_only() {
        let spin = cpu_us_of(|| {
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        });
        let sleep = cpu_us_of(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(spin > 0.0, "{spin}");
        assert!(sleep < 5_000.0, "sleeping 20 ms cost {sleep} µs of CPU");
    }
}
