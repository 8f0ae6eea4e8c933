//! Readings of the host the benchmark runs on: process CPU time and a
//! fixed memory-bound reference loop that exposes box drift.
//!
//! Reading the exact CPU clock is one foreign call; `alloc` and this
//! call are the harness's only `unsafe` code.

use std::time::Instant;

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture (it is an ABI constant, not `CONFIG_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// Parses user+system CPU seconds out of a `/proc/<pid>/stat` line.
///
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// CPU seconds from `/proc/self/stat`: tick-sampled, so only good to
/// 10 ms and biased for work that runs in step with a timer. The
/// fallback where [`process_cpu_secs`] has no exact clock.
///
/// # Errors
///
/// Errs when `/proc/self/stat` is unreadable or malformed.
pub fn proc_stat_cpu_secs() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu_secs(&stat).ok_or_else(|| "malformed /proc/self/stat".to_owned())
}

/// User+system CPU seconds this process (all threads, including ones
/// that have exited) has used.
///
/// On 64-bit Linux this is `CLOCK_PROCESS_CPUTIME_ID`: the scheduler's
/// own nanosecond run-time sum. The `/proc` figures are sampled at the
/// 10 ms tick instead, which misreads a server whose work is paced by
/// a 10 ms flush timer by tens of percent from run to run.
///
/// # Errors
///
/// Errs when neither clock can be read — the benchmark only supports Linux.
pub fn process_cpu_secs() -> Result<f64, String> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of 64-bit Linux: two 64-bit signed fields.
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library's (std links it on
        // Linux); `ts` is a valid, writable `timespec` of the layout
        // 64-bit Linux defines, and the call only writes through it.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9);
        }
    }
    proc_stat_cpu_secs()
}

/// Words in the reference loop's buffer: 32 MiB, several times the
/// last-level cache of the boxes this runs on, so the walk is bound by
/// memory traffic — the resource neighbours on a shared box contend for.
const REF_WORDS: usize = 4 << 20;
const REF_PASSES: usize = 4;

/// Milliseconds one fixed memory-bound walk takes right now (median of
/// three). A run whose before/after readings differ by more than
/// [`DRIFT_FLAG_PCT`] was measured on a box that changed under it.
pub fn reference_loop_ms() -> f64 {
    let mut buf: Vec<u64> = (0..REF_WORDS as u64).collect();
    let mut times = [0.0f64; 3];
    for t in &mut times {
        let start = Instant::now();
        let mut acc = 0u64;
        for pass in 0..REF_PASSES {
            // A large odd stride defeats the hardware prefetcher.
            let mut i = pass;
            for _ in 0..REF_WORDS / 16 {
                acc = acc.wrapping_add(buf[i]);
                buf[i] = acc;
                i = (i + 4099 * 16) % REF_WORDS;
            }
        }
        std::hint::black_box(acc);
        *t = start.elapsed().as_secs_f64() * 1e3;
    }
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Host drift (percent) above which a run's output carries a warning.
pub const DRIFT_FLAG_PCT: f64 = 15.0;

/// Signed drift of `after` relative to `before`, percent.
pub fn drift_pct(before: f64, after: f64) -> f64 {
    (after - before) / before * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_comm_parses() {
        let line = "123 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat_cpu_secs(line), Some(3.0));
        assert_eq!(parse_stat_cpu_secs("123 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_secs("no parens"), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let (a, coarse) = (process_cpu_secs().unwrap(), proc_stat_cpu_secs().unwrap());
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = process_cpu_secs().unwrap() - a;
        // One thread spun for 60 ms; other tests' threads may add to it.
        assert!(spent >= 0.05, "{spent}");
        assert!(proc_stat_cpu_secs().unwrap() >= coarse);
    }

    #[test]
    fn drift_is_signed_and_relative() {
        assert_eq!(drift_pct(100.0, 120.0), 20.0);
        assert_eq!(drift_pct(100.0, 90.0), -10.0);
    }
}
