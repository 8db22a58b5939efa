//! Host-side measurements taken from outside the simulator: process CPU
//! time, peak resident set size, and the median the report needs.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed so far by the whole process: every
/// thread, including threads that already exited. Unlike wall time it
/// excludes the time the hypervisor withheld the vCPU (steal), which on a
/// shared machine swings a repetition's wall time by up to a third.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM is reported");
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number");
    kib / 1024.0
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// CPU seconds [`reference_cpu_s`] takes on the development machine (Intel
/// Xeon, 2-vCPU microVM). Host CPU times are reported at this reference
/// speed: multiplied by `REFERENCE_S / measured reference`.
pub const REFERENCE_S: f64 = 0.24;

/// A fixed amount of simulator-like work — a pointer chase over 4 MiB, a
/// binary heap and a hash map — built only from the standard library, so
/// no change to the repository moves it. Returns its process CPU seconds.
/// The shared machine speeds up and slows down by a quarter over minutes;
/// this kernel slows down with it, and dividing by it cancels most of
/// that drift. Its peak footprint (~7 MiB) stays below every workload's.
pub fn reference_cpu_s() -> f64 {
    use std::collections::{BinaryHeap, HashMap};
    let started = process_cpu_s();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let n: usize = 1 << 20;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut at = 0u32;
    let mut acc = 0u64;
    for _ in 0..8 * n {
        at = perm[at as usize];
        acc = acc.wrapping_add(u64::from(at));
    }
    drop(perm);
    let mut heap = BinaryHeap::new();
    for _ in 0..1_000_000 {
        heap.push(std::cmp::Reverse(next() % 1_000_000));
        if heap.len() > 4_096 {
            acc = acc.wrapping_add(heap.pop().expect("heap is non-empty").0);
        }
    }
    let mut map: HashMap<u64, u64> = HashMap::new();
    for _ in 0..1_500_000 {
        *map.entry(next() % 100_000).or_default() += 1;
    }
    std::hint::black_box((acc, map.len()));
    process_cpu_s() - started
}

/// Median CPU seconds of `runs` runs of [`reference_cpu_s`].
pub fn reference_median_s(runs: usize) -> f64 {
    median(&(0..runs).map(|_| reference_cpu_s()).collect::<Vec<_>>())
}
