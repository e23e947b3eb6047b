//! Small numeric helpers: quantiles, digests, peak memory.

/// The median of `samples` (interpolated); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile of `samples` (interpolated); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    zombieland_simcore::stats::quantile(samples, q).unwrap_or(0.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time this process has used so far, in seconds, over all its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out
/// time spent waiting for a CPU, including time the hypervisor gave the
/// virtual CPU to another guest (steal time, which the kernel subtracts
/// when it accounts paravirtual steal), so a busy shared host moves it
/// less. Work moved onto other threads of the process is still counted.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec of the C layout on the
    // 64-bit Linux targets this benchmark runs on.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// 64-bit FNV-1a: a stable digest of output bytes, identical on every
/// host and toolchain.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_s() > t);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
