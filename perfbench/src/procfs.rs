//! The process's own CPU time, read from `/proc/self/stat`.

/// CPU time this process has used so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode seconds, all threads.
    pub sys_s: f64,
}

impl CpuTimes {
    /// User plus kernel seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The CPU time spent between `earlier` and `self`.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Process CPU time, if `/proc` has it.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat(&stat, clock_ticks_per_second())
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name (field 2) is parenthesized and may itself hold
/// spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_stat(stat: &str, ticks_per_s: f64) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / ticks_per_s,
        sys_s: stime as f64 / ticks_per_s,
    })
}

extern "C" {
    fn sysconf(name: core::ffi::c_int) -> core::ffi::c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: core::ffi::c_int = 2;

/// The unit of `/proc/<pid>/stat` CPU times.
fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf takes a plain integer, touches no memory of ours,
    // and returns -1 for a name it does not know.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        // A command name with a space and a parenthesis of its own.
        let stat = "4242 (perf (b) x) R 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        let cpu = parse_stat(stat, 100.0).expect("parses");
        assert_eq!(
            cpu,
            CpuTimes {
                user_s: 2.5,
                sys_s: 0.75
            }
        );
        assert_eq!(cpu.total_s(), 3.25);
        assert_eq!(parse_stat("4242 (x) R 1", 100.0), None);
        assert_eq!(parse_stat("no paren at all", 100.0), None);
    }

    #[test]
    fn live_reader_sees_this_process() {
        let before = cpu_times().expect("stat on Linux");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let spent = cpu_times().expect("stat on Linux").since(&before);
        assert!(spent.total_s() >= 0.0);
    }
}
