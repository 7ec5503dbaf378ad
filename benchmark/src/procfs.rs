//! Process-level readings from `/proc/self`: peak resident memory and
//! CPU time split into user and kernel.

fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `VmHWM` in MiB: the most physical memory the process ever held.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// `VmRSS` in MiB: the physical memory the process holds now.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// CPU seconds the process has used so far: `(user, kernel)`.
/// Linux reports them in clock ticks of 1/100 s on every supported
/// configuration.
pub fn cpu_seconds() -> (f64, f64) {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .map_or(0.0, |ticks| ticks / TICKS_PER_SECOND)
    };
    let user = next();
    (user, next())
}

/// CPU used between two [`cpu_seconds`] readings: total seconds and the
/// kernel's share of them.
pub fn cpu_between(before: (f64, f64), after: (f64, f64)) -> (f64, f64) {
    let (user, sys) = (after.0 - before.0, after.1 - before.1);
    let total = user + sys;
    (total, if total > 0.0 { sys / total } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane_for_this_process() {
        let now = rss_mib();
        assert!(now > 1.0 && peak_rss_mib() >= now);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds().0 + cpu_seconds().1 < before.0 + before.1 + 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (total, sys_share) = cpu_between(before, cpu_seconds());
        assert!(total >= 0.04, "{total}");
        assert!((0.0..=1.0).contains(&sys_share));
    }
}
