//! Per-thread and per-process CPU time from `/proc`, without `unsafe`.
//!
//! `/proc/self/stat` and `/proc/self/task/<tid>/stat` carry `utime` and
//! `stime` in clock ticks. The process line also counts threads that have
//! already exited, which is how short-lived extraction band threads end up
//! in the server's share: server CPU is the process total minus the
//! generator threads, never a sum over the threads still alive.

use std::fs;

/// Clock ticks per second of the `/proc` CPU fields (`USER_HZ`, fixed at 100
/// by the Linux ABI on every mainstream architecture).
pub const TICKS_PER_S: f64 = 100.0;

/// One parsed `stat` line: the thread or process name and its CPU ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatLine {
    /// The `comm` field (at most 15 bytes, may contain spaces and `)`).
    pub comm: String,
    /// User plus system CPU, in clock ticks.
    pub ticks: u64,
}

/// Parses a `/proc/.../stat` line. `comm` is delimited by the first `(` and
/// the *last* `)`, since the name itself may contain spaces and parentheses;
/// `utime` and `stime` are the 12th and 13th fields after that `)`.
pub fn parse_stat(line: &str) -> Option<StatLine> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    let mut fields = line[close + 1..].split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(StatLine {
        comm,
        ticks: utime + stime,
    })
}

fn read_stat(path: &str) -> Option<StatLine> {
    parse_stat(&fs::read_to_string(path).ok()?)
}

/// CPU ticks of the whole process, exited threads included.
pub fn process_ticks() -> u64 {
    read_stat("/proc/self/stat").map_or(0, |s| s.ticks)
}

/// CPU ticks of the calling thread.
pub fn thread_ticks() -> u64 {
    read_stat("/proc/thread-self/stat").map_or(0, |s| s.ticks)
}

/// Every live thread of the process with its CPU ticks, keyed by thread id.
pub fn threads() -> Vec<(u64, StatLine)> {
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let stat = read_stat(&format!("/proc/self/task/{tid}/stat"))?;
            Some((tid, stat))
        })
        .collect()
}

/// Server thread roles, recognised by the names the server gives its
/// threads (`comm` truncates `metaseg-transport` to 15 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The event-loop thread.
    Transport,
    /// A shard worker.
    Shard,
    /// Anything else: generator, main, extraction bands.
    Other,
}

/// Classifies a thread by its `comm`.
pub fn role(comm: &str) -> Role {
    if comm.starts_with("metaseg-transpo") {
        Role::Transport
    } else if comm.starts_with("metaseg-shard-") {
        Role::Shard
    } else {
        Role::Other
    }
}

/// CPU ticks per server role, summed over the live threads of a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleTicks {
    /// Transport (event-loop) ticks.
    pub transport: u64,
    /// Shard worker ticks.
    pub shard: u64,
}

/// Per-thread snapshot, diffed between the start and end of a phase.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    threads: Vec<(u64, StatLine)>,
}

impl Snapshot {
    /// Reads every live thread.
    pub fn take() -> Self {
        Self { threads: threads() }
    }

    /// Ticks each role spent between `self` and the later snapshot `end`;
    /// a thread missing from `self` started inside the interval.
    pub fn roles_until(&self, end: &Snapshot) -> RoleTicks {
        let mut out = RoleTicks::default();
        for (tid, stat) in &end.threads {
            let before = self
                .threads
                .iter()
                .find(|(t, s)| t == tid && s.comm == stat.comm)
                .map_or(0, |(_, s)| s.ticks);
            let delta = stat.ticks.saturating_sub(before);
            match role(&stat.comm) {
                Role::Transport => out.transport += delta,
                Role::Shard => out.shard += delta,
                Role::Other => {}
            }
        }
        out
    }
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|line| line.strip_prefix(field))?;
    let kib: f64 = rest.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Resident set (`VmRSS`) of the process in MiB.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

/// Peak resident set (`VmHWM`) of the process in MiB, since start or the
/// last [`reset_peak_rss`].
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Resets the peak resident set to the current one (`5` written to
/// `/proc/self/clear_refs`, Linux 4.0 and later).
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Converts ticks to milliseconds.
pub fn ticks_ms(ticks: u64) -> f64 {
    ticks as f64 * 1e3 / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_stat_line() {
        let line = "4242 (metaseg-shard-0) S 1 2 3 0 -1 4194368 10 0 0 0 157 23 0 0 20 0 5 0 1 2 3";
        let stat = parse_stat(line).unwrap();
        assert_eq!(stat.comm, "metaseg-shard-0");
        assert_eq!(stat.ticks, 180);
    }

    #[test]
    fn comm_with_spaces_and_parentheses_is_cut_at_the_last_paren() {
        let line = "7 (a b) (c)) R 1 2 3 0 -1 0 0 0 0 0 11 4 0 0 20 0 1 0 1";
        let stat = parse_stat(line).unwrap();
        assert_eq!(stat.comm, "a b) (c)");
        assert_eq!(stat.ticks, 15);
    }

    #[test]
    fn truncated_or_garbled_lines_are_rejected() {
        assert_eq!(parse_stat(""), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
        assert_eq!(parse_stat("1 x) R 1 2 3 0 -1 0 0 0 0 0 1 1"), None);
        assert_eq!(parse_stat("1 (x) R 1 2 3 0 -1 0 0 0 0 0 u 1"), None);
    }

    #[test]
    fn roles_follow_the_server_thread_names() {
        assert_eq!(role("metaseg-transpo"), Role::Transport);
        assert_eq!(role("metaseg-shard-3"), Role::Shard);
        assert_eq!(role("servebench"), Role::Other);
    }

    #[test]
    fn live_process_reads_are_consistent() {
        let mut spin = 0u64;
        for i in 0..20_000_000u64 {
            spin = spin.wrapping_add(i * i);
        }
        std::hint::black_box(spin);
        let own = thread_ticks();
        let process = process_ticks();
        assert!(own <= process, "a thread cannot exceed its process");
        assert!(threads().iter().any(|(_, s)| s.ticks <= process));
        assert!(peak_rss_mib().is_some_and(|peak| peak > 0.0));
    }

    #[test]
    fn the_peak_resets_to_the_resident_set_and_then_grows() {
        let grown = {
            let block = vec![1u8; 64 << 20];
            std::hint::black_box(&block);
            peak_rss_mib().unwrap()
        };
        reset_peak_rss().unwrap();
        let reset = peak_rss_mib().unwrap();
        assert!(
            reset < grown,
            "the freed 64 MiB left the peak: {reset} vs {grown}"
        );
        assert!(rss_mib().is_some_and(|rss| rss > 0.0));
        let block = vec![1u8; 32 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mib().unwrap() >= reset + 31.0);
    }
}
