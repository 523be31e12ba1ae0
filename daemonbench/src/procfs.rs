//! Process accounting read from outside the program: `/proc/<pid>/stat`
//! for CPU time and `/proc/<pid>/status` for peak resident memory.

/// Clock ticks per second of the `/proc` time fields (Linux `USER_HZ`,
/// which is 100 on every mainstream architecture).
pub const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    /// The process name (`comm`), which may hold spaces and parentheses.
    pub comm: String,
    /// Scheduler state letter (`R`, `S`, `Z`, ...).
    pub state: char,
    /// User-mode CPU time in ticks.
    pub utime: u64,
    /// Kernel-mode CPU time in ticks.
    pub stime: u64,
}

impl Stat {
    /// User plus kernel CPU time, in seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }
}

/// Parses one `/proc/<pid>/stat` line. The name sits between the first
/// `(` and the *last* `)`, since it may itself contain both; the fields
/// after it are space-separated, starting with the state (field 3).
pub fn parse_stat(line: &str) -> Result<Stat, String> {
    let open = line.find('(').ok_or("stat: no '('")?;
    let close = line.rfind(')').ok_or("stat: no ')'")?;
    if close < open {
        return Err("stat: ')' before '('".into());
    }
    let comm = line[open + 1..close].to_string();
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let field = |n: usize| -> Result<&str, String> {
        rest.get(n - 3)
            .copied()
            .ok_or_else(|| format!("stat: missing field {}", n))
    };
    let num = |n: usize| -> Result<u64, String> {
        field(n)?
            .parse()
            .map_err(|_| format!("stat: field {} is not a number", n))
    };
    Ok(Stat {
        comm,
        state: field(3)?.chars().next().ok_or("stat: empty state")?,
        utime: num(14)?,
        stime: num(15)?,
    })
}

/// Reads and parses `/proc/<pid>/stat` (`"self"` for this process).
pub fn stat(pid: &str) -> Result<Stat, String> {
    let raw = std::fs::read_to_string(format!("/proc/{}/stat", pid))
        .map_err(|e| format!("/proc/{}/stat: {}", pid, e))?;
    parse_stat(&raw)
}

/// Host-wide CPU ticks from a `/proc/stat` text: time stolen by the
/// hypervisor, and the total of user, nice, system, idle, iowait, irq,
/// softirq and steal. Their ratio over an interval is the share of the
/// host's CPU time that went to other machines.
pub fn parse_host_ticks(text: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Host-wide `(steal, total)` CPU ticks now.
pub fn host_ticks() -> Result<(u64, u64), String> {
    let raw = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {}", e))?;
    parse_host_ticks(&raw).ok_or_else(|| "/proc/stat: no cpu line".to_string())
}

/// Peak resident set size (`VmHWM`) in kB from a `/proc/<pid>/status`
/// text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of `pid` in kB.
pub fn vm_hwm_kb(pid: &str) -> Result<u64, String> {
    let raw = std::fs::read_to_string(format!("/proc/{}/status", pid))
        .map_err(|e| format!("/proc/{}/status: {}", pid, e))?;
    parse_vm_hwm_kb(&raw).ok_or_else(|| format!("/proc/{}/status: no VmHWM", pid))
}

/// The kernel's ephemeral source-port range, from
/// `/proc/sys/net/ipv4/ip_local_port_range`.
pub fn ephemeral_ports() -> Result<(u16, u16), String> {
    let raw = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .map_err(|e| format!("ip_local_port_range: {}", e))?;
    let v: Vec<u16> = raw
        .split_whitespace()
        .map(|p| p.parse().map_err(|_| "ip_local_port_range: bad number"))
        .collect::<Result<_, _>>()?;
    match v[..] {
        [lo, hi] if lo <= hi => Ok((lo, hi)),
        _ => Err("ip_local_port_range: expected two ports".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(comm: &str) -> String {
        format!(
            "4242 ({}) S 1 4242 4242 0 -1 4194560 120 0 0 0 37 5 0 0 20 0 3 0 9 1 2 3",
            comm
        )
    }

    #[test]
    fn parses_plain_name() {
        let s = parse_stat(&line("borndist-servic")).unwrap();
        assert_eq!(s.comm, "borndist-servic");
        assert_eq!((s.state, s.utime, s.stime), ('S', 37, 5));
        assert!((s.cpu_s() - 0.42).abs() < 1e-12);
    }

    #[test]
    fn parses_names_with_spaces_and_parentheses() {
        for comm in ["a b", "x) (y", "((", "))", ") S 9 9 9", "tab\there"] {
            let s = parse_stat(&line(comm)).unwrap();
            assert_eq!(s.comm, comm);
            assert_eq!((s.state, s.utime, s.stime), ('S', 37, 5), "comm {:?}", comm);
        }
    }

    #[test]
    fn rejects_truncated_lines() {
        assert!(parse_stat("12 (x) S 1 2").is_err());
        assert!(parse_stat("12 x S").is_err());
    }

    #[test]
    fn reads_this_process() {
        let s = stat("self").unwrap();
        assert!(matches!(s.state, 'R' | 'S'));
        assert!(vm_hwm_kb("self").unwrap() > 0);
    }

    #[test]
    fn vm_hwm_from_status() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn host_ticks_from_stat() {
        let text = "cpu  100 0 20 300 1 0 9 70 0 0\ncpu0 50 0 10 150 1 0 4 35 0 0\n";
        assert_eq!(parse_host_ticks(text), Some((70, 500)));
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_ticks("intr 5\n"), None);
        let (steal, total) = host_ticks().unwrap();
        assert!(steal <= total && total > 0);
    }
}
