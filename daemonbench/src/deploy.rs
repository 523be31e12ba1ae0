//! A live deployment: `borndist-service player` ×n plus one `frontend`,
//! all on the reactor transport, with a watchdog that kills and reaps
//! every child on drop, timeout or error.

use crate::procfs;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Lowest port the benchmark hands to a deployment.
const PORT_FLOOR: u16 = 10_000;

/// What every process of a deployment must agree on.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The `borndist-service` executable.
    pub exe: PathBuf,
    /// Players.
    pub n: usize,
    /// Threshold.
    pub t: usize,
    /// DKG seed.
    pub dkg_seed: u64,
    /// Hash-domain tag.
    pub domain: String,
    /// Front-end `--max-in-flight`.
    pub max_in_flight: usize,
}

/// Ports of one deployment: `n` DKG listeners, `n+1` signing listeners
/// and the client port, as one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ports {
    /// Player `i` listens for DKG on `dkg_base + i`.
    pub dkg_base: u16,
    /// Node `i` (front-end at `n+1`) listens for signing on
    /// `sign_base + i`.
    pub sign_base: u16,
    /// The front-end's client port.
    pub client: u16,
}

impl Ports {
    /// Ports needed for `n` players, including the unused base.
    pub fn span(n: usize) -> u16 {
        2 * n as u16 + 3
    }

    /// The block starting at `base`.
    pub fn at(base: u16, n: usize) -> Self {
        let n = n as u16;
        Ports {
            dkg_base: base,
            sign_base: base + n,
            client: base + 2 * n + 2,
        }
    }
}

/// Where a block of `span` ports may start: below the kernel's ephemeral
/// range (`ip_local_port_range`), or above it if the space below is too
/// small. Source ports of outgoing dials come from the ephemeral range,
/// so they can never take a port meant for a listener.
pub fn port_window(ephemeral: (u16, u16), span: u16) -> Result<(u16, u16), String> {
    let (lo, hi) = ephemeral;
    if lo > PORT_FLOOR && lo - PORT_FLOOR > span {
        Ok((PORT_FLOOR, lo - span))
    } else if hi < u16::MAX - span {
        Ok((hi + 1, u16::MAX - span))
    } else {
        Err(format!("no room outside the ephemeral range {}-{}", lo, hi))
    }
}

/// Picks a free port block outside the ephemeral range, probing every
/// port of it. `salt` spreads consecutive deployments over the window so
/// a new one never lands on sockets the last one left in `TIME_WAIT`.
pub fn port_block(n: usize, salt: u64) -> Result<Ports, String> {
    let span = Ports::span(n);
    let (first, last) = port_window(procfs::ephemeral_ports()?, span)?;
    let slots = u64::from((last - first) / span).max(1);
    for attempt in 0..64u64 {
        let slot = (salt.wrapping_add(attempt.wrapping_mul(0x9e37_79b9))) % slots;
        let base = first + (slot as u16) * span;
        let free = (base..base + span).all(|p| TcpListener::bind(("127.0.0.1", p)).is_ok());
        if free {
            return Ok(Ports::at(base, n));
        }
    }
    Err("no free port block outside the ephemeral range".into())
}

/// Which process of a deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// `borndist-service player --id <i>`.
    Player(u32),
    /// `borndist-service frontend`.
    Frontend,
}

/// A running deployment. Dropping it kills and reaps every process that
/// has not exited yet, so no error path leaves children behind.
pub struct Deployment {
    children: Vec<(Role, Child)>,
    /// The spawn instant of the first process.
    pub spawned: Instant,
    /// The ports in use.
    pub ports: Ports,
}

impl Deployment {
    /// Spawns the players and the front-end on `ports`.
    pub fn spawn(top: &Topology, ports: Ports) -> Result<Self, String> {
        let mut dep = Deployment {
            children: Vec::new(),
            spawned: Instant::now(),
            ports,
        };
        let common = [
            ("--n", top.n.to_string()),
            ("--t", top.t.to_string()),
            ("--seed", top.dkg_seed.to_string()),
            ("--domain", top.domain.clone()),
            ("--dkg-base", ports.dkg_base.to_string()),
            ("--sign-base", ports.sign_base.to_string()),
            ("--max-in-flight", top.max_in_flight.to_string()),
            ("--transport", "reactor".to_string()),
        ];
        let roles = (1..=top.n as u32)
            .map(Role::Player)
            .chain(std::iter::once(Role::Frontend));
        for role in roles {
            let mut cmd = Command::new(&top.exe);
            match role {
                Role::Player(id) => cmd.arg("player").arg("--id").arg(id.to_string()),
                Role::Frontend => cmd
                    .arg("frontend")
                    .arg("--client-port")
                    .arg(ports.client.to_string()),
            };
            for (k, v) in &common {
                cmd.arg(k).arg(v);
            }
            cmd.stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            let child = cmd
                .spawn()
                .map_err(|e| format!("spawn {}: {}", top.exe.display(), e))?;
            dep.children.push((role, child));
        }
        Ok(dep)
    }

    /// Connects to the front-end's client port, retrying until `deadline`
    /// (the front-end binds it a moment after it starts).
    pub fn connect(&mut self, deadline: Instant) -> Result<TcpStream, String> {
        loop {
            match TcpStream::connect(("127.0.0.1", self.ports.client)) {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("front-end never accepted: {}", e))
                }
                Err(_) => {
                    if let Some(why) = self.first_exit() {
                        return Err(why);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Process ids with their roles.
    pub fn pids(&self) -> Vec<(Role, u32)> {
        self.children.iter().map(|(r, c)| (*r, c.id())).collect()
    }

    /// Describes the first process found to have exited, if any. A live
    /// deployment has none: every process runs until shutdown.
    pub fn first_exit(&mut self) -> Option<String> {
        self.children.iter_mut().find_map(|(role, child)| {
            child
                .try_wait()
                .ok()
                .flatten()
                .map(|status| format!("{:?} exited early with {}", role, status))
        })
    }

    /// Waits until every process has exited, killing the rest at
    /// `deadline`. Returns the processes that did not exit cleanly.
    pub fn reap(&mut self, deadline: Instant) -> Vec<String> {
        let mut bad = Vec::new();
        for (role, child) in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        if !status.success() {
                            bad.push(format!("{:?} exited with {}", role, status));
                        }
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        bad.push(format!("{:?} killed at the shutdown deadline", role));
                        break;
                    }
                }
            }
        }
        self.children.clear();
        bad
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// CPU seconds and peak RSS of a set of processes, read from `/proc`.
#[derive(Clone, Debug, Default)]
pub struct Usage {
    /// CPU seconds of the front-end.
    pub frontend_cpu_s: f64,
    /// CPU seconds summed over the players.
    pub players_cpu_s: f64,
    /// `VmHWM` summed over every process, kB.
    pub hwm_kb: u64,
}

impl Usage {
    /// Samples every process of the deployment. A process that cannot
    /// be read is an error: it has died.
    pub fn sample(pids: &[(Role, u32)]) -> Result<Self, String> {
        let mut u = Usage::default();
        for (role, pid) in pids {
            let pid = pid.to_string();
            let st = procfs::stat(&pid)?;
            if st.state == 'Z' {
                return Err(format!("{:?} is a zombie", role));
            }
            match role {
                Role::Frontend => u.frontend_cpu_s += st.cpu_s(),
                Role::Player(_) => u.players_cpu_s += st.cpu_s(),
            }
            u.hwm_kb += procfs::vm_hwm_kb(&pid)?;
        }
        Ok(u)
    }

    /// CPU seconds of all processes.
    pub fn cpu_s(&self) -> f64 {
        self.frontend_cpu_s + self.players_cpu_s
    }

    /// Adds another window's CPU; keeps the larger memory peak.
    pub fn absorb(&mut self, other: &Usage) {
        self.frontend_cpu_s += other.frontend_cpu_s;
        self.players_cpu_s += other.players_cpu_s;
        self.hwm_kb = self.hwm_kb.max(other.hwm_kb);
    }

    /// `self − earlier` for the CPU fields; the memory peak of `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            frontend_cpu_s: self.frontend_cpu_s - earlier.frontend_cpu_s,
            players_cpu_s: self.players_cpu_s - earlier.players_cpu_s,
            hwm_kb: self.hwm_kb,
        }
    }
}

/// Whether `exe` exists and is a file.
pub fn executable(exe: &Path) -> Result<(), String> {
    if exe.is_file() {
        Ok(())
    } else {
        Err(format!("{} is not built", exe.display()))
    }
}

#[cfg(test)]
impl Deployment {
    /// Two `sleep` processes standing in for a player and a front-end.
    pub fn sleepers() -> Self {
        let sleep = || {
            Command::new("sleep")
                .arg("30")
                .spawn()
                .expect("spawn sleep")
        };
        Deployment {
            children: vec![(Role::Player(1), sleep()), (Role::Frontend, sleep())],
            spawned: Instant::now(),
            ports: Ports::at(20_000, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_window_avoids_the_ephemeral_range() {
        let span = Ports::span(16);
        let (a, b) = port_window((32768, 60999), span).unwrap();
        assert!(a >= PORT_FLOOR && b + span <= 32768);
        // Ephemeral range starting low: use the space above it.
        let (a, b) = port_window((1024, 50000), span).unwrap();
        assert!(a > 50000 && b <= u16::MAX - span);
        assert!(port_window((1024, 65535), span).is_err());
    }

    #[test]
    fn port_block_layout() {
        let p = Ports::at(20_000, 4);
        // Players 1..=4 at 20001..=20004, signing nodes 1..=5 at
        // 20005..=20009, client at 20010: 11 ports including the base.
        assert_eq!(
            (p.dkg_base, p.sign_base, p.client),
            (20_000, 20_004, 20_010)
        );
        assert_eq!(Ports::span(4), 11);
        let block = port_block(4, 7).unwrap();
        let (lo, _) = procfs::ephemeral_ports().unwrap();
        assert!(block.client < lo || block.dkg_base > lo);
    }

    #[test]
    fn killed_process_is_seen_and_reaped() {
        let mut dep = Deployment::sleepers();
        assert!(dep.first_exit().is_none());
        assert!(Usage::sample(&dep.pids()).is_ok());
        dep.children[0].1.kill().unwrap();
        dep.children[0].1.wait().unwrap();
        let why = dep.first_exit().expect("the killed player is noticed");
        assert!(why.contains("Player(1)"), "{}", why);
        let bad = dep.reap(Instant::now() + Duration::from_millis(50));
        assert_eq!(bad.len(), 2, "{:?}", bad);
        assert!(dep.children.is_empty());
    }
}
