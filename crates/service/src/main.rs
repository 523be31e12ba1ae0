//! `borndist-service` — the threshold-signing daemon.
//!
//! ```text
//! borndist-service player   --id 1 --n 4 --t 1 --seed 7 --domain demo \
//!                           --dkg-base 9000 --sign-base 9100 --max-in-flight 8
//! borndist-service frontend --n 4 --t 1 --seed 7 --domain demo \
//!                           --dkg-base 9000 --sign-base 9100 --max-in-flight 8 \
//!                           --client-port 9200
//! borndist-service smoke    --n 4 --t 1 --requests 100 --transport reactor
//! ```
//!
//! Every process runs its meshes on the reactor transport (one poll
//! loop per process). `--transport reactor` is accepted for command
//! lines that name the engine; any other value is an error.
//!
//! `player` and `frontend` are the long-running deployment processes;
//! `smoke` spawns a whole deployment (players + front-end as child
//! processes of itself) and gates on signature validity plus DKG
//! metrics byte-parity with an in-process reference run.

use borndist_service::daemon::{free_port_block, run_frontend, run_player, run_smoke};
use borndist_service::Topology;
use borndist_shamir::ThresholdParams;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::process::ExitCode;

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", key))?;
            let value = it
                .next()
                .ok_or_else(|| format!("--{} needs a value", key))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.0
            .get(key)
            .ok_or_else(|| format!("missing --{}", key))?
            .parse()
            .map_err(|_| format!("bad value for --{}", key))
    }

    fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{}", key)),
        }
    }
}

fn topology(args: &Args) -> Result<Topology, String> {
    check_transport(args)?;
    let t: usize = args.get("t")?;
    let n: usize = args.get("n")?;
    let params = ThresholdParams::new(t, n).map_err(|e| format!("bad (t, n): {:?}", e))?;
    Ok(Topology {
        params,
        seed: args.get_or("seed", 7)?,
        domain: args
            .get_or("domain", "borndist-service".to_string())?
            .into_bytes(),
        dkg_base: args.get_or("dkg-base", 0)?,
        sign_base: args.get_or("sign-base", 0)?,
        max_in_flight: args.get_or("max-in-flight", 8)?,
    })
}

/// Rejects a `--transport` naming anything but the one socket engine.
fn check_transport(args: &Args) -> Result<(), String> {
    match args.0.get("transport").map(String::as_str) {
        None | Some("reactor") => Ok(()),
        Some(other) => Err(format!(
            "unknown transport {:?} (the only engine is reactor)",
            other
        )),
    }
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = raw.split_first() else {
        return Err("usage: borndist-service <player|frontend|smoke> --flags ...".into());
    };
    let args = Args::parse(rest)?;

    match mode.as_str() {
        "player" => {
            let top = topology(&args)?;
            let id: u32 = args.get("id")?;
            let served = run_player(&top, id).map_err(|e| e.to_string())?;
            println!("player {} done: {} sessions observed", id, served);
            Ok(())
        }
        "frontend" => {
            let top = topology(&args)?;
            let port: u16 = args.get_or("client-port", 0)?;
            let listener =
                TcpListener::bind(("127.0.0.1", port)).map_err(|e| format!("bind: {}", e))?;
            run_frontend(&top, listener).map_err(|e| e.to_string())
        }
        "smoke" => {
            let mut top = topology(&args)?;
            let requests: u64 = args.get_or("requests", 100)?;
            if top.dkg_base == 0 || top.sign_base == 0 {
                // One contiguous block: n DKG ports, then n+1 signing
                // ports (ids are 1-based offsets within each base).
                let n = top.params.n as u16;
                let base = free_port_block(2 * n + 3).map_err(|e| e.to_string())?;
                top.dkg_base = base;
                top.sign_base = base + n + 1;
            }
            run_smoke(&top, requests).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown mode {:?}", other)),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("borndist-service: {}", e);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw).unwrap()
    }

    #[test]
    fn transport_flag_accepts_only_reactor() {
        assert!(check_transport(&args(&[])).is_ok());
        assert!(check_transport(&args(&["--transport", "reactor"])).is_ok());
        let err = check_transport(&args(&["--transport", "tcp"])).unwrap_err();
        assert!(err.contains("\"tcp\""), "error names the value: {}", err);
    }
}
