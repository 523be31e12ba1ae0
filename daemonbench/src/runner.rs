//! One benchmark run against live deployments: repeated set-up, an idle
//! window, the measured window, shutdown and audit.

use crate::client::{Conn, Event};
use crate::deploy::{port_block, Deployment, Topology, Usage};
use crate::procfs;
use crate::stats::{median, ms, percentile, tail_percentile, Class, Ledger, Timeline};
use crate::trace::SpanLog;
use crate::workload::{mix, Arrival, Inputs, Payload, Request};
use borndist_core::ro::{KeyMaterial, Signature, ThresholdScheme};
use borndist_net::{Metrics, TransportStats, Wire};
use borndist_service::{ClientRequest, ClientResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Request id of the warm-up `Sign` that ends each set-up.
pub const WARMUP_SIGN: u64 = 1 << 62;
/// Request id of the warm-up `Verify` sent before the measured window.
pub const WARMUP_VERIFY: u64 = WARMUP_SIGN + 1;

/// Deployments per run, one after another; each drives a contiguous
/// share of the requests, and `setup_s` is their median set-up time.
const DEPLOYMENTS: usize = 3;
/// Longest a deployment may take from spawn to its warm-up signature.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);
/// Longest a request may wait for its answer, from its due time.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);
/// Longest the shutdown may take to produce the Summary.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(30);
/// Longest the processes may take to exit after the Summary.
const EXIT_DEADLINE: Duration = Duration::from_secs(15);
/// Pause between the warm-up sign and the idle window.
const SETTLE: Duration = Duration::from_millis(250);
/// The idle window of each deployment: no request outstanding.
const IDLE_WINDOW: Duration = Duration::from_millis(4000);
/// Pause between generating the inputs and the first deployment. The
/// host runs faster for some seconds after a burst of CPU work: without
/// the pause, the first deployment after the two-thread input generation
/// set up faster, burned more CPU when idle and answered `verify-n4`'s
/// requests about a third faster than the two after it.
const COOL_DOWN: Duration = Duration::from_secs(6);
/// How often waits look for dead processes.
const POLL: Duration = Duration::from_millis(100);

/// The in-process reference: the same DKG, seed and domain as the
/// deployment, so its public key and traffic must match byte for byte.
pub struct Reference {
    /// The scheme of the workload's domain.
    pub scheme: ThresholdScheme,
    /// Full key material (every share).
    pub km: KeyMaterial,
    /// DKG traffic.
    pub metrics: Metrics,
    /// How long the reference session took.
    pub elapsed: Duration,
}

/// The front-end's audit Summary, reduced to what the benchmark reads.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Server-side sign latency median.
    pub sign_p50: Duration,
    /// Server-side verify latency median.
    pub verify_p50: Duration,
    /// Merged DKG traffic.
    pub dkg: Metrics,
    /// Deployment-wide socket counters.
    pub transport: TransportStats,
    /// Spawn → Summary.
    pub lifetime: Duration,
}

/// Everything one run measured.
pub struct Observed {
    /// Set-up time of each deployment, seconds.
    pub setup_s: Vec<f64>,
    /// Deployment CPU-seconds and wall-seconds of each deployment's idle
    /// window.
    pub idle: Vec<(f64, f64)>,
    /// First due time → last answer, summed over the deployments'
    /// windows.
    pub window: Duration,
    /// Deployment CPU over the windows; the largest memory peak at the
    /// end of one.
    pub usage: Usage,
    /// This process's CPU over the windows, seconds.
    pub client_cpu_s: f64,
    /// Every request of the run, each timed within its own window.
    pub ledger: Ledger,
    /// Each deployment's tail latency (ms): the highest percentile of
    /// the ladder that leaves ten of its requests beyond it.
    pub tails: Vec<f64>,
    /// Client latencies (ms) of every request answered by a deployment,
    /// warm-ups included: the population the Summaries cover.
    pub served: Vec<(Class, f64)>,
    /// The audit Summary of every deployment that produced one.
    pub summaries: Vec<Summary>,
    /// Every check that failed.
    pub problems: Vec<String>,
}

/// A deployment with its client connection and the client's own count
/// of responses, which the Summary must match.
struct Live {
    dep: Deployment,
    conn: Conn,
    signed: u64,
    verified: u64,
}

impl Live {
    /// The next frame before `until` (at most [`POLL`] away), counting
    /// it. Errors when the connection ends or, with `watch_exits`, when
    /// a process has died.
    fn next(
        &mut self,
        until: Instant,
        watch_exits: bool,
    ) -> Result<Option<(Instant, ClientResponse)>, String> {
        match self.conn.next(until.min(Instant::now() + POLL)) {
            Some(Event::Frame(at, resp)) => {
                match *resp {
                    ClientResponse::Signed { .. } => self.signed += 1,
                    ClientResponse::Verified { .. } => self.verified += 1,
                    ClientResponse::Summary { .. } => {}
                }
                Ok(Some((at, *resp)))
            }
            Some(Event::Closed(why)) => Err(format!("client connection ended: {}", why)),
            None => match self.dep.first_exit().filter(|_| watch_exits) {
                Some(why) => Err(why),
                None => Ok(None),
            },
        }
    }

    /// Waits until `deadline` for the one response `want` accepts; any
    /// other response is an error.
    fn expect<T>(
        &mut self,
        deadline: Instant,
        what: &str,
        want: impl Fn(&ClientResponse) -> Option<T>,
    ) -> Result<(Instant, T), String> {
        loop {
            if Instant::now() >= deadline {
                return Err(format!("{}: no answer in time", what));
            }
            if let Some((at, resp)) = self
                .next(deadline, true)
                .map_err(|e| format!("{}: {}", what, e))?
            {
                return want(&resp)
                    .map(|v| (at, v))
                    .ok_or_else(|| format!("{}: unexpected {:?}", what, resp));
            }
        }
    }
}

/// Spawns a deployment and waits for its warm-up signature. Returns it
/// with the set-up time (spawn → signature) and the warm-up latency.
fn bring_up(
    top: &Topology,
    salt: u64,
    inputs: &Inputs,
    reference: &Reference,
    log: &mut SpanLog,
) -> Result<(Live, f64, f64), String> {
    let ports = port_block(top.n, salt)?;
    let mut dep = log.span("deploy.spawn", |_| Deployment::spawn(top, ports))?;
    let deadline = dep.spawned + SETUP_DEADLINE;
    let stream = dep.connect(deadline)?;
    let conn = Conn::open(stream, log.on(), log.epoch()).map_err(|e| e.to_string())?;
    let mut live = Live {
        dep,
        conn,
        signed: 0,
        verified: 0,
    };
    let msg = inputs.warmup_msg.clone();
    let sent = Instant::now();
    live.conn
        .send(
            &ClientRequest::Sign {
                id: WARMUP_SIGN,
                msg,
            },
            log,
        )
        .map_err(|e| format!("warm-up sign: {}", e))?;
    let (at, sig) = live.expect(deadline, "warm-up sign", |r| match r {
        ClientResponse::Signed { id, sig } if *id == WARMUP_SIGN => Some(*sig),
        _ => None,
    })?;
    let setup = at.duration_since(live.dep.spawned).as_secs_f64();
    let valid = log.span("core.verify", |_| {
        reference
            .scheme
            .verify(&reference.km.public_key, &inputs.warmup_msg, &sig)
    });
    if !valid {
        return Err("warm-up signature invalid under the reference key".into());
    }
    Ok((live, setup, ms(at - sent)))
}

/// Sends Shutdown, collects the Summary, audits it against the client's
/// counts and the reference, and reaps every process. Responses that
/// arrive late are counted (the Summary counts them too) but not
/// answered in the ledger.
fn shut_down(
    mut live: Live,
    reference: &Reference,
    log: &mut SpanLog,
) -> (Option<(Summary, Instant)>, Vec<String>) {
    let mut problems = Vec::new();
    let deadline = Instant::now() + SHUTDOWN_DEADLINE;
    let mut summary = None;
    if let Err(e) = live.conn.send(&ClientRequest::Shutdown, log) {
        problems.push(format!("shutdown: {}", e));
    } else {
        loop {
            if Instant::now() >= deadline {
                problems.push("no Summary within the shutdown deadline".into());
                break;
            }
            // Players exit on their own once the mesh drains.
            match live.next(deadline, false) {
                Ok(Some((
                    at,
                    ClientResponse::Summary {
                        public_key,
                        dkg_metrics,
                        served,
                        verified,
                        sign_latency,
                        verify_latency,
                        transport,
                        ..
                    },
                ))) => {
                    if public_key.encode() != reference.km.public_key.encode() {
                        problems.push("Summary public key differs from the reference".into());
                    }
                    if !dkg_metrics.same_traffic(&reference.metrics) {
                        problems.push("Summary DKG traffic differs from the reference".into());
                    }
                    if served != live.signed || verified != live.verified {
                        problems.push(format!(
                            "Summary counts {} signed / {} verified, client received {} / {}",
                            served, verified, live.signed, live.verified
                        ));
                    }
                    summary = Some((
                        Summary {
                            sign_p50: sign_latency.p50,
                            verify_p50: verify_latency.p50,
                            dkg: dkg_metrics,
                            transport,
                            lifetime: Duration::ZERO,
                        },
                        at,
                    ));
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    problems.push(format!("no Summary: {}", e));
                    break;
                }
            }
        }
    }
    match live.conn.close() {
        Ok(spans) => log.absorb(spans),
        Err(e) => problems.push(e),
    }
    problems.extend(live.dep.reap(Instant::now() + EXIT_DEADLINE));
    (summary, problems)
}

/// Sends the warm-up verify and waits for its (valid) verdict.
fn warm_verify(live: &mut Live, inputs: &Inputs, log: &mut SpanLog) -> Result<f64, String> {
    let extra = inputs.authorities.len() - 1;
    let (msg, sig) = inputs.warmup_verify.clone();
    let sent = Instant::now();
    live.conn
        .send(
            &ClientRequest::Verify {
                id: WARMUP_VERIFY,
                epoch: 0,
                pk: inputs.authorities[extra].clone(),
                msg,
                sig,
            },
            log,
        )
        .map_err(|e| format!("warm-up verify: {}", e))?;
    let (at, valid) = live.expect(sent + REQUEST_DEADLINE, "warm-up verify", |r| match r {
        ClientResponse::Verified { id, valid, .. } if *id == WARMUP_VERIFY => Some(*valid),
        _ => None,
    })?;
    if !valid {
        return Err("warm-up verify judged invalid".into());
    }
    Ok(ms(at - sent))
}

/// The request frame for a planned request.
fn frame(inputs: &Inputs, id: u64, payload: &Payload) -> ClientRequest {
    match payload {
        Payload::Sign { msg } => ClientRequest::Sign {
            id,
            msg: msg.clone(),
        },
        Payload::Verify {
            authority,
            msg,
            sig,
            ..
        } => ClientRequest::Verify {
            id,
            epoch: 0,
            pk: inputs.authorities[*authority].clone(),
            msg: msg.clone(),
            sig: *sig,
        },
    }
}

/// Result of driving the measured window.
struct Window {
    start: Instant,
    signatures: BTreeMap<u64, Signature>,
    usage: Result<Usage, String>,
    client_cpu_s: f64,
    /// Why the window was cut short by a dead or misbehaving deployment.
    failure: Option<String>,
}

/// Drives the measured window over `reqs`, whose due times count from
/// the first one's: open loop on the schedule, or closed loop with a
/// fixed number of callers. Stops when every request is answered,
/// when every deadline has passed, at `budget` after the start, or when
/// the deployment dies.
fn drive(
    live: &mut Live,
    inputs: &Inputs,
    reqs: &[Request],
    ledger: &mut Ledger,
    budget: Duration,
    log: &mut SpanLog,
) -> Window {
    // Due offsets from this window's start.
    let origin = reqs.first().map_or(Duration::ZERO, |r| r.due);
    let due = |i: usize| reqs[i].due - origin;
    let forged: BTreeMap<u64, bool> = reqs
        .iter()
        .filter_map(|r| match r.payload {
            Payload::Verify { forged, .. } => Some((r.id, forged)),
            Payload::Sign { .. } => None,
        })
        .collect();
    let closed = match inputs.spec.arrival {
        Arrival::Closed { callers } => Some(callers),
        Arrival::Open { .. } => None,
    };
    let pids = live.dep.pids();
    let before = Usage::sample(&pids);
    let client_before = procfs::stat("self").map(|s| s.cpu_s()).unwrap_or(0.0);
    let start = Instant::now();
    let stop = start + budget;
    let mut signatures = BTreeMap::new();
    let mut usage_end = None;
    let mut next = 0usize;

    // Sends the next planned request now.
    let send = |live: &mut Live, next: &mut usize, ledger: &mut Ledger, log: &mut SpanLog| {
        let r = &reqs[*next];
        *next += 1;
        let sent = live.conn.send(&frame(inputs, r.id, &r.payload), log);
        ledger.sent(r.id, start.elapsed());
        sent.map_err(|e| format!("send: {}", e))
    };

    let mut result: Result<(), String> = Ok(());
    if let Some(callers) = closed {
        while next < reqs.len().min(callers) && result.is_ok() {
            result = send(live, &mut next, ledger, log);
        }
    }
    while result.is_ok() {
        let now = Instant::now();
        let elapsed = now - start;
        if now >= stop || ledger.outstanding() == 0 {
            break;
        }
        if closed.is_none() && next < reqs.len() && due(next) <= elapsed {
            result = send(live, &mut next, ledger, log);
            continue;
        }
        if next >= reqs.len() && elapsed >= ledger.last_deadline() {
            break;
        }
        let wake = match closed {
            None if next < reqs.len() => start + due(next),
            _ => stop,
        };
        let (at, resp) = match live.next(wake.min(stop), true) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(e) => {
                result = Err(e);
                continue;
            }
        };
        let t = at.duration_since(start);
        let (id, right) = match resp {
            ClientResponse::Signed { id, sig } => {
                signatures.insert(id, sig);
                (id, true)
            }
            ClientResponse::Verified { id, valid, .. } => {
                (id, forged.get(&id).is_some_and(|f| *f != valid))
            }
            ClientResponse::Summary { .. } => {
                result = Err("Summary before Shutdown".into());
                continue;
            }
        };
        if !ledger.answered(id, t, right) {
            result = Err(format!("answer to unknown or answered request {}", id));
            continue;
        }
        if ledger.outstanding() == 0 {
            usage_end = Some(Usage::sample(&pids));
        }
        // Closed loop: the freed caller's next request is due now.
        if closed.is_some() && next < reqs.len() {
            ledger.set_due(reqs[next].id, t);
            result = send(live, &mut next, ledger, log);
        }
    }
    let usage_end = usage_end.unwrap_or_else(|| Usage::sample(&pids));
    let client_after = procfs::stat("self").map(|s| s.cpu_s()).unwrap_or(0.0);
    let usage = match (before, usage_end) {
        (Ok(b), Ok(e)) => Ok(e.since(&b)),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    Window {
        start,
        signatures,
        usage,
        client_cpu_s: client_after - client_before,
        failure: result.err(),
    }
}

/// Checks every signature of the window against the reference key: one
/// batched check, and per-signature checks only if the batch rejects.
fn check_signatures(
    sigs: &BTreeMap<u64, Signature>,
    inputs: &Inputs,
    reference: &Reference,
    ledger: &mut Ledger,
    log: &mut SpanLog,
) {
    let msgs: BTreeMap<u64, &[u8]> = inputs
        .requests
        .iter()
        .filter_map(|r| match &r.payload {
            Payload::Sign { msg } => Some((r.id, msg.as_slice())),
            Payload::Verify { .. } => None,
        })
        .collect();
    let items: Vec<(u64, &[u8], &Signature)> = sigs
        .iter()
        .filter_map(|(id, sig)| msgs.get(id).map(|m| (*id, *m, sig)))
        .collect();
    for id in sigs.keys().filter(|id| !msgs.contains_key(id)) {
        ledger.mark_wrong(*id);
    }
    let pk = &reference.km.public_key;
    let mut rng = StdRng::seed_from_u64(mix(items.len() as u64));
    let batch: Vec<(&[u8], &Signature)> = items.iter().map(|(_, m, s)| (*m, *s)).collect();
    let all_valid = log.span("core.batch_verify", |_| {
        reference.scheme.batch_verify(pk, &batch, &mut rng)
    });
    if all_valid {
        return;
    }
    for (id, msg, sig) in items {
        if !log.span_for("core.verify", Some(id), |_| {
            reference.scheme.verify(pk, msg, sig)
        }) {
            ledger.mark_wrong(id);
        }
    }
}

/// One full run over [`DEPLOYMENTS`] deployments, one after another.
/// Each is set up (timed to its warm-up signature), left idle for the
/// idle window, sent the warm-up verify, and then drives its contiguous
/// share of the schedule before it is shut down and audited. Pooling the
/// load over several deployments, and taking medians over them, keeps a
/// stall of the host during one deployment from setting a run's numbers.
/// A deployment failure never aborts the run silently: any problem
/// condemns the run, so every request counts as failed.
pub fn run(
    inputs: &Inputs,
    reference: &Reference,
    top: &Topology,
    budget: Duration,
    salt: u64,
    log: &mut SpanLog,
) -> Observed {
    let mut obs = Observed {
        setup_s: Vec::new(),
        idle: Vec::new(),
        window: Duration::ZERO,
        usage: Usage::default(),
        client_cpu_s: 0.0,
        ledger: Ledger::new(REQUEST_DEADLINE),
        tails: Vec::new(),
        served: Vec::new(),
        summaries: Vec::new(),
        problems: Vec::new(),
    };
    let parts = split(inputs.requests.len(), DEPLOYMENTS);
    log.span("deploy.cool_down", |_| std::thread::sleep(COOL_DOWN));
    for (k, range) in parts.into_iter().enumerate() {
        let reqs = &inputs.requests[range];
        let mut ledger = Ledger::new(REQUEST_DEADLINE);
        for r in reqs {
            ledger.expect(r.id, class(&r.payload), r.due - reqs[0].due);
        }
        // Up to a third of twice the run's budget (40 s at `--seconds
        // 60`), whatever share of the requests the deployment drives: the
        // three windows, set-ups and idle windows still end well inside
        // the 180 s a run may take, and a sign-n4 window (about 10 s) may
        // get about four times slower before requests it has not sent by
        // the cap count as failures.
        let cap = budget.mul_f64(2.0 / DEPLOYMENTS as f64);
        let salt = salt.wrapping_add(k as u64);
        match log.span("deploy.setup", |log| {
            bring_up(top, salt, inputs, reference, log)
        }) {
            Ok((live, setup, warm_ms)) => {
                obs.setup_s.push(setup);
                obs.served.push((Class::Sign, warm_ms));
                measure(
                    live,
                    inputs,
                    reqs,
                    reference,
                    cap,
                    &mut ledger,
                    log,
                    &mut obs,
                );
                let idle = obs.idle.last().map_or(0.0, |(cpu, wall)| cpu / wall);
                let (first, last) = ledger.span();
                eprintln!(
                    "daemonbench: deployment {}: set-up {:.3} s, idle {:.3} cores, window {:.3} s, p50 {:.1} ms, tail {:.1} ms, {} of {} requests failed",
                    k + 1,
                    setup,
                    idle,
                    last.saturating_sub(first).as_secs_f64(),
                    median(&ledger.latencies_ms(None)),
                    obs.tails.last().copied().unwrap_or(0.0),
                    ledger.failed(),
                    ledger.attempted()
                );
            }
            Err(e) => obs.problems.push(format!("set-up {}: {}", k + 1, e)),
        }
        obs.ledger.absorb(ledger);
        if !obs.problems.is_empty() {
            // Later deployments' requests stay in the ledger, unsent.
            for r in inputs.requests.iter().skip(obs.ledger.attempted()) {
                obs.ledger.expect(r.id, class(&r.payload), Duration::ZERO);
            }
            break;
        }
    }
    if !obs.problems.is_empty() {
        obs.ledger.condemn(obs.problems.join("; "));
    }
    obs
}

/// The class a request is sent as.
fn class(payload: &Payload) -> Class {
    match payload {
        Payload::Sign { .. } => Class::Sign,
        Payload::Verify { .. } => Class::Verify,
    }
}

/// `len` requests in `parts` contiguous, nearly equal ranges.
fn split(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    (0..parts)
        .map(|k| k * len / parts..(k + 1) * len / parts)
        .collect()
}

/// Deployment CPU-seconds and wall-seconds of an idle window.
fn idle_cores(dep: &Deployment) -> Result<(f64, f64), String> {
    std::thread::sleep(SETTLE);
    let pids = dep.pids();
    let before = Usage::sample(&pids)?;
    let t0 = Instant::now();
    std::thread::sleep(IDLE_WINDOW);
    let after = Usage::sample(&pids)?;
    Ok((after.since(&before).cpu_s(), t0.elapsed().as_secs_f64()))
}

/// Idle window, warm-up verify, the measured window over `reqs`,
/// shutdown and checks on one deployment.
#[allow(clippy::too_many_arguments)]
fn measure(
    mut live: Live,
    inputs: &Inputs,
    reqs: &[Request],
    reference: &Reference,
    budget: Duration,
    ledger: &mut Ledger,
    log: &mut SpanLog,
    obs: &mut Observed,
) {
    match log.span("deploy.idle", |_| idle_cores(&live.dep)) {
        Ok(cpu_wall) => obs.idle.push(cpu_wall),
        Err(e) => obs.problems.push(format!("idle window: {}", e)),
    }
    match warm_verify(&mut live, inputs, log) {
        Ok(ms) => obs.served.push((Class::Verify, ms)),
        Err(e) => obs.problems.push(e),
    }

    let w = log.span("loadgen.window", |log| {
        drive(&mut live, inputs, reqs, ledger, budget, log)
    });
    let (first, last) = ledger.span();
    obs.window += last.saturating_sub(first);
    obs.client_cpu_s += w.client_cpu_s;
    obs.problems.extend(w.failure);
    match w.usage {
        Ok(u) => obs.usage.absorb(&u),
        Err(e) => obs
            .problems
            .push(format!("deployment died in the window: {}", e)),
    }

    let spawned = live.dep.spawned;
    let (summary, problems) = log.span("deploy.shutdown", |log| shut_down(live, reference, log));
    if let Some((mut s, at)) = summary {
        s.lifetime = at.duration_since(spawned);
        obs.summaries.push(s);
    }
    obs.problems.extend(problems);

    log.span("loadgen.check", |log| {
        check_signatures(&w.signatures, inputs, reference, ledger, log)
    });
    let tail = tail_percentile(reqs.len()).unwrap_or(90.0);
    obs.tails.push(percentile(&ledger.latencies_ms(None), tail));

    // Request spans (due → answer, with the generator's lag inside).
    let base = log.offset(w.start);
    for line in ledger.timelines() {
        let Timeline {
            id,
            class,
            due,
            sent,
            answered: Some(answered),
        } = line
        else {
            continue;
        };
        let name = match class {
            Class::Sign => "loadgen.sign",
            Class::Verify => "loadgen.verify",
        };
        let req = log.record(name, None, Some(id), base + due, base + answered);
        if let Some(sent) = sent {
            log.record(
                "loadgen.lag",
                req,
                Some(id),
                base + due,
                base + sent.max(due),
            );
        }
    }
    for class in [Class::Sign, Class::Verify] {
        let lat = ledger.latencies_ms(Some(class));
        obs.served.extend(lat.into_iter().map(|l| (class, l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, spec};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn split_covers_every_request_once() {
        let lens =
            |len, parts| -> Vec<usize> { split(len, parts).iter().map(|r| r.len()).collect() };
        assert_eq!(lens(1000, 3), vec![333, 333, 334]);
        assert_eq!(lens(300, 3), vec![100, 100, 100]);
        assert_eq!(lens(2, 3), vec![1, 1]);
        let parts = split(2048, 3);
        assert_eq!((parts[0].start, parts[2].end), (0, 2048));
        assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn deployment_killed_mid_window_fails_every_request() {
        let spec = crate::workload::Spec {
            requests: 40,
            ..spec("sign-n4").unwrap()
        };
        let inputs = generate(spec, 1, 1);
        // A front-end that accepts requests and never answers.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_front, _) = listener.accept().unwrap();
        let dep = Deployment::sleepers();
        let victim = dep.pids()[0].1;
        let mut live = Live {
            dep,
            conn: Conn::open(stream, false, Instant::now()).unwrap(),
            signed: 0,
            verified: 0,
        };
        let mut ledger = Ledger::new(REQUEST_DEADLINE);
        for r in &inputs.requests {
            ledger.expect(r.id, Class::Sign, r.due);
        }
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            std::process::Command::new("kill")
                .arg(victim.to_string())
                .status()
                .unwrap()
        });
        let mut log = SpanLog::new(false, Instant::now(), 1);
        let t0 = Instant::now();
        let w = drive(
            &mut live,
            &inputs,
            &inputs.requests,
            &mut ledger,
            Duration::from_secs(30),
            &mut log,
        );
        assert!(killer.join().unwrap().success());
        let why = w.failure.expect("the dead player is noticed");
        assert!(why.contains("Player(1)"), "{}", why);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "noticed within a poll"
        );
        // 8 callers sent one request each; the other 32 never went out.
        assert_eq!(ledger.attempted(), 40);
        assert_eq!(ledger.failed(), 40);
        ledger.condemn(why);
        assert_eq!(ledger.failed(), 40);
        assert!(!live.dep.reap(Instant::now()).is_empty());
    }
}
