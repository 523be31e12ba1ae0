//! `daemonbench` — drives a live `borndist-service` deployment with one
//! seeded workload and prints one JSON result line.
//!
//! ```text
//! daemonbench --service <borndist-service> --workload sign-n4 \
//!             --seed 1 --seconds 60 --trace 0 [--out .bench_out]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` repeats the
//! workload with spans around the benchmark's calls into each crate and
//! prints the per-layer metrics, writing the spans and the per-layer
//! table under `--out`. See `daemonbench/README.md`.

mod client;
mod deploy;
mod layers;
mod procfs;
mod runner;
mod stats;
mod trace;
mod workload;

use deploy::Topology;
use layers::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runner::{Observed, Reference};
use stats::{median, percentile, tail_percentile, Class};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::SpanLog;
use workload::{mix, Inputs};

struct Args {
    service: PathBuf,
    out: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in raw.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", pair[0]))?;
        let value = pair
            .get(1)
            .ok_or_else(|| format!("--{} needs a value", key))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{}", k));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("bad value for --{}", k))
    };
    Ok(Args {
        service: PathBuf::from(get("service")?),
        out: PathBuf::from(map.get("out").map_or(".bench_out", String::as_str)),
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match num("trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// The in-process reference DKG (lockstep) at the deployment's seed.
fn reference(inputs: &Inputs) -> Result<Reference, String> {
    let scheme = borndist_core::ro::ThresholdScheme::new(inputs.domain.as_bytes());
    let t0 = Instant::now();
    let (km, metrics) = scheme
        .keygen_session(
            inputs.spec.params(),
            &BTreeMap::new(),
            inputs.dkg_seed,
            &borndist_net::TransportKind::Lockstep,
        )
        .map_err(|e| format!("reference DKG: {}", e))?;
    Ok(Reference {
        scheme,
        km,
        metrics,
        elapsed: t0.elapsed(),
    })
}

/// The end-to-end metrics of a run.
fn end_to_end(obs: &Observed) -> Table {
    let lat = obs.ledger.latencies_ms(None);
    let answered =
        obs.ledger.answered_count(Class::Sign) + obs.ledger.answered_count(Class::Verify);
    let mut t = Table::new();
    t.insert("setup_s", (median(&obs.setup_s), "s"));
    t.insert(
        "ops_s",
        (lat.len() as f64 / obs.window.as_secs_f64().max(1e-9), "1/s"),
    );
    t.insert("p50_ms", (median(&lat), "ms"));
    // The median over the deployments, so a host stall in one of them
    // does not set the run's tail.
    t.insert("tail_ms", (median(&obs.tails), "ms"));
    t.insert(
        "cpu_ms_per_op",
        (obs.usage.cpu_s() * 1e3 / answered.max(1) as f64, "ms"),
    );
    // Pooled over every deployment's idle window: /proc counts whole
    // 10 ms ticks, so one short window alone would be coarse.
    let (cpu, wall) = obs
        .idle
        .iter()
        .fold((0.0, 0.0), |(c, w), (dc, dw)| (c + dc, w + dw));
    t.insert("idle_cores", (cpu / wall.max(1e-9), "cores"));
    t.insert("rss_mb", (obs.usage.hwm_kb as f64 / 1024.0, "MB"));
    t
}

/// Client-side, Summary-side and generator metrics of the traced run.
fn service_layers(inputs: &Inputs, obs: &Observed, log: &SpanLog, out: &mut Table) {
    let answered = (obs.ledger.answered_count(Class::Sign)
        + obs.ledger.answered_count(Class::Verify))
    .max(1) as f64;
    // Client p50 by class, warm-ups included: the population the
    // Summaries' server-side percentiles cover.
    let client_p50 = |c: Class| {
        median(
            &obs.served
                .iter()
                .filter(|(k, _)| *k == c)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>(),
        )
    };
    // The median over the deployments of each Summary's server-side p50.
    let server_p50 = |f: fn(&runner::Summary) -> Duration| {
        median(
            &obs.summaries
                .iter()
                .map(|s| stats::ms(f(s)))
                .collect::<Vec<_>>(),
        )
    };
    let server_sign = server_p50(|s| s.sign_p50);
    let server_verify = server_p50(|s| s.verify_p50);
    // The tail pooled over the deployments, at the highest percentile
    // the run's request count supports.
    let pooled_tail = tail_percentile(inputs.requests.len())
        .map_or(0.0, |p| percentile(&obs.ledger.latencies_ms(None), p));
    out.insert("loadgen.pooled_tail_ms", (pooled_tail, "ms"));
    out.insert("service.server_sign_p50_ms", (server_sign, "ms"));
    out.insert("service.server_verify_p50_ms", (server_verify, "ms"));
    out.insert(
        "service.frontend_gap_sign_ms",
        (client_p50(Class::Sign) - server_sign, "ms"),
    );
    out.insert(
        "service.frontend_gap_verify_ms",
        (client_p50(Class::Verify) - server_verify, "ms"),
    );
    out.insert(
        "service.cpu_frontend_ms_per_op",
        (obs.usage.frontend_cpu_s * 1e3 / answered, "ms"),
    );
    out.insert(
        "service.cpu_players_ms_per_op",
        (obs.usage.players_cpu_s * 1e3 / answered, "ms"),
    );
    out.insert(
        "loadgen.lag_p99_ms",
        (percentile(&obs.ledger.lags_ms(), 99.0), "ms"),
    );
    out.insert("loadgen.client_cpu_ms", (obs.client_cpu_s * 1e3, "ms"));
    out.insert(
        "loadgen.fail_ratio",
        (
            obs.ledger.failed() as f64 / obs.ledger.attempted().max(1) as f64,
            "1",
        ),
    );
    // Tracing cost on the load path: spans recorded live while the
    // window ran, at the recorder's measured cost per span.
    let live = log
        .spans()
        .iter()
        .filter(|s| matches!(s.name, "service.write_frame" | "service.decode_response"))
        .count();
    let window = obs.window.as_secs_f64().max(1e-9);
    out.insert(
        "trace.overhead_pct",
        (
            live as f64 * trace::span_cost_ns() * 1e-9 / window * 100.0,
            "%",
        ),
    );
}

/// Renders the per-layer table: self time by layer, then by operation.
fn render_table(workload: &str, seed: u64, log: &SpanLog, e2e: &Table, layers: &Table) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# per-layer self time, {} seed {}", workload, seed);
    let _ = writeln!(s, "layer\tspans\tself_ms");
    for (layer, (n, d)) in trace::layer_table(log.spans()) {
        let _ = writeln!(s, "{}\t{}\t{:.3}", layer, n, stats::ms(d));
    }
    let _ = writeln!(s, "\nop\tspans\ttotal_ms\tself_ms");
    for (op, (n, total, own)) in trace::op_table(log.spans()) {
        let _ = writeln!(
            s,
            "{}\t{}\t{:.3}\t{:.3}",
            op,
            n,
            stats::ms(total),
            stats::ms(own)
        );
    }
    let _ = writeln!(s, "\nmetric\tvalue\tunit");
    for (name, (v, unit)) in e2e.iter().chain(layers.iter()) {
        let _ = writeln!(s, "{}\t{}\t{}", name, v, unit);
    }
    s
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &Table) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, (value, unit)) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            name, value, unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        attempted,
        failed,
        body.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    deploy::executable(&args.service)?;
    // The host's speed before and after the run, and the share of its
    // CPU time stolen by the hypervisor in between, so that comparisons
    // between runs can tell drift of the host from a change of the
    // program. Printed on its own line; no bound applies to it.
    let mut probe_rng = StdRng::seed_from_u64(mix(args.seed ^ 0xf1e1d));
    let probe_before = layers::fp_mul_ns(&mut probe_rng);
    let ticks_before = procfs::host_ticks()?;
    let mut log = SpanLog::new(args.trace, Instant::now(), 1);

    let inputs = log.span("loadgen.inputs", |_| workload::generate(spec, args.seed, 2));
    let reference = log.span("dkg.session_lockstep", |_| reference(&inputs))?;
    let top = Topology {
        exe: args.service.clone(),
        n: spec.n,
        t: spec.t,
        dkg_seed: inputs.dkg_seed,
        domain: inputs.domain.clone(),
        max_in_flight: workload::MAX_IN_FLIGHT,
    };
    let salt = mix(args.seed ^ u64::from(std::process::id()) << 20);
    let obs = runner::run(
        &inputs,
        &reference,
        &top,
        Duration::from_secs(args.seconds),
        salt,
        &mut log,
    );
    for p in &obs.problems {
        eprintln!("daemonbench: {}", p);
    }
    let e2e = end_to_end(&obs);
    let metrics = if args.trace {
        let mut layers = layers::per_layer(
            &inputs,
            &reference,
            &obs,
            e2e["cpu_ms_per_op"].0,
            e2e["setup_s"].0,
            &mut log,
        )?;
        service_layers(&inputs, &obs, &log, &mut layers);
        let table = render_table(spec.name, args.seed, &log, &e2e, &layers);
        eprint!("{}", table);
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {}", args.out.display(), e))?;
        let stem = args.out.join(format!("{}-seed{}", spec.name, args.seed));
        let write = |ext: &str, body: &str| {
            let path = stem.with_extension(ext);
            std::fs::write(&path, body).map_err(|e| format!("{}: {}", path.display(), e))
        };
        write("spans.jsonl", &trace::write_spans(log.spans()))?;
        write("layers.tsv", &table)?;
        layers
    } else {
        e2e
    };
    let ticks_after = procfs::host_ticks()?;
    let steal_pct = (ticks_after.0 - ticks_before.0) as f64 * 100.0
        / (ticks_after.1 - ticks_before.1).max(1) as f64;
    println!(
        "{{\"host_probe\": {{\"fp_mul_ns_before\": {:.3}, \"fp_mul_ns_after\": {:.3}, \"steal_pct\": {:.3}}}}}",
        probe_before,
        layers::fp_mul_ns(&mut probe_rng),
        steal_pct
    );
    let failed = obs.ledger.failed();
    let correct = obs.problems.is_empty() && failed == 0;
    json(correct, obs.ledger.attempted(), failed, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{}", line);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daemonbench: {}", e);
            ExitCode::FAILURE
        }
    }
}
