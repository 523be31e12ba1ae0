//! The traced run's per-layer rungs, the gateway replay and the op-count
//! model. Every rung calls a crate's public functions on the workload's
//! own inputs inside a span named `<crate>.<op>`.

use crate::runner::{Observed, Reference, WARMUP_VERIFY};
use crate::stats::Class;
use crate::trace::SpanLog;
use crate::workload::{mix, Inputs, Payload, MAX_IN_FLIGHT};
use borndist_core::aggregate::AggregateScheme;
use borndist_core::gateway::{AggregationGateway, GatewayConfig, Verdict, VerifyRequest};
use borndist_core::netsign::{run_mux_sign, MuxMessage};
use borndist_core::ro::{PartialSignature, Signature};
use borndist_net::{decode_frame, encode_frame, DeliveryPolicy, TransportKind, Wire};
use borndist_pairing::{
    final_exponentiation, g2_generator_prepared, msm, multi_miller_loop, multi_pairing_prepared,
    Fp, Fr, G1Affine, G1Projective, G2Prepared,
};
use borndist_service::ClientRequest;
use borndist_shamir::{pedersen_check_verdicts, LagrangeCache, PedersenCheck, PedersenSharing};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds `run_mux_sign` may take for a handful of messages.
const MUX_ROUNDS: usize = 100_000;
/// Messages per in-process signing session.
const MUX_MESSAGES: usize = 8;

/// Named per-layer values with their units.
pub type Table = BTreeMap<&'static str, (f64, &'static str)>;

/// Times `reps` calls of `f` inside one span; seconds per call.
fn per_call<T>(
    log: &mut SpanLog,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize) -> T,
) -> f64 {
    log.span(name, |_| {
        let t0 = Instant::now();
        for i in 0..reps {
            black_box(f(black_box(i)));
        }
        t0.elapsed().as_secs_f64() / reps as f64
    })
}

/// Every message of the workload, in plan order.
fn messages(inputs: &Inputs) -> Vec<&[u8]> {
    inputs
        .requests
        .iter()
        .map(|r| match &r.payload {
            Payload::Sign { msg } | Payload::Verify { msg, .. } => msg.as_slice(),
        })
        .collect()
}

/// Nanoseconds per base-field multiplication: the median of five chains
/// of 2^18 dependent products. Cheap enough to run before and after an
/// untraced run as a probe of the host's speed.
pub fn fp_mul_ns(rng: &mut StdRng) -> f64 {
    const REPS: usize = 1 << 18;
    let (a, b) = (Fp::random(rng), Fp::random(rng));
    let chains: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(a);
            for _ in 0..REPS {
                x *= black_box(b);
            }
            black_box(x);
            t0.elapsed().as_secs_f64() * 1e9 / REPS as f64
        })
        .collect();
    crate::stats::median(&chains)
}

/// Field, curve and pairing rungs.
fn pairing(inputs: &Inputs, reference: &Reference, log: &mut SpanLog, out: &mut Table) {
    let mut rng = StdRng::seed_from_u64(mix(inputs.dkg_seed ^ 0xf1e1d));
    let msgs = messages(inputs);
    let scheme = &reference.scheme;

    let hashes: Vec<Vec<G1Projective>> = msgs
        .iter()
        .take(64)
        .map(|m| scheme.hash_message(m))
        .collect();
    let h = per_call(log, "pairing.hash_to_g1", 64, |i| {
        scheme.hash_message(msgs[i])
    });
    out.insert("pairing.hash_to_g1_us", (h * 1e6, "us"));

    let fp = log.span("pairing.fp_mul", |_| fp_mul_ns(&mut rng));
    out.insert("pairing.fp_mul_ns", (fp, "ns"));

    let scalars: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
    let g1 = per_call(log, "pairing.g1_mul", 64, |i| hashes[i][0].mul(&scalars[i]));
    out.insert("pairing.g1_mul_us", (g1 * 1e6, "us"));

    let q = reference.km.public_key.coords[0];
    let g2 = per_call(log, "pairing.g2_mul", 32, |i| q.mul(&scalars[i]));
    out.insert("pairing.g2_mul_us", (g2 * 1e6, "us"));

    let points: Vec<G1Affine> =
        G1Projective::batch_to_affine(&hashes.iter().map(|h| h[0]).collect::<Vec<_>>());
    let ml = per_call(log, "pairing.miller_loop", 32, |i| {
        multi_miller_loop(&[(&points[i], &q)])
    });
    out.insert("pairing.miller_loop_us", (ml * 1e6, "us"));
    let fs: Vec<_> = (0..32)
        .map(|i| multi_miller_loop(&[(&points[i], &q)]))
        .collect();
    let fe = per_call(log, "pairing.final_exp", 32, |i| {
        final_exponentiation(&fs[i])
    });
    out.insert("pairing.final_exp_us", (fe * 1e6, "us"));

    // 2d + 2 pairings for d = 16 keys: the gateway's folded product.
    let keys: Vec<G2Prepared> = inputs.authorities[..16]
        .iter()
        .flat_map(|pk| pk.coords.iter().map(G2Prepared::new))
        .collect();
    let gen = g2_generator_prepared();
    let pairs: Vec<(&G1Affine, &G2Prepared)> = points[..34]
        .iter()
        .zip(keys.iter().chain([gen, gen]))
        .collect();
    let mp = per_call(log, "pairing.multi_pairing_34", 8, |_| {
        multi_pairing_prepared(&pairs)
    });
    out.insert("pairing.multi_pairing_34_us", (mp * 1e6, "us"));

    let bases = &points[..16];
    let sc = &scalars[..16];
    let m = per_call(log, "pairing.msm_g1_16", 64, |_| msm(bases, sc));
    out.insert("pairing.msm_g1_16_us", (m * 1e6, "us"));
}

/// The committee the secret-sharing rungs use on every workload: n=16,
/// t=5, larger than the n=4 deployments, so the 16-dealer check and the
/// 6-of-16 Lagrange coefficients are measured whichever workload runs.
const SHAMIR_COMMITTEE: (usize, usize) = (16, 5);

/// Secret-sharing rungs: one receiver's batched Pedersen check over
/// [`SHAMIR_COMMITTEE`]'s dealers, and Lagrange coefficients for t+1
/// of its signers.
fn shamir(inputs: &Inputs, reference: &Reference, log: &mut SpanLog, out: &mut Table) {
    let (n, t) = SHAMIR_COMMITTEE;
    let mut rng = StdRng::seed_from_u64(mix(inputs.dkg_seed ^ 0x5ba3));
    let bases = reference.scheme.pedersen_bases();
    let sharings: Vec<PedersenSharing> = (0..n)
        .map(|_| PedersenSharing::deal_random(&bases, t, &mut rng))
        .collect();
    let checks: Vec<PedersenCheck<'_>> = sharings
        .iter()
        .map(|s| PedersenCheck {
            commitment: &s.commitment,
            share: s.share_for(1),
        })
        .collect();
    let pc = per_call(log, "shamir.pedersen_batch_check", 8, |_| {
        let verdicts = pedersen_check_verdicts(&bases, &checks, &mut rng);
        assert!(verdicts.iter().all(|v| *v), "honest shares must pass");
    });
    out.insert("shamir.pedersen_batch_check_ms", (pc * 1e3, "ms"));

    // A seeded choice of t+1 signers among n.
    let mut ids: Vec<u32> = (1..=n as u32).collect();
    for i in (1..ids.len()).rev() {
        let j = (mix(inputs.dkg_seed ^ i as u64) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    let mut signers = ids[..t + 1].to_vec();
    signers.sort_unstable();
    let cold = per_call(log, "shamir.lagrange_at_zero_cold", 256, |_| {
        LagrangeCache::new().at_zero(&signers)
    });
    let cache = LagrangeCache::new();
    cache.at_zero(&signers).expect("distinct indices");
    let cached = per_call(log, "shamir.lagrange_at_zero_cached", 4096, |_| {
        cache.at_zero(&signers)
    });
    out.insert("shamir.lagrange_at_zero_cold_us", (cold * 1e6, "us"));
    out.insert("shamir.lagrange_at_zero_cached_us", (cached * 1e6, "us"));
}

/// Scheme rungs, the in-process signing sessions and the frame codecs.
fn core_and_net(inputs: &Inputs, reference: &Reference, log: &mut SpanLog, out: &mut Table) {
    let (scheme, km) = (&reference.scheme, &reference.km);
    let msgs: Vec<&[u8]> = messages(inputs).into_iter().take(MUX_MESSAGES).collect();
    let k = km.params.reconstruction_size();
    let shares: Vec<_> = km.shares.values().take(k).collect();
    let mut rng = StdRng::seed_from_u64(mix(inputs.dkg_seed ^ 0xc0e));

    let jobs: Vec<(usize, usize)> = (0..msgs.len())
        .flat_map(|m| (0..k).map(move |s| (m, s)))
        .collect();
    let ss = per_call(log, "core.share_sign", jobs.len(), |i| {
        let (m, s) = jobs[i];
        scheme.share_sign(shares[s], msgs[m])
    });
    let partials: Vec<Vec<PartialSignature>> = msgs
        .iter()
        .map(|m| shares.iter().map(|s| scheme.share_sign(s, m)).collect())
        .collect();
    let sv = per_call(log, "core.share_verify", jobs.len(), |i| {
        let (m, s) = jobs[i];
        let p = &partials[m][s];
        assert!(scheme.share_verify(&km.verification_keys[&p.index], msgs[m], p));
    });
    let cb = per_call(log, "core.combine", msgs.len(), |m| {
        scheme
            .combine(&km.params, &partials[m])
            .expect("t+1 partials")
    });
    let sigs: Vec<Signature> = partials
        .iter()
        .map(|p| scheme.combine(&km.params, p).expect("t+1 partials"))
        .collect();
    let vf = per_call(log, "core.verify", msgs.len(), |m| {
        assert!(scheme.verify(&km.public_key, msgs[m], &sigs[m]));
    });
    let cbv = per_call(log, "core.combine_batch_verified", msgs.len(), |m| {
        scheme
            .combine_batch_verified_prepared(
                &km.params,
                &km.prepared_vks,
                msgs[m],
                &partials[m],
                &mut rng,
            )
            .expect("valid partials combine")
    });
    out.insert("core.share_sign_ms", (ss * 1e3, "ms"));
    out.insert("core.share_verify_ms", (sv * 1e3, "ms"));
    out.insert("core.combine_ms", (cb * 1e3, "ms"));
    out.insert("core.verify_ms", (vf * 1e3, "ms"));
    out.insert("core.combine_batch_verified_ms", (cbv * 1e3, "ms"));
    let sign_min = (k as f64 * ss + cbv + vf) * 1e3;
    out.insert("core.model_sign_min_ms", (sign_min, "ms"));

    // One signing session per transport: the paper-faithful lockstep
    // model, and the same session over loopback sockets.
    let requests: Vec<(u64, Vec<u8>)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| (i as u64, m.to_vec()))
        .collect();
    let signers: Vec<u32> = (1..=inputs.spec.n as u32).collect();
    let coordinator = inputs.spec.n as u32 + 1;
    let session = |log: &mut SpanLog, name: &'static str, kind: &TransportKind| -> f64 {
        per_call(log, name, 1, |_| {
            let (outcome, _) = run_mux_sign(
                scheme,
                km,
                &requests,
                &signers,
                coordinator,
                MAX_IN_FLIGHT,
                kind,
                MUX_ROUNDS,
            )
            .expect("in-process signing session completes");
            assert_eq!(outcome.signatures.len(), requests.len());
        }) / requests.len() as f64
    };
    let lockstep = session(log, "core.mux_lockstep", &TransportKind::Lockstep);
    let reactor = session(
        log,
        "net.mux_reactor",
        &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
    );
    out.insert("core.mux_lockstep_ms_per_sign", (lockstep * 1e3, "ms"));
    out.insert("net.socket_ms_per_sign", ((reactor - lockstep) * 1e3, "ms"));

    // Frame codecs: the mux's Partial and Done, and the client's Verify.
    let mux = [
        MuxMessage::Partial {
            session: 1,
            psig: partials[0][0],
        },
        MuxMessage::Done {
            session: 1,
            sig: sigs[0],
        },
    ];
    let codec = per_call(log, "net.mux_frame_codec", 512, |i| {
        let frame = encode_frame(&mux[i % 2]);
        decode_frame::<MuxMessage>(&frame).expect("own frame decodes")
    });
    out.insert("net.mux_frame_codec_us", (codec * 1e6, "us"));
    let verify = verify_frame(inputs);
    let vd = per_call(log, "net.verify_frame_decode", 64, |_| {
        ClientRequest::decode_exact(&verify).expect("own frame decodes")
    });
    out.insert("net.verify_frame_decode_us", (vd * 1e6, "us"));
}

/// The encoded `ClientRequest::Verify` of the workload's first verify
/// request (the warm-up verify on a workload without any).
fn verify_frame(inputs: &Inputs) -> Vec<u8> {
    let first = inputs.requests.iter().find_map(|r| match &r.payload {
        Payload::Verify {
            authority,
            msg,
            sig,
            ..
        } => Some((r.id, *authority, msg.clone(), *sig)),
        Payload::Sign { .. } => None,
    });
    let extra = inputs.authorities.len() - 1;
    let (id, authority, msg, sig) = first.unwrap_or_else(|| {
        let (msg, sig) = inputs.warmup_verify.clone();
        (WARMUP_VERIFY, extra, msg, sig)
    });
    ClientRequest::Verify {
        id,
        epoch: 0,
        pk: inputs.authorities[authority].clone(),
        msg,
        sig,
    }
    .encode()
}

/// What the gateway replay counted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replay {
    /// Buffers answered.
    pub flushes: u64,
    /// Verdicts given.
    pub verdicts: u64,
    /// Wall time spent in flushing calls, seconds.
    pub flush_s: f64,
    /// Pairings evaluated: `2d + 2` per folded product (`d` = distinct
    /// keys of the flushed buffer, an upper bound for bisection halves)
    /// plus 4 per leaf check.
    pub pairings: u64,
    /// Bisection splits.
    pub bisections: u64,
    /// Verdicts that disagree with the forged set.
    pub wrong: u64,
}

/// Replays the workload's verify traffic (the warm-up verify, then the
/// window's schedule one second later) through an [`AggregationGateway`]
/// on a virtual clock: every arrival and deadline is stamped from the
/// schedule, so the counts repeat exactly.
pub fn replay_gateway(inputs: &Inputs, log: &mut SpanLog) -> Replay {
    let scheme = AggregateScheme::new(inputs.domain.as_bytes());
    let mut gw = AggregationGateway::new(
        scheme,
        GatewayConfig::default(),
        StdRng::seed_from_u64(mix(inputs.dkg_seed ^ 0x6a7e)),
    );
    let extra = inputs.authorities.len() - 1;
    let (wmsg, wsig) = inputs.warmup_verify.clone();
    let mut arrivals = vec![(
        Duration::ZERO,
        VerifyRequest {
            id: WARMUP_VERIFY,
            epoch: 0,
            pk: inputs.authorities[extra].clone(),
            msg: wmsg,
            sig: wsig,
        },
    )];
    let mut truth: BTreeMap<u64, (usize, bool)> = [(WARMUP_VERIFY, (extra, false))].into();
    for r in &inputs.requests {
        if let Payload::Verify {
            authority,
            msg,
            sig,
            forged,
        } = &r.payload
        {
            truth.insert(r.id, (*authority, *forged));
            arrivals.push((
                Duration::from_secs(1) + r.due,
                VerifyRequest {
                    id: r.id,
                    epoch: 0,
                    pk: inputs.authorities[*authority].clone(),
                    msg: msg.clone(),
                    sig: *sig,
                },
            ));
        }
    }

    let base = Instant::now();
    let mut rep = Replay::default();
    let mut call =
        |gw: &mut AggregationGateway<StdRng>,
         log: &mut SpanLog,
         f: &mut dyn FnMut(&mut AggregationGateway<StdRng>) -> Vec<Verdict>| {
            let before = *gw.stats();
            let t0 = Instant::now();
            let verdicts = log.span("core.gateway_call", |_| f(gw));
            if verdicts.is_empty() {
                return;
            }
            rep.flush_s += t0.elapsed().as_secs_f64();
            rep.flushes += 1;
            rep.verdicts += verdicts.len() as u64;
            let keys: BTreeSet<usize> = verdicts.iter().map(|v| truth[&v.id].0).collect();
            let after = gw.stats();
            rep.pairings += (after.multi_pairings - before.multi_pairings)
                * (2 * keys.len() as u64 + 2)
                + 4 * (after.leaf_checks - before.leaf_checks);
            rep.wrong += verdicts
                .iter()
                .filter(|v| v.valid == truth[&v.id].1)
                .count() as u64;
        };
    for (offset, req) in arrivals {
        let at = base + offset;
        while let Some(due) = gw.next_deadline().filter(|d| *d <= at) {
            call(&mut gw, log, &mut |gw| gw.poll_at(due));
        }
        let mut req = Some(req);
        call(&mut gw, log, &mut |gw| {
            gw.submit_at(req.take().expect("submitted once"), at)
        });
    }
    while let Some(due) = gw.next_deadline() {
        call(&mut gw, log, &mut |gw| gw.poll_at(due));
    }
    rep.bisections = gw.stats().bisections;
    rep
}

/// Every per-layer metric of a traced run.
pub fn per_layer(
    inputs: &Inputs,
    reference: &Reference,
    obs: &Observed,
    cpu_ms_per_op: f64,
    setup_s: f64,
    log: &mut SpanLog,
) -> Result<Table, String> {
    let mut out = Table::new();
    let spec = &inputs.spec;

    log.span("rungs.pairing", |log| {
        pairing(inputs, reference, log, &mut out)
    });
    log.span("rungs.shamir", |log| {
        shamir(inputs, reference, log, &mut out)
    });
    log.span("rungs.core", |log| {
        core_and_net(inputs, reference, log, &mut out)
    });

    let reactor = log.span("dkg.session_reactor", |_| {
        let t0 = Instant::now();
        let (km, _) = reference
            .scheme
            .keygen_session(
                spec.params(),
                &BTreeMap::new(),
                inputs.dkg_seed,
                &TransportKind::TcpReactor(DeliveryPolicy::reliable()),
            )
            .map_err(|e| format!("reactor DKG: {}", e))?;
        if km.public_key != reference.km.public_key {
            return Err("reactor DKG key differs from the lockstep reference".to_string());
        }
        Ok(t0.elapsed())
    })?;
    out.insert(
        "dkg.session_lockstep_ms",
        (reference.elapsed.as_secs_f64() * 1e3, "ms"),
    );
    out.insert(
        "dkg.session_reactor_ms",
        (reactor.as_secs_f64() * 1e3, "ms"),
    );
    out.insert(
        "service.setup_residual_s",
        (setup_s - reactor.as_secs_f64(), "s"),
    );

    let rep = log.span("rungs.gateway_replay", |log| replay_gateway(inputs, log));
    if rep.wrong > 0 {
        return Err(format!("gateway replay gave {} wrong verdicts", rep.wrong));
    }
    let per = |a: f64, b: u64| a / b.max(1) as f64;
    out.insert(
        "core.gateway_flush_ms",
        (per(rep.flush_s * 1e3, rep.flushes), "ms"),
    );
    out.insert(
        "core.gateway_verdicts_per_flush",
        (per(rep.verdicts as f64, rep.flushes), "1"),
    );
    out.insert(
        "core.gateway_pairings_per_verdict",
        (per(rep.pairings as f64, rep.verdicts), "1"),
    );
    out.insert("core.gateway_bisections", (rep.bisections as f64, "count"));

    // The op-count model: the minimum CPU of the workload's request class.
    let verify_min = per(rep.flush_s * 1e3, rep.verdicts);
    let model = match spec.class {
        Class::Sign => out["core.model_sign_min_ms"].0,
        Class::Verify => verify_min,
    };
    out.insert("core.model_verify_min_ms", (verify_min, "ms"));
    out.insert("core.model_op_min_ms", (model, "ms"));
    out.insert("core.model_sign_residual_ms", (cpu_ms_per_op - model, "ms"));

    // Deployment-side counters from the audit Summary.
    let answered = (obs.ledger.answered_count(Class::Sign)
        + obs.ledger.answered_count(Class::Verify))
    .max(1) as f64;
    let summaries = &obs.summaries;
    let dkg = summaries
        .last()
        .map(|s| (s.dkg.messages as f64, s.dkg.bytes as f64));
    out.insert("dkg.msgs", (dkg.map_or(0.0, |d| d.0), "count"));
    out.insert("dkg.bytes", (dkg.map_or(0.0, |d| d.1), "bytes"));
    let frames: f64 = summaries
        .iter()
        .map(|s| (s.transport.frames_in + s.transport.frames_out) as f64)
        .sum();
    let lifetime: f64 = summaries.iter().map(|s| s.lifetime.as_secs_f64()).sum();
    out.insert("net.frames_per_op", (frames / answered, "count"));
    out.insert("net.frames_per_s", (frames / lifetime.max(1e-9), "1/s"));
    let high_water = summaries
        .iter()
        .map(|s| s.transport.connections_high_water)
        .max();
    out.insert(
        "net.connections_high_water",
        (high_water.unwrap_or(0) as f64, "count"),
    );
    Ok(out)
}
