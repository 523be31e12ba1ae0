//! The workloads and their seeded inputs.
//!
//! The seed is the benchmark's; the daemon receives only what is
//! generated here (DKG seed, domain tag, messages, verify requests).

use crate::stats::Class;
use borndist_core::aggregate::{AggPublicKey, AggregateScheme};
use borndist_core::ro::{KeyMaterial, KeyShare, Signature};
use borndist_pairing::Fr;
use borndist_shamir::{lagrange_coefficients_at_zero, ThresholdParams};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Duration;

/// The front-end's `--max-in-flight` (signing sessions in flight), and
/// the window of the in-process signing sessions of the traced run.
pub const MAX_IN_FLIGHT: usize = 8;

/// Distinct aggregate authorities whose signatures the verify traffic
/// carries.
pub const AUTHORITIES: usize = 16;

/// How requests are offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// `callers` callers, each keeping one request outstanding.
    Closed { callers: usize },
    /// A fixed schedule: `burst` requests due together every `period`.
    Open { burst: usize, period: Duration },
}

/// One workload: deployment shape, traffic shape and request count.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Players.
    pub n: usize,
    /// Threshold (t+1 signers needed).
    pub t: usize,
    /// Requests in the measured window (fixed, so every percentile keeps
    /// its sample count when the program's speed changes).
    pub requests: usize,
    /// What every request of the window asks.
    pub class: Class,
    /// Arrival process.
    pub arrival: Arrival,
}

/// One verify request in every `FORGE_EVERY` carries a forged signature,
/// at a seeded position within each stratum, so every seed forges the
/// same share, spread evenly over the window. A multiple of `verify-n4`'s
/// burst: never two forgeries in one burst.
pub const FORGE_EVERY: usize = 48;

/// Every workload the benchmark knows.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "sign-n4",
        n: 4,
        t: 1,
        requests: 1000,
        class: Class::Sign,
        arrival: Arrival::Closed { callers: 8 },
    },
    Spec {
        name: "verify-n4",
        n: 4,
        t: 1,
        requests: 1536,
        class: Class::Verify,
        arrival: Arrival::Open {
            burst: 8,
            period: Duration::from_millis(160),
        },
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Threshold parameters of the deployment.
    pub fn params(&self) -> ThresholdParams {
        ThresholdParams::new(self.t, self.n).expect("workload (t, n) valid")
    }
}

/// What one request asks.
// `Verify` carries a signature inline; plans are built once per run, so
// the size difference costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Payload {
    /// Threshold-sign `msg`.
    Sign { msg: Vec<u8> },
    /// Verify `sig` over `msg` under authority `authority`; `forged`
    /// requests carry a valid signature over a different message.
    Verify {
        authority: usize,
        msg: Vec<u8>,
        sig: Signature,
        forged: bool,
    },
}

/// One request of the measured window.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client request id (unique in the run).
    pub id: u64,
    /// Due offset from the window start (open loop); closed-loop
    /// requests become due when a caller frees up.
    pub due: Duration,
    /// What is asked.
    pub payload: Payload,
}

/// Everything generated from the seed.
pub struct Inputs {
    /// The workload.
    pub spec: Spec,
    /// DKG seed handed to every deployment process.
    pub dkg_seed: u64,
    /// Hash-domain tag handed to every deployment process.
    pub domain: String,
    /// The measured window's requests, in send order.
    pub requests: Vec<Request>,
    /// Aggregate authorities of the verify traffic (public halves), plus
    /// one extra authority used only by the warm-up verify, last.
    pub authorities: Vec<AggPublicKey>,
    /// The warm-up `Sign` message.
    pub warmup_msg: Vec<u8>,
    /// The warm-up `Verify`: message and valid signature under the extra
    /// authority.
    pub warmup_verify: (Vec<u8>, Signature),
}

/// SplitMix64 step: decorrelates derived seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// An authority's whole signing key: its first t+1 shares folded with
/// their Lagrange coefficients at zero into one key share. One partial
/// signature under it is exactly the signature `combine` builds from
/// t+1 partials, at the cost of one.
pub fn master_share(km: &KeyMaterial) -> KeyShare {
    let shares: Vec<&KeyShare> = km
        .shares
        .values()
        .take(km.params.reconstruction_size())
        .collect();
    let indices: Vec<u32> = shares.iter().map(|s| s.index).collect();
    let coeffs = lagrange_coefficients_at_zero(&indices).expect("distinct share indices");
    let mut sk = shares[0].sk.clone();
    for k in 0..sk.chi.len() {
        sk.chi[k] = Fr::zero();
        sk.gamma[k] = Fr::zero();
        for (share, c) in shares.iter().zip(&coeffs) {
            sk.chi[k] += share.sk.chi[k] * *c;
            sk.gamma[k] += share.sk.gamma[k] * *c;
        }
    }
    KeyShare { index: 0, sk }
}

/// Signs `msg` as the authority `pk` with its [`master_share`].
pub fn agg_sign(
    scheme: &AggregateScheme,
    pk: &AggPublicKey,
    master: &KeyShare,
    msg: &[u8],
) -> Signature {
    Signature {
        sig: scheme.share_sign(pk, master, msg).sig,
    }
}

/// A planned request, before its signature is made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Planned {
    /// Client request id.
    pub id: u64,
    /// Due offset from the window start.
    pub due: Duration,
    /// `Some((authority, forged))` for a verify request.
    pub verify: Option<(usize, bool)>,
    /// The message.
    pub msg: Vec<u8>,
}

/// The request plan without signatures: ids, due times, classes,
/// messages, authorities and the forged set. Deterministic in `seed`.
pub fn plan(spec: &Spec, seed: u64) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5c4e_d01e));
    let mut out = Vec::with_capacity(spec.requests);
    let mut forge_slot = 0;
    for i in 0..spec.requests {
        let due = match spec.arrival {
            Arrival::Closed { .. } => Duration::ZERO,
            Arrival::Open { burst, period } => period * (i / burst) as u32,
        };
        let msg = bytes(&mut rng, 48);
        let verify = (spec.class == Class::Verify).then(|| {
            let authority = (rng.next_u64() % AUTHORITIES as u64) as usize;
            if i % FORGE_EVERY == 0 {
                forge_slot = (rng.next_u64() % FORGE_EVERY as u64) as usize;
            }
            (authority, i % FORGE_EVERY == forge_slot)
        });
        out.push(Planned {
            id: i as u64,
            due,
            verify,
            msg,
        });
    }
    out
}

/// Generates every input of `spec` from `seed`. Signing the verify
/// traffic is the expensive part; it runs on `threads` threads.
pub fn generate(spec: Spec, seed: u64, threads: usize) -> Inputs {
    let dkg_seed = mix(seed ^ 0xd6_5eed);
    let domain = format!("daemonbench/{}/{:016x}", spec.name, mix(seed));
    let scheme = AggregateScheme::new(domain.as_bytes());
    let mut key_rng = StdRng::seed_from_u64(mix(seed ^ 0xa117));
    let agg_params = ThresholdParams::new(1, 4).expect("1-of-4 valid");
    let (authorities, authority_keys): (Vec<_>, Vec<_>) = (0..=AUTHORITIES)
        .map(|_| {
            let (pk, km) = scheme.dealer_keygen(agg_params, &mut key_rng);
            (pk, master_share(&km))
        })
        .unzip();

    let plan = plan(&spec, seed);
    let threads = threads.max(1);
    let chunk = plan.len().div_ceil(threads).max(1);
    let requests: Vec<Request> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .chunks(chunk)
            .map(|part| {
                let (scheme, authorities, keys) = (&scheme, &authorities, &authority_keys);
                s.spawn(move || {
                    part.iter()
                        .map(
                            |Planned {
                                 id,
                                 due,
                                 verify,
                                 msg,
                             }| {
                                let payload = match *verify {
                                    None => Payload::Sign { msg: msg.clone() },
                                    Some((a, forged)) => {
                                        // A forgery is a valid signature over
                                        // a different message.
                                        let mut signed = msg.clone();
                                        if forged {
                                            signed[0] ^= 0xff;
                                        }
                                        let sig =
                                            agg_sign(scheme, &authorities[a], &keys[a], &signed);
                                        Payload::Verify {
                                            authority: a,
                                            msg: msg.clone(),
                                            sig,
                                            forged,
                                        }
                                    }
                                };
                                Request {
                                    id: *id,
                                    due: *due,
                                    payload,
                                }
                            },
                        )
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("input generator thread panicked"))
            .collect()
    });

    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x3a2e));
    let warmup_msg = bytes(&mut rng, 48);
    let wmsg = bytes(&mut rng, 48);
    let extra = AUTHORITIES;
    let wsig = agg_sign(&scheme, &authorities[extra], &authority_keys[extra], &wmsg);
    Inputs {
        spec,
        dkg_seed,
        domain,
        requests,
        authorities,
        warmup_msg,
        warmup_verify: (wmsg, wsig),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_in_the_seed() {
        for spec in SPECS {
            let a = plan(&spec, 11);
            assert_eq!(a.len(), spec.requests);
            assert_eq!(a, plan(&spec, 11), "{}", spec.name);
            let b = plan(&spec, 12);
            assert_ne!(
                a.iter().map(|r| &r.msg).collect::<Vec<_>>(),
                b.iter().map(|r| &r.msg).collect::<Vec<_>>(),
                "{}: another seed gives other messages",
                spec.name
            );
        }
    }

    #[test]
    fn plan_keeps_rate_and_forgery_share() {
        let verify = spec("verify-n4").unwrap();
        let p = plan(&verify, 3);
        assert!(p.iter().all(|r| r.verify.is_some()));
        // 8 due together every 160 ms: 50 requests per second.
        assert_eq!(p[7].due, Duration::ZERO);
        assert_eq!(p[8].due, Duration::from_millis(160));
        // One forgery in every 48 verifies (one per six bursts): about 2%,
        // the same for every seed.
        for stratum in p.chunks(48).filter(|c| c.len() == 48) {
            assert_eq!(stratum.iter().filter(|r| r.verify.unwrap().1).count(), 1);
        }

        let sign = spec("sign-n4").unwrap();
        assert!(plan(&sign, 3).iter().all(|r| r.verify.is_none()));
    }

    #[test]
    fn master_share_signs_like_combined_partials() {
        let scheme = AggregateScheme::new(b"daemonbench/test");
        let mut rng = StdRng::seed_from_u64(9);
        let (pk, km) = scheme.dealer_keygen(ThresholdParams::new(1, 4).unwrap(), &mut rng);
        let msg = b"one message";
        let partials: Vec<_> = km
            .shares
            .values()
            .skip(2)
            .map(|share| scheme.share_sign(&pk, share, msg))
            .collect();
        let combined = scheme.combine(&km.params, &partials).unwrap();
        let direct = agg_sign(&scheme, &pk, &master_share(&km), msg);
        assert_eq!(direct, combined);
        assert!(scheme.verify(&pk, msg, &direct));
        assert!(!scheme.verify(&pk, b"another message", &direct));
    }

    #[test]
    fn messages_are_distinct() {
        for spec in SPECS {
            let p = plan(&spec, 5);
            let set: std::collections::BTreeSet<_> = p.iter().map(|r| r.msg.clone()).collect();
            assert_eq!(set.len(), p.len(), "{}", spec.name);
        }
    }
}
