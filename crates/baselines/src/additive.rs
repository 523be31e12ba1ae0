//! A Rabin / Almansa–Damgård–Nielsen-style **additive-reshare** threshold
//! scheme — the interaction/storage shape the paper improves on.
//!
//! The secret key is split additively, `x = Σ_i d_i`, and each additive
//! piece `d_i` is *backed up* with a `(t, n)` Feldman-verified Shamir
//! sharing whose share `d_i(j)` is stored by every other player `j`.
//! Consequences the paper calls out (§1):
//!
//! * **Θ(n) storage per player** — each player keeps its own `d_i` plus
//!   one backup share of every other player's piece (experiment E4);
//! * **signing needs a second round on any fault** — if player `i` fails
//!   to contribute `H(M)^{d_i}`, the others must run a reconstruction
//!   round, interpolating `H(M)^{d_i}` from backup shares in the exponent
//!   (experiment E3). The paper's scheme has neither problem.
//!
//! The paper's actual references (Rabin \[63\], Almansa et al. \[4\]) are RSA-based; we instantiate
//! the identical protocol skeleton over our pairing group so that every
//! scheme in the benchmark suite shares a substrate (see DESIGN.md,
//! "Substitutions").

use borndist_pairing::{hash_to_g1, msm, multi_pairing, Fr, G1Affine, G2Affine, G2Projective};
use borndist_shamir::{
    lagrange_coefficients_at_zero, FeldmanCommitment, Polynomial, ThresholdParams,
};
use rand::RngCore;
use std::collections::BTreeMap;

/// Domain tag for the message hash.
const DST: &[u8] = b"borndist/additive";

/// Public key `pk = ĝ^x` with `x = Σ d_i`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddPublicKey(pub G2Affine);

/// The full per-player state — note the `backups` map growing with `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddPlayerState {
    /// This player's index.
    pub index: u32,
    /// Own additive piece `d_index`.
    pub own_piece: Fr,
    /// Backup shares `d_j(index)` for every player `j` — Θ(n) scalars.
    pub backups: BTreeMap<u32, Fr>,
}

impl AddPlayerState {
    /// Bytes of secret storage this player carries: its own piece plus
    /// one backup share per player (32-byte scalars). Linear in `n` — the
    /// measured half of experiment E4.
    pub fn storage_bytes(&self) -> usize {
        32 + 32 * self.backups.len()
    }
}

/// A round-1 contribution `H(M)^{d_i}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddContribution {
    /// Contributing player.
    pub index: u32,
    /// `H(M)^{d_i}`.
    pub value: G1Affine,
}

/// A round-2 reconstruction share `H(M)^{d_i(j)}` for a missing player
/// `i`, produced by backup holder `j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackupContribution {
    /// The missing player whose piece is being reconstructed.
    pub missing: u32,
    /// The backup holder.
    pub holder: u32,
    /// `H(M)^{d_missing(holder)}`.
    pub value: G1Affine,
}

/// Key material: public key, per-player states, public verification data.
#[derive(Clone, Debug)]
pub struct AddKeyMaterial {
    /// Threshold parameters.
    pub params: ThresholdParams,
    /// Public key.
    pub public_key: AddPublicKey,
    /// Per-player state (simulation only).
    pub players: BTreeMap<u32, AddPlayerState>,
    /// Feldman commitments to each player's backup polynomial (public).
    pub commitments: BTreeMap<u32, FeldmanCommitment<borndist_pairing::G2Params>>,
    /// Public `ĝ^{d_i}` per player (to verify round-1 contributions).
    pub piece_keys: BTreeMap<u32, G2Affine>,
}

/// Full signature `σ = H(M)^x`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddSignature(pub G1Affine);

/// Key generation: each player picks `d_i` and backs it up with a
/// `(t, n)` Feldman-verified sharing distributed to all players.
pub fn keygen<R: RngCore + ?Sized>(params: ThresholdParams, rng: &mut R) -> AddKeyMaterial {
    let g = G2Projective::generator();
    let mut players: BTreeMap<u32, AddPlayerState> = (1..=params.n as u32)
        .map(|i| {
            (
                i,
                AddPlayerState {
                    index: i,
                    own_piece: Fr::zero(),
                    backups: BTreeMap::new(),
                },
            )
        })
        .collect();
    let mut commitments = BTreeMap::new();
    let mut piece_keys = BTreeMap::new();
    let mut secret = Fr::zero();
    for i in 1..=params.n as u32 {
        let d_i = Fr::random(rng);
        secret += d_i;
        let poly = Polynomial::random_with_constant(d_i, params.t, rng);
        let com = FeldmanCommitment::commit(&poly, &g);
        for j in 1..=params.n as u32 {
            let share = poly.evaluate_at_index(j);
            debug_assert!(com.verify_share(j, share, &g));
            players.get_mut(&j).unwrap().backups.insert(i, share);
        }
        players.get_mut(&i).unwrap().own_piece = d_i;
        piece_keys.insert(i, g.mul(&d_i).to_affine());
        commitments.insert(i, com);
    }
    AddKeyMaterial {
        params,
        public_key: AddPublicKey(g.mul(&secret).to_affine()),
        players,
        commitments,
        piece_keys,
    }
}

/// Round 1: an available player contributes `H(M)^{d_i}`.
pub fn contribute(state: &AddPlayerState, msg: &[u8]) -> AddContribution {
    AddContribution {
        index: state.index,
        value: (hash_to_g1(DST, msg) * state.own_piece).to_affine(),
    }
}

/// Verifies a round-1 contribution against the public `ĝ^{d_i}`.
pub fn contribution_valid(km: &AddKeyMaterial, msg: &[u8], c: &AddContribution) -> bool {
    let Some(pk_i) = km.piece_keys.get(&c.index) else {
        return false;
    };
    let h = hash_to_g1(DST, msg).to_affine();
    let neg = c.value.neg();
    let g2 = G2Affine::generator();
    multi_pairing(&[(&neg, &g2), (&h, pk_i)]).is_identity()
}

/// Round 2 (only on faults): backup holder `j` emits `H(M)^{d_i(j)}` for
/// the missing player `i`.
pub fn backup_contribute(
    state: &AddPlayerState,
    missing: u32,
    msg: &[u8],
) -> Option<BackupContribution> {
    let share = state.backups.get(&missing)?;
    Some(BackupContribution {
        missing,
        holder: state.index,
        value: (hash_to_g1(DST, msg) * *share).to_affine(),
    })
}

/// Reconstructs a missing player's contribution from `t+1` backup
/// contributions by Lagrange interpolation in the exponent.
///
/// Returns `None` on insufficient or inconsistent input.
pub fn reconstruct_missing(
    params: &ThresholdParams,
    backups: &[BackupContribution],
) -> Option<AddContribution> {
    if backups.len() < params.reconstruction_size() {
        return None;
    }
    let missing = backups[0].missing;
    if backups.iter().any(|b| b.missing != missing) {
        return None;
    }
    let indices: Vec<u32> = backups.iter().map(|b| b.holder).collect();
    let coeffs = lagrange_coefficients_at_zero(&indices).ok()?;
    let bases: Vec<G1Affine> = backups.iter().map(|b| b.value).collect();
    Some(AddContribution {
        index: missing,
        value: msm(&bases, &coeffs).to_affine(),
    })
}

/// Combines a complete set of `n` contributions into the signature
/// `σ = Π H^{d_i} = H^x`.
///
/// Returns `None` unless exactly one contribution per player is present.
pub fn combine(km: &AddKeyMaterial, contributions: &[AddContribution]) -> Option<AddSignature> {
    let mut seen: BTreeMap<u32, G1Affine> = BTreeMap::new();
    for c in contributions {
        if seen.insert(c.index, c.value).is_some() {
            return None;
        }
    }
    if seen.len() != km.params.n {
        return None;
    }
    let ones = vec![Fr::one(); seen.len()];
    let bases: Vec<G1Affine> = seen.values().copied().collect();
    Some(AddSignature(msm(&bases, &ones).to_affine()))
}

/// Verifies the combined signature.
pub fn verify(pk: &AddPublicKey, msg: &[u8], sig: &AddSignature) -> bool {
    let h = hash_to_g1(DST, msg).to_affine();
    let neg = sig.0.neg();
    let g2 = G2Affine::generator();
    multi_pairing(&[(&neg, &g2), (&h, &pk.0)]).is_identity()
}

/// Number of signing rounds given the set of absent players: the paper's
/// E3 comparison in one function. Zero absences: 1 round; any absence:
/// 2 rounds (reconstruction).
pub fn signing_rounds(absent: usize) -> usize {
    if absent == 0 {
        1
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(t: usize, n: usize) -> AddKeyMaterial {
        let mut r = StdRng::seed_from_u64(0xadd);
        keygen(ThresholdParams::new(t, n).unwrap(), &mut r)
    }

    #[test]
    fn all_present_single_round() {
        let km = setup(1, 4);
        let msg = b"everyone showed up";
        let contributions: Vec<AddContribution> =
            km.players.values().map(|p| contribute(p, msg)).collect();
        for c in &contributions {
            assert!(contribution_valid(&km, msg, c));
        }
        let sig = combine(&km, &contributions).unwrap();
        assert!(verify(&km.public_key, msg, &sig));
        assert_eq!(signing_rounds(0), 1);
    }

    #[test]
    fn missing_player_needs_reconstruction_round() {
        let km = setup(1, 4);
        let msg = b"player 3 crashed";
        // Round 1: players 1, 2, 4 contribute.
        let mut contributions: Vec<AddContribution> = [1u32, 2, 4]
            .iter()
            .map(|i| contribute(&km.players[i], msg))
            .collect();
        assert!(combine(&km, &contributions).is_none(), "incomplete set");
        // Round 2: reconstruct player 3's contribution from backups.
        let backups: Vec<BackupContribution> = [1u32, 2]
            .iter()
            .map(|j| backup_contribute(&km.players[j], 3, msg).unwrap())
            .collect();
        let rec = reconstruct_missing(&km.params, &backups).unwrap();
        assert!(contribution_valid(&km, msg, &rec));
        contributions.push(rec);
        let sig = combine(&km, &contributions).unwrap();
        assert!(verify(&km.public_key, msg, &sig));
        assert_eq!(signing_rounds(1), 2);
    }

    #[test]
    fn reconstruction_needs_threshold_backups() {
        let km = setup(2, 5);
        let msg = b"m";
        let backups: Vec<BackupContribution> = [1u32, 2]
            .iter()
            .map(|j| backup_contribute(&km.players[j], 4, msg).unwrap())
            .collect();
        assert!(reconstruct_missing(&km.params, &backups).is_none());
    }

    #[test]
    fn storage_grows_linearly() {
        for n in [4usize, 8, 16] {
            let km = setup(1, n);
            let bytes = km.players[&1].storage_bytes();
            assert_eq!(bytes, 32 + 32 * n);
        }
    }

    #[test]
    fn bad_contribution_detected() {
        let km = setup(1, 4);
        let msg = b"m";
        let mut c = contribute(&km.players[&2], msg);
        c.value = c.value.neg();
        assert!(!contribution_valid(&km, msg, &c));
    }

    #[test]
    fn duplicate_contributions_rejected() {
        let km = setup(1, 4);
        let msg = b"dup";
        let mut contributions: Vec<AddContribution> =
            km.players.values().map(|p| contribute(p, msg)).collect();
        contributions.push(contributions[0]);
        assert!(combine(&km, &contributions).is_none());
    }
}
