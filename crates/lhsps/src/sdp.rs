//! The SDP-based one-time LHSPS with three-element signatures and two
//! verification equations — the primitive behind the DLIN-based threshold
//! scheme of Appendix F.
//!
//! Keys carry three exponent vectors `(χ_k, γ_k, δ_k)`; the public key is
//! `{ĝ_k = ĝ_z^{χ_k} ĝ_r^{γ_k}, ĥ_k = ĥ_z^{χ_k} ĥ_u^{δ_k}}` and a
//! signature on `M⃗` is `(z, r, u) = (Π M_k^{-χ_k}, Π M_k^{-γ_k},
//! Π M_k^{-δ_k})`, checked by the two simultaneous pairing equations.

use crate::params::SdpParams;
use borndist_pairing::{msm, multi_pairing, Fr, G1Affine, G1Projective, G2Affine, G2Projective};
use rand::RngCore;

/// Secret key `{(χ_k, γ_k, δ_k)}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SdpSecretKey {
    /// Exponents `χ_k`.
    pub chi: Vec<Fr>,
    /// Exponents `γ_k`.
    pub gamma: Vec<Fr>,
    /// Exponents `δ_k`.
    pub delta: Vec<Fr>,
}

/// Public key `{(ĝ_k, ĥ_k)}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SdpPublicKey {
    /// `ĝ_k = ĝ_z^{χ_k} ĝ_r^{γ_k}`.
    pub g_hat: Vec<G2Affine>,
    /// `ĥ_k = ĥ_z^{χ_k} ĥ_u^{δ_k}`.
    pub h_hat: Vec<G2Affine>,
}

/// Signature `(z, r, u) ∈ G³`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SdpSignature {
    /// `z` component.
    pub z: G1Affine,
    /// `r` component.
    pub r: G1Affine,
    /// `u` component.
    pub u: G1Affine,
}

impl SdpSecretKey {
    /// Samples a secret key for dimension-`n` message vectors.
    pub fn random<R: RngCore + ?Sized>(n: usize, rng: &mut R) -> Self {
        SdpSecretKey {
            chi: (0..n).map(|_| Fr::random(rng)).collect(),
            gamma: (0..n).map(|_| Fr::random(rng)).collect(),
            delta: (0..n).map(|_| Fr::random(rng)).collect(),
        }
    }

    /// The message dimension.
    pub fn dimension(&self) -> usize {
        self.chi.len()
    }

    /// Derives the matching public key.
    pub fn public_key(&self, params: &SdpParams) -> SdpPublicKey {
        let g_pts: Vec<G2Projective> = self
            .chi
            .iter()
            .zip(self.gamma.iter())
            .map(|(c, g)| msm(&[params.g_z, params.g_r], &[*c, *g]))
            .collect();
        let h_pts: Vec<G2Projective> = self
            .chi
            .iter()
            .zip(self.delta.iter())
            .map(|(c, d)| msm(&[params.h_z, params.h_u], &[*c, *d]))
            .collect();
        SdpPublicKey {
            g_hat: G2Projective::batch_to_affine(&g_pts),
            h_hat: G2Projective::batch_to_affine(&h_pts),
        }
    }

    /// Key homomorphism: componentwise sum.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.dimension(), other.dimension(), "dimension mismatch");
        let sum = |a: &[Fr], b: &[Fr]| a.iter().zip(b.iter()).map(|(x, y)| *x + *y).collect();
        SdpSecretKey {
            chi: sum(&self.chi, &other.chi),
            gamma: sum(&self.gamma, &other.gamma),
            delta: sum(&self.delta, &other.delta),
        }
    }

    /// Deterministic signing: `(Π M_k^{-χ_k}, Π M_k^{-γ_k}, Π M_k^{-δ_k})`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn sign(&self, msg: &[G1Projective]) -> SdpSignature {
        assert_eq!(msg.len(), self.dimension(), "message dimension mismatch");
        let bases = G1Projective::batch_to_affine(msg);
        let neg = |v: &[Fr]| v.iter().map(|x| -*x).collect::<Vec<_>>();
        SdpSignature {
            z: msm(&bases, &neg(&self.chi)).to_affine(),
            r: msm(&bases, &neg(&self.gamma)).to_affine(),
            u: msm(&bases, &neg(&self.delta)).to_affine(),
        }
    }
}

impl SdpPublicKey {
    /// The message dimension.
    pub fn dimension(&self) -> usize {
        self.g_hat.len()
    }

    /// Key homomorphism on the public side.
    pub fn combine(&self, other: &Self) -> Self {
        assert_eq!(self.dimension(), other.dimension(), "dimension mismatch");
        let comb = |a: &[G2Affine], b: &[G2Affine]| {
            let pts: Vec<G2Projective> = a
                .iter()
                .zip(b.iter())
                .map(|(x, y)| x.to_projective().add_affine(y))
                .collect();
            G2Projective::batch_to_affine(&pts)
        };
        SdpPublicKey {
            g_hat: comb(&self.g_hat, &other.g_hat),
            h_hat: comb(&self.h_hat, &other.h_hat),
        }
    }

    /// Verifies both simultaneous pairing equations.
    pub fn verify(&self, params: &SdpParams, msg: &[G1Projective], sig: &SdpSignature) -> bool {
        if msg.len() != self.dimension() {
            return false;
        }
        if msg.iter().all(|m| m.is_identity()) {
            return false;
        }
        let msg_affine = G1Projective::batch_to_affine(msg);
        let mut eq1: Vec<(&G1Affine, &G2Affine)> =
            vec![(&sig.z, &params.g_z), (&sig.r, &params.g_r)];
        for (m, g) in msg_affine.iter().zip(self.g_hat.iter()) {
            eq1.push((m, g));
        }
        if !multi_pairing(&eq1).is_identity() {
            return false;
        }
        let mut eq2: Vec<(&G1Affine, &G2Affine)> =
            vec![(&sig.z, &params.h_z), (&sig.u, &params.h_u)];
        for (m, h) in msg_affine.iter().zip(self.h_hat.iter()) {
            eq2.push((m, h));
        }
        multi_pairing(&eq2).is_identity()
    }
}

/// Public linear derivation of signatures.
pub fn sign_derive(weighted: &[(Fr, &SdpSignature)]) -> SdpSignature {
    let ws: Vec<Fr> = weighted.iter().map(|(w, _)| *w).collect();
    let zs: Vec<G1Affine> = weighted.iter().map(|(_, s)| s.z).collect();
    let rs: Vec<G1Affine> = weighted.iter().map(|(_, s)| s.r).collect();
    let us: Vec<G1Affine> = weighted.iter().map(|(_, s)| s.u).collect();
    SdpSignature {
        z: msm(&zs, &ws).to_affine(),
        r: msm(&rs, &ws).to_affine(),
        u: msm(&us, &ws).to_affine(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5d9)
    }

    fn setup(r: &mut StdRng, n: usize) -> (SdpParams, SdpSecretKey, SdpPublicKey) {
        let params = SdpParams::random(r);
        let sk = SdpSecretKey::random(n, r);
        let pk = sk.public_key(&params);
        (params, sk, pk)
    }

    fn random_msg(r: &mut StdRng, n: usize) -> Vec<G1Projective> {
        (0..n).map(|_| G1Projective::random(r)).collect()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 3);
        let msg = random_msg(&mut r, 3);
        assert!(pk.verify(&params, &msg, &sk.sign(&msg)));
    }

    #[test]
    fn second_equation_actually_checked() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let msg = random_msg(&mut r, 2);
        let mut sig = sk.sign(&msg);
        // Corrupt only `u`: the first equation still passes, the second
        // must catch it.
        sig.u = G1Projective::random(&mut r).to_affine();
        assert!(!pk.verify(&params, &msg, &sig));
    }

    #[test]
    fn linear_and_key_homomorphism() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let m1 = random_msg(&mut r, 2);
        let m2 = random_msg(&mut r, 2);
        let (w1, w2) = (Fr::random(&mut r), Fr::random(&mut r));
        let derived = sign_derive(&[(w1, &sk.sign(&m1)), (w2, &sk.sign(&m2))]);
        let combined: Vec<G1Projective> = m1
            .iter()
            .zip(m2.iter())
            .map(|(a, b)| a.mul(&w1) + b.mul(&w2))
            .collect();
        assert!(pk.verify(&params, &combined, &derived));

        let sk2 = SdpSecretKey::random(2, &mut r);
        let sum = sk.add(&sk2);
        assert_eq!(
            sum.public_key(&params),
            pk.combine(&sk2.public_key(&params))
        );
        assert!(sum.public_key(&params).verify(&params, &m1, &sum.sign(&m1)));
    }

    #[test]
    fn rejects_identity_vector_and_bad_dims() {
        let mut r = rng();
        let (params, sk, pk) = setup(&mut r, 2);
        let id_msg = vec![G1Projective::identity(); 2];
        assert!(!pk.verify(&params, &id_msg, &sk.sign(&id_msg)));
        let msg = random_msg(&mut r, 2);
        let sig = sk.sign(&msg);
        assert!(!pk.verify(&params, &msg[..1], &sig));
    }
}
