//! Plain (single-signer) Boneh–Lynn–Shacham signatures — the primitive
//! underlying the Boldyreva baseline, and the shortest-signature
//! single-signer reference point for the size table (E1).

use borndist_pairing::{hash_to_g1, multi_pairing, Fr, G1Affine, G2Affine, G2Projective};
use rand::RngCore;

/// A BLS key pair: `sk = x ∈ Zp`, `pk = ĝ^x ∈ Ĝ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlsKeyPair {
    /// Secret exponent.
    pub sk: Fr,
    /// Public key.
    pub pk: G2Affine,
}

/// A BLS signature `σ = H(M)^x ∈ G`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlsSignature(pub G1Affine);

/// Domain tag for the BLS message hash.
const DST: &[u8] = b"borndist/baseline-bls";

impl BlsKeyPair {
    /// Samples a key pair.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let sk = Fr::random_nonzero(rng);
        BlsKeyPair {
            sk,
            pk: (G2Projective::generator() * sk).to_affine(),
        }
    }

    /// Signs a message: one hash-on-curve plus one exponentiation.
    pub fn sign(&self, msg: &[u8]) -> BlsSignature {
        BlsSignature((hash_to_g1(DST, msg) * self.sk).to_affine())
    }
}

/// Verifies `e(σ, ĝ) = e(H(M), pk)` (as a 2-pairing product).
pub fn bls_verify(pk: &G2Affine, msg: &[u8], sig: &BlsSignature) -> bool {
    let h = hash_to_g1(DST, msg).to_affine();
    let neg_sig = sig.0.neg();
    let g2 = G2Affine::generator();
    multi_pairing(&[(&neg_sig, &g2), (&h, pk)]).is_identity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify() {
        let mut r = StdRng::seed_from_u64(1);
        let kp = BlsKeyPair::generate(&mut r);
        let sig = kp.sign(b"hello");
        assert!(bls_verify(&kp.pk, b"hello", &sig));
        assert!(!bls_verify(&kp.pk, b"world", &sig));
    }

    #[test]
    fn signatures_bound_to_keys() {
        let mut r = StdRng::seed_from_u64(2);
        let kp1 = BlsKeyPair::generate(&mut r);
        let kp2 = BlsKeyPair::generate(&mut r);
        let sig = kp1.sign(b"msg");
        assert!(!bls_verify(&kp2.pk, b"msg", &sig));
    }

    #[test]
    fn deterministic() {
        let mut r = StdRng::seed_from_u64(3);
        let kp = BlsKeyPair::generate(&mut r);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }
}
