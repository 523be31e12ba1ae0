//! Appendix D.1: any one-time LHSPS plus a random oracle yields a fully
//! secure ordinary signature scheme.
//!
//! Messages `M ∈ {0,1}*` are hashed onto a vector `H(M) ∈ G^{K+1}` and
//! signed with the LHSPS key. For the DP-based instantiation we use
//! `K = 1`, i.e. vectors of dimension 2 — this is exactly the
//! *centralized* version of the paper's §3 threshold scheme, and serves
//! as the single-signer baseline in the benchmarks.

use crate::one_time::{OneTimePublicKey, OneTimeSecretKey, OneTimeSignature};
use crate::params::DpParams;
use borndist_pairing::hash_to_g1_vector;
use rand::RngCore;

/// Domain tag for the message random oracle.
const HASH_DST: &[u8] = b"borndist/rom-signature/H";

/// A centralized signer (Appendix D.1 construction, `K = 1`).
#[derive(Clone, Debug)]
pub struct RomSigner {
    params: DpParams,
    sk: OneTimeSecretKey,
    pk: OneTimePublicKey,
}

/// The public verification side of [`RomSigner`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RomVerifier {
    params: DpParams,
    pk: OneTimePublicKey,
}

impl RomSigner {
    /// Generates a key pair over the given (or derived) parameters.
    pub fn keygen<R: RngCore + ?Sized>(params: DpParams, rng: &mut R) -> Self {
        let sk = OneTimeSecretKey::random(2, rng);
        let pk = sk.public_key(&params);
        RomSigner { params, sk, pk }
    }

    /// Signs an arbitrary byte-string message.
    pub fn sign(&self, msg: &[u8]) -> OneTimeSignature {
        let h = hash_to_g1_vector(HASH_DST, msg, 2);
        self.sk.sign(&h)
    }

    /// The matching verifier.
    pub fn verifier(&self) -> RomVerifier {
        RomVerifier {
            params: self.params,
            pk: self.pk.clone(),
        }
    }
}

impl RomVerifier {
    /// Verifies a signature on `msg`.
    pub fn verify(&self, msg: &[u8], sig: &OneTimeSignature) -> bool {
        let h = hash_to_g1_vector(HASH_DST, msg, 2);
        self.pk.verify(&self.params, &h, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x20ae)
    }

    #[test]
    fn sign_verify() {
        let mut r = rng();
        let signer = RomSigner::keygen(DpParams::derive(b"test"), &mut r);
        let v = signer.verifier();
        let sig = signer.sign(b"hello world");
        assert!(v.verify(b"hello world", &sig));
        assert!(!v.verify(b"hello worle", &sig));
    }

    #[test]
    fn signatures_do_not_transfer_between_keys() {
        let mut r = rng();
        let params = DpParams::derive(b"test");
        let s1 = RomSigner::keygen(params, &mut r);
        let s2 = RomSigner::keygen(params, &mut r);
        let sig = s1.sign(b"msg");
        assert!(!s2.verifier().verify(b"msg", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let mut r = rng();
        let signer = RomSigner::keygen(DpParams::derive(b"test"), &mut r);
        assert_eq!(signer.sign(b"m"), signer.sign(b"m"));
    }

    #[test]
    fn empty_and_long_messages() {
        let mut r = rng();
        let signer = RomSigner::keygen(DpParams::derive(b"test"), &mut r);
        let v = signer.verifier();
        assert!(v.verify(b"", &signer.sign(b"")));
        let long = vec![0xabu8; 10_000];
        assert!(v.verify(&long, &signer.sign(&long)));
    }
}
