//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;

use dams_crypto::prime::{is_prime, mul_mod, pow_mod};
use dams_crypto::sha256::{sha256, sha256_parts};
use dams_crypto::{sign, verify, KeyPair, SchnorrGroup};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let a = sha256(&data);
        let b = sha256(&data);
        prop_assert_eq!(a, b);
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(sha256(&flipped), a);
        }
    }

    #[test]
    fn sha256_parts_framing(parts in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 1..5)) {
        // Concatenation-ambiguous inputs hash differently from joined form.
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let joined: Vec<u8> = parts.concat();
        let framed = sha256_parts(&refs);
        if parts.len() > 1 {
            prop_assert_ne!(framed, sha256_parts(&[joined.as_slice()]));
        }
    }

    #[test]
    fn pow_mod_respects_exponent_addition(b in 2u64..1000, e1 in 0u64..50, e2 in 0u64..50) {
        let m = 1_000_000_007u64; // prime
        let lhs = mul_mod(pow_mod(b, e1, m), pow_mod(b, e2, m), m);
        let rhs = pow_mod(b, e1 + e2, m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn primality_agrees_with_trial_division(n in 2u64..100_000) {
        let trial = (2..).take_while(|d| d * d <= n).all(|d| n % d != 0);
        prop_assert_eq!(is_prime(n), trial);
    }

    #[test]
    fn group_exponent_laws(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let g = SchnorrGroup::default();
        let (sa, sb) = (g.scalar(a), g.scalar(b));
        prop_assert_eq!(
            g.mul(g.base_pow(sa), g.base_pow(sb)),
            g.base_pow(g.scalar_add(sa, sb))
        );
        prop_assert_eq!(
            g.pow(g.base_pow(sa), sb),
            g.pow(g.base_pow(sb), sa)
        );
    }

    #[test]
    fn ring_signature_roundtrip(
        seed in 0u64..1000,
        ring_size in 1usize..6,
        signer_idx in 0usize..6,
        msg in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let signer_idx = signer_idx % ring_size;
        let grp = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<KeyPair> = (0..ring_size).map(|_| KeyPair::generate(&grp, &mut rng)).collect();
        let ring: Vec<_> = keys.iter().map(|k| k.public).collect();
        let sig = sign(&grp, &msg, &ring, &keys[signer_idx], &mut rng).unwrap();
        prop_assert!(verify(&grp, &msg, &ring, &sig));
        // Tampered message fails.
        let mut other = msg.clone();
        other.push(0xFF);
        prop_assert!(!verify(&grp, &other, &ring, &sig));
    }

    #[test]
    fn key_images_unique_per_secret(s1 in 1u64..1_000_000, s2 in 1u64..1_000_000) {
        prop_assume!(s1 != s2);
        let grp = SchnorrGroup::default();
        let k1 = KeyPair::from_secret(&grp, s1);
        let k2 = KeyPair::from_secret(&grp, s2);
        prop_assert_ne!(k1.key_image(&grp), k2.key_image(&grp));
    }
}
