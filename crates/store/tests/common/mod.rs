//! Ledger builders shared by the store's integration tests.

#![allow(dead_code)]

use dams_blockchain::{Amount, Chain, NoConfiguration, RingInput, TokenId, TokenOutput, Transaction};
use dams_crypto::{KeyPair, SchnorrGroup};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a valid ring spend of `keys[spend_idx]` over `ring`, claiming
/// `(c, l)`-diversity. The chain does not validate the claim — recovery's
/// immutability recheck does, which is exactly what these tests exercise.
pub fn spend_tx(
    chain: &Chain,
    keys: &[KeyPair],
    spend_idx: usize,
    ring: Vec<TokenId>,
    c: f64,
    l: usize,
    rng: &mut StdRng,
) -> Transaction {
    let outputs = vec![TokenOutput {
        owner: keys[spend_idx].public,
        amount: Amount(5),
    }];
    let shell = Transaction {
        inputs: vec![],
        outputs: outputs.clone(),
        memo: vec![],
    };
    let payload = shell.signing_payload();
    let ring_keys: Vec<_> = ring
        .iter()
        .map(|t| chain.token(*t).expect("ring token exists").owner)
        .collect();
    let sig = dams_crypto::sign(chain.group(), &payload, &ring_keys, &keys[spend_idx], rng)
        .expect("signable ring");
    Transaction {
        inputs: vec![RingInput {
            ring,
            signature: sig,
            claimed_c: c,
            claimed_l: l,
        }],
        outputs,
        memo: vec![],
    }
}

/// The reference ledger every sweep recovers against: three coinbase
/// blocks (three distinct HTs, tokens 0..9), two cross-origin ring spends
/// with honest claims, one more coinbase block.
pub fn reference_chain() -> (SchnorrGroup, Chain, Vec<KeyPair>) {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut chain = Chain::new(group);
    let mut keys = Vec::new();
    for _ in 0..3 {
        let block_keys: Vec<KeyPair> =
            (0..3).map(|_| KeyPair::generate(&group, &mut rng)).collect();
        chain.submit_coinbase(
            block_keys
                .iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(5),
                })
                .collect(),
        );
        chain.seal_block().expect("coinbase seals");
        keys.extend(block_keys);
    }
    // Rings spanning all three origins: q = [1, 1, 1], so the honest
    // claim (2.0, 1) holds (1 < 2 * 3).
    for (spender, ring) in [(0usize, [0u64, 3, 6]), (4, [1, 4, 7])] {
        let tx = spend_tx(
            &chain,
            &keys,
            spender,
            ring.into_iter().map(TokenId).collect(),
            2.0,
            1,
            &mut rng,
        );
        chain.submit(tx, &NoConfiguration).expect("honest spend");
        chain.seal_block().expect("spend seals");
    }
    let kp = KeyPair::generate(&group, &mut rng);
    chain.submit_coinbase(vec![TokenOutput {
        owner: kp.public,
        amount: Amount(1),
    }]);
    chain.seal_block().expect("final coinbase");
    (group, chain, keys)
}

