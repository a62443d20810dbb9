//! Multi-input spending on the chain: one transaction consumes two tokens,
//! each through its own ring input and its own bLSAG signature — and why
//! every input's ring still needs diversity-aware selection.
//!
//! ```text
//! cargo run --release --example multi_input
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{
    Amount, Chain, NoConfiguration, RingInput, TokenId as ChainToken, TokenOutput, Transaction,
};
use dams_crypto::{sign, KeyChain, KeyImage, KeyPair, SchnorrGroup};
use dams_diversity::{analyze, RingIndex, RingSet, RsId, TokenId, TokenRsPair};

fn main() {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(11);

    // An HD wallet derives one-time keys for its two inputs; the rest of
    // the chain's tokens belong to other users.
    let wallet = KeyChain::from_passphrase(group, "demo wallet", 0);
    let my_keys = wallet.derive_range(2);
    let others = KeyChain::from_passphrase(group, "the rest of the chain", 0);

    // Tokens 0..4 and 4..8: the wallet owns token 2 and token 5.
    let owners: Vec<KeyPair> = (0..8u64)
        .map(|t| match t {
            2 => my_keys[0],
            5 => my_keys[1],
            _ => others.derive(t),
        })
        .collect();
    let mut chain = Chain::new(group);
    chain.submit_coinbase(
        owners
            .iter()
            .map(|k| TokenOutput {
                owner: k.public,
                amount: Amount(10),
            })
            .collect(),
    );
    chain.seal_block().expect("coinbase block");

    // One transaction, two ring inputs. Each input is signed on its own
    // over the same payload (outputs + memo); the rings need not share a
    // size or align their members.
    let mut tx = Transaction {
        inputs: vec![],
        outputs: vec![TokenOutput {
            owner: wallet.derive(2).public,
            amount: Amount(20),
        }],
        memo: b"pay 2 inputs at once".to_vec(),
    };
    let payload = tx.signing_payload();
    for (ring, signer) in [(0..4u64, &my_keys[0]), (4..8u64, &my_keys[1])] {
        let ring: Vec<ChainToken> = ring.map(ChainToken).collect();
        let ring_keys: Vec<_> = ring.iter().map(|&t| owners[t.0 as usize].public).collect();
        let signature =
            sign(&group, &payload, &ring_keys, signer, &mut rng).expect("signer is in the ring");
        tx.inputs.push(RingInput {
            ring,
            signature,
            claimed_c: 1.0,
            claimed_l: 2,
        });
    }
    let images: Vec<KeyImage> = tx.inputs.iter().map(RingInput::key_image).collect();
    chain
        .submit(tx, &NoConfiguration)
        .expect("both inputs verify");
    let height = chain.seal_block().expect("spend block");
    println!(
        "2-input transaction sealed at height {}: key images {} and {}, both consumed = {}",
        height.0,
        images[0].value(),
        images[1].value(),
        images.iter().all(|&i| chain.image_consumed(i))
    );

    // The coupling risk at the token layer. No signature aligns the two
    // rings, but side information that links the inputs (one wallet, one
    // transaction) lets an adversary carry a resolution across them.
    let layer0 = RingSet::new([TokenId(0), TokenId(1), TokenId(2), TokenId(3)]);
    let layer1 = RingSet::new([TokenId(4), TokenId(5), TokenId(6), TokenId(7)]);
    let idx = RingIndex::from_rings([layer0, layer1]);

    let before = analyze(&idx, &[]);
    println!(
        "\nbefore any leak: input0 candidates = {}, input1 candidates = {}",
        before.candidates[&RsId(0)].len(),
        before.candidates[&RsId(1)].len()
    );

    // Side information pins input0 to token 2; a linking inference (the
    // wallet's next derived key) pins input1 to token 5.
    let coupled = analyze(
        &idx,
        &[
            TokenRsPair::new(TokenId(2), RsId(0)),
            TokenRsPair::new(TokenId(5), RsId(1)), // linked-input inference
        ],
    );
    println!(
        "after one leak + linking: input0 → {:?}, input1 → {:?}",
        coupled.resolved(RsId(0)).map(|t| t.0),
        coupled.resolved(RsId(1)).map(|t| t.0)
    );
    println!(
        "\nlesson: per-input rings are not slot-aligned by the signature, but \
         linked inputs fall together — each input's ring needs DA-MS on its own"
    );
}
