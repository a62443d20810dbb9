//! Storage-sharing scenario (§1, §8: privacy-preserving shared storage in
//! untrusted P2P networks). Tokens are storage-operation rights; a ring
//! signature hides *which* user operated on the shared data.
//!
//! Demonstrates the stack end to end: rights minted on the chain with
//! their quotas as plain amounts, DA-MS mixin selection, ring-signed
//! operations committed to the chain, and a public audit showing the
//! record stays unlinkable.
//!
//! ```text
//! cargo run --release --example storage_sharing
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{
    Amount, Chain, NoConfiguration, RingInput, TokenId as ChainToken, TokenOutput, Transaction,
};
use dams_core::{progressive, Instance, ModularInstance, SelectionPolicy};
use dams_crypto::{sign, KeyPair, SchnorrGroup};
use dams_diversity::{
    analyze, batch_anonymity, DiversityRequirement, HtId, RingIndex, TokenId, TokenUniverse,
};

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let group = SchnorrGroup::default();

    // The storage co-op issues operation rights: 24 rights across 8
    // onboarding batches, one minting transaction (HT) per batch.
    let users: Vec<KeyPair> = (0..24).map(|_| KeyPair::generate(&group, &mut rng)).collect();
    let quotas = [100u64, 100, 250, 250, 250, 500, 500, 1000];
    let mut chain = Chain::new(group);
    for batch in 0..8 {
        chain.submit_coinbase(
            (3 * batch..3 * batch + 3)
                .map(|i| TokenOutput {
                    owner: users[i].public,
                    amount: Amount(quotas[i % quotas.len()]),
                })
                .collect(),
        );
    }
    chain.seal_block().expect("onboarding block");
    println!("co-op ledger: {} operation rights minted", chain.token_count());

    // The algorithmic privacy view: rights onboarded together share an HT.
    let universe = TokenUniverse::new((0..24u32).map(|i| HtId(i / 3)).collect());

    // Users operate on the shared store: each op picks mixins with TM_P
    // under recursive (1, 4)-diversity, then commits a ring-signed spend
    // paying the operation fee to the co-op treasury.
    let req = DiversityRequirement::new(1.0, 4);
    let policy = SelectionPolicy::new(req);
    let treasury = KeyPair::generate(&group, &mut rng);
    let mut committed = RingIndex::new();
    let mut claims = Vec::new();

    for &user in &[2u32, 9, 17] {
        let inst = Instance::new(universe.clone(), committed.clone(), claims.clone());
        let modular = ModularInstance::decompose(&inst).expect("laminar history");
        let sel = progressive(&modular, TokenId(user), policy).expect("feasible");

        // The fee goes to the treasury and a right holding the rest of
        // the quota comes back.
        let me = &users[user as usize];
        let quota = chain.token(ChainToken(user as u64)).expect("own right").amount;
        let mut tx = Transaction {
            inputs: vec![],
            outputs: vec![
                TokenOutput {
                    owner: treasury.public,
                    amount: Amount(1),
                },
                TokenOutput {
                    owner: me.public,
                    amount: Amount(quota.0 - 1),
                },
            ],
            memo: b"storage op".to_vec(),
        };
        let ring: Vec<ChainToken> =
            sel.ring.tokens().iter().map(|t| ChainToken(t.0 as u64)).collect();
        let ring_keys: Vec<_> = ring
            .iter()
            .map(|&t| chain.token(t).expect("minted").owner)
            .collect();
        let signature = sign(&group, &tx.signing_payload(), &ring_keys, me, &mut rng)
            .expect("user owns a ring member");
        tx.inputs.push(RingInput {
            ring,
            signature,
            claimed_c: req.c,
            claimed_l: req.l,
        });
        chain.submit(tx, &NoConfiguration).expect("verifies");
        println!(
            "user {user}: operation committed behind a {}-right ring",
            sel.size()
        );
        committed.push(sel.ring);
        claims.push(req);
    }
    chain.seal_block().expect("operations block");

    // Public audit: the P2P network sees rings and key images only.
    let analysis = analyze(&committed, &[]);
    let anon = batch_anonymity(&analysis, &universe);
    println!(
        "\npublic audit: {} ops, {} linkable, mean anonymity set {:.1} rights, \
         mean HT entropy {:.2} bits",
        anon.rings, anon.resolved, anon.mean_candidates, anon.mean_ht_entropy_bits
    );
    assert_eq!(anon.resolved, 0, "no operation may be linkable");
    assert!(chain.audit(), "the committed chain re-verifies");
    println!("ledger now holds {} rights", chain.token_count());
}
