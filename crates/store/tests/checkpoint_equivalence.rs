//! The incremental checkpoint writer against a from-scratch oracle: for
//! 64 seeded ledgers, the bytes `Store::write_checkpoint` puts on the
//! checkpoint device after every appended block must equal a checkpoint
//! derived afresh from the whole chain — across a rollback, after the
//! store is reopened, and when the store is handed a different chain that
//! reorgs at the same height.

mod common;

use common::spend_tx;
use dams_blockchain::{Amount, Chain, NoConfiguration, TokenId, TokenOutput};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_store::{
    group_fingerprint, ring_fingerprint, Attestation, Checkpoint, MemBackend, Store, StoreConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

/// The checkpoint image of `chain`, derived from scratch: every committed
/// ring input of every block, images sorted, fingerprints in commit order.
fn oracle(chain: &Chain, group_fp: u64, wal_len: u64) -> Vec<u8> {
    let tip = chain.tip().expect("tip");
    let inputs: Vec<_> = chain
        .blocks()
        .iter()
        .flat_map(|b| &b.transactions)
        .flat_map(|ct| &ct.tx.inputs)
        .collect();
    let mut images: Vec<u64> = inputs.iter().map(|i| i.key_image().value()).collect();
    images.sort_unstable();
    Checkpoint {
        group_fp,
        height: tip.header.height.0,
        tip: tip.hash(),
        wal_len,
        images,
        ring_fps: inputs.iter().map(|i| ring_fingerprint(i)).collect(),
    }
    .encode()
}

/// Checkpoint `chain` and compare the device bytes with the oracle's.
fn assert_checkpoint_matches(store: &mut Store, chain: &Chain, what: &str) {
    store.write_checkpoint(chain).expect("checkpoint");
    let written = store.serve_catchup().expect("device bytes").checkpoint;
    let fp = group_fingerprint(chain.group());
    assert_eq!(
        written,
        oracle(chain, fp, store.wal_len()),
        "{what}: incremental checkpoint diverges from the from-scratch oracle"
    );
}

/// A seeded ledger: `keys[i]` owns coinbase token `unspent[j].0` when
/// `unspent[j].1 == i`.
#[derive(Clone)]
struct Ledger {
    chain: Chain,
    keys: Vec<KeyPair>,
    unspent: Vec<(TokenId, usize)>,
}

impl Ledger {
    fn new(group: SchnorrGroup) -> Self {
        Ledger {
            chain: Chain::new(group),
            keys: Vec::new(),
            unspent: Vec::new(),
        }
    }

    /// Seal a block minting 1–3 tokens, each to a fresh key.
    fn mine_coinbase(&mut self, rng: &mut StdRng) {
        let group = *self.chain.group();
        let first = self.chain.token_count() as u64;
        let fresh: Vec<KeyPair> = (0..rng.gen_range(1..=3))
            .map(|_| KeyPair::generate(&group, rng))
            .collect();
        self.chain.submit_coinbase(
            fresh
                .iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(3),
                })
                .collect(),
        );
        self.chain.seal_block().expect("coinbase seals");
        for (i, k) in fresh.into_iter().enumerate() {
            self.unspent.push((TokenId(first + i as u64), self.keys.len()));
            self.keys.push(k);
        }
    }

    /// Seal a block of 1–2 ring spends over random mixins, or a coinbase
    /// block when fewer than two tokens are unspent.
    fn mine(&mut self, rng: &mut StdRng) {
        if self.unspent.len() < 2 || rng.gen_bool(0.3) {
            return self.mine_coinbase(rng);
        }
        for _ in 0..rng.gen_range(1..=2usize).min(self.unspent.len()) {
            let (token, owner) = self.unspent.swap_remove(rng.gen_range(0..self.unspent.len()));
            let minted = self.chain.token_count() as u64;
            let mut ring = vec![token];
            for _ in 0..rng.gen_range(1..=3) {
                ring.push(TokenId(rng.gen_range(0..minted)));
            }
            ring.sort_unstable();
            ring.dedup();
            let (c, l) = (rng.gen_range(1.0..3.0), rng.gen_range(1..=3usize));
            let tx = spend_tx(&self.chain, &self.keys, owner, ring, c, l, rng);
            self.chain.submit(tx, &NoConfiguration).expect("valid spend");
        }
        self.chain.seal_block().expect("spend block seals");
    }
}

fn fresh_store(group: SchnorrGroup) -> Store {
    Store::open(
        Box::new(MemBackend::new()),
        Box::new(MemBackend::new()),
        group,
        StoreConfig::default(),
    )
    .expect("fresh store")
    .store
}

/// `chain` cut back to `blocks` blocks (genesis included).
fn prefix(chain: &Chain, blocks: usize) -> Chain {
    let mut cut = Chain::new(*chain.group());
    for block in &chain.blocks()[1..blocks] {
        cut.adopt_block(block.clone()).expect("prefix adopts");
    }
    cut
}

#[test]
fn incremental_checkpoint_equals_from_scratch_oracle() {
    let group = SchnorrGroup::default();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC4E0_0000 + seed);
        let mut ledger = Ledger::new(group);
        let mut store = fresh_store(group);

        // Grow, checkpointing after every block.
        for _ in 0..rng.gen_range(4..10) {
            ledger.mine(&mut rng);
            store.append_block(ledger.chain.tip().unwrap()).expect("append");
            assert_checkpoint_matches(&mut store, &ledger.chain, &format!("seed {seed} grow"));
        }

        // Coinbase-only blocks past the checkpoint, rolled back and
        // replaced by a different history.
        let before = ledger.clone();
        for _ in 0..rng.gen_range(1..4) {
            ledger.mine_coinbase(&mut rng);
            store.append_block(ledger.chain.tip().unwrap()).expect("append");
        }
        let target = before.chain.height() as u64 - 1;
        let rolled = store.rollback_to(&ledger.chain, target).expect("coinbase rollback");
        ledger = Ledger {
            chain: rolled,
            ..before
        };
        for _ in 0..rng.gen_range(1..4) {
            ledger.mine(&mut rng);
            store.append_block(ledger.chain.tip().unwrap()).expect("append");
            assert_checkpoint_matches(&mut store, &ledger.chain, &format!("seed {seed} rollback"));
        }

        // Reopen from the durable images: the writer resumes from the fold
        // recovery verified, not from the one in memory before.
        let (mut wal_dev, mut cp_dev) = store.into_backends();
        let rec = Store::open(
            Box::new(MemBackend::from_durable(wal_dev.read_all().unwrap())),
            Box::new(MemBackend::from_durable(cp_dev.read_all().unwrap())),
            group,
            StoreConfig::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e}"));
        assert!(rec.report.checkpoint_loaded, "seed {seed}");
        store = rec.store;
        ledger.chain = rec.chain;
        for _ in 0..rng.gen_range(1..4) {
            ledger.mine(&mut rng);
            store.append_block(ledger.chain.tip().unwrap()).expect("append");
            assert_checkpoint_matches(&mut store, &ledger.chain, &format!("seed {seed} reopen"));
        }

        // A different chain of the same height, forked one block back.
        let mut fork = Ledger {
            chain: prefix(&ledger.chain, ledger.chain.height() - 1),
            ..ledger.clone()
        };
        fork.mine_coinbase(&mut rng);
        assert_eq!(fork.chain.height(), ledger.chain.height());
        assert_checkpoint_matches(&mut store, &fork.chain, &format!("seed {seed} fork"));
        assert_checkpoint_matches(&mut store, &ledger.chain, &format!("seed {seed} back"));
    }
}

#[test]
fn fold_refolds_when_the_chain_shrinks_or_forks() {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let mut ledger = Ledger::new(group);
    for _ in 0..8 {
        ledger.mine(&mut rng);
    }
    let long = ledger.chain.clone();
    let short = prefix(&long, 5);
    let mut att = Attestation::of(long.blocks());
    att.fold(short.blocks());
    assert_eq!(att, Attestation::of(short.blocks()), "fold ahead of the chain");

    let mut fork = Ledger {
        chain: short.clone(),
        ..ledger
    };
    fork.mine(&mut rng);
    att.fold(fork.chain.blocks());
    assert_eq!(att, Attestation::of(fork.chain.blocks()), "extends the prefix");
    att.fold(&long.blocks()[..6]);
    assert_eq!(att, Attestation::of(&long.blocks()[..6]), "same height, other tip");
}
