//! Property tests for the node layer: consensus must hold under every
//! delivery order and any gossip interleaving.

use proptest::prelude::*;

use dams_blockchain::{Amount, BatchList, Block, TokenOutput};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_node::{BlockAnnouncement, SimNode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mine `blocks` two-output coinbase blocks on a fresh miner.
fn mine(blocks: usize, seed: u64) -> (SimNode, Vec<Block>) {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut miner = SimNode::new(0, group);
    let mut out = Vec::new();
    for _ in 0..blocks {
        let outs: Vec<TokenOutput> = (0..2)
            .map(|_| TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            })
            .collect();
        miner.chain_mut().submit_coinbase(outs);
        out.push(miner.seal_block().unwrap());
    }
    (miner, out)
}

/// Process `node`'s inbox, answering its parent requests from `miner`,
/// until neither makes progress.
fn settle(node: &mut SimNode, miner: &SimNode) {
    loop {
        let appended = node.process_inbox();
        let requests = node.parent_requests();
        for hash in &requests {
            let block = miner.serve_block(*hash).expect("the miner has every block");
            node.deliver(BlockAnnouncement { block }).unwrap();
        }
        if appended == 0 && requests.is_empty() {
            break;
        }
    }
}

fn agrees(node: &SimNode, miner: &SimNode, lambda: usize) -> bool {
    node.tip_hash() == miner.tip_hash()
        && BatchList::build(node.chain(), lambda).batches()
            == BatchList::build(miner.chain(), lambda).batches()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any permutation of block delivery converges to the miner's chain.
    #[test]
    fn convergence_under_any_delivery_order(
        perm in prop::collection::vec(0usize..1000, 5..=5),
        seed in 0u64..100,
    ) {
        let group = SchnorrGroup::default();
        let (miner, blocks) = mine(5, seed);
        // Deliver to two replicas in the permuted order and its reverse.
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_by_key(|&i| perm[i]);
        let mut forward = SimNode::new(1, group);
        let mut backward = SimNode::new(2, group);
        for &i in &order {
            forward.deliver(BlockAnnouncement { block: blocks[i].clone() }).unwrap();
        }
        for &i in order.iter().rev() {
            backward.deliver(BlockAnnouncement { block: blocks[i].clone() }).unwrap();
        }
        settle(&mut forward, &miner);
        settle(&mut backward, &miner);
        prop_assert!(agrees(&forward, &miner, 4));
        prop_assert!(agrees(&backward, &miner, 4));
    }

    /// Dropping an interior block no longer stalls convergence: later
    /// blocks park as orphans whose parent requests backfill the gap from
    /// the mining node. Only a dropped *tip* (nothing after it to orphan)
    /// stalls, and redelivery heals that too.
    #[test]
    fn missing_block_heals_via_parent_requests(drop_idx in 0usize..4, seed in 0u64..50) {
        let (miner, blocks) = mine(4, seed);
        let mut node = SimNode::new(1, SchnorrGroup::default());
        for (i, b) in blocks.iter().enumerate() {
            if i != drop_idx {
                node.deliver(BlockAnnouncement { block: b.clone() }).unwrap();
            }
        }
        settle(&mut node, &miner);
        let converged = node.tip_hash() == miner.tip_hash();
        if drop_idx < blocks.len() - 1 {
            prop_assert!(converged, "parent requests should heal gap {drop_idx}");
        } else {
            prop_assert!(!converged, "nothing signals a missing tip");
        }
        // Redelivering the dropped block converges (and is idempotent for
        // the interior cases that already healed).
        node.deliver(BlockAnnouncement { block: blocks[drop_idx].clone() }).unwrap();
        settle(&mut node, &miner);
        prop_assert!(node.tip_hash() == miner.tip_hash());
    }
}
