//! Seed-sweep properties for the fault-injection harness: the §4
//! consensus argument must hold under drops, duplicates, reordering,
//! delays, partitions, and crash/restart — for *every* seed, not a lucky
//! one. Each property sweeps 64 PRNG seeds through `gossip::Cluster`; a
//! failure message names the seed so the run replays exactly
//! (`dams_cli --faults <seed>` replays the scripted scenario).

use dams_crypto::sha256::Digest;
use dams_crypto::SchnorrGroup;
use dams_node::{run_cluster_scenario, Cluster, FaultConfig};

const SEEDS: u64 = 64;

fn tips(cluster: &Cluster) -> Vec<Digest> {
    cluster
        .live_ids()
        .into_iter()
        .map(|i| cluster.node(i).unwrap().tip_hash().unwrap())
        .collect()
}

/// Mine `blocks` two-output blocks on node 0, stepping once after each.
fn mine(cluster: &mut Cluster, blocks: usize) {
    for _ in 0..blocks {
        cluster.mine_on(0, 2).unwrap();
        cluster.step();
    }
}

/// Partition-then-heal: a minority side cut off during mining must catch
/// back up after the heal, ending on the identical tip hash and batch
/// list as the majority.
#[test]
fn partition_then_heal_converges_across_seeds() {
    let group = SchnorrGroup::default();
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, FaultConfig::default()).unwrap();
        mine(&mut cluster, 3);
        cluster.partition(&[2]).unwrap();
        mine(&mut cluster, 2);
        cluster.heal();
        let ticks = cluster.run_until_converged(400);
        assert!(ticks.is_some(), "seed {seed}: no convergence after heal");
        let tips = tips(&cluster);
        assert!(
            tips.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: divergent tips {tips:?}"
        );
        assert!(cluster.batch_consensus(3), "seed {seed}: batch lists diverge");
    }
}

/// Idempotence: aggressive duplication + delay + reordering (no losses)
/// must change nothing — every replica applies each block exactly once
/// and lands on the mined height.
#[test]
fn duplicated_reordered_delivery_is_idempotent_across_seeds() {
    let group = SchnorrGroup::default();
    let cfg = FaultConfig {
        drop_prob: 0.0,
        dup_prob: 0.6,
        delay_prob: 0.4,
        max_delay: 4,
        corrupt_prob: 0.0,
        reorder: true,
    };
    const MINED: usize = 5;
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, cfg).unwrap();
        mine(&mut cluster, MINED);
        let ticks = cluster.run_until_converged(300);
        assert!(ticks.is_some(), "seed {seed}: no convergence");
        for id in cluster.live_ids() {
            // Genesis + each mined block exactly once, despite duplicates.
            assert_eq!(
                cluster.node(id).unwrap().chain().height(),
                MINED + 1,
                "seed {seed}: duplicate application"
            );
        }
        assert!(cluster.batch_consensus(4), "seed {seed}: batch lists diverge");
        assert!(
            cluster.fault_stats().duplicated > 0,
            "seed {seed}: fault model inert"
        );
    }
}

/// Crash/restart: a replica killed mid-run and restarted from its durable
/// store by verified replay must reconverge with the survivors on the
/// same tip and batch list.
#[test]
fn crash_restart_reconverges_across_seeds() {
    let group = SchnorrGroup::default();
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, FaultConfig::default()).unwrap();
        mine(&mut cluster, 3);
        cluster.kill(1).unwrap();
        cluster.restart(1).unwrap();
        mine(&mut cluster, 2);
        let ticks = cluster.run_until_converged(400);
        assert!(ticks.is_some(), "seed {seed}: no reconvergence after crash");
        let tips = tips(&cluster);
        assert!(
            tips.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: divergent tips {tips:?}"
        );
        assert!(cluster.batch_consensus(3), "seed {seed}: batch lists diverge");
    }
}

/// Partition + heal interleaving with corrupted traffic still in flight
/// across the heal: healing restores *reachability*, never integrity. A
/// frame corrupted while the partition stood must still be refused when
/// it finally lands after the heal, and the wire accounting must prove
/// no copy slipped through unexamined.
#[test]
fn corrupt_frame_in_flight_across_heal_is_rejected_across_seeds() {
    let group = SchnorrGroup::default();
    let cfg = FaultConfig {
        drop_prob: 0.0,
        dup_prob: 0.0,
        delay_prob: 1.0,
        max_delay: 8,
        corrupt_prob: 1.0,
        reorder: true,
    };
    for seed in 0..SEEDS {
        let mut cluster = Cluster::new(3, group, seed, cfg).unwrap();
        // Slot 3 is the cluster's dormant late-joiner slot: the copy to it
        // enters the channel and is counted undeliverable on release.
        cluster.partition(&[2]).unwrap();
        // The announcements to node 1 and slot 3 are corrupted and delayed
        // in flight; the copy to node 2 is suppressed at the source.
        cluster.mine_on(0, 1).unwrap();
        cluster.heal();
        for _ in 0..12 {
            cluster.step();
        }
        // The corrupted frame lands after the heal and is still refused —
        // at the authenticated-frame decoder, which covers every byte of
        // the attested block. No replica but the miner ever adopts
        // anything.
        assert_eq!(cluster.node(0).unwrap().chain().height(), 2, "seed {seed}");
        for id in [1, 2] {
            assert_eq!(
                cluster.node(id).unwrap().chain().height(),
                1,
                "seed {seed}: corrupted frame was applied after the heal"
            );
        }
        let s = cluster.fault_stats();
        let discarded: u64 = cluster
            .live_ids()
            .into_iter()
            .map(|i| cluster.node(i).unwrap().stats().blocks_discarded)
            .sum();
        assert!(
            s.corrupted >= 1 && s.delayed >= 1,
            "seed {seed}: fault model inert {s:?}"
        );
        assert!(s.partition_blocked >= 1, "seed {seed}: partition inert");
        assert_eq!(s.undeliverable, 1, "seed {seed}: dormant-slot copy {s:?}");
        assert!(
            s.decode_rejected + discarded >= 1,
            "seed {seed}: corrupt frame rejected nowhere {s:?}"
        );
        // Every sent copy is accounted for: delivered to an inbox,
        // refused at decode, refused by a full inbox, or addressed to a
        // slot with no replica — none vanish across the heal boundary.
        assert_eq!(
            s.delivered + s.decode_rejected + s.inbox_rejected + s.undeliverable,
            s.sent,
            "seed {seed}: accounting leak {s:?}"
        );
    }
}

/// The full scripted adversarial scenario (drop + duplicate + reorder +
/// delay + corrupt + partition/heal + durable kill/restart + late
/// joiner) converges for every seed at five replicas — the scenario
/// `dams-cli --faults <seed>` replays.
#[test]
fn scripted_simulation_converges_across_seeds() {
    for seed in 0..SEEDS {
        let report = run_cluster_scenario(seed, 5).unwrap();
        assert!(report.ok(), "seed {seed}: {}", report.render());
        assert!(report.converged, "seed {seed}: {report:?}");
        assert!(report.batch_consensus, "seed {seed}: {report:?}");
        assert!(report.ticks.is_some(), "seed {seed}: tick budget exhausted");
        assert_eq!(report.height, 11, "seed {seed}: lost mined blocks");
    }
}
