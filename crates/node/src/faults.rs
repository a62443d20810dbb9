//! The seeded fault model every multi-node simulation runs over.
//!
//! [`FaultChannel`] is an adversarial network that **drops**,
//! **duplicates**, **reorders**, **delays**, and **corrupts** frames (at
//! the wire level — payloads travel as encoded bytes through the real
//! codecs) and can **partition** its endpoints and later heal them. It
//! knows nothing about blocks: raw frames go in, `(src, dest, bytes)`
//! triples come out when due. Every fault decision is drawn from one
//! seeded PRNG stream, so an entire adversarial run — including which
//! byte of which frame was flipped — replays exactly from one `u64`
//! seed.
//!
//! [`crate::gossip::Cluster`] runs the replication protocol (attested
//! block pushes, tip anti-entropy, pull range repair, parent requests)
//! over this channel; it is the one multi-node simulator. Recovery relies
//! on the node-layer robustness machinery: bounded inboxes and orphan
//! pools, TTL eviction, exponential-backoff parent requests, periodic
//! anti-entropy tip announcements, and durable kill/restart. The claim
//! the property tests pin down: for any seed, after the faults stop the
//! replicas converge on identical tips and identical TokenMagic batch
//! lists, with zero panics along the way.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::NodeError;
use crate::obs::NodeMetrics;

/// Per-delivery fault probabilities and knobs. All probabilities are in
/// `[0, 1]` and evaluated independently per message copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a message copy is silently dropped.
    pub drop_prob: f64,
    /// Probability a message copy is duplicated (the copy itself may then
    /// be dropped/delayed/corrupted independently).
    pub dup_prob: f64,
    /// Probability a message copy is delayed by 1..=`max_delay` ticks.
    pub delay_prob: f64,
    /// Maximum delivery delay, in channel ticks.
    pub max_delay: u64,
    /// Probability one byte of the encoded message is flipped.
    pub corrupt_prob: f64,
    /// Whether same-tick deliveries are shuffled (reordering).
    pub reorder: bool,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.10,
            dup_prob: 0.10,
            delay_prob: 0.25,
            max_delay: 6,
            corrupt_prob: 0.05,
            reorder: true,
        }
    }
}

impl FaultConfig {
    /// A fault-free configuration (useful as a control group).
    pub fn lossless() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            corrupt_prob: 0.0,
            reorder: false,
        }
    }
}

/// What the adversary did, and what the nodes survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Message copies handed to the channel (before fault decisions).
    pub sent: u64,
    /// Copies dropped in flight.
    pub dropped: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Copies held back by a delivery delay.
    pub delayed: u64,
    /// Copies with a byte flipped.
    pub corrupted: u64,
    /// Deliveries rejected by the wire decoder (corruption caught).
    pub decode_rejected: u64,
    /// Released block copies refused by a full inbox (back-pressure).
    pub inbox_rejected: u64,
    /// Sends suppressed because source and destination were partitioned.
    pub partition_blocked: u64,
    /// Block copies a node's inbox accepted. A copy refused by a full
    /// inbox counts in `inbox_rejected` instead, never in both.
    pub delivered: u64,
    /// Copies addressed to a dead or dormant endpoint: released to it, or
    /// still in flight when it was killed.
    pub undeliverable: u64,
}

/// One message copy travelling through the faulty network. The source
/// endpoint is transport metadata (the simulated analogue of the TCP
/// connection a frame arrived on): corruption can garble the payload but
/// never re-attribute a frame to a different sender.
#[derive(Debug, Clone)]
struct InFlight {
    src: usize,
    dest: usize,
    bytes: Vec<u8>,
    due: u64,
}

/// The seeded fault gauntlet as a reusable transport.
///
/// Every frame handed to [`FaultChannel::send_from`] runs the full
/// adversary: duplication, drops, single-byte corruption, delivery
/// delay, and (on [`FaultChannel::advance`]) same-tick reordering.
/// Endpoints can be split into partition components; sends across the
/// split are suppressed and counted. All randomness comes from one
/// seeded PRNG, so the whole schedule replays from a single `u64`.
pub struct FaultChannel {
    cfg: FaultConfig,
    rng: StdRng,
    in_flight: Vec<InFlight>,
    /// Partition component id per endpoint; equal ids can talk.
    partition: Vec<usize>,
    tick: u64,
    pub stats: FaultStats,
}

impl FaultChannel {
    /// A channel between `endpoints` peers whose every fault decision
    /// derives from `seed`.
    pub fn new(endpoints: usize, seed: u64, cfg: FaultConfig) -> Self {
        FaultChannel {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            partition: vec![0; endpoints],
            tick: 0,
            stats: FaultStats::default(),
        }
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Whether nothing is in flight.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Split the network: endpoints listed in `isolated` form one
    /// component, everyone else the other. Unknown ids yield a typed
    /// error.
    pub fn partition(&mut self, isolated: &[usize]) -> Result<(), NodeError> {
        if let Some(&bad) = isolated.iter().find(|&&i| i >= self.partition.len()) {
            return Err(NodeError::UnknownPeer(bad));
        }
        for (i, comp) in self.partition.iter_mut().enumerate() {
            *comp = usize::from(isolated.contains(&i));
        }
        Ok(())
    }

    /// Heal all partitions: every endpoint can talk to every other again.
    pub fn heal(&mut self) {
        self.partition.fill(0);
    }

    pub fn reachable(&self, a: usize, b: usize) -> bool {
        self.partition[a] == self.partition[b]
    }

    /// Push one frame from `src` toward `dest` through the fault gauntlet.
    pub fn send_from(&mut self, src: usize, dest: usize, bytes: Vec<u8>) {
        self.stats.sent += 1;
        NodeMetrics::global().bus_sent.inc();
        if self.rng.gen_bool(self.cfg.dup_prob.clamp(0.0, 1.0)) {
            self.stats.duplicated += 1;
            NodeMetrics::global().bus_duplicated.inc();
            let copy = bytes.clone();
            self.enqueue_copy(src, dest, copy);
        }
        self.enqueue_copy(src, dest, bytes);
    }

    /// [`FaultChannel::send_from`] honouring the partition: a frame across
    /// the split is suppressed and counted. Returns whether the frame
    /// entered the channel.
    pub fn send_reachable(&mut self, src: usize, dest: usize, bytes: Vec<u8>) -> bool {
        if !self.reachable(src, dest) {
            self.stats.partition_blocked += 1;
            NodeMetrics::global().bus_partition_blocked.inc();
            return false;
        }
        self.send_from(src, dest, bytes);
        true
    }

    fn enqueue_copy(&mut self, src: usize, dest: usize, mut bytes: Vec<u8>) {
        let metrics = NodeMetrics::global();
        if self.rng.gen_bool(self.cfg.drop_prob.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
            metrics.bus_dropped.inc();
            return;
        }
        if !bytes.is_empty() && self.rng.gen_bool(self.cfg.corrupt_prob.clamp(0.0, 1.0)) {
            let idx = self.rng.gen_range(0..bytes.len());
            bytes[idx] ^= 1u8 << self.rng.gen_range(0..8u32);
            self.stats.corrupted += 1;
            metrics.bus_corrupted.inc();
        }
        let due = if self.cfg.max_delay > 0
            && self.rng.gen_bool(self.cfg.delay_prob.clamp(0.0, 1.0))
        {
            self.stats.delayed += 1;
            metrics.bus_delayed.inc();
            self.tick + self.rng.gen_range(1..=self.cfg.max_delay)
        } else {
            self.tick
        };
        self.in_flight.push(InFlight {
            src,
            dest,
            bytes,
            due,
        });
    }

    /// Advance one tick and collect every frame due for delivery as
    /// `(src, dest, bytes)` triples, shuffled when reordering is on. The
    /// source is what the peer-defense layer attributes misbehavior to.
    pub fn advance(&mut self) -> Vec<(usize, usize, Vec<u8>)> {
        self.tick += 1;
        let mut due: Vec<InFlight> = Vec::new();
        let mut waiting: Vec<InFlight> = Vec::new();
        for m in self.in_flight.drain(..) {
            if m.due <= self.tick {
                due.push(m);
            } else {
                waiting.push(m);
            }
        }
        self.in_flight = waiting;
        if self.cfg.reorder {
            due.shuffle(&mut self.rng);
        }
        due.into_iter().map(|m| (m.src, m.dest, m.bytes)).collect()
    }

    /// Drop every in-flight frame addressed to `dest` — it crashed, and
    /// traffic aimed at it dies with it.
    pub fn drop_addressed_to(&mut self, dest: usize) {
        let before = self.in_flight.len();
        self.in_flight.retain(|m| m.dest != dest);
        let lost = (before - self.in_flight.len()) as u64;
        self.stats.undeliverable += lost;
        NodeMetrics::global().bus_undeliverable.add(lost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::{run_cluster_scenario, Cluster};
    use dams_crypto::SchnorrGroup;

    #[test]
    fn lossless_bus_behaves_like_reference() {
        // The lossless channel is the reference transport: every frame
        // arrives once, on the next tick, unmodified and in send order.
        let mut ch = FaultChannel::new(3, 7, FaultConfig::lossless());
        let sent: Vec<(usize, usize, Vec<u8>)> =
            (0..12).map(|i| (i % 3, (i + 1) % 3, vec![i as u8; 4])).collect();
        for (src, dest, bytes) in &sent {
            ch.send_from(*src, *dest, bytes.clone());
        }
        assert_eq!(ch.advance(), sent);
        assert!(ch.idle());
        let expected = FaultStats {
            sent: 12,
            ..FaultStats::default()
        };
        assert_eq!(ch.stats, expected);
    }

    #[test]
    fn same_seed_replays_identically() {
        let a = run_cluster_scenario(42, 5).unwrap();
        let b = run_cluster_scenario(42, 5).unwrap();
        assert_eq!(a.fault_stats, b.fault_stats, "fault schedule must replay exactly");
        assert_eq!(a.gossip_stats, b.gossip_stats);
        assert_eq!(a.height, b.height);
        assert_eq!(a.ticks, b.ticks);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn different_seeds_draw_different_fault_schedules() {
        let a = run_cluster_scenario(1, 5).unwrap();
        let b = run_cluster_scenario(2, 5).unwrap();
        assert_ne!(a.fault_stats, b.fault_stats);
    }

    #[test]
    fn scripted_scenario_converges() {
        let report = run_cluster_scenario(1234, 5).unwrap();
        assert!(report.converged, "replicas diverged: {}", report.render());
        assert!(report.batch_consensus, "batch lists diverged: {}", report.render());
        assert!(report.immutability_ok, "verdicts diverged: {}", report.render());
        assert_eq!(report.height, 11, "genesis + 10 mined blocks");
        assert!(report.ticks.is_some(), "hit the tick budget: {}", report.render());
    }

    #[test]
    fn corruption_is_detected_not_adopted() {
        let group = SchnorrGroup::default();
        let cfg = FaultConfig {
            corrupt_prob: 1.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            reorder: false,
        };
        let mut cluster = Cluster::new(2, group, 5, cfg).unwrap();
        cluster.mine_on(0, 2).unwrap();
        for _ in 0..20 {
            cluster.step();
        }
        // Every copy was corrupted. Header flips fail the authenticated
        // frame (decode_rejected); transaction-body flips pass the frame
        // but fail the content hash in block validation
        // (blocks_discarded). Either way no tampered block is adopted.
        let node = cluster.node(1).unwrap();
        assert_eq!(node.chain().height(), 1);
        assert!(
            cluster.fault_stats().decode_rejected + node.stats().blocks_discarded > 0,
            "{:?}",
            cluster.fault_stats()
        );
    }

    #[test]
    fn partition_blocks_traffic_until_heal() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(3, group, 11, FaultConfig::lossless()).unwrap();
        cluster.partition(&[2]).unwrap();
        cluster.mine_on(0, 1).unwrap();
        assert!(cluster.run_until_converged(50).is_none(), "cannot converge split");
        assert!(cluster.fault_stats().partition_blocked > 0);
        assert_eq!(cluster.node(2).unwrap().chain().height(), 1);
        cluster.heal();
        assert!(cluster.run_until_converged(100).is_some());
        assert!(cluster.converged());
    }

    #[test]
    fn unknown_ids_are_typed_errors() {
        let group = SchnorrGroup::default();
        let mut cluster = Cluster::new(2, group, 1, FaultConfig::lossless()).unwrap();
        assert_eq!(cluster.partition(&[5]).unwrap_err(), NodeError::UnknownPeer(5));
        assert_eq!(cluster.kill(9).unwrap_err(), NodeError::UnknownPeer(9));
        assert_eq!(cluster.restart(9).unwrap_err(), NodeError::UnknownPeer(9));
        assert_eq!(cluster.mine_on(7, 1).unwrap_err(), NodeError::UnknownPeer(7));
    }

    #[test]
    fn channel_replays_and_drops_addressed_frames() {
        let mut a = FaultChannel::new(3, 9, FaultConfig::default());
        let mut b = FaultChannel::new(3, 9, FaultConfig::default());
        for ch in [&mut a, &mut b] {
            for i in 0..20 {
                ch.send_from(0, i % 3, vec![i as u8; 8]);
            }
        }
        let mut da = Vec::new();
        let mut db = Vec::new();
        for _ in 0..12 {
            da.extend(a.advance());
            db.extend(b.advance());
        }
        assert_eq!(da, db, "channel schedule must replay from the seed");
        assert_eq!(a.stats, b.stats);

        let mut c = FaultChannel::new(2, 1, FaultConfig::lossless());
        c.send_from(1, 0, vec![1]);
        c.send_from(0, 1, vec![2]);
        c.drop_addressed_to(1);
        assert_eq!(c.stats.undeliverable, 1);
        let due = c.advance();
        assert_eq!(due, vec![(1, 0, vec![1])]);
        assert!(c.idle());
    }
}
