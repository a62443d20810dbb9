//! Node- and network-layer metrics (`node.*`).
//!
//! Mirrors the per-object counters the node layer already keeps
//! ([`crate::network::NodeStats`], [`crate::faults::FaultStats`]) into the
//! process-wide [`dams_obs`] registry, and adds two high-watermark gauges
//! the per-object stats cannot express: the deepest inbox and the fullest
//! orphan pool seen by any replica.
//!
//! Every recorded value derives from the simulation's seeded PRNG stream,
//! so a fixed seed yields a byte-identical deterministic snapshot — the
//! property `dams-cli --faults <seed> --metrics json` is tested on.

use std::sync::OnceLock;

use dams_obs::{Counter, Gauge, Registry};

/// Handles to every `node.*` metric.
#[derive(Clone)]
pub struct NodeMetrics {
    /// `node.bus.sent_total` — message copies handed to the faulty bus.
    pub bus_sent: Counter,
    /// `node.bus.dropped_total` — copies dropped in flight.
    pub bus_dropped: Counter,
    /// `node.bus.duplicated_total` — extra copies injected by duplication.
    pub bus_duplicated: Counter,
    /// `node.bus.delayed_total` — copies held back by a delivery delay.
    pub bus_delayed: Counter,
    /// `node.bus.corrupted_total` — copies with a byte flipped.
    pub bus_corrupted: Counter,
    /// `node.bus.decode_rejected_total` — deliveries the wire decoder refused.
    pub bus_decode_rejected: Counter,
    /// `node.bus.partition_blocked_total` — sends suppressed by a partition.
    pub bus_partition_blocked: Counter,
    /// `node.bus.delivered_total` — copies that reached a node's inbox.
    pub bus_delivered: Counter,
    /// `node.inbox.rejected_total` — deliveries refused by a full inbox.
    pub inbox_rejected: Counter,
    /// `node.inbox.high_watermark` — deepest inbox observed on any replica.
    pub inbox_high_watermark: Gauge,
    /// `node.orphans.evicted_total` — orphans lost to TTL or pool overflow.
    pub orphans_evicted: Counter,
    /// `node.orphans.high_watermark` — fullest orphan pool observed.
    pub orphans_high_watermark: Gauge,
    /// `node.blocks.discarded_total` — blocks failing full validation.
    pub blocks_discarded: Counter,
    /// `node.duplicates.dropped_total` — duplicate announcements dropped.
    pub duplicates_dropped: Counter,
    /// `node.parent.requests_total` — backoff parent re-requests emitted.
    pub parent_requests: Counter,
    /// `node.store.restores_total` — replicas rebuilt from their durable
    /// store after a crash.
    pub store_restores: Counter,
    /// `node.store.restore_flagged_total` — store restores whose recovery
    /// report was not clean (corruption or immutability violations).
    pub store_restore_flagged: Counter,
    /// `node.store.checkpoint_errors_total` — opportunistic checkpoints
    /// after an adoption that failed (the WAL still holds every block, so
    /// only recovery speed suffers; the next adoption retries).
    pub store_checkpoint_errors: Counter,
    /// `node.gossip.announcements_total` — tip announcements sent by
    /// cluster anti-entropy rounds.
    pub gossip_announcements: Counter,
    /// `node.gossip.range_requests_total` — pull-based range-repair
    /// requests emitted by lagging replicas.
    pub gossip_range_requests: Counter,
    /// `node.gossip.range_blocks_served_total` — blocks served in answer
    /// to range-repair requests.
    pub gossip_range_blocks_served: Counter,
    /// `node.gossip.frames_rejected_total` — gossip frames refused by the
    /// authenticated-frame decoder (corruption caught at the wire).
    pub gossip_frames_rejected: Counter,
    /// `node.sync.bundles_served_total` — catch-up bundles served to
    /// late joiners and restarted peers.
    pub sync_bundles_served: Counter,
    /// `node.sync.bootstraps_total` — replicas bootstrapped from a
    /// peer-served bundle.
    pub sync_bootstraps: Counter,
    /// `node.sync.prefix_adopted_total` — checkpoint-attested blocks
    /// adopted structurally during bundle bootstraps (the cheap part).
    pub sync_prefix_adopted: Counter,
    /// `node.sync.tail_verified_total` — blocks past the checkpoint fully
    /// re-verified during bundle bootstraps (the O(tail) part).
    pub sync_tail_verified: Counter,
    /// `node.sync.tail_blocks_total` — blocks applied from WAL-tail
    /// streams by crash-restarted peers catching up.
    pub sync_tail_blocks: Counter,
    /// `node.sync.rejected_total` — catch-up frames refused
    /// (authentication or structural failure).
    pub sync_rejected: Counter,
    /// `node.index.blocks_applied_total` — blocks folded into a replica's
    /// incremental diversity index on the adoption path (O(Δ) each).
    pub index_blocks_applied: Counter,
    /// `node.index.rollbacks_total` — blocks undone from an index by a
    /// reorg rollback.
    pub index_rollbacks: Counter,
    /// `node.index.rebuilds_total` — full O(chain) index rebuilds (enable,
    /// store attach, or defensive re-anchor after a desync).
    pub index_rebuilds: Counter,
    /// `node.gossip.dup_announce_total` — repeated block announcements
    /// deduplicated before re-entering verification.
    pub gossip_dup_announce: Counter,
    /// `node.gossip.range_refusals_total` — oversized range requests
    /// answered with a typed refusal instead of silent truncation.
    pub gossip_range_refusals: Counter,
    /// `node.gossip.evidence_frames_total` — equivocation proofs gossiped
    /// so honest peers converge on the same verdict.
    pub gossip_evidence_frames: Counter,
    /// `node.peers.misbehavior_total` — typed misbehavior records filed
    /// against peers (equivocation, diversity violation, flood, range
    /// abuse, stale-tip spam).
    pub peers_misbehavior: Counter,
    /// `node.peers.quarantined_total` — peers escalated to quarantine.
    pub peers_quarantined: Counter,
    /// `node.peers.banned_total` — peers escalated to a ban.
    pub peers_banned: Counter,
    /// `node.peers.frames_dropped_total` — frames refused at intake from
    /// banned, quarantined, or rate-limited peers.
    pub peers_frames_dropped: Counter,
    /// `node.peers.diversity_rejects_total` — announced blocks refused
    /// because a carried RS fails (c, ℓ)-diversity re-verification.
    pub peers_diversity_rejects: Counter,
}

impl NodeMetrics {
    /// Build (or re-attach to) the `node.*` metrics inside `registry`.
    pub fn in_registry(registry: &Registry) -> Self {
        NodeMetrics {
            bus_sent: registry.counter("node.bus.sent_total"),
            bus_dropped: registry.counter("node.bus.dropped_total"),
            bus_duplicated: registry.counter("node.bus.duplicated_total"),
            bus_delayed: registry.counter("node.bus.delayed_total"),
            bus_corrupted: registry.counter("node.bus.corrupted_total"),
            bus_decode_rejected: registry.counter("node.bus.decode_rejected_total"),
            bus_partition_blocked: registry.counter("node.bus.partition_blocked_total"),
            bus_delivered: registry.counter("node.bus.delivered_total"),
            inbox_rejected: registry.counter("node.inbox.rejected_total"),
            inbox_high_watermark: registry.gauge("node.inbox.high_watermark"),
            orphans_evicted: registry.counter("node.orphans.evicted_total"),
            orphans_high_watermark: registry.gauge("node.orphans.high_watermark"),
            blocks_discarded: registry.counter("node.blocks.discarded_total"),
            duplicates_dropped: registry.counter("node.duplicates.dropped_total"),
            parent_requests: registry.counter("node.parent.requests_total"),
            store_restores: registry.counter("node.store.restores_total"),
            store_restore_flagged: registry.counter("node.store.restore_flagged_total"),
            store_checkpoint_errors: registry.counter("node.store.checkpoint_errors_total"),
            gossip_announcements: registry.counter("node.gossip.announcements_total"),
            gossip_range_requests: registry.counter("node.gossip.range_requests_total"),
            gossip_range_blocks_served: registry
                .counter("node.gossip.range_blocks_served_total"),
            gossip_frames_rejected: registry.counter("node.gossip.frames_rejected_total"),
            sync_bundles_served: registry.counter("node.sync.bundles_served_total"),
            sync_bootstraps: registry.counter("node.sync.bootstraps_total"),
            sync_prefix_adopted: registry.counter("node.sync.prefix_adopted_total"),
            sync_tail_verified: registry.counter("node.sync.tail_verified_total"),
            sync_tail_blocks: registry.counter("node.sync.tail_blocks_total"),
            sync_rejected: registry.counter("node.sync.rejected_total"),
            index_blocks_applied: registry.counter("node.index.blocks_applied_total"),
            index_rollbacks: registry.counter("node.index.rollbacks_total"),
            index_rebuilds: registry.counter("node.index.rebuilds_total"),
            gossip_dup_announce: registry.counter("node.gossip.dup_announce_total"),
            gossip_range_refusals: registry.counter("node.gossip.range_refusals_total"),
            gossip_evidence_frames: registry.counter("node.gossip.evidence_frames_total"),
            peers_misbehavior: registry.counter("node.peers.misbehavior_total"),
            peers_quarantined: registry.counter("node.peers.quarantined_total"),
            peers_banned: registry.counter("node.peers.banned_total"),
            peers_frames_dropped: registry.counter("node.peers.frames_dropped_total"),
            peers_diversity_rejects: registry.counter("node.peers.diversity_rejects_total"),
        }
    }

    /// The process-wide instance, backed by [`dams_obs::global`].
    pub fn global() -> &'static NodeMetrics {
        static GLOBAL: OnceLock<NodeMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| NodeMetrics::in_registry(dams_obs::global()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_registry_reattaches_same_counters() {
        let r = Registry::new();
        let a = NodeMetrics::in_registry(&r);
        let b = NodeMetrics::in_registry(&r);
        a.bus_sent.inc();
        assert_eq!(b.bus_sent.get(), 1);
    }

    #[test]
    fn watermark_gauges_only_rise() {
        let r = Registry::new();
        let m = NodeMetrics::in_registry(&r);
        m.inbox_high_watermark.set_max(5);
        m.inbox_high_watermark.set_max(3);
        assert_eq!(m.inbox_high_watermark.get(), 5);
    }
}
