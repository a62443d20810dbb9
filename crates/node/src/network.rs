//! An in-process network simulation: nodes exchange blocks through a lossy
//! message bus, replay them locally, and converge on identical chain state
//! and TokenMagic batch lists — §4's consensus argument ("users have a
//! consensus about the block list ... users can have a consensus about
//! the batch list too") as an executable property.
//!
//! The node layer is panic-free and resource-bounded: the inbox and the
//! orphan pool have hard capacities with TTL eviction, missing parents are
//! re-requested under exponential backoff, and every failure surfaces as a
//! typed [`NodeError`] instead of crashing the replica. The deterministic
//! adversary exercising all of this lives in [`crate::faults`].

use std::collections::VecDeque;

use dams_blockchain::{block_to_bytes, decode_block, BatchList, Block, Chain, NoConfiguration};
use dams_core::DiversityIndex;
use dams_crypto::sha256::Digest;
use dams_crypto::SchnorrGroup;
use dams_store::{Backend, Recovered, RecoveryReport, Store, StoreConfig, StoreError};

use crate::error::NodeError;
use crate::indexing::{block_delta, index_of_chain};
use crate::obs::NodeMetrics;

/// A network message: one block, addressed to everyone (gossip).
#[derive(Debug, Clone)]
pub struct BlockAnnouncement {
    pub block: Block,
}

/// Resource bounds of a node: how much out-of-order traffic it buffers
/// before applying back-pressure, and how patiently it waits for parents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLimits {
    /// Maximum queued announcements; beyond this, `deliver` rejects.
    pub inbox_capacity: usize,
    /// Maximum parked orphan blocks; beyond this, the oldest is evicted.
    pub orphan_capacity: usize,
    /// Ticks (inbox-processing rounds) an orphan may wait for its parent
    /// before being evicted.
    pub orphan_ttl: u64,
    /// Parent re-request attempts before giving up on an orphan's
    /// ancestry (the orphan itself still waits out its TTL).
    pub max_parent_retries: u32,
}

impl Default for NodeLimits {
    fn default() -> Self {
        NodeLimits {
            inbox_capacity: 256,
            orphan_capacity: 64,
            orphan_ttl: 64,
            max_parent_retries: 8,
        }
    }
}

/// Counters a node keeps about its own degradation decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Announcements rejected because the inbox was full.
    pub inbox_rejected: u64,
    /// Orphans evicted by TTL expiry or pool overflow.
    pub orphans_evicted: u64,
    /// Blocks discarded after failing full validation.
    pub blocks_discarded: u64,
    /// Duplicate or stale announcements dropped on arrival.
    pub duplicates_dropped: u64,
    /// Parent requests emitted (including retries).
    pub parent_requests: u64,
}

/// A parked out-of-order block waiting for its parent.
#[derive(Debug, Clone)]
struct Orphan {
    block: Block,
    /// Tick the orphan entered the pool (TTL reference point).
    parked_at: u64,
    /// Parent re-requests already sent for this orphan.
    retries: u32,
    /// Earliest tick the next parent request may fire (exponential
    /// backoff: 1, 2, 4, ... ticks between attempts).
    next_retry: u64,
}

/// A simulated node: a chain replica plus bounded inbox and orphan pool.
pub struct SimNode {
    pub id: usize,
    chain: Chain,
    inbox: VecDeque<BlockAnnouncement>,
    orphans: Vec<Orphan>,
    limits: NodeLimits,
    /// Logical clock: one tick per `process_inbox` call.
    tick: u64,
    stats: NodeStats,
    /// Optional durable store. When attached, every adoption is atomic
    /// across crashes: WAL-append → fsync → apply.
    store: Option<Store>,
    /// Optional incremental diversity index, kept in lock-step with the
    /// chain: O(Δ) maintenance on every adoption, journaled rollback on
    /// reorg, full rebuild only on enable / store attach.
    index: Option<DiversityIndex>,
}

impl std::fmt::Debug for SimNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNode")
            .field("id", &self.id)
            .field("height", &self.chain.height())
            .field("inbox", &self.inbox.len())
            .field("orphans", &self.orphans.len())
            .field("tick", &self.tick)
            .field("stats", &self.stats)
            .field("durable", &self.store.is_some())
            .field("indexed", &self.index.is_some())
            .finish()
    }
}

impl SimNode {
    pub fn new(id: usize, group: SchnorrGroup) -> Self {
        Self::with_limits(id, group, NodeLimits::default())
    }

    pub fn with_limits(id: usize, group: SchnorrGroup, limits: NodeLimits) -> Self {
        SimNode {
            id,
            chain: Chain::new(group),
            inbox: VecDeque::new(),
            orphans: Vec::new(),
            limits,
            tick: 0,
            stats: NodeStats::default(),
            store: None,
            index: None,
        }
    }

    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable chain access for the mining node of a simulation.
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    pub fn limits(&self) -> &NodeLimits {
        &self.limits
    }

    pub fn tip_hash(&self) -> Result<Digest, NodeError> {
        Ok(self.chain.tip()?.hash())
    }

    /// Whether a durable store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// The attached store (for fault injection and inspection in tests).
    pub fn store_mut(&mut self) -> Option<&mut Store> {
        self.store.as_mut()
    }

    /// Detach and return the store (e.g. to crash it and re-open).
    pub fn take_store(&mut self) -> Option<Store> {
        self.store.take()
    }

    /// Enable the incremental diversity index at batch parameter λ,
    /// cold-starting it over the current chain (O(chain), once). Every
    /// later adoption maintains it O(Δ); reorgs roll it back from its
    /// journal. Re-enabling replaces any existing index.
    pub fn enable_index(&mut self, lambda: usize) -> Result<(), NodeError> {
        NodeMetrics::global().index_rebuilds.inc();
        self.index = Some(index_of_chain(&self.chain, lambda)?);
        Ok(())
    }

    /// The incremental diversity index, if enabled.
    pub fn index(&self) -> Option<&DiversityIndex> {
        self.index.as_ref()
    }

    /// Mutable index access (journal pruning, stats inspection in tests).
    pub fn index_mut(&mut self) -> Option<&mut DiversityIndex> {
        self.index.as_mut()
    }

    /// Drop the index (e.g. to shed memory on a replica that stops
    /// serving selections).
    pub fn disable_index(&mut self) -> Option<DiversityIndex> {
        self.index.take()
    }

    /// Fold an adopted block into the index. A rejected delta means chain
    /// and index disagree — defensively rebuild from the chain (the chain
    /// is authoritative); if even the rebuild fails, drop the index rather
    /// than serve verdicts from a diverged replica.
    fn index_adopted(&mut self, delta: &dams_core::BlockDelta) {
        let Some(index) = &mut self.index else { return };
        let metrics = NodeMetrics::global();
        match index.apply_block(delta) {
            Ok(()) => {
                metrics.index_blocks_applied.inc();
                // The store refuses rollbacks below its checkpoint, so
                // journal entries older than the checkpoint can never be
                // undone — prune them to keep memory O(reorg horizon).
                if let Some(store) = &self.store {
                    let keep = delta.height.saturating_sub(store.checkpoint_height()) + 1;
                    index.prune_journal(keep as usize);
                }
            }
            Err(_) => {
                metrics.index_rebuilds.inc();
                let lambda = index.lambda();
                self.index = index_of_chain(&self.chain, lambda).ok();
            }
        }
    }

    /// Reorg-safe rollback of chain, store, and index to `target` height.
    /// Requires a durable store: only [`Store::rollback_to`] attests that
    /// no committed RS (whose claimed diversity is forever) is removed.
    /// Returns the number of blocks undone.
    pub fn rollback_to(&mut self, target: u64) -> Result<usize, NodeError> {
        let store = self.store.as_mut().ok_or(NodeError::RollbackNeedsStore)?;
        let before = self.chain.height();
        self.chain = store.rollback_to(&self.chain, target)?;
        let undone = before - self.chain.height();
        if let Some(index) = &mut self.index {
            match index.rollback_to_height(target) {
                Ok(n) => NodeMetrics::global().index_rollbacks.add(n as u64),
                Err(_) => {
                    // Journal too shallow (pruned past target) — rebuild.
                    NodeMetrics::global().index_rebuilds.inc();
                    let lambda = index.lambda();
                    self.index = index_of_chain(&self.chain, lambda).ok();
                }
            }
        }
        Ok(undone)
    }

    /// Attach a freshly opened store. The recovered chain must be a
    /// prefix of (or extend) this node's chain: whichever side is longer
    /// wins, and the shorter side is persisted/adopted to match, so node
    /// and store agree exactly afterwards.
    pub fn attach_store(&mut self, recovered: Recovered) -> Result<(), NodeError> {
        let Recovered {
            mut store,
            chain: stored,
            ..
        } = recovered;
        let common = stored.height().min(self.chain.height());
        if self.chain.blocks()[common - 1].hash() != stored.blocks()[common - 1].hash() {
            return Err(NodeError::Store(StoreError::CheckpointStateMismatch {
                height: common as u64 - 1,
                field: "store chain diverges from node chain",
            }));
        }
        if stored.height() > self.chain.height() {
            self.chain = stored;
            // The store's chain superseded ours: any incremental index is
            // anchored to the old tip, so re-anchor it over the winner.
            if let Some(index) = &self.index {
                NodeMetrics::global().index_rebuilds.inc();
                let lambda = index.lambda();
                self.index = index_of_chain(&self.chain, lambda).ok();
            }
        } else {
            for block in &self.chain.blocks()[stored.height()..] {
                store.append_block(block)?;
            }
            store.maybe_checkpoint(&self.chain)?;
        }
        self.store = Some(store);
        Ok(())
    }

    /// WAL-append + fsync `block` if a store is attached — the durability
    /// barrier that must precede applying the block to chain state.
    fn persist_block(&mut self, block: &Block) -> Result<(), NodeError> {
        if let Some(store) = &mut self.store {
            store.append_block(block)?;
        }
        Ok(())
    }

    /// Checkpoint opportunistically after an adoption. A checkpoint
    /// failure never loses data (the WAL has every block) so it degrades
    /// the node's recovery speed, not its correctness: it is counted, and
    /// the next adoption retries.
    fn after_adopt(&mut self) {
        if let Some(store) = &mut self.store {
            if store.maybe_checkpoint(&self.chain).is_err() {
                NodeMetrics::global().store_checkpoint_errors.inc();
            }
        }
    }

    /// Seal the chain's mempool into a block and persist it: the mining
    /// path's counterpart to the gossip path's WAL-append → apply.
    /// (Sealing applies first by construction — the block does not exist
    /// until sealed — so a crash between seal and append costs the miner
    /// only its own newest block, never a committed prefix.)
    pub fn seal_block(&mut self) -> Result<Block, NodeError> {
        self.chain.seal_block()?;
        let block = self.chain.tip()?.clone();
        self.persist_block(&block)?;
        self.after_adopt();
        self.index_adopted(&block_delta(&block));
        Ok(block)
    }

    /// Rebuild a replica by opening its durable store: replay
    /// `checkpoint + WAL tail`, truncate torn tails, re-verify every
    /// recovered RS's claimed diversity. An immutability violation is a
    /// typed error — a node must not serve state whose evidence no longer
    /// holds. A flagged-but-recoverable report (corrupt tail truncated)
    /// yields a working node plus the report for the caller to act on.
    pub fn restore_from_store(
        id: usize,
        group: SchnorrGroup,
        limits: NodeLimits,
        wal: Box<dyn Backend>,
        cp: Box<dyn Backend>,
        cfg: StoreConfig,
    ) -> Result<(Self, RecoveryReport), NodeError> {
        let metrics = NodeMetrics::global();
        metrics.store_restores.inc();
        let recovered = Store::open(wal, cp, group, cfg)?;
        let report = recovered.report.clone();
        if !report.clean() {
            metrics.store_restore_flagged.inc();
        }
        if let Some(&(height, ring_index)) = report.immutability_violations.first() {
            return Err(NodeError::Store(StoreError::ImmutabilityViolated {
                height,
                ring_index,
            }));
        }
        let mut node = SimNode::with_limits(id, group, limits);
        node.chain = recovered.chain;
        node.store = Some(recovered.store);
        Ok((node, report))
    }

    /// Deliver an announcement to this node's inbox. Rejects (typed, not
    /// panicking, not allocating) when the inbox is at capacity — the
    /// gossip layer treats that like a dropped packet and retries later.
    pub fn deliver(&mut self, msg: BlockAnnouncement) -> Result<(), NodeError> {
        if self.inbox.len() >= self.limits.inbox_capacity {
            self.stats.inbox_rejected += 1;
            NodeMetrics::global().inbox_rejected.inc();
            return Err(NodeError::InboxFull {
                capacity: self.limits.inbox_capacity,
            });
        }
        self.inbox.push_back(msg);
        NodeMetrics::global()
            .inbox_high_watermark
            .set_max(self.inbox.len() as i64);
        Ok(())
    }

    /// Whether the chain already contains a block with this hash at its
    /// recorded height (cheap: height indexes the block list directly).
    fn already_have(&self, block: &Block) -> bool {
        self.chain
            .blocks()
            .get(block.header.height.0 as usize)
            .is_some_and(|own| own.hash() == block.hash())
    }

    /// Process the inbox: append blocks whose parent is our tip; park the
    /// rest as orphans (bounded, TTL-limited) and retry them after every
    /// successful append. Advances the node's logical clock.
    ///
    /// Returns how many blocks were appended.
    pub fn process_inbox(&mut self) -> usize {
        self.tick += 1;
        while let Some(msg) = self.inbox.pop_front() {
            self.park_orphan(msg.block);
        }
        let appended = self.drain_orphans();
        self.evict_expired_orphans();
        appended
    }

    /// Park a block in the orphan pool, deduplicating against the chain
    /// and the pool, and evicting the oldest entry on overflow.
    fn park_orphan(&mut self, block: Block) {
        if self.already_have(&block) {
            self.stats.duplicates_dropped += 1;
            NodeMetrics::global().duplicates_dropped.inc();
            return;
        }
        let hash = block.hash();
        if self.orphans.iter().any(|o| o.block.hash() == hash) {
            self.stats.duplicates_dropped += 1;
            NodeMetrics::global().duplicates_dropped.inc();
            return;
        }
        if self.orphans.len() >= self.limits.orphan_capacity {
            // Evict the longest-waiting orphan: it has had the most retry
            // opportunities, so dropping it loses the least progress.
            if let Some(oldest) = self
                .orphans
                .iter()
                .enumerate()
                .min_by_key(|(_, o)| o.parked_at)
                .map(|(i, _)| i)
            {
                self.orphans.swap_remove(oldest);
                self.stats.orphans_evicted += 1;
                NodeMetrics::global().orphans_evicted.inc();
            }
        }
        self.orphans.push(Orphan {
            block,
            parked_at: self.tick,
            retries: 0,
            next_retry: self.tick,
        });
        NodeMetrics::global()
            .orphans_high_watermark
            .set_max(self.orphans.len() as i64);
    }

    fn drain_orphans(&mut self) -> usize {
        let mut appended = 0;
        // `tip_hash` failing means corrupted local state: stop consuming,
        // keep orphans.
        while let Ok(tip) = self.tip_hash() {
            let Some(pos) = self
                .orphans
                .iter()
                .position(|o| o.block.header.prev_hash == tip)
            else {
                break;
            };
            let orphan = self.orphans.swap_remove(pos);
            // Adoption consumes the block, so project its index delta
            // first (only when an index is enabled — the projection is
            // O(Δ) but not free).
            let delta = self.index.is_some().then(|| block_delta(&orphan.block));
            // Full validation: structure, signatures, key images. Invalid
            // or non-adoptable blocks are discarded, never fatal. A
            // verified block is WAL-persisted *before* it is applied, so
            // adoption is atomic across crashes.
            let adopted = self
                .chain
                .verify_block(&orphan.block, &NoConfiguration)
                .map_err(NodeError::from)
                .and_then(|()| self.persist_block(&orphan.block))
                .and_then(|()| {
                    self.chain
                        .adopt_block(orphan.block)
                        .map_err(NodeError::from)
                });
            if adopted.is_err() {
                self.stats.blocks_discarded += 1;
                NodeMetrics::global().blocks_discarded.inc();
                continue;
            }
            self.after_adopt();
            if let Some(delta) = delta {
                self.index_adopted(&delta);
            }
            appended += 1;
        }
        appended
    }

    fn evict_expired_orphans(&mut self) {
        let ttl = self.limits.orphan_ttl;
        let tick = self.tick;
        let before = self.orphans.len();
        // An expired orphan whose parent is itself pooled is *live*: its
        // ancestry arrived (possibly on the exact expiry tick) and is
        // still being assembled, so evicting it would discard progress the
        // pool just made. TTL only fires on orphans whose parent is
        // nowhere in sight. Cycles cannot pin entries (block hashes form a
        // DAG), and a truly dead chain of orphans still drains: its root's
        // parent never appears, so the root expires, then its child, one
        // per tick.
        let pooled: Vec<Digest> = self.orphans.iter().map(|o| o.block.hash()).collect();
        self.orphans.retain(|o| {
            tick.saturating_sub(o.parked_at) <= ttl
                || pooled.contains(&o.block.header.prev_hash)
        });
        let expired = (before - self.orphans.len()) as u64;
        self.stats.orphans_evicted += expired;
        NodeMetrics::global().orphans_evicted.add(expired);
    }

    /// Parent hashes this node wants re-sent: one request per orphan whose
    /// parent is still missing and whose backoff window has elapsed.
    /// Each emission doubles the orphan's backoff (1, 2, 4, ... ticks) up
    /// to `max_parent_retries` attempts.
    pub fn parent_requests(&mut self) -> Vec<Digest> {
        let tick = self.tick;
        let max_retries = self.limits.max_parent_retries;
        let have: Vec<Digest> = self.chain.blocks().iter().map(Block::hash).collect();
        let pooled: Vec<Digest> = self.orphans.iter().map(|o| o.block.hash()).collect();
        let mut requests = Vec::new();
        for o in &mut self.orphans {
            let parent = o.block.header.prev_hash;
            if have.contains(&parent) || pooled.contains(&parent) {
                continue;
            }
            if o.retries >= max_retries || o.next_retry > tick {
                continue;
            }
            o.retries += 1;
            o.next_retry = tick + (1u64 << o.retries.min(16));
            requests.push(parent);
        }
        self.stats.parent_requests += requests.len() as u64;
        NodeMetrics::global()
            .parent_requests
            .add(requests.len() as u64);
        requests
    }

    /// Look up a block this node can serve to a peer requesting `hash`.
    pub fn serve_block(&self, hash: Digest) -> Option<Block> {
        self.chain
            .blocks()
            .iter()
            .find(|b| b.hash() == hash)
            .cloned()
    }

    /// Serve the contiguous height range `[from, to)`, capped at `max`
    /// blocks — the pull half of anti-entropy range repair. Heights past
    /// the local tip are silently clipped.
    pub fn serve_range(&self, from: usize, to: usize, max: usize) -> Vec<Block> {
        let hi = to.min(self.chain.height()).min(from.saturating_add(max));
        if from >= hi {
            return Vec::new();
        }
        self.chain.blocks()[from..hi].to_vec()
    }

    /// [`SimNode::serve_range`] with the requested span checked against
    /// `cap` *before* serving: a request for more than `cap` blocks is a
    /// typed [`NodeError::RangeRefused`], refused whole rather than
    /// silently truncated — the gossip layer answers it with a refusal
    /// frame and attributes the oversized ask to the requester.
    pub fn serve_range_checked(
        &self,
        from: usize,
        to: usize,
        cap: usize,
    ) -> Result<Vec<Block>, NodeError> {
        let requested = to.saturating_sub(from);
        if requested > cap {
            return Err(NodeError::RangeRefused {
                requested: requested as u64,
                cap: cap as u64,
            });
        }
        Ok(self.serve_range(from, to, cap))
    }

    /// Read access to the attached store (checkpoint/tail serving).
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Number of currently parked orphans (for tests and monitoring).
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Number of queued, unprocessed announcements.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Snapshot the node's chain as encoded blocks — the durable state a
    /// crash survives. Inbox and orphans are volatile and intentionally
    /// not captured.
    pub fn snapshot(&self) -> Vec<Vec<u8>> {
        self.chain.blocks().iter().map(block_to_bytes).collect()
    }

    /// Rebuild a replica from a snapshot by *verified replay*: the first
    /// block must be the canonical genesis, and every subsequent block is
    /// re-validated (structure, signatures, key images) before adoption.
    /// A corrupted snapshot yields a typed error, never a partial node.
    pub fn restore(
        id: usize,
        group: SchnorrGroup,
        limits: NodeLimits,
        snapshot: &[Vec<u8>],
    ) -> Result<Self, NodeError> {
        let mut node = SimNode::with_limits(id, group, limits);
        let mut blocks = snapshot.iter().enumerate();
        match blocks.next() {
            Some((_, bytes)) => {
                let genesis = decode_block(&group, bytes)?;
                if genesis.hash() != node.tip_hash()? {
                    return Err(NodeError::SnapshotGenesisMismatch);
                }
            }
            None => return Err(NodeError::SnapshotGenesisMismatch),
        }
        for (index, bytes) in blocks {
            let block = decode_block(&group, bytes)?;
            node.chain
                .verify_block(&block, &NoConfiguration)
                .and_then(|()| node.chain.adopt_block(block))
                .map_err(|cause| NodeError::SnapshotBlockInvalid { index, cause })?;
        }
        Ok(node)
    }
}

/// A lossless, reordering message bus between nodes — the reference
/// fault-free network ([`crate::faults::FaultyBus`] is the adversarial
/// one).
pub struct Bus {
    pub nodes: Vec<SimNode>,
}

impl Bus {
    pub fn new(count: usize, group: SchnorrGroup) -> Self {
        Bus {
            nodes: (0..count).map(|i| SimNode::new(i, group)).collect(),
        }
    }

    /// Gossip a block from `origin` to every other node, optionally
    /// shuffling delivery order via the given permutation of node ids.
    /// Full inboxes count as drops (the node's own back-pressure).
    pub fn gossip(&mut self, origin: usize, block: Block, order: &[usize]) {
        for &i in order {
            if i != origin && i < self.nodes.len() {
                let _ = self.nodes[i].deliver(BlockAnnouncement {
                    block: block.clone(),
                });
            }
        }
    }

    /// Run inbox processing on every node until quiescent, serving parent
    /// requests between rounds so stragglers can backfill.
    pub fn settle(&mut self) {
        loop {
            let mut progressed = false;
            for n in &mut self.nodes {
                progressed |= n.process_inbox() > 0;
            }
            progressed |= self.serve_parent_requests() > 0;
            if !progressed {
                break;
            }
        }
    }

    /// Answer every pending parent request from whichever node has the
    /// block. Returns how many responses were delivered.
    fn serve_parent_requests(&mut self) -> usize {
        let mut served = 0;
        for i in 0..self.nodes.len() {
            let requests = self.nodes[i].parent_requests();
            for hash in requests {
                let block = self
                    .nodes
                    .iter()
                    .filter(|n| n.id != i)
                    .find_map(|n| n.serve_block(hash));
                if let Some(block) = block {
                    if self.nodes[i].deliver(BlockAnnouncement { block }).is_ok() {
                        served += 1;
                    }
                }
            }
        }
        served
    }

    /// Whether all nodes share the same tip (consensus).
    pub fn converged(&self) -> bool {
        let tips: Vec<Option<Digest>> =
            self.nodes.iter().map(|n| n.tip_hash().ok()).collect();
        tips.iter().all(Option::is_some) && tips.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether all nodes derive identical batch lists at λ.
    pub fn batch_consensus(&self, lambda: usize) -> bool {
        let lists: Vec<BatchList> = self
            .nodes
            .iter()
            .map(|n| BatchList::build(n.chain(), lambda))
            .collect();
        lists
            .windows(2)
            .all(|w| w[0].batches() == w[1].batches())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, TokenOutput};
    use dams_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Mine `blocks` coinbase blocks on node 0 and gossip them.
    fn mine_and_gossip(bus: &mut Bus, blocks: usize, per_block: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..blocks {
            let group = *bus.nodes[0].chain().group();
            let outs: Vec<TokenOutput> = (0..per_block)
                .map(|_| TokenOutput {
                    owner: KeyPair::generate(&group, &mut rng).public,
                    amount: Amount(1),
                })
                .collect();
            let chain = bus.nodes[0].chain_mut();
            chain.submit_coinbase(outs);
            chain.seal_block().unwrap();
            let block = chain.blocks().last().expect("just sealed").clone();
            let mut order: Vec<usize> = (0..bus.nodes.len()).collect();
            order.shuffle(&mut rng);
            bus.gossip(0, block, &order);
        }
    }

    fn mine_one(bus: &mut Bus, rng: &mut StdRng) -> Block {
        let g = *bus.nodes[0].chain().group();
        let outs = vec![TokenOutput {
            owner: KeyPair::generate(&g, rng).public,
            amount: Amount(1),
        }];
        let chain = bus.nodes[0].chain_mut();
        chain.submit_coinbase(outs);
        chain.seal_block().unwrap();
        chain.blocks().last().expect("just sealed").clone()
    }

    #[test]
    fn nodes_converge_on_chain_and_batches() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(4, group);
        mine_and_gossip(&mut bus, 6, 3, 1);
        bus.settle();
        assert!(bus.converged(), "tips diverged");
        assert!(bus.batch_consensus(7), "batch lists diverged");
        for n in &bus.nodes {
            assert!(n.chain().audit());
            assert_eq!(n.chain().token_count(), 18);
        }
    }

    #[test]
    fn out_of_order_delivery_heals() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(2, group);
        // Mine 3 blocks but deliver to node 1 in reverse order: the orphan
        // pool must reassemble them.
        let mut rng = StdRng::seed_from_u64(2);
        let blocks: Vec<Block> = (0..3).map(|_| mine_one(&mut bus, &mut rng)).collect();
        for b in blocks.into_iter().rev() {
            bus.nodes[1].deliver(BlockAnnouncement { block: b }).unwrap();
        }
        bus.settle();
        assert!(bus.converged());
    }

    #[test]
    fn tampered_block_discarded() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(2, group);
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = mine_one(&mut bus, &mut rng);
        // Tamper with the content after sealing.
        block.transactions.clear();
        bus.nodes[1].deliver(BlockAnnouncement { block }).unwrap();
        bus.settle();
        // Node 1 keeps only genesis; no convergence with poisoned data.
        assert_eq!(bus.nodes[1].chain().height(), 1);
        assert_eq!(bus.nodes[1].stats().blocks_discarded, 1);
    }

    #[test]
    fn inbox_applies_back_pressure() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            inbox_capacity: 2,
            ..NodeLimits::default()
        };
        let mut node = SimNode::with_limits(0, group, limits);
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(4);
        let block = mine_one(&mut bus, &mut rng);
        assert!(node.deliver(BlockAnnouncement { block: block.clone() }).is_ok());
        assert!(node.deliver(BlockAnnouncement { block: block.clone() }).is_ok());
        let err = node.deliver(BlockAnnouncement { block }).unwrap_err();
        assert_eq!(err, NodeError::InboxFull { capacity: 2 });
        assert_eq!(node.stats().inbox_rejected, 1);
    }

    #[test]
    fn orphan_pool_is_bounded_and_ttl_evicts() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            orphan_capacity: 3,
            orphan_ttl: 2,
            ..NodeLimits::default()
        };
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(5);
        // Mine 5 distinct blocks; withhold their common ancestry from the
        // victim so every one is an orphan there.
        let blocks: Vec<Block> = (0..5).map(|_| mine_one(&mut bus, &mut rng)).collect();
        let mut node = SimNode::with_limits(9, group, limits);
        for b in blocks.into_iter().skip(1) {
            node.deliver(BlockAnnouncement { block: b }).unwrap();
        }
        node.process_inbox();
        assert!(node.orphan_count() <= 3, "pool exceeded capacity");
        assert!(node.stats().orphans_evicted >= 1, "overflow must evict");
        // Nothing ever parents these orphans: TTL clears the pool. The
        // drain cascades from the ancestry root (whose parent never
        // appears) one orphan per tick — children with a pooled parent
        // are exempt from TTL until that parent expires first.
        for _ in 0..8 {
            node.process_inbox();
        }
        assert_eq!(node.orphan_count(), 0, "TTL eviction failed");
    }

    #[test]
    fn orphan_with_parent_arriving_at_expiry_tick_is_adopted() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            orphan_ttl: 3,
            ..NodeLimits::default()
        };
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(11);
        let b1 = mine_one(&mut bus, &mut rng);
        let b2 = mine_one(&mut bus, &mut rng);
        let b3 = mine_one(&mut bus, &mut rng);
        let mut node = SimNode::with_limits(9, group, limits);
        // b3 parks at tick 1; with ttl=3 it survives through tick 4 and
        // expires on tick 5.
        node.deliver(BlockAnnouncement { block: b3 }).unwrap();
        for _ in 0..4 {
            node.process_inbox();
        }
        assert_eq!(node.orphan_count(), 1, "b3 evicted before expiry");
        // b2 (b3's parent) arrives on the exact tick b3 expires. b2's own
        // parent b1 is still missing, so neither can be adopted yet — but
        // b3's ancestry is now assembling and must not be TTL-evicted.
        node.deliver(BlockAnnouncement { block: b2 }).unwrap();
        node.process_inbox();
        assert_eq!(node.orphan_count(), 2, "b3 evicted at the boundary tick");
        // Completing the ancestry adopts all three blocks.
        node.deliver(BlockAnnouncement { block: b1 }).unwrap();
        node.process_inbox();
        assert_eq!(node.chain().height(), 4, "orphan chain not adopted");
        assert_eq!(node.orphan_count(), 0);
    }

    #[test]
    fn serve_range_clips_to_tip_and_cap() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..5 {
            mine_one(&mut bus, &mut rng);
        }
        let node = &bus.nodes[0]; // height 6 (genesis + 5)
        let all = node.serve_range(1, 6, 100);
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].header.height.0, 1);
        let capped = node.serve_range(1, 6, 2);
        assert_eq!(capped.len(), 2);
        let clipped = node.serve_range(4, 50, 100);
        assert_eq!(clipped.len(), 2, "past-tip heights must clip");
        assert!(node.serve_range(9, 12, 8).is_empty());
        assert!(node.serve_range(3, 3, 8).is_empty());
    }

    #[test]
    fn duplicate_announcements_are_dropped_not_pooled() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(6);
        let b1 = mine_one(&mut bus, &mut rng);
        let b2 = mine_one(&mut bus, &mut rng);
        let mut node = SimNode::new(9, group);
        for _ in 0..3 {
            node.deliver(BlockAnnouncement { block: b2.clone() }).unwrap();
        }
        node.process_inbox();
        assert_eq!(node.orphan_count(), 1, "duplicates must collapse");
        node.deliver(BlockAnnouncement { block: b1.clone() }).unwrap();
        node.deliver(BlockAnnouncement { block: b1 }).unwrap();
        node.process_inbox();
        assert_eq!(node.chain().height(), 3, "both blocks adopted once");
        assert!(node.stats().duplicates_dropped >= 3);
    }

    #[test]
    fn parent_requests_backfill_a_gap() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(2, group);
        let mut rng = StdRng::seed_from_u64(7);
        // Node 0 mines 4 blocks; node 1 only hears about the last one.
        let blocks: Vec<Block> = (0..4).map(|_| mine_one(&mut bus, &mut rng)).collect();
        let last = blocks.last().unwrap().clone();
        bus.nodes[1].deliver(BlockAnnouncement { block: last }).unwrap();
        bus.settle();
        assert!(bus.converged(), "parent requests should walk the gap");
        assert!(bus.nodes[1].stats().parent_requests >= 3);
    }

    #[test]
    fn parent_request_backoff_caps_retries() {
        let group = SchnorrGroup::default();
        let limits = NodeLimits {
            max_parent_retries: 3,
            orphan_ttl: 10_000,
            ..NodeLimits::default()
        };
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(8);
        let _b1 = mine_one(&mut bus, &mut rng);
        let b2 = mine_one(&mut bus, &mut rng);
        let mut node = SimNode::with_limits(9, group, limits);
        node.deliver(BlockAnnouncement { block: b2 }).unwrap();
        let mut total = 0;
        for _ in 0..200 {
            node.process_inbox();
            total += node.parent_requests().len();
        }
        assert_eq!(total, 3, "backoff must cap at max_parent_retries");
    }

    /// Fingerprint vector of every batch — equal fingerprints mean the
    /// incremental index and a from-scratch rebuild agree exactly.
    fn index_fingerprints(index: &dams_core::DiversityIndex) -> Vec<u64> {
        (0..index.batch_count())
            .map(|b| index.batch_fingerprint(b))
            .collect()
    }

    #[test]
    fn index_tracks_gossip_adoption_in_lock_step() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(2, group);
        bus.nodes[1].enable_index(5).unwrap();
        mine_and_gossip(&mut bus, 6, 3, 21);
        bus.settle();
        assert!(bus.converged());
        let node = &bus.nodes[1];
        let index = node.index().expect("index enabled");
        assert_eq!(index.token_count(), node.chain().token_count() as u64);
        assert_eq!(
            index.last_height(),
            Some(node.chain().height() as u64 - 1),
            "index must sit exactly at the adopted tip"
        );
        let rebuilt = crate::indexing::index_of_chain(node.chain(), 5).unwrap();
        assert_eq!(index_fingerprints(index), index_fingerprints(&rebuilt));
        // Genesis replayed at enable time + 6 gossiped blocks, all O(Δ).
        assert_eq!(index.stats().blocks_applied, 7, "O(Δ) path, not rebuilds");
    }

    #[test]
    fn sealing_maintains_the_miners_index() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(22);
        let mut node = SimNode::new(0, group);
        node.enable_index(4).unwrap();
        for _ in 0..5 {
            let outs = vec![TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            }];
            node.chain_mut().submit_coinbase(outs);
            node.seal_block().unwrap();
        }
        let index = node.index().unwrap();
        assert_eq!(index.token_count(), 5);
        let rebuilt = crate::indexing::index_of_chain(node.chain(), 4).unwrap();
        assert_eq!(index_fingerprints(index), index_fingerprints(&rebuilt));
    }

    #[test]
    fn rollback_without_store_is_refused() {
        let group = SchnorrGroup::default();
        let mut node = SimNode::new(0, group);
        assert_eq!(node.rollback_to(0).unwrap_err(), NodeError::RollbackNeedsStore);
    }

    #[test]
    fn rollback_rewinds_chain_store_and_index_together() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(23);
        let mut node = SimNode::new(0, group);
        let recovered = dams_store::Store::open(
            Box::new(dams_store::MemBackend::new()),
            Box::new(dams_store::MemBackend::new()),
            group,
            StoreConfig {
                checkpoint_interval: 0,
            },
        )
        .unwrap();
        node.attach_store(recovered).unwrap();
        node.enable_index(3).unwrap();
        for _ in 0..6 {
            let outs = vec![TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            }];
            node.chain_mut().submit_coinbase(outs);
            node.seal_block().unwrap();
        }
        let undone = node.rollback_to(3).unwrap();
        assert_eq!(undone, 3);
        assert_eq!(node.chain().height(), 4);
        let index = node.index().expect("index survives rollback");
        assert_eq!(index.last_height(), Some(3));
        assert_eq!(index.token_count(), 3);
        let rebuilt = crate::indexing::index_of_chain(node.chain(), 3).unwrap();
        assert_eq!(index_fingerprints(index), index_fingerprints(&rebuilt));
        // Re-extend after the reorg: the same index keeps tracking.
        let outs = vec![TokenOutput {
            owner: KeyPair::generate(&group, &mut rng).public,
            amount: Amount(1),
        }];
        node.chain_mut().submit_coinbase(outs);
        node.seal_block().unwrap();
        assert_eq!(node.index().unwrap().token_count(), 4);
    }

    /// A device whose fsync always fails; everything else is in memory.
    struct FailingSync(dams_store::MemBackend);

    impl Backend for FailingSync {
        fn len(&mut self) -> Result<u64, StoreError> {
            self.0.len()
        }
        fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
            self.0.read_all()
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
            self.0.append(bytes)
        }
        fn sync(&mut self) -> Result<(), StoreError> {
            Err(StoreError::Io("fsync failed".into()))
        }
        fn truncate(&mut self, len: u64) -> Result<(), StoreError> {
            self.0.truncate(len)
        }
        fn crash(&mut self) {
            self.0.crash()
        }
    }

    #[test]
    fn failed_checkpoints_are_counted_and_retried() {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(31);
        let mut node = SimNode::new(0, group);
        let recovered = dams_store::Store::open(
            Box::new(dams_store::MemBackend::new()),
            Box::new(FailingSync(dams_store::MemBackend::new())),
            group,
            StoreConfig::default(),
        )
        .unwrap();
        node.attach_store(recovered).unwrap();
        let errors = &NodeMetrics::global().store_checkpoint_errors;
        let before = errors.get();
        for _ in 0..6 {
            let outs = vec![TokenOutput {
                owner: KeyPair::generate(&group, &mut rng).public,
                amount: Amount(1),
            }];
            node.chain_mut().submit_coinbase(outs);
            node.seal_block().expect("a failed checkpoint does not fail the seal");
        }
        // Interval 4: heights 4, 5 and 6 each attempt a checkpoint, and
        // each fails at the checkpoint device's fsync.
        assert_eq!(errors.get() - before, 3);
        assert_eq!(node.store().unwrap().checkpoint_height(), 0);
        assert_eq!(node.chain().height(), 7);
    }

    #[test]
    fn snapshot_restore_roundtrips_and_verifies() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4 {
            mine_one(&mut bus, &mut rng);
        }
        let snapshot = bus.nodes[0].snapshot();
        let revived =
            SimNode::restore(7, group, NodeLimits::default(), &snapshot).unwrap();
        assert_eq!(revived.tip_hash().unwrap(), bus.nodes[0].tip_hash().unwrap());
        assert_eq!(revived.chain().token_count(), bus.nodes[0].chain().token_count());
        assert!(revived.chain().audit());
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let group = SchnorrGroup::default();
        let mut bus = Bus::new(1, group);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..3 {
            mine_one(&mut bus, &mut rng);
        }
        let mut snapshot = bus.nodes[0].snapshot();
        // Flip a byte inside the second block's body.
        let len = snapshot[2].len();
        snapshot[2][len / 2] ^= 0xFF;
        let err = SimNode::restore(7, group, NodeLimits::default(), &snapshot).unwrap_err();
        assert!(
            matches!(
                err,
                NodeError::Codec(_) | NodeError::SnapshotBlockInvalid { .. }
            ),
            "{err:?}"
        );
        // Empty snapshots are equally typed, not panics.
        assert_eq!(
            SimNode::restore(7, group, NodeLimits::default(), &[]).unwrap_err(),
            NodeError::SnapshotGenesisMismatch
        );
    }
}
