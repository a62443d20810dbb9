//! Byzantine peer defense: scoring, rate limits, quarantine → ban
//! escalation, and equivocation proofs.
//!
//! PR 6's cluster survives *transport* faults (drops, corruption,
//! partitions) but trusts every well-formed frame. This layer defends the
//! protocol itself against peers that are live and well-encoded but
//! hostile:
//!
//! * **Attribution** — every frame arrives with a transport-level source
//!   (the simulated analogue of the TCP connection it came in on), and
//!   every block announcement carries a signed [`Attestation`] by its
//!   sender: `sig(origin ‖ height ‖ block-hash)` under the sender's
//!   registered identity key. Rejections name the peer, the offense, and
//!   the height.
//! * **Token buckets** — per-peer, per-frame-kind rate limits. A peer
//!   that exceeds its bucket has the frame dropped *before* any decode
//!   work and earns a [`Misbehavior::FloodExceeded`] record.
//! * **Severity-weighted scores** — each [`Misbehavior`] adds its
//!   severity to the peer's score. Scores decay every tick by a base
//!   rate plus seeded jitter (so replays are exact but thresholds are
//!   not phase-locked to the attack). Crossing the quarantine threshold
//!   silences the peer for a jittered window; crossing the ban threshold
//!   — or re-offending after a quarantine, or leaning on a quarantined
//!   connection — removes it for good.
//! * **Equivocation proofs** — two valid [`Attestation`]s by one origin
//!   for different blocks at one height are a self-authenticating
//!   [`EquivocationProof`]. The detecting node bans the equivocator,
//!   voids its staged blocks, and gossips the proof so every honest peer
//!   converges on the same verdict without trusting the reporter.
//! * **Staged adoption** — remote block announcements wait
//!   [`ClusterConfig::stage_ticks`] in a staging area before delivery,
//!   the equivocation-detection window: conflicting attestations arriving
//!   within it void each other, so an equivocator's blocks never reach an
//!   honest chain.
//! * **Per-block (c, ℓ) re-verification** — [`recheck_block_diversity`]
//!   re-checks every carried RS's claimed diversity against the
//!   receiver's own ledger before the block is staged, closing the gap
//!   the ring-poisoner drives through: `verify_block` checks signatures
//!   and key images, not claims.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_blockchain::{
    parse_exact, signature_from_bytes, signature_to_bytes, Block, Chain, CodecError, Reader,
};
use dams_crypto::sha256::{sha256, Digest};
use dams_crypto::{KeyPair, PublicKey, RingSignature, SchnorrGroup};
use dams_diversity::{DiversityRequirement, RingSet};

use crate::obs::NodeMetrics;

/// Gossip-layer knobs, one struct so scenarios can tighten or relax the
/// defense uniformly. `Default` is what every stock cluster runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Blocks a single range request may stream — a lagging node recovers
    /// a long gap over several tip→request→serve rounds instead of one
    /// unbounded burst. Requests above the cap are refused whole and
    /// attributed as [`Misbehavior::RangeAbuse`].
    pub max_range_blocks: usize,
    /// Ticks a remote block announcement is staged before delivery — the
    /// equivocation-detection window. Must exceed the fault channel's
    /// worst-case delivery delay for conflicting announcements to meet.
    pub stage_ticks: u64,
    /// Peer score at which frames are silenced for a jittered window.
    pub quarantine_score: f64,
    /// Peer score at which the peer is removed for good.
    pub ban_score: f64,
    /// Base score decay per tick.
    pub decay_per_tick: f64,
    /// Seeded jitter added to each tick's decay, drawn from `[0, jitter)`.
    pub decay_jitter: f64,
    /// Base quarantine duration in ticks (a jitter of up to half this is
    /// added per sentence).
    pub quarantine_ticks: u64,
    /// Frames a quarantined peer may push at us before the quarantine
    /// escalates to a ban (a peer respecting backoff stays far below).
    pub quarantine_pressure: u64,
    /// Ticks an issued range request may go unanswered (while the
    /// claimed height fails to materialize) before it counts as a strike.
    pub range_timeout: u64,
    /// Consecutive unanswered-range strikes before a
    /// [`Misbehavior::StaleTipSpam`] record is filed.
    pub stale_tip_strikes: u32,
    /// Token bucket `(capacity, refill-per-tick)` for block frames.
    pub block_bucket: (f64, f64),
    /// Token bucket for tip announcements.
    pub tip_bucket: (f64, f64),
    /// Token bucket for range requests.
    pub range_bucket: (f64, f64),
    /// Token bucket for evidence and refusal frames.
    pub evidence_bucket: (f64, f64),
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            max_range_blocks: 16,
            stage_ticks: 8,
            quarantine_score: 60.0,
            ban_score: 120.0,
            decay_per_tick: 1.0,
            decay_jitter: 0.5,
            quarantine_ticks: 16,
            quarantine_pressure: 96,
            range_timeout: 10,
            stale_tip_strikes: 2,
            // Capacities leave honest bursts (a 16-block range serve plus
            // duplicated copies) comfortable headroom; sustained floods
            // drain them within a tick or two.
            block_bucket: (48.0, 6.0),
            tip_bucket: (8.0, 1.0),
            range_bucket: (8.0, 1.0),
            evidence_bucket: (8.0, 1.0),
        }
    }
}

/// Frame-kind index into the per-peer token buckets.
pub const FK_BLOCK: usize = 0;
pub const FK_TIP: usize = 1;
pub const FK_RANGE: usize = 2;
pub const FK_EVIDENCE: usize = 3;
const FK_COUNT: usize = 4;

/// A typed, attributable offense. Severity is what it adds to the peer's
/// score; equivocation and diversity violations are protocol betrayals
/// and ban instantly, the rest accumulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Misbehavior {
    /// Two valid signed attestations for different blocks at one height.
    Equivocation { height: u64 },
    /// An announced block carried an RS whose claimed (c, ℓ)-diversity
    /// fails re-verification against the receiver's ledger.
    DiversityViolation { height: u64 },
    /// A frame-kind token bucket ran dry (at most one record per tick).
    FloodExceeded { kind: usize },
    /// A range request asked for more blocks than the advertised cap.
    RangeAbuse { requested: u64, cap: u64 },
    /// Advertised tips that repeatedly failed to materialize when pulled.
    StaleTipSpam { height: u64 },
}

impl Misbehavior {
    /// Score this offense adds.
    pub fn severity(&self) -> f64 {
        match self {
            Misbehavior::Equivocation { .. } | Misbehavior::DiversityViolation { .. } => 1000.0,
            Misbehavior::RangeAbuse { .. } | Misbehavior::StaleTipSpam { .. } => 50.0,
            Misbehavior::FloodExceeded { .. } => 20.0,
        }
    }

    /// Short stable label for reports and labeled metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Misbehavior::Equivocation { .. } => "equivocation",
            Misbehavior::DiversityViolation { .. } => "diversity_violation",
            Misbehavior::FloodExceeded { .. } => "flood_exceeded",
            Misbehavior::RangeAbuse { .. } => "range_abuse",
            Misbehavior::StaleTipSpam { .. } => "stale_tip_spam",
        }
    }
}

impl std::fmt::Display for Misbehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Misbehavior::Equivocation { height } => {
                write!(f, "equivocation at height {height}")
            }
            Misbehavior::DiversityViolation { height } => {
                write!(f, "(c, l)-diversity violation in block at height {height}")
            }
            Misbehavior::FloodExceeded { kind } => write!(f, "flood on frame kind {kind}"),
            Misbehavior::RangeAbuse { requested, cap } => {
                write!(f, "range request for {requested} blocks over cap {cap}")
            }
            Misbehavior::StaleTipSpam { height } => {
                write!(f, "advertised tip at height {height} never materialized")
            }
        }
    }
}

/// One filed offense: which peer, what, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MisbehaviorRecord {
    pub peer: usize,
    pub offense: Misbehavior,
    pub tick: u64,
}

/// A peer's current standing with one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standing {
    Good,
    Quarantined { until: u64 },
    Banned,
}

/// A signed claim "peer `origin` vouches for block `hash` at `height`".
/// The signature is a ring signature with a one-key ring — a plain
/// Schnorr-style signature under the origin's registered identity key —
/// over the domain-separated message `dams-attest-v1 ‖ origin ‖ height ‖
/// hash`. Two of these by one origin at one height with different hashes
/// are an unforgeable equivocation proof.
#[derive(Debug, Clone, PartialEq)]
pub struct Attestation {
    pub origin: u64,
    pub height: u64,
    pub hash: Digest,
    pub sig: RingSignature,
}

fn attest_msg(origin: u64, height: u64, hash: &Digest) -> Vec<u8> {
    let mut m = Vec::with_capacity(14 + 16 + 32);
    m.extend_from_slice(b"dams-attest-v1");
    m.extend_from_slice(&origin.to_le_bytes());
    m.extend_from_slice(&height.to_le_bytes());
    m.extend_from_slice(hash);
    m
}

impl Attestation {
    /// Sign an attestation under `identity` (a one-key ring signature).
    pub fn sign<R: Rng + ?Sized>(
        group: &SchnorrGroup,
        origin: u64,
        height: u64,
        hash: Digest,
        identity: &KeyPair,
        rng: &mut R,
    ) -> Option<Self> {
        let msg = attest_msg(origin, height, &hash);
        let sig = dams_crypto::sign(group, &msg, &[identity.public], identity, rng).ok()?;
        Some(Attestation {
            origin,
            height,
            hash,
            sig,
        })
    }

    /// Verify against the registered identity key of `self.origin`.
    pub fn verify(&self, group: &SchnorrGroup, directory: &[PublicKey]) -> bool {
        let Some(pk) = directory.get(self.origin as usize) else {
            return false;
        };
        let msg = attest_msg(self.origin, self.height, &self.hash);
        dams_crypto::verify(group, &msg, &[*pk], &self.sig)
    }

    /// Wire layout: `origin u64 ‖ height u64 ‖ hash[32] ‖ sig_len u16 ‖
    /// sig`. Deterministic, so an attestation's bytes double as its
    /// identity.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sig = signature_to_bytes(&self.sig);
        let mut out = Vec::with_capacity(8 + 8 + 32 + 2 + sig.len());
        out.extend_from_slice(&self.origin.to_le_bytes());
        out.extend_from_slice(&self.height.to_le_bytes());
        out.extend_from_slice(&self.hash);
        out.extend_from_slice(&(sig.len() as u16).to_le_bytes());
        out.extend_from_slice(&sig);
        out
    }

    /// Decode one attestation from `r` (a fuzz-target path: every
    /// malformed input is a typed [`CodecError`], never a panic).
    pub fn decode(group: &SchnorrGroup, r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let origin = r.u64()?;
        let height = r.u64()?;
        let hash = r.array()?;
        let sig_len = r.u16()? as usize;
        let sig = signature_from_bytes(group, r.bytes(sig_len)?)?;
        Ok(Attestation {
            origin,
            height,
            hash,
            sig,
        })
    }
}

/// Two conflicting attestations by one origin at one height — the
/// self-authenticating evidence every honest peer can verify locally.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivocationProof {
    pub a: Attestation,
    pub b: Attestation,
}

impl EquivocationProof {
    pub fn accused(&self) -> u64 {
        self.a.origin
    }

    pub fn height(&self) -> u64 {
        self.a.height
    }

    /// Structural + cryptographic validity: same origin, same height,
    /// different hashes, both signatures good under the accused's key.
    /// This is what stops a Byzantine peer from framing an honest one —
    /// a fabricated proof needs two signatures only the accused can make.
    pub fn verify(&self, group: &SchnorrGroup, directory: &[PublicKey]) -> bool {
        self.a.origin == self.b.origin
            && self.a.height == self.b.height
            && self.a.hash != self.b.hash
            && self.a.verify(group, directory)
            && self.b.verify(group, directory)
    }

    /// Wire layout: the two attestation encodings back to back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.a.to_bytes();
        out.extend_from_slice(&self.b.to_bytes());
        out
    }

    /// Decode a proof, rejecting trailing bytes (fuzz-target path).
    pub fn from_bytes(group: &SchnorrGroup, buf: &[u8]) -> Result<Self, CodecError> {
        parse_exact(buf, |r| {
            Ok(EquivocationProof {
                a: Attestation::decode(group, r)?,
                b: Attestation::decode(group, r)?,
            })
        })
    }

    /// Dedup key for the re-gossip set.
    pub fn id(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

/// Re-verify the claimed (c, ℓ)-diversity of every RS carried by `block`
/// against the receiver's own ledger — the per-block, adoption-time twin
/// of [`dams_store::recheck_immutability`], over the same
/// [`dams_store::token_universe`]. Claims with `ℓ < 1` or `c ≤ 0` assert
/// nothing and are skipped, as are rings naming tokens the receiver has
/// not seen (structural verification rejects those anyway). Returns the
/// height of the offending block on the first violated claim.
pub fn recheck_block_diversity(chain: &Chain, block: &Block) -> Result<(), u64> {
    if block
        .transactions
        .iter()
        .all(|ct| ct.tx.inputs.is_empty())
    {
        return Ok(());
    }
    let universe = dams_store::token_universe(chain);
    for ct in &block.transactions {
        for input in &ct.tx.inputs {
            if input.claimed_l < 1 || input.claimed_c <= 0.0 {
                continue;
            }
            if input.ring.iter().any(|t| chain.token(*t).is_none()) {
                continue;
            }
            let ring = RingSet::new(
                input
                    .ring
                    .iter()
                    .map(|t| dams_diversity::TokenId(t.0 as u32)),
            );
            let req = DiversityRequirement::new(input.claimed_c, input.claimed_l);
            if !req.satisfied_by_ring(&ring, &universe) {
                return Err(block.header.height.0);
            }
        }
    }
    Ok(())
}

/// A block parked in the staging window, waiting out the
/// equivocation-detection delay.
#[derive(Debug, Clone)]
struct Staged {
    origin: usize,
    release_at: u64,
    block: Block,
}

/// An issued range request we are watching for withholding.
#[derive(Debug, Clone, Copy)]
struct PendingRange {
    peer: usize,
    claimed_height: u64,
    issued_at: u64,
    served: bool,
}

struct PeerState {
    score: f64,
    standing: Standing,
    was_quarantined: bool,
    buckets: [f64; FK_COUNT],
    /// Last tick a flood record was filed (dedup to one per tick).
    last_flood: Option<u64>,
    /// Frames pushed at us while quarantined.
    pressure: u64,
    /// Consecutive unanswered-range strikes.
    stale_strikes: u32,
    /// height → attestation of the block this peer attested there.
    attested: HashMap<u64, Attestation>,
}

impl PeerState {
    fn new(cfg: &ClusterConfig) -> Self {
        PeerState {
            score: 0.0,
            standing: Standing::Good,
            was_quarantined: false,
            buckets: [
                cfg.block_bucket.0,
                cfg.tip_bucket.0,
                cfg.range_bucket.0,
                cfg.evidence_bucket.0,
            ],
            last_flood: None,
            pressure: 0,
            stale_strikes: 0,
            attested: HashMap::new(),
        }
    }
}

/// What intake decided about a frame before any decode work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intake {
    /// Process the frame.
    Allow,
    /// Drop it: the peer is banned, quarantined, or over its rate limit.
    Drop,
}

/// One node's view of its peers: scores, standings, staged blocks,
/// attestations, and known equivocation proofs. Each honest replica owns
/// one; verdict convergence across replicas comes from proof gossip, not
/// shared state.
pub struct PeerDefense {
    id: usize,
    cfg: ClusterConfig,
    group: SchnorrGroup,
    directory: Vec<PublicKey>,
    peers: Vec<PeerState>,
    rng: StdRng,
    now: u64,
    records: Vec<MisbehaviorRecord>,
    staged: Vec<Staged>,
    pending: Vec<PendingRange>,
    proofs: Vec<(Digest, EquivocationProof)>,
}

impl PeerDefense {
    /// A defense table for node `id` over `directory.len()` peers.
    /// Jitter draws come from `seed` (callers derive it from the cluster
    /// seed and the node id so every replica's decay schedule differs but
    /// replays exactly).
    pub fn new(
        id: usize,
        group: SchnorrGroup,
        directory: Vec<PublicKey>,
        cfg: ClusterConfig,
        seed: u64,
    ) -> Self {
        let peers = (0..directory.len()).map(|_| PeerState::new(&cfg)).collect();
        PeerDefense {
            id,
            cfg,
            group,
            directory,
            peers,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            records: Vec::new(),
            staged: Vec::new(),
            pending: Vec::new(),
            proofs: Vec::new(),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn directory(&self) -> &[PublicKey] {
        &self.directory
    }

    pub fn standing(&self, peer: usize) -> Standing {
        self.peers
            .get(peer)
            .map_or(Standing::Good, |p| p.standing)
    }

    pub fn is_banned(&self, peer: usize) -> bool {
        matches!(self.standing(peer), Standing::Banned)
    }

    /// Peers currently banned.
    pub fn banned_peers(&self) -> Vec<usize> {
        (0..self.peers.len())
            .filter(|&p| self.is_banned(p))
            .collect()
    }

    /// Every offense filed so far, in filing order.
    pub fn records(&self) -> &[MisbehaviorRecord] {
        &self.records
    }

    /// Known equivocation proofs (for anti-entropy re-gossip).
    pub fn proofs(&self) -> impl Iterator<Item = &EquivocationProof> {
        self.proofs.iter().map(|(_, p)| p)
    }

    /// Blocks currently staged (tests and reports).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Advance the defense clock: refill buckets, decay scores with
    /// seeded jitter, expire quarantines, and time out watched range
    /// requests (filing [`Misbehavior::StaleTipSpam`] after the
    /// configured strikes). `local_height` clears claims that did
    /// materialize — however they arrived.
    pub fn on_tick(&mut self, now: u64, local_height: u64) {
        self.now = now;
        let refills = [
            self.cfg.block_bucket,
            self.cfg.tip_bucket,
            self.cfg.range_bucket,
            self.cfg.evidence_bucket,
        ];
        for p in &mut self.peers {
            for (k, (cap, refill)) in refills.iter().enumerate() {
                p.buckets[k] = (p.buckets[k] + refill).min(*cap);
            }
            let jitter = self.rng.gen_range(0.0..self.cfg.decay_jitter.max(f64::MIN_POSITIVE));
            p.score = (p.score - self.cfg.decay_per_tick - jitter).max(0.0);
            if let Standing::Quarantined { until } = p.standing {
                if now >= until {
                    p.standing = Standing::Good;
                    p.pressure = 0;
                }
            }
        }

        // Range-watch expiry: a pending whose claimed height materialized
        // (from anywhere) clears its peer's strike streak; one that timed
        // out unserved is a strike.
        let timeout = self.cfg.range_timeout;
        let strikes_needed = self.cfg.stale_tip_strikes.max(1);
        let mut expired: Vec<PendingRange> = Vec::new();
        self.pending.retain(|w| {
            if w.served || local_height >= w.claimed_height {
                if let Some(p) = self.peers.get_mut(w.peer) {
                    p.stale_strikes = 0;
                }
                return false;
            }
            if now.saturating_sub(w.issued_at) > timeout {
                expired.push(*w);
                return false;
            }
            true
        });
        for w in expired {
            let strikes = {
                let Some(p) = self.peers.get_mut(w.peer) else {
                    continue;
                };
                p.stale_strikes += 1;
                p.stale_strikes
            };
            if strikes >= strikes_needed {
                if let Some(p) = self.peers.get_mut(w.peer) {
                    p.stale_strikes = 0;
                }
                self.record(
                    w.peer,
                    Misbehavior::StaleTipSpam {
                        height: w.claimed_height,
                    },
                );
            }
        }
    }

    /// Transport-level admission: banned and quarantined peers are
    /// silenced (quarantined ones accumulate pressure toward a ban), and
    /// each frame kind debits its token bucket. Runs before any decode.
    pub fn intake(&mut self, src: usize, kind: usize) -> Intake {
        let metrics = NodeMetrics::global();
        let Some(state) = self.peers.get_mut(src) else {
            return Intake::Drop;
        };
        match state.standing {
            Standing::Banned => {
                metrics.peers_frames_dropped.inc();
                return Intake::Drop;
            }
            Standing::Quarantined { .. } => {
                state.pressure += 1;
                metrics.peers_frames_dropped.inc();
                if state.pressure >= self.cfg.quarantine_pressure {
                    self.ban(src);
                }
                return Intake::Drop;
            }
            Standing::Good => {}
        }
        let bucket = &mut state.buckets[kind.min(FK_COUNT - 1)];
        if *bucket >= 1.0 {
            *bucket -= 1.0;
            return Intake::Allow;
        }
        metrics.peers_frames_dropped.inc();
        if state.last_flood != Some(self.now) {
            state.last_flood = Some(self.now);
            self.record(src, Misbehavior::FloodExceeded { kind });
        }
        Intake::Drop
    }

    /// File an offense: push the record, bump the score, and escalate.
    /// Quarantine → ban escalation is sticky: a peer that re-offends
    /// after (or during) a quarantine is banned outright.
    pub fn record(&mut self, peer: usize, offense: Misbehavior) -> Standing {
        let tick = self.now;
        let metrics = NodeMetrics::global();
        metrics.peers_misbehavior.inc();
        dams_obs::global()
            .counter_labeled("node.peers.misbehavior_total", "node", &self.id.to_string())
            .inc();
        dams_obs::global()
            .counter_labeled("node.peers.offense_total", "offense", offense.label())
            .inc();
        self.records.push(MisbehaviorRecord {
            peer,
            offense,
            tick,
        });
        let Some(state) = self.peers.get_mut(peer) else {
            return Standing::Good;
        };
        if state.standing == Standing::Banned {
            return Standing::Banned;
        }
        state.score += offense.severity();
        let escalate_ban = state.score >= self.cfg.ban_score
            || state.was_quarantined
            || matches!(state.standing, Standing::Quarantined { .. });
        if escalate_ban {
            self.ban(peer);
            return Standing::Banned;
        }
        if state.score >= self.cfg.quarantine_score {
            let jitter = self.rng.gen_range(0..=self.cfg.quarantine_ticks / 2);
            let until = self.now + self.cfg.quarantine_ticks + jitter;
            state.standing = Standing::Quarantined { until };
            state.was_quarantined = true;
            NodeMetrics::global().peers_quarantined.inc();
            return state.standing;
        }
        state.standing
    }

    fn ban(&mut self, peer: usize) {
        let Some(state) = self.peers.get_mut(peer) else {
            return;
        };
        if state.standing == Standing::Banned {
            return;
        }
        state.standing = Standing::Banned;
        NodeMetrics::global().peers_banned.inc();
        dams_obs::global()
            .counter_labeled("node.peers.banned_total", "node", &self.id.to_string())
            .inc();
        // A banned origin's staged blocks are void.
        self.staged.retain(|s| s.origin != peer);
        self.pending.retain(|w| w.peer != peer);
    }

    /// Watch a tip claim: returns whether a range request to `src` should
    /// be issued (one outstanding per peer, never to silenced peers) and
    /// registers the watch.
    pub fn watch_tip(&mut self, src: usize, claimed_height: u64) -> bool {
        if !matches!(self.standing(src), Standing::Good) {
            return false;
        }
        if self.pending.iter().any(|w| w.peer == src) {
            return false;
        }
        self.pending.push(PendingRange {
            peer: src,
            claimed_height,
            issued_at: self.now,
            served: false,
        });
        true
    }

    /// Note a block frame from `src` (it is serving *something*): clears
    /// its unanswered-range watches and strike streak.
    pub fn note_block_from(&mut self, src: usize) {
        for w in &mut self.pending {
            if w.peer == src {
                w.served = true;
            }
        }
        if let Some(p) = self.peers.get_mut(src) {
            p.stale_strikes = 0;
        }
    }

    /// Record a verified attestation. Returns an [`EquivocationProof`]
    /// when it conflicts with one already on file for the same origin and
    /// height — the caller bans the origin and gossips the proof.
    pub fn observe_attestation(&mut self, att: &Attestation) -> Option<EquivocationProof> {
        let origin = att.origin as usize;
        let state = self.peers.get_mut(origin)?;
        match state.attested.get(&att.height) {
            Some(prior) if prior.hash != att.hash => Some(EquivocationProof {
                a: prior.clone(),
                b: att.clone(),
            }),
            Some(_) => None,
            None => {
                state.attested.insert(att.height, att.clone());
                None
            }
        }
    }

    /// Accept an equivocation proof (locally detected or gossiped):
    /// verify it, ban the accused, and remember it for re-gossip. Returns
    /// `false` for invalid or already-known proofs.
    pub fn apply_proof(&mut self, proof: &EquivocationProof) -> bool {
        if !proof.verify(&self.group, &self.directory) {
            return false;
        }
        let id = proof.id();
        if self.proofs.iter().any(|(known, _)| *known == id) {
            return false;
        }
        self.proofs.push((id, proof.clone()));
        let accused = proof.accused() as usize;
        if !self.is_banned(accused) {
            self.record(
                accused,
                Misbehavior::Equivocation {
                    height: proof.height(),
                },
            );
            // Equivocation severity crosses the ban threshold, but be
            // explicit: a proof is terminal.
            self.ban(accused);
        }
        true
    }

    /// Park a block in the staging window.
    pub fn stage(&mut self, origin: usize, block: Block) {
        self.staged.push(Staged {
            origin,
            release_at: self.now + self.cfg.stage_ticks,
            block,
        });
    }

    /// Whether a block with this hash is already staged (announce dedup).
    pub fn is_staged(&self, hash: &Digest) -> bool {
        self.staged.iter().any(|s| s.block.hash() == *hash)
    }

    /// Blocks whose staging window elapsed, ready for delivery, each with
    /// the peer that announced it (the release-time diversity recheck
    /// attributes to it). Blocks from since-silenced origins were already
    /// voided.
    pub fn release_staged(&mut self) -> Vec<(usize, Block)> {
        let now = self.now;
        let mut out = Vec::new();
        self.staged.retain(|s| {
            if s.release_at <= now {
                out.push((s.origin, s.block.clone()));
                false
            } else {
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identities(group: &SchnorrGroup, n: usize, seed: u64) -> Vec<KeyPair> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| KeyPair::generate(group, &mut rng)).collect()
    }

    fn defense(n: usize) -> (PeerDefense, Vec<KeyPair>, SchnorrGroup) {
        let group = SchnorrGroup::default();
        let ids = identities(&group, n, 7);
        let dir: Vec<PublicKey> = ids.iter().map(|k| k.public).collect();
        (
            PeerDefense::new(0, group, dir, ClusterConfig::default(), 99),
            ids,
            group,
        )
    }

    #[test]
    fn attestation_roundtrip_and_verify() {
        let (_, ids, group) = defense(3);
        let mut rng = StdRng::seed_from_u64(1);
        let att =
            Attestation::sign(&group, 1, 5, [7u8; 32], &ids[1], &mut rng).unwrap();
        assert!(att.verify(&group, &ids.iter().map(|k| k.public).collect::<Vec<_>>()));
        let bytes = att.to_bytes();
        let back = parse_exact(&bytes, |r| Attestation::decode(&group, r)).unwrap();
        assert_eq!(back, att);
        // Signed by the wrong identity → fails against the directory.
        let forged =
            Attestation::sign(&group, 1, 5, [7u8; 32], &ids[2], &mut rng).unwrap();
        assert!(!forged.verify(&group, &ids.iter().map(|k| k.public).collect::<Vec<_>>()));
    }

    #[test]
    fn conflicting_attestations_build_a_verifiable_proof() {
        let (mut d, ids, group) = defense(3);
        let dir: Vec<PublicKey> = ids.iter().map(|k| k.public).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let a = Attestation::sign(&group, 2, 4, [1u8; 32], &ids[2], &mut rng).unwrap();
        let b = Attestation::sign(&group, 2, 4, [2u8; 32], &ids[2], &mut rng).unwrap();
        assert!(d.observe_attestation(&a).is_none());
        let proof = d.observe_attestation(&b).expect("conflict must surface");
        assert!(proof.verify(&group, &dir));
        assert_eq!(proof.accused(), 2);
        assert!(d.apply_proof(&proof));
        assert!(d.is_banned(2));
        assert!(!d.apply_proof(&proof), "known proofs are deduped");
        // A framed proof (two different heights) never verifies.
        let c = Attestation::sign(&group, 2, 5, [3u8; 32], &ids[2], &mut rng).unwrap();
        let bad = EquivocationProof { a: a.clone(), b: c };
        assert!(!bad.verify(&group, &dir));
    }

    #[test]
    fn proof_decode_rejects_mangled_bytes() {
        let (_, ids, group) = defense(2);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Attestation::sign(&group, 1, 2, [4u8; 32], &ids[1], &mut rng).unwrap();
        let b = Attestation::sign(&group, 1, 2, [5u8; 32], &ids[1], &mut rng).unwrap();
        let proof = EquivocationProof { a, b };
        let bytes = proof.to_bytes();
        assert_eq!(EquivocationProof::from_bytes(&group, &bytes), Ok(proof));
        assert!(EquivocationProof::from_bytes(&group, &bytes[..bytes.len() - 1]).is_err());
        assert!(EquivocationProof::from_bytes(&group, &[]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            EquivocationProof::from_bytes(&group, &longer),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn flood_drains_bucket_and_records_once_per_tick() {
        let (mut d, _, _) = defense(2);
        d.on_tick(1, 0);
        let cap = ClusterConfig::default().tip_bucket.0 as usize;
        for _ in 0..cap {
            assert_eq!(d.intake(1, FK_TIP), Intake::Allow);
        }
        assert_eq!(d.intake(1, FK_TIP), Intake::Drop);
        assert_eq!(d.intake(1, FK_TIP), Intake::Drop);
        let floods = d
            .records()
            .iter()
            .filter(|r| matches!(r.offense, Misbehavior::FloodExceeded { .. }))
            .count();
        assert_eq!(floods, 1, "one flood record per tick");
    }

    #[test]
    fn scores_decay_and_escalation_is_sticky() {
        let (mut d, _, _) = defense(2);
        d.on_tick(1, 0);
        assert_eq!(
            d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 }),
            Standing::Good
        );
        // Second offense crosses quarantine.
        let s = d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 });
        assert!(matches!(s, Standing::Quarantined { .. }), "{s:?}");
        // Long quiet: quarantine expires and the score decays away.
        for t in 2..200 {
            d.on_tick(t, 0);
        }
        assert_eq!(d.standing(1), Standing::Good);
        // But the next offense bans: quarantine → ban is sticky.
        assert_eq!(
            d.record(1, Misbehavior::FloodExceeded { kind: FK_TIP }),
            Standing::Banned
        );
    }

    #[test]
    fn quarantine_pressure_escalates_to_ban() {
        let (mut d, _, _) = defense(2);
        d.on_tick(1, 0);
        d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 });
        d.record(1, Misbehavior::RangeAbuse { requested: 99, cap: 16 });
        assert!(matches!(d.standing(1), Standing::Quarantined { .. }));
        let pressure = ClusterConfig::default().quarantine_pressure;
        for _ in 0..pressure {
            assert_eq!(d.intake(1, FK_TIP), Intake::Drop);
        }
        assert_eq!(d.standing(1), Standing::Banned);
    }

    #[test]
    fn unanswered_range_watches_strike_into_stale_tip_spam() {
        let (mut d, _, _) = defense(2);
        let cfg = ClusterConfig::default();
        let mut now = 1;
        d.on_tick(now, 3);
        assert!(d.watch_tip(1, 50));
        assert!(!d.watch_tip(1, 50), "one outstanding watch per peer");
        // Strike 1.
        for _ in 0..=cfg.range_timeout + 1 {
            now += 1;
            d.on_tick(now, 3);
        }
        assert!(d.records().is_empty(), "first strike is not yet an offense");
        // Strike 2 → record.
        assert!(d.watch_tip(1, 50));
        for _ in 0..=cfg.range_timeout + 1 {
            now += 1;
            d.on_tick(now, 3);
        }
        assert!(
            d.records()
                .iter()
                .any(|r| matches!(r.offense, Misbehavior::StaleTipSpam { height: 50 })),
            "{:?}",
            d.records()
        );
        // A served watch never strikes.
        assert!(d.watch_tip(0, 50));
        d.note_block_from(0);
        for _ in 0..=cfg.range_timeout + 1 {
            now += 1;
            d.on_tick(now, 3);
        }
        assert!(d
            .records()
            .iter()
            .all(|r| r.peer != 0), "{:?}", d.records());
    }

    #[test]
    fn staging_holds_and_releases_blocks() {
        let (mut d, _, group) = defense(2);
        let chain = Chain::new(group);
        let genesis = chain.blocks()[0].clone();
        d.on_tick(1, 0);
        d.stage(1, genesis.clone());
        assert!(d.is_staged(&genesis.hash()));
        assert!(d.release_staged().is_empty(), "window not yet elapsed");
        let release = ClusterConfig::default().stage_ticks;
        d.on_tick(1 + release, 0);
        assert_eq!(d.release_staged().len(), 1);
        // A banned origin's staged blocks are voided.
        d.stage(1, genesis.clone());
        d.record(1, Misbehavior::Equivocation { height: 1 });
        assert!(d.is_banned(1));
        d.on_tick(1 + 2 * release, 0);
        assert!(d.release_staged().is_empty(), "voided with the ban");
    }

    #[test]
    fn severities_rank_betrayals_over_noise() {
        assert!(
            Misbehavior::Equivocation { height: 1 }.severity()
                >= ClusterConfig::default().ban_score
        );
        assert!(
            Misbehavior::DiversityViolation { height: 1 }.severity()
                >= ClusterConfig::default().ban_score
        );
        assert!(
            Misbehavior::FloodExceeded { kind: FK_TIP }.severity()
                < ClusterConfig::default().quarantine_score
        );
    }
}
