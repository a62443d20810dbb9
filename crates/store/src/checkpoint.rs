//! Checksummed checkpoints: a compact, crc32-protected attestation of
//! chain state at a block boundary.
//!
//! A checkpoint does **not** replace the WAL (blocks are the state and the
//! WAL keeps all of them); it attests a verified prefix so recovery can
//! (a) skip re-verifying ring signatures up to its height, and (b)
//! cross-check that the replayed prefix still carries *exactly* the
//! commitment evidence — tip hash, key-image set, committed-ring
//! diversity fingerprints — that existed when the checkpoint was written.
//! A lost fsync that swallowed attested records is caught this way, which
//! a bare WAL scan can never do.
//!
//! The evidence is an [`Attestation`], derived from the committed blocks
//! alone (never from mempool state) and folded block by block: the store
//! keeps one across checkpoints and folds only the blocks appended since
//! the last, so attesting costs O(Δ) per checkpoint, not O(chain).
//! Recovery re-derives the same fold from the replayed blocks, so writer
//! and verifier share one derivation. Encoding writes the borrowed
//! attestation straight into the envelope.
//!
//! Layout: `magic[8] = "DAMSCKP\x01" ‖ body_len u32le ‖ crc32(body) u32le ‖ body`.
//! A malformed or crc-rejected checkpoint is *never* fatal: recovery falls
//! back to full replay with full re-verification, counting the reject.

use dams_blockchain::{Block, RingInput};
use dams_crypto::sha256::sha256_parts;

use crate::crc32::crc32;

/// Checkpoint file magic: name + format version byte.
pub const CKP_MAGIC: [u8; 8] = *b"DAMSCKP\x01";
/// Sanity bound on a checkpoint body.
const MAX_BODY_LEN: u64 = 1 << 26;

/// The attested state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Group fingerprint (must match the WAL header's).
    pub group_fp: u64,
    /// Header height of the last attested block.
    pub height: u64,
    /// Hash of that block.
    pub tip: [u8; 32],
    /// Durable WAL length when the checkpoint was written.
    pub wal_len: u64,
    /// Sorted key images of every committed ring input up to `height`.
    pub images: Vec<u64>,
    /// Diversity fingerprint of every committed RS, in commit order.
    pub ring_fps: Vec<[u8; 32]>,
}

/// Fingerprint of one committed RS: the ring's token ids plus its claimed
/// (c, ℓ) — the exact evidence the immutability invariant protects.
pub fn ring_fingerprint(input: &RingInput) -> [u8; 32] {
    let mut ids = Vec::with_capacity(input.ring.len() * 8);
    for t in &input.ring {
        ids.extend_from_slice(&t.0.to_le_bytes());
    }
    sha256_parts(&[
        &ids,
        &input.claimed_c.to_bits().to_le_bytes(),
        &(input.claimed_l as u64).to_le_bytes(),
    ])
}

/// The commitment evidence of a chain prefix, folded block by block: the
/// part of a checkpoint that grows with the chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attestation {
    /// Blocks folded, genesis included (0 = nothing folded yet).
    pub(crate) blocks: usize,
    /// Hash of the last folded block.
    pub(crate) tip: [u8; 32],
    /// Sorted key images of every folded ring input.
    pub(crate) images: Vec<u64>,
    /// Fingerprint of every folded committed RS, in commit order.
    pub(crate) ring_fps: Vec<[u8; 32]>,
}

impl Attestation {
    /// The attestation of `blocks`, a chain's blocks from genesis.
    pub fn of(blocks: &[Block]) -> Self {
        let mut att = Attestation::default();
        att.fold(blocks);
        att
    }

    /// Bring the attestation up to `blocks`, a chain's blocks from
    /// genesis. While the last folded block is still at its position in
    /// `blocks`, only the blocks past it are folded. Anything else — a
    /// rollback, a reorg, a different chain — refolds from genesis.
    pub fn fold(&mut self, blocks: &[Block]) {
        let extends = self.blocks > 0
            && blocks
                .get(self.blocks - 1)
                .is_some_and(|b| b.hash() == self.tip);
        if !extends {
            *self = Attestation::default();
        }
        let new = &blocks[self.blocks..];
        let Some(last) = new.last() else { return };
        for input in new
            .iter()
            .flat_map(|b| &b.transactions)
            .flat_map(|ct| &ct.tx.inputs)
        {
            self.images.push(input.key_image().value());
            self.ring_fps.push(ring_fingerprint(input));
        }
        // A sorted prefix plus a short new tail: the stable sort merges
        // such concatenated runs in near-linear time.
        self.images.sort();
        self.tip = last.hash();
        self.blocks = blocks.len();
    }

    /// The first attested field `cp` disagrees with, if any — in the
    /// order tip hash, key-image set, ring fingerprints.
    pub fn mismatch(&self, cp: &Checkpoint) -> Option<&'static str> {
        if self.tip != cp.tip {
            Some("tip hash")
        } else if self.images != cp.images {
            Some("key-image set")
        } else if self.ring_fps != cp.ring_fps {
            Some("ring fingerprints")
        } else {
            None
        }
    }
}

impl Checkpoint {
    /// Serialize with the crc envelope.
    pub fn encode(&self) -> Vec<u8> {
        encode(
            self.group_fp,
            self.height,
            &self.tip,
            self.wal_len,
            &self.images,
            &self.ring_fps,
        )
    }
}

/// Serialize a checkpoint with the crc envelope, straight from borrowed
/// parts: the body is written once, in place, and its crc patched in.
pub fn encode(
    group_fp: u64,
    height: u64,
    tip: &[u8; 32],
    wal_len: u64,
    images: &[u64],
    ring_fps: &[[u8; 32]],
) -> Vec<u8> {
    let body_len = 5 * 8 + 32 + 8 * images.len() + 32 * ring_fps.len();
    let mut out = Vec::with_capacity(16 + body_len);
    out.extend_from_slice(&CKP_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&group_fp.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    out.extend_from_slice(tip);
    out.extend_from_slice(&wal_len.to_le_bytes());
    out.extend_from_slice(&(images.len() as u64).to_le_bytes());
    for img in images {
        out.extend_from_slice(&img.to_le_bytes());
    }
    out.extend_from_slice(&(ring_fps.len() as u64).to_le_bytes());
    for fp in ring_fps {
        out.extend_from_slice(fp);
    }
    debug_assert_eq!(out.len(), 16 + body_len);
    let crc = crc32(&out[16..]);
    out[12..16].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Outcome of reading a checkpoint device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointLoad {
    /// No checkpoint has ever been written.
    Absent,
    /// Bytes exist but fail the magic/length/crc gauntlet — recovery falls
    /// back to full replay and counts the reject.
    Rejected,
    Loaded(Checkpoint),
}

/// Parse a checkpoint device image.
pub fn decode(bytes: &[u8]) -> CheckpointLoad {
    if bytes.is_empty() {
        return CheckpointLoad::Absent;
    }
    if bytes.len() < 16 || bytes[..8] != CKP_MAGIC {
        return CheckpointLoad::Rejected;
    }
    let body_len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as u64;
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if body_len > MAX_BODY_LEN || 16 + body_len as usize != bytes.len() {
        return CheckpointLoad::Rejected;
    }
    let body = &bytes[16..];
    if crc32(body) != stored_crc {
        return CheckpointLoad::Rejected;
    }
    parse_body(body).map_or(CheckpointLoad::Rejected, CheckpointLoad::Loaded)
}

fn parse_body(body: &[u8]) -> Option<Checkpoint> {
    let mut pos = 0usize;
    let u64_at = |p: &mut usize| -> Option<u64> {
        let end = p.checked_add(8)?;
        let v = u64::from_le_bytes(body.get(*p..end)?.try_into().ok()?);
        *p = end;
        Some(v)
    };
    let group_fp = u64_at(&mut pos)?;
    let height = u64_at(&mut pos)?;
    let tip: [u8; 32] = body.get(pos..pos + 32)?.try_into().ok()?;
    pos += 32;
    let wal_len = u64_at(&mut pos)?;
    let n_images = u64_at(&mut pos)? as usize;
    if n_images > (MAX_BODY_LEN as usize) / 8 {
        return None;
    }
    let mut images = Vec::with_capacity(n_images);
    for _ in 0..n_images {
        images.push(u64_at(&mut pos)?);
    }
    let n_rings = u64_at(&mut pos)? as usize;
    if n_rings > (MAX_BODY_LEN as usize) / 32 {
        return None;
    }
    let mut ring_fps = Vec::with_capacity(n_rings);
    for _ in 0..n_rings {
        let fp: [u8; 32] = body.get(pos..pos + 32)?.try_into().ok()?;
        pos += 32;
        ring_fps.push(fp);
    }
    (pos == body.len()).then_some(Checkpoint {
        group_fp,
        height,
        tip,
        wal_len,
        images,
        ring_fps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            group_fp: 0xFEED,
            height: 9,
            tip: [7; 32],
            wal_len: 1234,
            images: vec![1, 5, 42],
            ring_fps: vec![[1; 32], [2; 32]],
        }
    }

    #[test]
    fn roundtrip() {
        let cp = sample();
        assert_eq!(decode(&cp.encode()), CheckpointLoad::Loaded(cp));
    }

    #[test]
    fn empty_is_absent() {
        assert_eq!(decode(&[]), CheckpointLoad::Absent);
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_changes_content() {
        let cp = sample();
        let clean = cp.encode();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            match decode(&bytes) {
                CheckpointLoad::Rejected => {}
                CheckpointLoad::Loaded(got) => {
                    panic!("flip at {i} silently accepted as {got:?}")
                }
                CheckpointLoad::Absent => panic!("non-empty decoded as absent"),
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in [1, 8, 15, 16, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(decode(&bytes[..cut]), CheckpointLoad::Rejected, "cut {cut}");
        }
    }
}
