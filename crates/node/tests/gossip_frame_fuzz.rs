//! Frame corruption sweep over all six wire kinds of the node layer's
//! one codec — block, tip, range, evidence (equivocation proof),
//! refusal, and the checkpoint catch-up bundle.
//!
//! Golden vectors prove clean frames round-trip through [`decode_frame`]
//! and golden SHA-256 digests pin every frame's exact bytes; then 64
//! seeded bit-flips and 64 seeded truncations per kind prove a mutated
//! frame is either rejected with a typed [`NodeError`] or — in the one
//! legal survivor case, a flip inside a signature of a block
//! frame — decodes to a frame whose attestation no longer verifies
//! against the identity directory. Never a panic, never a silent
//! acceptance: this is the wire half of the Byzantine-defense argument
//! (the transport may mangle anything; attribution must survive it).
//! A mutated bundle frame is always a typed [`NodeError::SyncRejected`]
//! from [`bootstrap_from_bundle`]: no replica comes up from it.

use dams_node::{
    bootstrap_from_bundle, decode_frame, frame_attested_block, frame_evidence, frame_range,
    frame_refusal, frame_tip, serve_bundle, Attestation, EquivocationProof, GossipFrame, NodeError,
    NodeLimits, SimNode,
};
use dams_blockchain::{Amount, Chain, TokenOutput};
use dams_crypto::sha256::sha256;
use dams_crypto::{KeyPair, PublicKey, SchnorrGroup};
use dams_store::{MemBackend, Store, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 64;

struct Fixture {
    group: SchnorrGroup,
    directory: Vec<PublicKey>,
    /// (kind name, clean frame bytes) for every wire kind.
    frames: Vec<(&'static str, Vec<u8>)>,
}

fn fixture() -> Fixture {
    let group = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(1717);
    let identity = KeyPair::generate(&group, &mut rng);
    let directory = vec![identity.public];

    // A realistic announced block: genesis + one sealed coinbase.
    let mut chain = Chain::new(group);
    let owner = KeyPair::generate(&group, &mut rng);
    chain.submit_coinbase(vec![TokenOutput {
        owner: owner.public,
        amount: Amount(5),
    }]);
    chain.seal_block().expect("coinbase seals");
    let block = chain.blocks().last().expect("sealed").clone();
    let att = Attestation::sign(
        &group,
        0,
        block.header.height.0,
        block.hash(),
        &identity,
        &mut rng,
    )
    .expect("ring-of-one signs");

    let a = Attestation::sign(&group, 0, 3, [1u8; 32], &identity, &mut rng).unwrap();
    let b = Attestation::sign(&group, 0, 3, [2u8; 32], &identity, &mut rng).unwrap();
    let proof = EquivocationProof { a, b };
    assert!(proof.verify(&group, &directory), "fixture proof must verify");

    Fixture {
        group,
        directory,
        frames: vec![
            ("block", frame_attested_block(&att, &block)),
            ("tip", frame_tip(0, 7, [9u8; 32])),
            ("range", frame_range(1, 2, 9)),
            ("evidence", frame_evidence(&proof)),
            ("refusal", frame_refusal(0, 99, 16)),
        ],
    }
}

#[test]
fn golden_vectors_roundtrip_every_kind() {
    let fx = fixture();
    for (name, bytes) in &fx.frames {
        let decoded = decode_frame(&fx.group, bytes)
            .unwrap_or_else(|e| panic!("golden {name} frame rejected: {e}"));
        match (*name, &decoded) {
            ("block", GossipFrame::Block { attestation, block }) => {
                assert!(attestation.verify(&fx.group, &fx.directory));
                assert_eq!(attestation.hash, block.hash());
            }
            ("tip", GossipFrame::Tip { sender, height, tip }) => {
                assert_eq!((*sender, *height, *tip), (0, 7, [9u8; 32]));
            }
            ("range", GossipFrame::Range { requester, from, to }) => {
                assert_eq!((*requester, *from, *to), (1, 2, 9));
            }
            ("evidence", GossipFrame::Evidence(proof)) => {
                assert!(proof.verify(&fx.group, &fx.directory));
            }
            ("refusal", GossipFrame::Refusal { server, requested, cap }) => {
                assert_eq!((*server, *requested, *cap), (0, 99, 16));
            }
            (name, other) => panic!("golden {name} decoded as wrong kind: {other:?}"),
        }
    }
}

fn sha256_hex(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// Pins the exact bytes of every fixture frame and of the catch-up
/// bundle (all deterministic from their seeds): a codec change that
/// alters a single byte on the gossip wire fails here.
#[test]
fn golden_digests_pin_every_frame_byte() {
    let golden = [
        ("block", "89d156a0d1846d1cc30dd7e1554aa71ed3aefb46c5e9e7c8c2bb848bfa7bd53f"),
        ("tip", "450a551087e2d6cd58d9514da8944f535357d422bf6e7f88f09fd50cb30fa401"),
        ("range", "a9d1bd6f55f538711603550d5919d6ae65643a1ab511f45acd6ff64cf3f1b12f"),
        ("evidence", "bbdab322a4ea0665efc45f01ccd3813a636a93802c2e7141c5ab4f78a0510632"),
        ("refusal", "1373d8e6d2f84958e26a83c56820f7c2fe5c40f330d2ec07f2eb21c6556e4ff6"),
    ];
    let fx = fixture();
    assert_eq!(fx.frames.len(), golden.len());
    for ((name, bytes), (want_name, want)) in fx.frames.iter().zip(golden) {
        assert_eq!(*name, want_name);
        assert_eq!(sha256_hex(bytes), want, "{name} frame bytes drifted");
    }
    assert_eq!(
        sha256_hex(&bundle_frame(SchnorrGroup::default())),
        "d8bb39ce22bbe4563269b66bf1d036beb3603cbac7c29c1d978b43f4c9b2874b",
        "bundle frame bytes drifted"
    );
}

#[test]
fn bit_flips_yield_typed_errors_or_unverifiable_frames() {
    let fx = fixture();
    for (name, clean) in &fx.frames {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0xF1A6_0000 + seed);
            let mut bytes = clean.clone();
            let idx = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[idx] ^= 1 << bit;
            match decode_frame(&fx.group, &bytes) {
                Err(_) => {} // typed rejection: the expected outcome
                Ok(GossipFrame::Block { attestation, block }) => {
                    // The only tolerable survivor: a flip that decode
                    // cannot see (inside signature bytes covered by the
                    // frame digest we also flipped? impossible — one flip
                    // only). A decoded block frame must therefore fail
                    // attestation verification or mismatch the original.
                    assert!(
                        !attestation.verify(&fx.group, &fx.directory)
                            || attestation.hash != block.hash(),
                        "{name} seed {seed}: bit {bit} of byte {idx} survived \
                         decode AND attestation verification — silent acceptance"
                    );
                }
                Ok(other) => panic!(
                    "{name} seed {seed}: single bit flip (byte {idx}, bit {bit}) \
                     decoded cleanly as {other:?} — the frame digest missed it"
                ),
            }
        }
    }
}

#[test]
fn truncations_always_yield_typed_errors() {
    let fx = fixture();
    for (name, clean) in &fx.frames {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0x7256_0000 + seed);
            let cut = rng.gen_range(0..clean.len());
            assert!(
                decode_frame(&fx.group, &clean[..cut]).is_err(),
                "{name} seed {seed}: truncation at {cut}/{} still decoded",
                clean.len()
            );
        }
    }
}

#[test]
fn mangled_evidence_never_verifies_as_a_proof() {
    // Evidence frames are the frames peers act on hardest (a verified
    // proof is an instant ban), so pin the stronger property: however a
    // single byte is mangled, the result either fails to decode or fails
    // proof verification. No mutation may yield a *different valid
    // proof*.
    let fx = fixture();
    let clean = &fx.frames[3].1;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xE71D ^ (seed << 8));
        let mut bytes = clean.clone();
        let idx = rng.gen_range(0..bytes.len());
        bytes[idx] = bytes[idx].wrapping_add(rng.gen_range(1..=255u8));
        if let Ok(GossipFrame::Evidence(proof)) = decode_frame(&fx.group, &bytes) {
            assert!(
                !proof.verify(&fx.group, &fx.directory),
                "seed {seed}: mutated byte {idx} produced a verifying proof"
            );
        }
    }
}

/// The catch-up bundle a durable replica holding five blocks serves
/// (past its first checkpoint, so both the checkpoint and the WAL tail
/// travel in the frame).
fn bundle_frame(group: SchnorrGroup) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0xB0D1);
    let mut node = SimNode::new(0, group);
    let backend = || Box::new(MemBackend::new());
    let store = Store::open(backend(), backend(), group, StoreConfig::default());
    node.attach_store(store.expect("fresh store opens")).expect("store attaches");
    for _ in 0..5 {
        let owner = KeyPair::generate(&group, &mut rng).public;
        node.chain_mut().submit_coinbase(vec![TokenOutput {
            owner,
            amount: Amount(1),
        }]);
        node.seal_block().expect("coinbase seals");
    }
    serve_bundle(&mut node).expect("durable replica serves a bundle")
}

/// Bootstrapping from `bytes` must fail with a typed sync rejection.
fn assert_sync_rejected(group: SchnorrGroup, bytes: &[u8], what: &str) {
    match bootstrap_from_bundle(9, group, NodeLimits::default(), bytes) {
        Err(NodeError::SyncRejected { .. }) => {}
        Err(e) => panic!("{what}: rejected, but not as SyncRejected: {e:?}"),
        Ok((node, _)) => panic!("{what}: a replica came up at height {}", node.chain().height()),
    }
}

#[test]
fn bundle_bit_flips_yield_sync_rejections() {
    let group = SchnorrGroup::default();
    let clean = bundle_frame(group);
    let (node, _) = bootstrap_from_bundle(9, group, NodeLimits::default(), &clean)
        .expect("the clean bundle bootstraps");
    assert_eq!(node.chain().height(), 6);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xB0F1_0000 + seed);
        let mut bytes = clean.clone();
        let idx = rng.gen_range(0..bytes.len());
        let bit = rng.gen_range(0..8u8);
        bytes[idx] ^= 1 << bit;
        assert_sync_rejected(group, &bytes, &format!("seed {seed}: bit {bit} of byte {idx}"));
    }
    // Well-formed frames of every gossip kind are not bundles.
    for (name, frame) in &fixture().frames {
        assert_sync_rejected(group, frame, name);
    }
}

#[test]
fn bundle_truncations_yield_sync_rejections() {
    let group = SchnorrGroup::default();
    let clean = bundle_frame(group);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xB072_0000 + seed);
        let cut = rng.gen_range(0..clean.len());
        assert_sync_rejected(
            group,
            &clean[..cut],
            &format!("seed {seed}: truncation at {cut}/{}", clean.len()),
        );
    }
}
