//! Multi-input coupling at the analysis layer. A matrix ring signature
//! (MLSAG-style) would reveal that a transaction's m inputs are spent by
//! the *same* ring slot, aligning the per-input rings: once side
//! information resolves one layer, every layer collapses. The chain signs
//! each `RingInput` with its own bLSAG, so no signature aligns the slots,
//! but the same cascade follows from any side information that links the
//! inputs. Either way, each input's ring has to be DA-MS-diverse on its
//! own.

use dams_diversity::{
    analyze, RingIndex, RingSet, RsId, TokenId, TokenRsPair,
};

#[test]
fn slot_coupling_cascades_under_side_information() {
    // Model the coupling at the token layer: a 2-layer MLSAG over slots
    // {A, B, C} corresponds to two rings whose i-th members belong to the
    // same wallet: layer0 = {a0, b0, c0}, layer1 = {a1, b1, c1}.
    //
    // Without coupling, revealing "a0 spent in layer0" says nothing about
    // layer1. With MLSAG coupling, the adversary knows the spending slot
    // is shared — learning slot A spent layer0 resolves layer1 to a1.
    // We emulate the coupling by feeding the slot-resolution into the
    // second ring as derived side information, and verify the cascade.
    let layer0 = RingSet::new([TokenId(0), TokenId(1), TokenId(2)]);
    let layer1 = RingSet::new([TokenId(10), TokenId(11), TokenId(12)]);
    let idx = RingIndex::from_rings([layer0, layer1]);

    // Uncoupled adversary with the same side information about layer0:
    let uncoupled = analyze(&idx, &[TokenRsPair::new(TokenId(0), RsId(0))]);
    assert_eq!(
        uncoupled.resolved(RsId(0)),
        Some(TokenId(0)),
        "layer0 resolved directly"
    );
    assert_eq!(
        uncoupled.resolved(RsId(1)),
        None,
        "without coupling layer1 stays open"
    );

    // Coupled adversary: slot index of token 0 in layer0 is 0, so layer1's
    // spend is its slot-0 member, token 10.
    let coupled = analyze(
        &idx,
        &[
            TokenRsPair::new(TokenId(0), RsId(0)),
            TokenRsPair::new(TokenId(10), RsId(1)), // the coupling inference
        ],
    );
    assert_eq!(coupled.resolved(RsId(1)), Some(TokenId(10)));
}

#[test]
fn diverse_layers_bound_the_coupled_damage() {
    // Even under full coupling, the adversary's *prior* knowledge of the
    // slot is only as good as the weakest layer's anonymity. If every
    // layer's ring is diverse, the slot remains one of n — the coupled
    // transaction leaks no more than a single-input one until some layer
    // is independently broken.
    let layer0 = RingSet::new([TokenId(0), TokenId(1), TokenId(2), TokenId(3)]);
    let layer1 = RingSet::new([TokenId(10), TokenId(11), TokenId(12), TokenId(13)]);
    let idx = RingIndex::from_rings([layer0.clone(), layer1.clone()]);
    let a = analyze(&idx, &[]);
    assert_eq!(a.candidates[&RsId(0)].len(), 4);
    assert_eq!(a.candidates[&RsId(1)].len(), 4);
    // Slot anonymity = min over layers of the layer's candidate count.
    let slot_anonymity = a
        .candidates
        .values()
        .map(|c| c.len())
        .min()
        .expect("two layers");
    assert_eq!(slot_anonymity, 4);
}
