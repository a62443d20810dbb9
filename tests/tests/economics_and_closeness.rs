//! Integration tests tying the economic layer (fees) and the t-closeness
//! metric to the DA-MS selections.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::{Amount, FeeSchedule};
use dams_core::{game_theoretic, progressive, SelectionPolicy};
use dams_crypto::{KeyPair, SchnorrGroup};
use dams_diversity::{is_t_close, total_variation, DiversityRequirement, TokenId};
use dams_workload::{monero_snapshot, SyntheticConfig};

#[test]
fn tm_g_minimises_the_fee_bill() {
    // The §1 economics: fee ∝ ring members, so the game-theoretic
    // algorithm's smaller rings cost less than the progressive's, which
    // cost less than random padding would.
    let mut rng = StdRng::seed_from_u64(1);
    let instance = monero_snapshot(&mut rng);
    let policy = SelectionPolicy::new(DiversityRequirement::new(0.6, 40));
    let schedule = FeeSchedule::new(Amount(100), Amount(7));

    let mut fee_g = 0u64;
    let mut fee_p = 0u64;
    let mut compared = 0;
    for t in [0u32, 50, 100, 150, 200] {
        let (Ok(g), Ok(p)) = (
            game_theoretic(&instance, TokenId(t), policy),
            progressive(&instance, TokenId(t), policy),
        ) else {
            continue;
        };
        fee_g += schedule.base.0 + schedule.per_ring_member.0 * g.size() as u64;
        fee_p += schedule.base.0 + schedule.per_ring_member.0 * p.size() as u64;
        compared += 1;
    }
    assert!(compared >= 3, "too few feasible targets");
    assert!(fee_g <= fee_p, "TM_G bill {fee_g} vs TM_P bill {fee_p}");
}

#[test]
fn selections_stay_reasonably_t_close() {
    // DA-MS selections on the (near-uniform) Monero snapshot should not
    // deviate wildly from the global HT mix — diversity pulls toward
    // uniformity over the covered HTs.
    let mut rng = StdRng::seed_from_u64(2);
    let instance = monero_snapshot(&mut rng);
    let policy = SelectionPolicy::new(DiversityRequirement::new(0.6, 40));
    let sel = progressive(&instance, TokenId(0), policy).unwrap();
    let tv = total_variation(&sel.ring, &instance.universe);
    // A ~45-token ring over 285 HTs can cover at most ~45 HTs, so TV can't
    // be tiny; but it must stay well below the homogeneous worst case.
    assert!(tv < 0.95, "tv = {tv}");
    assert!(!is_t_close(&sel.ring, &instance.universe, 0.05));
}

#[test]
fn homogeneous_rings_are_the_t_closeness_worst_case() {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = SyntheticConfig {
        num_super: 10,
        super_size: (4, 8),
        num_fresh: 5,
        sigma: 4.0,
        ht_model: None,
    };
    let instance = cfg.generate(&mut rng);
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 4));
    if let Ok(sel) = progressive(&instance, TokenId(0), policy) {
        // A diversity-selected ring is closer to the global mix than a
        // single-HT ring of the same size.
        let dominant_ht = {
            let u = &instance.universe;
            let mut counts = std::collections::HashMap::new();
            for t in u.tokens() {
                *counts.entry(u.ht(t)).or_insert(0usize) += 1;
            }
            *counts.iter().max_by_key(|(_, c)| **c).expect("non-empty").0
        };
        let homogeneous = dams_diversity::RingSet::new(
            instance
                .universe
                .tokens()
                .filter(|t| instance.universe.ht(*t) == dominant_ht)
                .take(sel.size()),
        );
        if homogeneous.len() >= 2 {
            let tv_selected = total_variation(&sel.ring, &instance.universe);
            let tv_homog = total_variation(&homogeneous, &instance.universe);
            assert!(
                tv_selected < tv_homog,
                "selected {tv_selected} vs homogeneous {tv_homog}"
            );
        }
    }
}

#[test]
fn fee_rate_block_selection_rewards_small_rings() {
    // Miners fill blocks by fee rate; DA-MS-minimised transactions (small
    // rings) get in first under a tight member budget.
    use dams_blockchain::select_for_block;
    use dams_blockchain::{RingInput, Transaction};

    let grp = SchnorrGroup::default();
    let mut rng = StdRng::seed_from_u64(5);
    let mk_tx = |members: usize, rng: &mut StdRng| {
        let kp = KeyPair::generate(&grp, rng);
        let sig = dams_crypto::sign(&grp, b"m", &[kp.public], &kp, rng).unwrap();
        Transaction {
            inputs: vec![RingInput {
                ring: (0..members as u64).map(dams_blockchain::TokenId).collect(),
                signature: sig,
                claimed_c: 0.6,
                claimed_l: 2,
            }],
            outputs: vec![],
            memo: vec![],
        }
    };
    let schedule = FeeSchedule::new(Amount(100), Amount(1));
    let pending = vec![mk_tx(40, &mut rng), mk_tx(8, &mut rng), mk_tx(12, &mut rng)];
    let chosen = select_for_block(&schedule, &pending, 25);
    let sizes: Vec<usize> = chosen.iter().map(|t| FeeSchedule::ring_members(t)).collect();
    assert!(sizes.contains(&8), "{sizes:?}");
    assert!(!sizes.contains(&40), "{sizes:?}");
}
