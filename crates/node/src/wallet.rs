//! A wallet: the client-side actor of the whole pipeline.
//!
//! Owns key pairs, tracks which ledger tokens it can spend, and drives
//! the full Step-1→2 flow: catch a [`DiversityIndex`] up with the chain,
//! read the target's batch view from it, run a DA-MS selection under its
//! privacy policy, validate the candidate ring (Definition 5), sign, and
//! submit — exactly what §4 describes a user doing offline before
//! broadcasting. The index is the one structure that folds committed
//! rings into the module partition; the wallet keeps no partition of its
//! own.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;

use dams_blockchain::{
    Amount, Chain, ChainError, RingConfiguration, RingInput, TokenId, TokenOutput, Transaction,
    VerifyError,
};
use dams_core::{
    BatchSnapshot, DiversityIndex, IndexError, PracticalAlgorithm, SelectionPolicy, TokenMagic,
};
use dams_crypto::{KeyPair, PublicKey};
use dams_diversity::{NeighborTracker, RingSet};

use crate::indexing::block_delta;
use crate::validate::{validate_ring, Verdict};

/// Errors a wallet can surface.
#[derive(Debug)]
pub enum WalletError {
    /// The wallet holds no key for the requested token.
    NotOurs(TokenId),
    /// The batch cannot produce an eligible ring (relax the requirement).
    Selection(dams_core::SelectError),
    /// The wallet's own Definition-5 validation rejected the ring.
    Validation(Verdict),
    /// The chain rejected the signed transaction.
    Chain(VerifyError),
    /// Sealing the block (or another chain state operation) failed.
    ChainState(ChainError),
    /// Signing over the selected ring failed.
    Signing(dams_crypto::SignError),
    /// The committed history is not laminar — the chain contains rings
    /// that violate the first practical configuration.
    BrokenHistory,
    /// The diversity index cannot follow this chain: it rejected one of
    /// the chain's blocks, or does not hold the spent token (it was fed
    /// another chain's blocks).
    Index(IndexError),
    /// The selection service refused the request (admission control):
    /// the deadline budget is infeasible or the exact-tier circuit is
    /// open. The spend was not attempted — retry with a larger budget or
    /// without `require_exact`.
    Shed(dams_svc::ShedReason),
}

impl std::fmt::Display for WalletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalletError::NotOurs(t) => write!(f, "token {} is not controlled by this wallet", t.0),
            WalletError::Selection(e) => write!(f, "mixin selection failed: {e}"),
            WalletError::Validation(v) => write!(f, "self-validation rejected the ring: {v:?}"),
            WalletError::Chain(e) => write!(f, "chain rejected the transaction: {e}"),
            WalletError::ChainState(e) => write!(f, "chain state operation failed: {e}"),
            WalletError::Signing(e) => write!(f, "ring signing failed: {e}"),
            WalletError::BrokenHistory => {
                write!(f, "committed rings violate the practical configuration")
            }
            WalletError::Index(e) => write!(f, "diversity index cannot follow the chain: {e}"),
            WalletError::Shed(r) => write!(f, "selection service shed the request: {r}"),
        }
    }
}

impl std::error::Error for WalletError {}

/// Catch `index` up with `chain` — O(Δ) in the blocks above its last
/// applied height — and return the view of `token`'s batch together
/// with the token's batch-local id.
fn batch_view(
    chain: &Chain,
    index: &mut DiversityIndex,
    token: TokenId,
) -> Result<(Arc<BatchSnapshot>, dams_diversity::TokenId), WalletError> {
    let next = index.last_height().map_or(0, |h| h as usize + 1);
    for block in chain.blocks().iter().skip(next) {
        index.apply_block(&block_delta(block)).map_err(WalletError::Index)?;
    }
    let snap = index
        .batch_of(token.0)
        .and_then(|b| index.snapshot(b))
        .ok_or(WalletError::Index(IndexError::UnknownRingToken(token.0)))?;
    let local = snap
        .tokens
        .binary_search(&token.0)
        .expect("a batch snapshot lists every token of its batch");
    Ok((snap, dams_diversity::TokenId(local as u32)))
}

/// The wallet.
pub struct Wallet {
    /// Owned key pairs, by public key value.
    keys: HashMap<u64, KeyPair>,
    /// The privacy policy applied to every spend.
    pub policy: SelectionPolicy,
    /// Which practical algorithm drives selection.
    pub algorithm: PracticalAlgorithm,
    /// Admission-control tuning for [`Wallet::spend_with_budget`].
    pub svc: dams_svc::FrontendConfig,
}

impl Wallet {
    pub fn new(policy: SelectionPolicy, algorithm: PracticalAlgorithm) -> Self {
        Wallet {
            keys: HashMap::new(),
            policy,
            algorithm,
            svc: dams_svc::FrontendConfig::default(),
        }
    }

    /// Generate and register a fresh key; returns its public half.
    pub fn new_address<R: Rng + ?Sized>(
        &mut self,
        chain: &Chain,
        rng: &mut R,
    ) -> PublicKey {
        let kp = KeyPair::generate(chain.group(), rng);
        self.keys.insert(kp.public.value(), kp);
        kp.public
    }

    /// Import an existing key pair.
    pub fn import(&mut self, kp: KeyPair) {
        self.keys.insert(kp.public.value(), kp);
    }

    /// Restore a wallet's first `n` keys from a deterministic key chain
    /// (HD-style recovery from a seed — see `dams_crypto::KeyChain`).
    pub fn restore_from_chain(&mut self, chain: &dams_crypto::KeyChain, n: u64) {
        for kp in chain.derive_range(n) {
            self.import(kp);
        }
    }

    /// Scan the chain for tokens this wallet controls and whose key image
    /// has not been consumed.
    pub fn spendable(&self, chain: &Chain) -> Vec<TokenId> {
        (0..chain.token_count() as u64)
            .map(TokenId)
            .filter(|t| {
                chain.token(*t).is_some_and(|rec| {
                    self.keys.get(&rec.owner.value()).is_some_and(|kp| {
                        !chain.image_consumed(kp.key_image(chain.group()))
                    })
                })
            })
            .collect()
    }

    /// The amount and signing key behind `token` — the one token→signer
    /// lookup every spend path shares.
    fn signer_of(&self, chain: &Chain, token: TokenId) -> Result<(Amount, KeyPair), WalletError> {
        let rec = chain.token(token).ok_or(WalletError::NotOurs(token))?;
        let signer = *self
            .keys
            .get(&rec.owner.value())
            .ok_or(WalletError::NotOurs(token))?;
        Ok((rec.amount, signer))
    }

    /// Spend `token` to `receiver`: select mixins, self-validate, sign,
    /// submit under `config`, and seal a block.
    ///
    /// The mixin universe is the whole chain: this is
    /// [`Wallet::spend_incremental`] over a throwaway index whose one
    /// batch never closes.
    pub fn spend<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        token: TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let mut index = DiversityIndex::new(usize::MAX);
        self.spend_incremental(chain, &mut index, token, receiver, config, rng)
    }

    /// Spend `token` against a long-lived [`DiversityIndex`]: the index
    /// catches up O(Δ) on the blocks adopted since the last call (the
    /// wallet's own previous spends included), and selection runs on the
    /// maintained partition of the token's λ-batch. The ring comes back
    /// as sorted ledger ids, always inside the token's batch.
    pub fn spend_incremental<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        index: &mut DiversityIndex,
        token: TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let (amount, signer) = self.signer_of(chain, token)?;
        let (snap, local) = batch_view(chain, index, token)?;
        let modular = snap.modular.as_ref().ok_or(WalletError::BrokenHistory)?;
        let selection = TokenMagic::new(self.algorithm, self.policy)
            .generate(modular, local, &NeighborTracker::new(), rng)
            .map_err(WalletError::Selection)?;
        self.validate_sign_submit(
            chain,
            &snap,
            &selection.ring,
            amount,
            &signer,
            receiver,
            config,
            rng,
        )
    }

    /// Spend `token` under an explicit deadline budget, routed through
    /// the overload-aware selection frontend (`dams-svc`).
    ///
    /// Unlike [`Wallet::spend`], selection runs the degrade ladder: the
    /// budget (in virtual ticks — see `dams_svc::Frontend`) buys as much
    /// exact search as it affords and falls back to the approximation
    /// tiers otherwise. A budget below the configured reserve sheds the
    /// request with [`WalletError::Shed`] *before* any work runs.
    /// Each call builds a fresh frontend whose circuit breaker starts
    /// closed, so breaker state does not carry across calls: an open
    /// circuit never sheds a `require_exact` spend here.
    /// Metrics land in `registry` under `svc.*` / `core.*`.
    #[allow(clippy::too_many_arguments)]
    pub fn spend_with_budget<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        token: TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        budget_ticks: u64,
        require_exact: bool,
        registry: &dams_obs::Registry,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let (amount, signer) = self.signer_of(chain, token)?;
        let (snap, local) = batch_view(chain, &mut DiversityIndex::new(usize::MAX), token)?;
        let mut frontend = dams_svc::Frontend::new(&snap.instance, self.policy, self.svc, registry);
        let degraded = frontend
            .select(local, budget_ticks, require_exact)
            .map_err(WalletError::Shed)?;
        self.validate_sign_submit(
            chain,
            &snap,
            &degraded.selection.ring,
            amount,
            &signer,
            receiver,
            config,
            rng,
        )
    }

    /// Shared spend tail: Definition-5 self-validation against the batch
    /// view, ring signing, submission, and block sealing. `ring` holds
    /// batch-local ids; the returned ring holds ledger ids.
    #[allow(clippy::too_many_arguments)]
    fn validate_sign_submit<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        snap: &BatchSnapshot,
        ring: &RingSet,
        amount: Amount,
        signer: &KeyPair,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        // Definition-5 self-validation before broadcasting.
        let instance = &snap.instance;
        let verdict = validate_ring(
            ring,
            self.policy.requirement,
            &instance.rings,
            &instance.claims,
            &instance.universe,
        );
        if verdict != Verdict::Eligible {
            return Err(WalletError::Validation(verdict));
        }

        // Step 2: sign over the declared ring, sorted by ledger id.
        let outputs = vec![TokenOutput {
            owner: receiver,
            amount,
        }];
        let shell = Transaction {
            inputs: vec![],
            outputs: outputs.clone(),
            memo: vec![],
        };
        let payload = shell.signing_payload();
        let ring_ids: Vec<TokenId> = ring
            .tokens()
            .iter()
            .map(|t| TokenId(snap.tokens[t.0 as usize]))
            .collect();
        let ring_keys: Vec<PublicKey> = ring_ids
            .iter()
            .map(|t| chain.token(*t).map(|rec| rec.owner).ok_or(WalletError::NotOurs(*t)))
            .collect::<Result<_, _>>()?;
        let sig = dams_crypto::sign(chain.group(), &payload, &ring_keys, signer, rng)
            .map_err(WalletError::Signing)?;
        let ledger_ring =
            RingSet::new(ring_ids.iter().map(|t| dams_diversity::TokenId(t.0 as u32)));
        let tx = Transaction {
            inputs: vec![RingInput {
                ring: ring_ids,
                signature: sig,
                claimed_c: self.policy.requirement.c,
                claimed_l: self.policy.requirement.l,
            }],
            outputs,
            memo: vec![],
        };
        chain.submit(tx, config).map_err(WalletError::Chain)?;
        chain.seal_block().map_err(WalletError::ChainState)?;
        Ok(ledger_ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, NoConfiguration};
    use dams_crypto::SchnorrGroup;
    use dams_diversity::DiversityRequirement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mint 16 tokens (4 per coinbase) to a wallet.
    fn setup() -> (Chain, Wallet, StdRng) {
        setup_with(3, PracticalAlgorithm::Progressive, 4, 4)
    }

    /// Mint `coinbases` × `per_coinbase` tokens to a wallet spending with
    /// `algorithm` under policy (1.0, 3).
    fn setup_with(
        seed: u64,
        algorithm: PracticalAlgorithm,
        coinbases: usize,
        per_coinbase: usize,
    ) -> (Chain, Wallet, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chain = Chain::new(SchnorrGroup::default());
        let mut wallet = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 3)),
            algorithm,
        );
        for _ in 0..coinbases {
            let outs: Vec<TokenOutput> = (0..per_coinbase)
                .map(|_| TokenOutput {
                    owner: wallet.new_address(&chain, &mut rng),
                    amount: Amount(5),
                })
                .collect();
            chain.submit_coinbase(outs);
            chain.seal_block().unwrap();
        }
        (chain, wallet, rng)
    }

    #[test]
    fn hd_restore_recovers_spendable_tokens() {
        // Mint tokens to HD-derived keys, then restore a fresh wallet from
        // the same passphrase and confirm it sees them all.
        let mut rng = StdRng::seed_from_u64(8);
        let mut chain_ledger = Chain::new(SchnorrGroup::default());
        let kc = dams_crypto::KeyChain::from_passphrase(
            *chain_ledger.group(),
            "open sesame",
            0,
        );
        let keys = kc.derive_range(6);
        chain_ledger.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(1),
                })
                .collect(),
        );
        chain_ledger.seal_block().unwrap();
        let _ = &mut rng;

        let mut restored = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 1)),
            PracticalAlgorithm::Smallest,
        );
        restored.restore_from_chain(
            &dams_crypto::KeyChain::from_passphrase(
                *chain_ledger.group(),
                "open sesame",
                0,
            ),
            6,
        );
        assert_eq!(restored.spendable(&chain_ledger).len(), 6);
        // wrong passphrase restores nothing
        let mut wrong = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 1)),
            PracticalAlgorithm::Smallest,
        );
        wrong.restore_from_chain(
            &dams_crypto::KeyChain::from_passphrase(
                *chain_ledger.group(),
                "open sesame?",
                0,
            ),
            6,
        );
        assert!(wrong.spendable(&chain_ledger).is_empty());
    }

    #[test]
    fn scan_finds_owned_tokens() {
        let (chain, wallet, _rng) = setup();
        assert_eq!(wallet.spendable(&chain).len(), 16);
    }

    #[test]
    fn spend_end_to_end() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let ring = wallet
            .spend(&mut chain, TokenId(0), receiver, &NoConfiguration, &mut rng)
            .unwrap();
        assert!(ring.contains(dams_diversity::TokenId(0)));
        assert!(chain.audit());
        // The spent token no longer appears spendable.
        assert!(!wallet.spendable(&chain).contains(&TokenId(0)));
    }

    #[test]
    fn double_spend_blocked_by_wallet_or_chain() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        wallet
            .spend(&mut chain, TokenId(0), receiver, &NoConfiguration, &mut rng)
            .unwrap();
        let err = wallet
            .spend(&mut chain, TokenId(0), receiver, &NoConfiguration, &mut rng)
            .unwrap_err();
        // Either the selection layer (token now in a committed ring whose
        // reuse would violate validation) or the chain's image registry
        // stops it; both are correct.
        match err {
            WalletError::Chain(VerifyError::ImageReused(_))
            | WalletError::Validation(_)
            | WalletError::Selection(_) => {}
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn budgeted_spend_end_to_end() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let registry = dams_obs::Registry::new();
        let ring = wallet
            .spend_with_budget(
                &mut chain,
                TokenId(1),
                receiver,
                &NoConfiguration,
                1 << 20,
                false,
                &registry,
                &mut rng,
            )
            .unwrap();
        assert!(ring.contains(dams_diversity::TokenId(1)));
        assert!(chain.audit());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("svc.completed_total"), Some(1));
        // A generous budget buys the exact tier.
        assert_eq!(snap.counter("svc.degraded_total"), Some(0));
    }

    #[test]
    fn starved_budget_spend_is_shed_typed() {
        let (mut chain, mut wallet, mut rng) = setup();
        wallet.svc.reserve_ticks = 1 << 16;
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let registry = dams_obs::Registry::new();
        let err = wallet
            .spend_with_budget(
                &mut chain,
                TokenId(1),
                receiver,
                &NoConfiguration,
                8,
                false,
                &registry,
                &mut rng,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                WalletError::Shed(dams_svc::ShedReason::DeadlineInfeasible)
            ),
            "{err:?}"
        );
        // Nothing was signed or submitted.
        assert_eq!(
            registry.snapshot().counter("svc.completed_total"),
            Some(0)
        );
        assert!(wallet
            .spendable(&chain)
            .contains(&TokenId(1)));
    }

    #[test]
    fn tight_budget_spend_degrades_but_completes() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let registry = dams_obs::Registry::new();
        // Clears the default reserve (64) but grants almost no exact
        // candidates: the ladder answers at an approximation tier.
        let ring = wallet
            .spend_with_budget(
                &mut chain,
                TokenId(2),
                receiver,
                &NoConfiguration,
                68,
                false,
                &registry,
                &mut rng,
            )
            .unwrap();
        assert!(ring.contains(dams_diversity::TokenId(2)));
        assert!(chain.audit());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("svc.degraded_total"), Some(1));
    }

    #[test]
    fn incremental_first_spend_matches_oneshot() {
        // On an untouched chain a fresh index serves the same view as the
        // throwaway one inside `spend`, so the same rng stream selects the
        // same ring.
        let (mut chain_a, wallet, mut rng_a) = setup();
        let (mut chain_b, _, _) = setup();
        let receiver = KeyPair::generate(chain_a.group(), &mut rng_a).public;
        let mut rng_b = rng_a.clone();
        let oneshot = wallet
            .spend(
                &mut chain_a,
                TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng_a,
            )
            .unwrap();
        let mut index = DiversityIndex::new(usize::MAX);
        let incremental = wallet
            .spend_incremental(
                &mut chain_b,
                &mut index,
                TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(oneshot, incremental);
    }

    #[test]
    fn incremental_spends_select_the_same_rings_as_spend_across_seeds() {
        // Twin chains: one spends through `spend`, the other through one
        // long-lived index that catches up between spends. The same rng
        // stream must pick the same ring (or fail the same way) on every
        // spend, for every algorithm.
        let algorithms = [
            PracticalAlgorithm::Progressive,
            PracticalAlgorithm::GameTheoretic,
            PracticalAlgorithm::Smallest,
            PracticalAlgorithm::Random,
        ];
        let mut matched = 0;
        for seed in 0..16u64 {
            for algorithm in algorithms {
                let (mut chain_a, wallet, mut rng_a) = setup_with(seed, algorithm, 4, 4);
                let (mut chain_b, _, _) = setup_with(seed, algorithm, 4, 4);
                let receiver = KeyPair::generate(chain_a.group(), &mut rng_a).public;
                let mut rng_b = rng_a.clone();
                let mut index = DiversityIndex::new(usize::MAX);
                for t in [0u64, 5, 10, 15, 2, 7] {
                    let token = TokenId(t);
                    let a =
                        wallet.spend(&mut chain_a, token, receiver, &NoConfiguration, &mut rng_a);
                    let b = wallet.spend_incremental(
                        &mut chain_b,
                        &mut index,
                        token,
                        receiver,
                        &NoConfiguration,
                        &mut rng_b,
                    );
                    let ctx = format!("seed {seed} {algorithm:?} token {t}");
                    match (a, b) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{ctx}");
                            matched += 1;
                        }
                        (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}"),
                    }
                }
                assert_eq!(
                    chain_a.tip().unwrap().hash(),
                    chain_b.tip().unwrap().hash(),
                    "seed {seed} {algorithm:?}"
                );
            }
        }
        assert!(
            matched >= 16 * 4 * 3,
            "too few successful spends: {matched}"
        );
    }

    #[test]
    fn batched_index_keeps_rings_inside_the_target_batch() {
        // Eight coinbases of two tokens under λ = 8: tokens 0..8 and 8..16
        // form two closed batches of four historical transactions each.
        let (mut chain, wallet, mut rng) = setup_with(5, PracticalAlgorithm::Progressive, 8, 2);
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let mut index = DiversityIndex::new(8);
        for t in [1u64, 9, 14, 4] {
            let ring = wallet
                .spend_incremental(
                    &mut chain,
                    &mut index,
                    TokenId(t),
                    receiver,
                    &NoConfiguration,
                    &mut rng,
                )
                .unwrap();
            let batch = index.batch_of(t).unwrap();
            let members = index.batch_tokens(batch);
            assert!(ring.contains(dams_diversity::TokenId(t as u32)));
            assert!(
                ring.tokens()
                    .iter()
                    .all(|m| members.contains(&(m.0 as u64))),
                "token {t}: ring {ring:?} leaves batch {batch}"
            );
        }
        assert!(chain.audit());
        assert!(crate::auditor::audit(&chain).claim_violations.is_empty());
    }

    #[test]
    fn sequential_incremental_spends_stay_private_and_in_sync() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let mut index = DiversityIndex::new(usize::MAX);
        for t in [0u64, 5, 10] {
            let ring = wallet
                .spend_incremental(
                    &mut chain,
                    &mut index,
                    TokenId(t),
                    receiver,
                    &NoConfiguration,
                    &mut rng,
                )
                .unwrap();
            assert!(ring.contains(dams_diversity::TokenId(t as u32)));
        }
        let report = crate::auditor::audit(&chain);
        assert_eq!(report.analysis.resolved_count(), 0, "spends linkable");
        assert!(report.claim_violations.is_empty());
        // Caught up with the final chain, the index must equal the
        // from-scratch decomposition of every block (ordered partition and
        // subset counts included)...
        batch_view(&chain, &mut index, TokenId(0)).unwrap();
        let deltas: Vec<_> = chain.blocks().iter().map(block_delta).collect();
        dams_core::recompute_equivalence(&index, &deltas).unwrap();
        // ...and catching up an already-current index applies nothing.
        let applied = index.stats().blocks_applied;
        batch_view(&chain, &mut index, TokenId(0)).unwrap();
        assert_eq!(index.stats().blocks_applied, applied);
    }

    #[test]
    fn foreign_token_rejected() {
        let (mut chain, wallet, mut rng) = setup();
        // Mint one token to an outsider.
        let outsider = KeyPair::generate(chain.group(), &mut rng);
        chain.submit_coinbase(vec![TokenOutput {
            owner: outsider.public,
            amount: Amount(1),
        }]);
        chain.seal_block().unwrap();
        let foreign = TokenId(16);
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let err = wallet
            .spend(&mut chain, foreign, receiver, &NoConfiguration, &mut rng)
            .unwrap_err();
        assert!(matches!(err, WalletError::NotOurs(_)), "{err:?}");
    }

    #[test]
    fn sequential_spends_stay_private() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        for t in [0u64, 5, 10] {
            wallet
                .spend(&mut chain, TokenId(t), receiver, &NoConfiguration, &mut rng)
                .unwrap();
        }
        let report = crate::auditor::audit(&chain);
        assert_eq!(report.analysis.resolved_count(), 0, "spends linkable");
        assert!(report.claim_violations.is_empty());
    }
}
