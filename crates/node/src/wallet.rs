//! A wallet: the client-side actor of the whole pipeline.
//!
//! Owns key pairs, tracks which ledger tokens it can spend, and drives
//! the full Step-1→2 flow: derive the batch's algorithmic view, run a
//! DA-MS selection under its privacy policy, validate the candidate ring
//! (Definition 5), sign, and submit — exactly what §4 describes a user
//! doing offline before broadcasting.

use std::collections::HashMap;

use rand::Rng;

use dams_blockchain::{
    Chain, ChainError, RingConfiguration, RingInput, TokenOutput, Transaction, TxId, VerifyError,
};
use dams_core::{ModularHistory, ModularInstance, PracticalAlgorithm, SelectionPolicy, TokenMagic};
use dams_crypto::{KeyPair, PublicKey};
use dams_diversity::{
    DiversityRequirement, HtId, NeighborTracker, RingIndex, RingSet, TokenUniverse,
};

use crate::auditor::chain_view;
use crate::validate::{validate_ring, Verdict};

/// Errors a wallet can surface.
#[derive(Debug)]
pub enum WalletError {
    /// The wallet holds no key for the requested token.
    NotOurs(dams_blockchain::TokenId),
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
            WalletError::Shed(r) => write!(f, "selection service shed the request: {r}"),
        }
    }
}

impl std::error::Error for WalletError {}

/// A long-lived spend session: the incremental counterpart of deriving a
/// fresh [`ChainView`](crate::auditor::ChainView) and running
/// [`ModularInstance::decompose`] on every spend.
///
/// The session keeps a [`ModularHistory`] in lock-step with the chain:
/// [`SpendSession::sync`] folds each new block's minted tokens in via
/// `extend_universe` and each committed ring via `absorb_ring` — an O(n)
/// merge per ring instead of the O(n²) from-scratch decomposition — so a
/// wallet making many spends pays the partition cost once per *block*,
/// not once per *spend*.
#[derive(Default)]
pub struct SpendSession {
    history: Option<ModularHistory>,
    /// Dense renumbering of origin `TxId`s, mirroring
    /// [`chain_view`](crate::auditor::chain_view)'s labeling exactly so
    /// session verdicts are bit-identical to snapshot verdicts.
    ht_ids: HashMap<TxId, u32>,
    /// Blocks already folded into the history.
    blocks_seen: usize,
}

impl SpendSession {
    pub fn new() -> Self {
        SpendSession::default()
    }

    /// The maintained modular view (for inspection; `None` before the
    /// first [`SpendSession::sync`]).
    pub fn history(&self) -> Option<&ModularHistory> {
        self.history.as_ref()
    }

    /// How many chain blocks the session has absorbed.
    pub fn blocks_seen(&self) -> usize {
        self.blocks_seen
    }

    /// Catch the session up to `chain`'s tip: O(Δ) in the new blocks.
    ///
    /// A non-laminar committed ring (one that straddles the maintained
    /// partition) surfaces as [`WalletError::BrokenHistory`] — the same
    /// verdict the decompose path gives for such a chain.
    pub fn sync(&mut self, chain: &Chain) -> Result<(), WalletError> {
        let mut history = self
            .history
            .take()
            .unwrap_or_else(|| ModularHistory::fresh(TokenUniverse::new(Vec::new())));
        for block in &chain.blocks()[self.blocks_seen..] {
            // Mint first: a block's rings may reference its own earlier
            // transactions' outputs.
            let mut new_hts = Vec::new();
            for ct in &block.transactions {
                for _ in &ct.output_ids {
                    let next = self.ht_ids.len() as u32;
                    new_hts.push(HtId(*self.ht_ids.entry(ct.id).or_insert(next)));
                }
            }
            history.extend_universe(new_hts);
            for ct in &block.transactions {
                for input in &ct.tx.inputs {
                    let ring = RingSet::new(
                        input.ring.iter().map(|t| dams_diversity::TokenId(t.0 as u32)),
                    );
                    let claim = DiversityRequirement::new(
                        input.claimed_c.max(f64::MIN_POSITIVE),
                        input.claimed_l.max(1),
                    );
                    if history.absorb_ring(&ring, claim).is_err() {
                        // The chain's committed history is non-laminar; a
                        // half-absorbed block must not linger, so reset —
                        // a retry resyncs from genesis and fails at the
                        // same ring.
                        self.blocks_seen = 0;
                        self.ht_ids.clear();
                        return Err(WalletError::BrokenHistory);
                    }
                }
            }
            self.blocks_seen += 1;
        }
        self.history = Some(history);
        Ok(())
    }
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
    pub fn spendable(&self, chain: &Chain) -> Vec<dams_blockchain::TokenId> {
        (0..chain.token_count() as u64)
            .map(dams_blockchain::TokenId)
            .filter(|t| {
                chain.token(*t).is_some_and(|rec| {
                    self.keys.get(&rec.owner.value()).is_some_and(|kp| {
                        !chain.image_consumed(kp.key_image(chain.group()))
                    })
                })
            })
            .collect()
    }

    /// Spend `token` to `receiver`: select mixins, self-validate, sign,
    /// submit under `config`, and seal a block.
    pub fn spend<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        token: dams_blockchain::TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let rec = chain
            .token(token)
            .ok_or(WalletError::NotOurs(token))?
            .clone();
        let signer = *self
            .keys
            .get(&rec.owner.value())
            .ok_or(WalletError::NotOurs(token))?;

        // Step 1: derive the view, decompose, select.
        let view = chain_view(chain);
        let instance = dams_core::Instance::new(
            view.universe.clone(),
            view.rings.clone(),
            view.claims
                .iter()
                .map(|&(c, l)| DiversityRequirement::new(c.max(f64::MIN_POSITIVE), l.max(1)))
                .collect(),
        );
        let modular =
            ModularInstance::decompose(&instance).map_err(|_| WalletError::BrokenHistory)?;
        let tm = TokenMagic::new(self.algorithm, self.policy);
        let tracker = NeighborTracker::new();
        let alg_token = dams_diversity::TokenId(token.0 as u32);
        let selection = tm
            .generate(&modular, alg_token, &tracker, rng)
            .map_err(WalletError::Selection)?;

        self.validate_sign_submit(
            chain,
            &selection.ring,
            &view.rings,
            &instance.claims,
            &view.universe,
            rec.amount,
            &signer,
            receiver,
            config,
            rng,
        )?;
        Ok(selection.ring)
    }

    /// Spend `token` through a long-lived [`SpendSession`]: the session's
    /// incrementally maintained [`ModularHistory`] replaces the per-spend
    /// chain-view rebuild and O(n²) decomposition of [`Wallet::spend`].
    /// The session catches up O(Δ) on the blocks adopted since its last
    /// sync (including the wallet's own previous spends) before selecting.
    pub fn spend_incremental<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        session: &mut SpendSession,
        token: dams_blockchain::TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let rec = chain
            .token(token)
            .ok_or(WalletError::NotOurs(token))?
            .clone();
        let signer = *self
            .keys
            .get(&rec.owner.value())
            .ok_or(WalletError::NotOurs(token))?;

        session.sync(chain)?;
        let history = session.history.as_ref().expect("sync installs a history");
        let tm = TokenMagic::new(self.algorithm, self.policy);
        let tracker = NeighborTracker::new();
        let alg_token = dams_diversity::TokenId(token.0 as u32);
        let selection = tm
            .generate(history.instance(), alg_token, &tracker, rng)
            .map_err(WalletError::Selection)?;

        self.validate_sign_submit(
            chain,
            &selection.ring,
            history.rings(),
            history.claims(),
            history.universe(),
            rec.amount,
            &signer,
            receiver,
            config,
            rng,
        )?;
        Ok(selection.ring)
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
        token: dams_blockchain::TokenId,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        budget_ticks: u64,
        require_exact: bool,
        registry: &dams_obs::Registry,
        rng: &mut R,
    ) -> Result<RingSet, WalletError> {
        let rec = chain
            .token(token)
            .ok_or(WalletError::NotOurs(token))?
            .clone();
        let signer = *self
            .keys
            .get(&rec.owner.value())
            .ok_or(WalletError::NotOurs(token))?;

        let view = chain_view(chain);
        let instance = dams_core::Instance::new(
            view.universe.clone(),
            view.rings.clone(),
            view.claims
                .iter()
                .map(|&(c, l)| DiversityRequirement::new(c.max(f64::MIN_POSITIVE), l.max(1)))
                .collect(),
        );
        let mut frontend = dams_svc::Frontend::new(&instance, self.policy, self.svc, registry);
        let alg_token = dams_diversity::TokenId(token.0 as u32);
        let degraded = frontend
            .select(alg_token, budget_ticks, require_exact)
            .map_err(WalletError::Shed)?;

        self.validate_sign_submit(
            chain,
            &degraded.selection.ring,
            &view.rings,
            &instance.claims,
            &view.universe,
            rec.amount,
            &signer,
            receiver,
            config,
            rng,
        )?;
        Ok(degraded.selection.ring)
    }

    /// Shared spend tail: Definition-5 self-validation, ring signing,
    /// submission, and block sealing.
    #[allow(clippy::too_many_arguments)]
    fn validate_sign_submit<R: Rng + ?Sized>(
        &self,
        chain: &mut Chain,
        ring: &RingSet,
        rings: &RingIndex,
        claims: &[DiversityRequirement],
        universe: &TokenUniverse,
        amount: dams_blockchain::Amount,
        signer: &KeyPair,
        receiver: PublicKey,
        config: &dyn RingConfiguration,
        rng: &mut R,
    ) -> Result<(), WalletError> {
        // Definition-5 self-validation before broadcasting.
        let verdict = validate_ring(ring, self.policy.requirement, rings, claims, universe);
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
        let ring_ids: Vec<dams_blockchain::TokenId> = ring
            .tokens()
            .iter()
            .map(|t| dams_blockchain::TokenId(t.0 as u64))
            .collect();
        let ring_keys: Vec<PublicKey> = ring_ids
            .iter()
            .map(|t| chain.token(*t).map(|rec| rec.owner).ok_or(WalletError::NotOurs(*t)))
            .collect::<Result<_, _>>()?;
        let sig = dams_crypto::sign(chain.group(), &payload, &ring_keys, signer, rng)
            .map_err(WalletError::Signing)?;
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_blockchain::{Amount, NoConfiguration};
    use dams_crypto::SchnorrGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mint 16 tokens (4 per coinbase) to a wallet.
    fn setup() -> (Chain, Wallet, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut chain = Chain::new(SchnorrGroup::default());
        let mut wallet = Wallet::new(
            SelectionPolicy::new(DiversityRequirement::new(1.0, 3)),
            PracticalAlgorithm::Progressive,
        );
        for _ in 0..4 {
            let outs: Vec<TokenOutput> = (0..4)
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
            .spend(
                &mut chain,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng,
            )
            .unwrap();
        assert!(ring.contains(dams_diversity::TokenId(0)));
        assert!(chain.audit());
        // The spent token no longer appears spendable.
        assert!(!wallet
            .spendable(&chain)
            .contains(&dams_blockchain::TokenId(0)));
    }

    #[test]
    fn double_spend_blocked_by_wallet_or_chain() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        wallet
            .spend(
                &mut chain,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng,
            )
            .unwrap();
        let err = wallet
            .spend(
                &mut chain,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng,
            )
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
                dams_blockchain::TokenId(1),
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
                dams_blockchain::TokenId(1),
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
            .contains(&dams_blockchain::TokenId(1)));
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
                dams_blockchain::TokenId(2),
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
        // On an untouched chain the session's instance is identical to the
        // decompose path's, so the same rng stream selects the same ring.
        let (mut chain_a, wallet, mut rng_a) = setup();
        let (mut chain_b, _, _) = setup();
        let mut rng_b = rng_a.clone();
        let receiver = KeyPair::generate(chain_a.group(), &mut rng_a).public;
        let _ = KeyPair::generate(chain_b.group(), &mut rng_b).public;
        let oneshot = wallet
            .spend(
                &mut chain_a,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng_a,
            )
            .unwrap();
        let mut session = SpendSession::new();
        let incremental = wallet
            .spend_incremental(
                &mut chain_b,
                &mut session,
                dams_blockchain::TokenId(0),
                receiver,
                &NoConfiguration,
                &mut rng_b,
            )
            .unwrap();
        assert_eq!(oneshot, incremental);
    }

    #[test]
    fn sequential_incremental_spends_stay_private_and_in_sync() {
        let (mut chain, wallet, mut rng) = setup();
        let receiver = KeyPair::generate(chain.group(), &mut rng).public;
        let mut session = SpendSession::new();
        for t in [0u64, 5, 10] {
            let ring = wallet
                .spend_incremental(
                    &mut chain,
                    &mut session,
                    dams_blockchain::TokenId(t),
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
        // The session's maintained partition must equal the from-scratch
        // decomposition of the final chain (canonically, module order
        // aside — the session appends merges, decompose sorts by ring id).
        let mut session_check = SpendSession::new();
        session_check.sync(&chain).unwrap();
        let history = session_check.history().unwrap();
        let view = chain_view(&chain);
        let instance = dams_core::Instance::new(
            view.universe.clone(),
            view.rings.clone(),
            view.claims
                .iter()
                .map(|&(c, l)| DiversityRequirement::new(c.max(f64::MIN_POSITIVE), l.max(1)))
                .collect(),
        );
        let full = ModularInstance::decompose(&instance).unwrap();
        let canon = |mi: &ModularInstance| {
            let mut v: Vec<Vec<u32>> = mi
                .modules()
                .iter()
                .map(|m| m.tokens.tokens().iter().map(|t| t.0).collect())
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(history.instance()), canon(&full));
        assert_eq!(history.rings().len(), view.rings.len());
        // And syncing an already-current session is a no-op.
        let blocks = session_check.blocks_seen();
        session_check.sync(&chain).unwrap();
        assert_eq!(session_check.blocks_seen(), blocks);
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
        let foreign = dams_blockchain::TokenId(16);
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
                .spend(
                    &mut chain,
                    dams_blockchain::TokenId(t),
                    receiver,
                    &NoConfiguration,
                    &mut rng,
                )
                .unwrap();
        }
        let report = crate::auditor::audit(&chain);
        assert_eq!(report.analysis.resolved_count(), 0, "spends linkable");
        assert!(report.claim_violations.is_empty());
    }
}
