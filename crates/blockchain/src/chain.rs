//! The ledger: an append-only hash-chained block list with a token registry
//! and a consumed-key-image set (double-spend prevention), implementing the
//! verification of Step 3 of the ring-signature scheme (§2.1).

use std::collections::{HashMap, HashSet};

use dams_crypto::{verify as verify_ring_sig, KeyImage, PublicKey, SchnorrGroup};

use crate::block::{Block, BlockHeader};
use crate::transaction::{CommittedTransaction, Transaction};
use crate::types::{Amount, BlockHeight, TokenId, TxId};

/// Per-token ledger metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenRecord {
    pub id: TokenId,
    /// The historical transaction (HT) that minted this token.
    pub origin: TxId,
    /// The block that committed the minting transaction.
    pub block: BlockHeight,
    pub owner: PublicKey,
    pub amount: Amount,
}

/// Why a transaction was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// An input ring references an unknown token.
    UnknownToken(TokenId),
    /// The ring signature itself failed verification.
    BadSignature { input_index: usize },
    /// The key image was already used — the token is consumed.
    ImageReused(u64),
    /// Two inputs of the same transaction share a key image.
    DuplicateImageInTx(u64),
    /// The ring token list is unsorted or contains duplicates.
    MalformedRing { input_index: usize },
    /// A system-level configuration check rejected the ring (e.g. the
    /// TokenMagic practical configurations, or Monero-style recency rules).
    ConfigurationViolation { input_index: usize, reason: String },
    /// A transaction must consume at least one input.
    NoInputs,
    /// A peer block failed structural validation (linkage, height, or
    /// content hash).
    BadBlock,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::UnknownToken(t) => write!(f, "ring references unknown token {}", t.0),
            VerifyError::BadSignature { input_index } => {
                write!(f, "ring signature of input {input_index} is invalid")
            }
            VerifyError::ImageReused(i) => write!(f, "key image {i} already consumed"),
            VerifyError::DuplicateImageInTx(i) => {
                write!(f, "key image {i} appears twice in one transaction")
            }
            VerifyError::MalformedRing { input_index } => {
                write!(f, "ring of input {input_index} is unsorted or has duplicates")
            }
            VerifyError::ConfigurationViolation { input_index, reason } => {
                write!(f, "input {input_index} violates configuration: {reason}")
            }
            VerifyError::NoInputs => write!(f, "transaction has no inputs"),
            VerifyError::BadBlock => write!(f, "block failed structural validation"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Why a ledger-state operation (sealing, block adoption) failed — the
/// chain half of the typed error taxonomy (the node half is
/// `dams-node`'s `NodeError`). These replace the panics that used to sit
/// on the adoption path, so a Byzantine peer can never crash a replica.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// The block list lost its genesis — local state corruption, never a
    /// peer's fault.
    MissingGenesis,
    /// A peer block's `prev_hash` does not match the local tip.
    NotExtendingTip,
    /// A peer block's recorded content hash does not match its
    /// transactions.
    ContentHashMismatch,
    /// A peer block's recorded token ids do not continue the local
    /// numbering.
    TokenIdDiscontinuity { expected: u64, got: u64 },
    /// Transaction-level verification failed.
    Verify(VerifyError),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::MissingGenesis => write!(f, "chain state corrupted: no genesis block"),
            ChainError::NotExtendingTip => write!(f, "block does not extend the current tip"),
            ChainError::ContentHashMismatch => {
                write!(f, "block content hash does not cover its transactions")
            }
            ChainError::TokenIdDiscontinuity { expected, got } => {
                write!(f, "block token ids jump (expected {expected}, got {got})")
            }
            ChainError::Verify(e) => write!(f, "transaction verification failed: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

impl From<VerifyError> for ChainError {
    fn from(e: VerifyError) -> Self {
        ChainError::Verify(e)
    }
}

/// A pluggable ring-configuration check run by verifiers at Step 3
/// ("verifiers can check if r satisfies some extra configurations").
pub trait RingConfiguration {
    /// Return `Err(reason)` to reject the ring.
    fn check(&self, chain: &Chain, ring: &[TokenId]) -> Result<(), String>;
}

/// The trivial configuration that accepts everything.
pub struct NoConfiguration;

impl RingConfiguration for NoConfiguration {
    fn check(&self, _chain: &Chain, _ring: &[TokenId]) -> Result<(), String> {
        Ok(())
    }
}

/// The ledger. `Clone` is cheap enough for simulation use: adversarial
/// actors fork throwaway copies to craft candidate blocks without
/// touching the state they shadow.
#[derive(Clone)]
pub struct Chain {
    group: SchnorrGroup,
    blocks: Vec<Block>,
    tokens: Vec<TokenRecord>,
    consumed_images: HashSet<u64>,
    /// Pending transactions for the next block.
    mempool: Vec<Transaction>,
    next_tx: u64,
    /// owner public key -> token ids (convenience index for wallets).
    by_owner: HashMap<u64, Vec<TokenId>>,
}

impl Chain {
    /// A fresh chain with a genesis block and the given group parameters.
    pub fn new(group: SchnorrGroup) -> Self {
        let genesis = Block {
            header: BlockHeader {
                height: BlockHeight(0),
                prev_hash: [0; 32],
                content_hash: Block::content_hash(&[]),
                timestamp: 0,
            },
            transactions: vec![],
        };
        Chain {
            group,
            blocks: vec![genesis],
            tokens: Vec::new(),
            consumed_images: HashSet::new(),
            mempool: Vec::new(),
            next_tx: 0,
            by_owner: HashMap::new(),
        }
    }

    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Number of blocks (including genesis).
    pub fn height(&self) -> usize {
        self.blocks.len()
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The current tip block. `Err(MissingGenesis)` only when local state
    /// is corrupted (construction guarantees a genesis block).
    pub fn tip(&self) -> Result<&Block, ChainError> {
        self.blocks.last().ok_or(ChainError::MissingGenesis)
    }

    /// Number of tokens ever minted.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Token metadata. `None` when the id was never minted.
    pub fn token(&self, id: TokenId) -> Option<&TokenRecord> {
        self.tokens.get(id.0 as usize)
    }

    /// All tokens owned by a public key (consumed or not — ownership is
    /// hidden by the ring scheme, so the chain cannot tell).
    pub fn tokens_of(&self, owner: PublicKey) -> &[TokenId] {
        self.by_owner
            .get(&owner.value())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether a key image has been consumed.
    pub fn image_consumed(&self, image: KeyImage) -> bool {
        self.consumed_images.contains(&image.value())
    }

    /// Step 3 verification of a transaction against the current state.
    pub fn verify_transaction(
        &self,
        tx: &Transaction,
        config: &dyn RingConfiguration,
    ) -> Result<(), VerifyError> {
        if tx.inputs.is_empty() {
            return Err(VerifyError::NoInputs);
        }
        let payload = tx.signing_payload();
        let mut images_in_tx: HashSet<u64> = HashSet::new();
        for (i, input) in tx.inputs.iter().enumerate() {
            // Ring well-formedness: sorted, unique, known tokens.
            if input.ring.windows(2).any(|w| w[0] >= w[1]) || input.ring.is_empty() {
                return Err(VerifyError::MalformedRing { input_index: i });
            }
            let mut ring_keys = Vec::with_capacity(input.ring.len());
            for &t in &input.ring {
                let rec = self.token(t).ok_or(VerifyError::UnknownToken(t))?;
                ring_keys.push(rec.owner);
            }
            // Double-spend: image unused globally and within this tx.
            let image = input.key_image().value();
            if self.consumed_images.contains(&image) {
                return Err(VerifyError::ImageReused(image));
            }
            if !images_in_tx.insert(image) {
                return Err(VerifyError::DuplicateImageInTx(image));
            }
            // Cryptographic verification.
            if !verify_ring_sig(&self.group, &payload, &ring_keys, &input.signature) {
                return Err(VerifyError::BadSignature { input_index: i });
            }
            // System configuration checks.
            if let Err(reason) = config.check(self, &input.ring) {
                return Err(VerifyError::ConfigurationViolation {
                    input_index: i,
                    reason,
                });
            }
        }
        Ok(())
    }

    /// Verify and enqueue a transaction for the next block.
    pub fn submit(
        &mut self,
        tx: Transaction,
        config: &dyn RingConfiguration,
    ) -> Result<(), VerifyError> {
        let metrics = crate::obs::ChainMetrics::global();
        if let Err(e) = self.verify_transaction(&tx, config) {
            metrics.rs_rejected.inc();
            return Err(e);
        }
        // Reserve the images immediately so the mempool itself cannot hold
        // two spends of one token.
        for input in &tx.inputs {
            let img = input.key_image().value();
            if !self.consumed_images.insert(img) {
                metrics.rs_rejected.inc();
                return Err(VerifyError::ImageReused(img));
            }
        }
        metrics.rs_appended.inc();
        self.mempool.push(tx);
        Ok(())
    }

    /// Mint tokens out of thin air via an inputless coinbase transaction
    /// (bootstraps the economy; exempt from the no-inputs rule).
    pub fn submit_coinbase(&mut self, outputs: Vec<crate::transaction::TokenOutput>) {
        self.mempool.push(Transaction {
            inputs: vec![],
            outputs,
            memo: b"coinbase".to_vec(),
        });
    }

    /// Commit the mempool into a new block; returns the block height.
    pub fn seal_block(&mut self) -> Result<BlockHeight, ChainError> {
        let prev_hash = self.tip()?.hash();
        let height = BlockHeight(self.blocks.len() as u64);
        let mut committed: Vec<CommittedTransaction> = Vec::with_capacity(self.mempool.len());
        for tx in self.mempool.drain(..) {
            let id = TxId(self.next_tx);
            self.next_tx += 1;
            let mut output_ids = Vec::with_capacity(tx.outputs.len());
            for out in &tx.outputs {
                let tid = TokenId(self.tokens.len() as u64);
                self.tokens.push(TokenRecord {
                    id: tid,
                    origin: id,
                    block: height,
                    owner: out.owner,
                    amount: out.amount,
                });
                self.by_owner.entry(out.owner.value()).or_default().push(tid);
                output_ids.push(tid);
            }
            committed.push(CommittedTransaction { id, tx, output_ids });
        }
        let content_hash = Block::content_hash(&committed);
        self.blocks.push(Block {
            header: BlockHeader {
                height,
                prev_hash,
                content_hash,
                timestamp: height.0,
            },
            transactions: committed,
        });
        crate::obs::ChainMetrics::global().blocks_sealed.inc();
        Ok(height)
    }

    /// Fully verify a peer block against the current state before
    /// adoption: hash linkage, height continuity, content hash, token-id
    /// continuity, and — for every non-coinbase transaction — ring
    /// signatures, fresh key images, and the ring configuration. The
    /// block's transactions are checked in order, so intra-block double
    /// spends are caught too.
    pub fn verify_block(
        &self,
        block: &Block,
        config: &dyn RingConfiguration,
    ) -> Result<(), ChainError> {
        let metrics = crate::obs::ChainMetrics::global();
        let _timer = metrics.verify_block.start_span();
        let result = self.verify_block_inner(block, config);
        if result.is_err() {
            metrics.blocks_rejected.inc();
        }
        result
    }

    fn verify_block_inner(
        &self,
        block: &Block,
        config: &dyn RingConfiguration,
    ) -> Result<(), ChainError> {
        let tip = self.tip()?;
        if block.header.prev_hash != tip.hash() || block.header.height.0 as usize != self.height()
        {
            return Err(ChainError::NotExtendingTip);
        }
        if Block::content_hash(&block.transactions) != block.header.content_hash {
            return Err(ChainError::ContentHashMismatch);
        }
        let mut images_in_block: HashSet<u64> = HashSet::new();
        let mut next_token = self.tokens.len() as u64;
        for ct in &block.transactions {
            if !ct.tx.inputs.is_empty() {
                self.verify_transaction(&ct.tx, config)?;
            }
            for input in &ct.tx.inputs {
                let img = input.key_image().value();
                if !images_in_block.insert(img) {
                    return Err(VerifyError::DuplicateImageInTx(img).into());
                }
            }
            for &tid in &ct.output_ids {
                if tid.0 != next_token {
                    return Err(ChainError::TokenIdDiscontinuity {
                        expected: next_token,
                        got: tid.0,
                    });
                }
                next_token += 1;
            }
        }
        Ok(())
    }

    /// Adopt a block received from a peer: the block must extend the
    /// current tip (`prev_hash` matches) and carry a consistent content
    /// hash. Replays its transactions into local state — minting outputs
    /// under the block's recorded ids and registering consumed key images.
    ///
    /// Does **not** verify ring signatures — call [`Self::verify_block`]
    /// first (the network layer does). Returns a [`ChainError`] (leaving
    /// local state untouched) when the block does not extend the tip, its
    /// content hash is inconsistent, or its recorded token ids collide
    /// with local state.
    pub fn adopt_block(&mut self, block: Block) -> Result<(), ChainError> {
        let tip = self.tip()?.hash();
        if block.header.prev_hash != tip {
            return Err(ChainError::NotExtendingTip);
        }
        if Block::content_hash(&block.transactions) != block.header.content_hash {
            return Err(ChainError::ContentHashMismatch);
        }
        // Pre-check token-id continuity across the whole block before
        // mutating any state, so a bad block cannot half-apply.
        let mut next_token = self.tokens.len() as u64;
        for ct in &block.transactions {
            for &tid in &ct.output_ids {
                if tid.0 != next_token {
                    return Err(ChainError::TokenIdDiscontinuity {
                        expected: next_token,
                        got: tid.0,
                    });
                }
                next_token += 1;
            }
        }
        for ct in &block.transactions {
            for input in &ct.tx.inputs {
                self.consumed_images.insert(input.key_image().value());
            }
            for (out, &tid) in ct.tx.outputs.iter().zip(&ct.output_ids) {
                self.tokens.push(TokenRecord {
                    id: tid,
                    origin: ct.id,
                    block: block.header.height,
                    owner: out.owner,
                    amount: out.amount,
                });
                self.by_owner.entry(out.owner.value()).or_default().push(tid);
            }
            self.next_tx = self.next_tx.max(ct.id.0 + 1);
        }
        self.blocks.push(block);
        crate::obs::ChainMetrics::global().blocks_adopted.inc();
        Ok(())
    }

    /// Validate the whole chain's hash links (full-node audit).
    pub fn audit(&self) -> bool {
        self.blocks.windows(2).all(|w| {
            w[1].header.prev_hash == w[0].hash()
                && w[1].header.content_hash == Block::content_hash(&w[1].transactions)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{RingInput, TokenOutput};
    use dams_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Harness {
        chain: Chain,
        keys: Vec<KeyPair>,
        rng: StdRng,
    }

    /// Mint `n` tokens to `n` fresh keys in one coinbase block.
    fn harness(n: usize) -> Harness {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(42);
        let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&group, &mut rng)).collect();
        let mut chain = Chain::new(group);
        chain.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(10),
                })
                .collect(),
        );
        chain.seal_block().unwrap();
        Harness { chain, keys, rng }
    }

    /// Build a valid spend of `spend_idx` over ring token ids `ring`.
    fn spend(h: &mut Harness, ring: Vec<TokenId>, spend_idx: usize) -> Transaction {
        let outputs = vec![TokenOutput {
            owner: h.keys[spend_idx].public,
            amount: Amount(10),
        }];
        let tx_shell = Transaction {
            inputs: vec![],
            outputs: outputs.clone(),
            memo: vec![],
        };
        let payload = tx_shell.signing_payload();
        let ring_keys: Vec<_> = ring
            .iter()
            .map(|t| h.chain.token(*t).unwrap().owner)
            .collect();
        let sig = dams_crypto::sign(
            h.chain.group(),
            &payload,
            &ring_keys,
            &h.keys[spend_idx],
            &mut h.rng,
        )
        .unwrap();
        Transaction {
            inputs: vec![RingInput {
                ring,
                signature: sig,
                claimed_c: 0.6,
                claimed_l: 2,
            }],
            outputs,
            memo: vec![],
        }
    }

    #[test]
    fn mint_and_spend_roundtrip() {
        let mut h = harness(4);
        assert_eq!(h.chain.token_count(), 4);
        let tx = spend(&mut h, vec![TokenId(0), TokenId(1), TokenId(2)], 1);
        h.chain.submit(tx, &NoConfiguration).unwrap();
        h.chain.seal_block().unwrap();
        assert_eq!(h.chain.token_count(), 5);
        assert!(h.chain.audit());
    }

    #[test]
    fn double_spend_rejected() {
        let mut h = harness(4);
        let tx1 = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        let tx2 = spend(&mut h, vec![TokenId(0), TokenId(1), TokenId(2)], 0);
        h.chain.submit(tx1, &NoConfiguration).unwrap();
        let err = h.chain.submit(tx2, &NoConfiguration).unwrap_err();
        assert!(matches!(err, VerifyError::ImageReused(_)), "{err:?}");
    }

    #[test]
    fn signature_must_match_ring() {
        let mut h = harness(4);
        let mut tx = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        // Swap the declared ring to one the signature does not cover.
        tx.inputs[0].ring = vec![TokenId(2), TokenId(3)];
        let err = h.chain.submit(tx, &NoConfiguration).unwrap_err();
        assert!(matches!(err, VerifyError::BadSignature { .. }), "{err:?}");
    }

    #[test]
    fn unsorted_ring_rejected() {
        let mut h = harness(3);
        let mut tx = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        tx.inputs[0].ring = vec![TokenId(1), TokenId(0)];
        let err = h.chain.submit(tx, &NoConfiguration).unwrap_err();
        assert!(matches!(err, VerifyError::MalformedRing { .. }), "{err:?}");
    }

    #[test]
    fn unknown_token_rejected() {
        let mut h = harness(2);
        let mut tx = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        tx.inputs[0].ring = vec![TokenId(0), TokenId(99)];
        let err = h.chain.submit(tx, &NoConfiguration).unwrap_err();
        assert!(matches!(err, VerifyError::UnknownToken(TokenId(99))), "{err:?}");
    }

    #[test]
    fn no_input_transaction_rejected() {
        let h = harness(1);
        let tx = Transaction {
            inputs: vec![],
            outputs: vec![],
            memo: vec![],
        };
        assert_eq!(
            h.chain.verify_transaction(&tx, &NoConfiguration),
            Err(VerifyError::NoInputs)
        );
    }

    #[test]
    fn configuration_hook_can_reject() {
        struct MinRing(usize);
        impl RingConfiguration for MinRing {
            fn check(&self, _c: &Chain, ring: &[TokenId]) -> Result<(), String> {
                if ring.len() < self.0 {
                    Err(format!("ring smaller than {}", self.0))
                } else {
                    Ok(())
                }
            }
        }
        let mut h = harness(4);
        let tx = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        let err = h.chain.submit(tx, &MinRing(3)).unwrap_err();
        assert!(matches!(err, VerifyError::ConfigurationViolation { .. }));
    }

    #[test]
    fn audit_detects_tampering() {
        let mut h = harness(2);
        let tx = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        h.chain.submit(tx, &NoConfiguration).unwrap();
        h.chain.seal_block().unwrap();
        assert!(h.chain.audit());
        // Tamper with a committed transaction.
        h.chain.blocks[2].transactions[0].output_ids.push(TokenId(77));
        assert!(!h.chain.audit());
    }

    #[test]
    fn owner_index_tracks_mints() {
        let h = harness(3);
        for (i, k) in h.keys.iter().enumerate() {
            assert_eq!(h.chain.tokens_of(k.public), &[TokenId(i as u64)]);
        }
    }

    #[test]
    fn origin_tx_recorded_as_ht() {
        let mut h = harness(2);
        let origin0 = h.chain.token(TokenId(0)).unwrap().origin;
        let origin1 = h.chain.token(TokenId(1)).unwrap().origin;
        assert_eq!(origin0, origin1, "same coinbase = same HT");
        let tx = spend(&mut h, vec![TokenId(0), TokenId(1)], 0);
        h.chain.submit(tx, &NoConfiguration).unwrap();
        h.chain.seal_block().unwrap();
        let origin2 = h.chain.token(TokenId(2)).unwrap().origin;
        assert_ne!(origin2, origin0);
    }
}
