//! The one wire codec: deterministic byte encodings for the types nodes
//! gossip, the bounds-checked [`Reader`] every decoder parses with, and
//! the frame envelope `kind ‖ sha256(payload) ‖ payload` ([`seal_frame`],
//! [`open_frame`]) that gossip frames, catch-up bundles (`dams-node`) and
//! service wire frames (`dams-svc`) all travel in. Hand-rolled
//! little-endian framing — no serialization crate, no reflection, every
//! byte accounted for; decoders turn malformed input into a typed
//! [`CodecError`], never a panic.

use dams_crypto::sha256::sha256;
use dams_crypto::{KeyImage, PublicKey, RingSignature, SchnorrGroup};

use crate::block::{Block, BlockHeader};
use crate::transaction::{CommittedTransaction, RingInput, TokenOutput, Transaction};
use crate::types::{Amount, BlockHeight, TokenId, TxId};

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the announced length.
    Truncated,
    /// A length prefix exceeds sane bounds.
    LengthOutOfBounds(u64),
    /// Trailing bytes after a complete decode.
    TrailingBytes(usize),
    /// A group element failed subgroup validation.
    InvalidElement(u64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::LengthOutOfBounds(n) => write!(f, "length {n} out of bounds"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::InvalidElement(v) => write!(f, "invalid group element {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Maximum list length accepted by the decoder (anti-DoS bound).
const MAX_LEN: u64 = 1 << 20;

/// Bytes of envelope before the payload: the kind byte and the digest.
pub const FRAME_OVERHEAD: usize = 33;

/// Seal `payload` in the envelope `kind ‖ sha256(payload) ‖ payload`.
pub fn seal_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    seal_frame_into(&mut out, kind, payload);
    out
}

/// Append the envelope of [`seal_frame`] to `out`, so a transport that
/// prefixes its frames builds one without copying the envelope.
#[inline]
pub fn seal_frame_into(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&sha256(payload));
    out.extend_from_slice(payload);
}

/// Open an envelope built by [`seal_frame`]: `(kind, payload)`, or
/// `None` when `frame` is shorter than the envelope or the payload does
/// not hash to the digest. The kind is returned unjudged.
#[inline]
pub fn open_frame(frame: &[u8]) -> Option<(u8, &[u8])> {
    let (&kind, rest) = frame.split_first()?;
    let (digest, payload) = rest.split_first_chunk()?;
    (sha256(payload) == *digest).then_some((kind, payload))
}

/// A little-endian byte reader with bounds checking: every read past the
/// end is [`CodecError::Truncated`], never a panic.
pub struct Reader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array (digests, fixed-width fields).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self.rest.split_first_chunk().ok_or(CodecError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[b]| b)
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u64` list length, bounded against hostile prefixes.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(CodecError::LengthOutOfBounds(n));
        }
        Ok(n as usize)
    }

    /// Everything not yet read.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Require that every byte was read.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Parse all of `buf` with `parse`; bytes left over are
/// [`CodecError::TrailingBytes`].
pub fn parse_exact<'a, T>(
    buf: &'a [u8],
    parse: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let value = parse(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Validate-and-wrap a raw residue as a public key.
fn decode_public_key(group: &SchnorrGroup, raw: u64) -> Result<PublicKey, CodecError> {
    PublicKey::from_value(group, raw).ok_or(CodecError::InvalidElement(raw))
}

/// Validate-and-wrap a raw residue as a key image.
fn decode_key_image(group: &SchnorrGroup, raw: u64) -> Result<KeyImage, CodecError> {
    KeyImage::from_value(group, raw).ok_or(CodecError::InvalidElement(raw))
}

// --- ring signatures ---

/// Encode a ring signature.
pub fn encode_signature(sig: &RingSignature, out: &mut Vec<u8>) {
    out.extend_from_slice(&sig.c0.value().to_le_bytes());
    out.extend_from_slice(&(sig.responses.len() as u64).to_le_bytes());
    for r in &sig.responses {
        out.extend_from_slice(&r.value().to_le_bytes());
    }
    out.extend_from_slice(&sig.key_image.value().to_le_bytes());
}

fn decode_signature(group: &SchnorrGroup, r: &mut Reader) -> Result<RingSignature, CodecError> {
    let c0 = group.scalar(r.u64()?);
    let n = r.len()?;
    let mut responses = Vec::with_capacity(n);
    for _ in 0..n {
        responses.push(group.scalar(r.u64()?));
    }
    let key_image = decode_key_image(group, r.u64()?)?;
    Ok(RingSignature {
        c0,
        responses,
        key_image,
    })
}

/// Encode a ring signature on its own (gossip attestations and
/// equivocation proofs carry signatures outside any transaction).
pub fn signature_to_bytes(sig: &RingSignature) -> Vec<u8> {
    let mut out = Vec::new();
    encode_signature(sig, &mut out);
    out
}

/// Decode a standalone ring-signature encoding, rejecting trailing bytes.
pub fn signature_from_bytes(
    group: &SchnorrGroup,
    buf: &[u8],
) -> Result<RingSignature, CodecError> {
    parse_exact(buf, |r| decode_signature(group, r))
}

// --- transactions ---

/// Encode a transaction.
pub fn encode_transaction(tx: &Transaction, out: &mut Vec<u8>) {
    out.extend_from_slice(&(tx.inputs.len() as u64).to_le_bytes());
    for input in &tx.inputs {
        out.extend_from_slice(&(input.ring.len() as u64).to_le_bytes());
        for t in &input.ring {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
        encode_signature(&input.signature, out);
        out.extend_from_slice(&input.claimed_c.to_le_bytes());
        out.extend_from_slice(&(input.claimed_l as u64).to_le_bytes());
    }
    out.extend_from_slice(&(tx.outputs.len() as u64).to_le_bytes());
    for o in &tx.outputs {
        out.extend_from_slice(&o.owner.value().to_le_bytes());
        out.extend_from_slice(&o.amount.0.to_le_bytes());
    }
    out.extend_from_slice(&(tx.memo.len() as u64).to_le_bytes());
    out.extend_from_slice(&tx.memo);
}

fn decode_transaction(group: &SchnorrGroup, r: &mut Reader) -> Result<Transaction, CodecError> {
    let n_in = r.len()?;
    let mut inputs = Vec::with_capacity(n_in);
    for _ in 0..n_in {
        let ring_len = r.len()?;
        let mut ring = Vec::with_capacity(ring_len);
        for _ in 0..ring_len {
            ring.push(TokenId(r.u64()?));
        }
        let signature = decode_signature(group, r)?;
        let claimed_c = f64::from_le_bytes(r.array()?);
        let claimed_l = r.u64()? as usize;
        inputs.push(RingInput {
            ring,
            signature,
            claimed_c,
            claimed_l,
        });
    }
    let n_out = r.len()?;
    let mut outputs = Vec::with_capacity(n_out);
    for _ in 0..n_out {
        let owner = decode_public_key(group, r.u64()?)?;
        let amount = Amount(r.u64()?);
        outputs.push(TokenOutput { owner, amount });
    }
    let memo_len = r.len()?;
    let memo = r.bytes(memo_len)?.to_vec();
    Ok(Transaction {
        inputs,
        outputs,
        memo,
    })
}

// --- blocks ---

/// Encode a block (header + committed transactions).
pub fn encode_block(block: &Block, out: &mut Vec<u8>) {
    out.extend_from_slice(&block.header.height.0.to_le_bytes());
    out.extend_from_slice(&block.header.prev_hash);
    out.extend_from_slice(&block.header.content_hash);
    out.extend_from_slice(&block.header.timestamp.to_le_bytes());
    out.extend_from_slice(&(block.transactions.len() as u64).to_le_bytes());
    for ct in &block.transactions {
        out.extend_from_slice(&ct.id.0.to_le_bytes());
        encode_transaction(&ct.tx, out);
        out.extend_from_slice(&(ct.output_ids.len() as u64).to_le_bytes());
        for t in &ct.output_ids {
            out.extend_from_slice(&t.0.to_le_bytes());
        }
    }
}

/// Decode a block; the whole buffer must be consumed.
pub fn decode_block(group: &SchnorrGroup, buf: &[u8]) -> Result<Block, CodecError> {
    let mut r = Reader::new(buf);
    let height = BlockHeight(r.u64()?);
    let prev_hash = r.array()?;
    let content_hash = r.array()?;
    let timestamp = r.u64()?;
    let n_tx = r.len()?;
    let mut transactions = Vec::with_capacity(n_tx);
    for _ in 0..n_tx {
        let id = TxId(r.u64()?);
        let tx = decode_transaction(group, &mut r)?;
        let n_ids = r.len()?;
        let mut output_ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            output_ids.push(TokenId(r.u64()?));
        }
        transactions.push(CommittedTransaction { id, tx, output_ids });
    }
    r.finish()?;
    Ok(Block {
        header: BlockHeader {
            height,
            prev_hash,
            content_hash,
            timestamp,
        },
        transactions,
    })
}

/// One-shot helpers.
pub fn block_to_bytes(block: &Block) -> Vec<u8> {
    let mut out = Vec::new();
    encode_block(block, &mut out);
    out
}

pub fn transaction_to_bytes(tx: &Transaction) -> Vec<u8> {
    let mut out = Vec::new();
    encode_transaction(tx, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Chain, NoConfiguration};
    use dams_crypto::KeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A chain with one coinbase and one ring spend, returning its blocks.
    fn sample_blocks() -> (SchnorrGroup, Vec<Block>) {
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut chain = Chain::new(group);
        let keys: Vec<KeyPair> = (0..3)
            .map(|_| KeyPair::generate(&group, &mut rng))
            .collect();
        chain.submit_coinbase(
            keys.iter()
                .map(|k| TokenOutput {
                    owner: k.public,
                    amount: Amount(2),
                })
                .collect(),
        );
        chain.seal_block().unwrap();
        let outputs = vec![TokenOutput {
            owner: keys[1].public,
            amount: Amount(2),
        }];
        let shell = Transaction {
            inputs: vec![],
            outputs: outputs.clone(),
            memo: b"memo".to_vec(),
        };
        let payload = shell.signing_payload();
        let ring_keys: Vec<_> = keys.iter().map(|k| k.public).collect();
        let sig = dams_crypto::sign(&group, &payload, &ring_keys, &keys[0], &mut rng).unwrap();
        chain
            .submit(
                Transaction {
                    inputs: vec![RingInput {
                        ring: vec![TokenId(0), TokenId(1), TokenId(2)],
                        signature: sig,
                        claimed_c: 0.6,
                        claimed_l: 2,
                    }],
                    outputs,
                    memo: b"memo".to_vec(),
                },
                &NoConfiguration,
            )
            .unwrap();
        chain.seal_block().unwrap();
        (group, chain.blocks().to_vec())
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Envelopes whose bytes are also pinned, behind their length prefix,
    /// by the service wire's golden vectors (HELLO and SHUTDOWN).
    fn golden_frames() -> [(u8, Vec<u8>, &'static str); 2] {
        [
            (
                1,
                7u64.to_le_bytes().to_vec(),
                "01aae89fc0f03e2959ae4d701a80cc3915918c950b159f6abb6c92c1433b1a8534\
                 0700000000000000",
            ),
            (
                4,
                Vec::new(),
                "04e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
        ]
    }

    #[test]
    fn envelope_golden_vectors_seal_and_open() {
        for (kind, payload, golden) in golden_frames() {
            let frame = seal_frame(kind, &payload);
            assert_eq!(hex(&frame), golden, "kind {kind}");
            assert_eq!(open_frame(&frame), Some((kind, payload.as_slice())));
        }
    }

    #[test]
    fn envelope_bit_flips_fail_authentication_outside_the_kind_byte() {
        for (kind, payload, _) in golden_frames() {
            let clean = seal_frame(kind, &payload);
            for idx in 0..clean.len() {
                for bit in 0..8 {
                    let mut bytes = clean.clone();
                    bytes[idx] ^= 1 << bit;
                    let opened = open_frame(&bytes);
                    if idx == 0 {
                        // The kind byte is outside the digest: the payload
                        // still authenticates and the protocol judges the
                        // kind.
                        assert_eq!(opened, Some((kind ^ (1 << bit), payload.as_slice())));
                    } else {
                        assert_eq!(opened, None, "kind {kind}: bit {bit} of byte {idx}");
                    }
                }
            }
        }
    }

    #[test]
    fn envelope_truncations_and_extensions_fail_authentication() {
        for (kind, payload, _) in golden_frames() {
            let clean = seal_frame(kind, &payload);
            for cut in 0..clean.len() {
                assert_eq!(open_frame(&clean[..cut]), None, "kind {kind}: cut at {cut}");
            }
            let mut longer = clean.clone();
            longer.push(0);
            assert_eq!(open_frame(&longer), None, "kind {kind}: extended");
        }
    }

    #[test]
    fn reader_reads_little_endian_and_reports_typed_errors() {
        let buf = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0302));
        assert_eq!(r.u32(), Ok(0x0706_0504));
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(r.array::<2>(), Ok([8, 9]));
        assert_eq!(r.rest(), &buf[9..]);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        r.finish().unwrap();
        assert_eq!(
            parse_exact(&buf, |r| r.u64()),
            Err(CodecError::TrailingBytes(6))
        );
        assert_eq!(
            parse_exact(&buf[..8], |r| r.u64()),
            Ok(0x0807_0605_0403_0201)
        );
    }

    #[test]
    fn block_roundtrip() {
        let (group, blocks) = sample_blocks();
        for b in &blocks {
            let bytes = block_to_bytes(b);
            let decoded = decode_block(&group, &bytes).unwrap();
            assert_eq!(&decoded, b);
            assert_eq!(decoded.hash(), b.hash(), "hash stability");
        }
    }

    #[test]
    fn decoded_signature_still_verifies() {
        let (group, blocks) = sample_blocks();
        let spend_block = &blocks[2];
        let bytes = block_to_bytes(spend_block);
        let decoded = decode_block(&group, &bytes).unwrap();
        let ct = &decoded.transactions[0];
        let payload = ct.tx.signing_payload();
        // Rebuild the ring keys from the coinbase block.
        let coinbase = &blocks[1];
        let ring_keys: Vec<PublicKey> = coinbase.transactions[0]
            .tx
            .outputs
            .iter()
            .map(|o| o.owner)
            .collect();
        assert!(dams_crypto::verify(
            &group,
            &payload,
            &ring_keys,
            &ct.tx.inputs[0].signature
        ));
    }

    #[test]
    fn truncated_input_rejected() {
        let (group, blocks) = sample_blocks();
        let bytes = block_to_bytes(&blocks[2]);
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_block(&group, &bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (group, blocks) = sample_blocks();
        let mut bytes = block_to_bytes(&blocks[1]);
        bytes.push(0);
        assert_eq!(
            decode_block(&group, &bytes).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
    }

    #[test]
    fn hostile_length_rejected() {
        let (group, blocks) = sample_blocks();
        let mut bytes = block_to_bytes(&blocks[1]);
        // The transaction-count length prefix sits after 8+32+32+8 bytes.
        let pos = 80;
        bytes[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_block(&group, &bytes).unwrap_err();
        assert!(
            matches!(err, CodecError::LengthOutOfBounds(_)),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_public_key_rejected() {
        // Craft a transaction whose output owner is not in the subgroup.
        let group = SchnorrGroup::default();
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&group, &mut rng);
        let tx = Transaction {
            inputs: vec![],
            outputs: vec![TokenOutput {
                owner: kp.public,
                amount: Amount(1),
            }],
            memo: vec![],
        };
        let mut bytes = transaction_to_bytes(&tx);
        // Overwrite the owner residue (starts after the 8-byte input count
        // and 8-byte output count) with 0 — never a subgroup member.
        bytes[16..24].copy_from_slice(&0u64.to_le_bytes());
        let mut r = Reader::new(&bytes);
        let err = decode_transaction(&group, &mut r).unwrap_err();
        assert!(matches!(err, CodecError::InvalidElement(0)), "{err:?}");
    }
}
