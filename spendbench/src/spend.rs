//! `spend`: one wallet committing spends on a durable node, closed loop.
//!
//! Each spend is one block and crosses every layer in order: the
//! selection request's wire round trip, index snapshot and
//! admission-controlled selection, ring validation, signing, miner submit
//! and seal, the block codec, the peer's verify, WAL append, adopt,
//! checkpoint, and the index update.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dams_blockchain::{
    decode_block, Block, Chain, NoConfiguration, RingInput, TokenId, TokenOutput, Transaction,
};
use dams_core::{BatchSnapshot, DegradedSelection, DiversityIndex, Instance};
use dams_crypto::{KeyPair, PublicKey};
use dams_diversity::TokenUniverse;
use dams_node::indexing::{block_delta, index_of_chain};
use dams_node::validate::{validate_ring, Verdict};
use dams_obs::Registry;
use dams_store::{Recovered, Store};
use dams_svc::wire::{decode_frame, Message, WireOutcome, WireRequest, WireResponse};
use dams_svc::{Frontend, FrontendConfig, ShedReason};

use crate::common::{self, Economy, Scratch, StoreFiles, BUDGET_TICKS};
use crate::report::{Counters, Run, Timed};
use crate::stats::{Fingerprint, Outcome};
use crate::trace::Tracer;

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 5;
/// Tokens minted before the first spend.
pub const TOKENS: usize = 8192;
/// Blocks of [`HISTORY_SPENDS_PER_BLOCK`] spends committed, untimed,
/// before the first timed spend, so that checkpoints attest a chain on
/// which a quarter of the minted tokens have already been spent.
pub const HISTORY_BLOCKS: usize = 128;
pub const HISTORY_SPENDS_PER_BLOCK: usize = 16;
/// Spends per episode; every episode replays the same spends from the
/// same starting state.
pub const EPISODE: usize = 256;

/// The instance a [`Frontend`] is anchored to; every request passes its
/// batch snapshot through `select_on` instead.
pub fn anchor() -> &'static Instance {
    static ANCHOR: OnceLock<Instance> = OnceLock::new();
    ANCHOR.get_or_init(|| Instance::fresh(TokenUniverse::new(Vec::new())))
}

/// A fresh frontend with the default configuration; its metrics land in
/// `registry`.
pub fn frontend(registry: &Registry) -> Frontend<'static> {
    Frontend::new(
        anchor(),
        common::policy(),
        FrontendConfig::default(),
        registry,
    )
}

/// A selection answer with the snapshot it was computed on, or why
/// admission shed the request.
pub type Answer = Result<(Arc<BatchSnapshot>, DegradedSelection), ShedReason>;

/// The target's batch snapshot, then one admission-controlled selection
/// on it.
pub fn select(
    tr: &mut Tracer,
    index: &DiversityIndex,
    frontend: &mut Frontend<'_>,
    target: u64,
) -> Answer {
    let batch = index.batch_of(target).expect("target is indexed");
    let snap = tr
        .span("core.index.snapshot", || index.snapshot(batch))
        .expect("indexed batch");
    let local = snap
        .tokens
        .binary_search(&target)
        .expect("target in its batch");
    let sel = tr.span("svc.frontend.select", || {
        frontend.select_on(
            &snap.instance,
            snap.modular.as_ref(),
            dams_diversity::TokenId(local as u32),
            BUDGET_TICKS,
            false,
        )
    });
    sel.map(|sel| (snap, sel))
}

/// Step 1, one selection request as a wallet sends it to the service: a
/// `svc::wire` round trip in, snapshot and selection, a round trip out.
/// `None` when a frame does not survive its round trip.
pub fn request(
    tr: &mut Tracer,
    index: &DiversityIndex,
    frontend: &mut Frontend<'_>,
    id: u64,
    target: u64,
) -> Option<Answer> {
    let sent = Message::Request(WireRequest {
        tick: id,
        id,
        tenant: id % 64,
        target: u32::try_from(target).expect("token ids fit the wire's u32"),
        interactive: true,
        budget: BUDGET_TICKS,
        require_exact: false,
    });
    let Ok((Message::Request(req), _)) = tr.span("svc.wire", || decode_frame(&sent.encode()))
    else {
        return None;
    };
    let answer = select(tr, index, frontend, u64::from(req.target));
    let outcome = match &answer {
        Ok((_, sel)) => WireOutcome::Completed {
            met: true,
            degraded: sel.degraded(),
        },
        Err(reason) => WireOutcome::Shed(*reason),
    };
    let reply = Message::Response(WireResponse { id, outcome });
    let Ok((back, _)) = tr.span("svc.wire", || decode_frame(&reply.encode())) else {
        return None;
    };
    (back == reply).then_some(answer)
}

/// The Definition-5 check a wallet runs before signing, against the
/// batch the ring was selected from.
pub fn validate(snap: &BatchSnapshot, sel: &DegradedSelection) -> bool {
    let inst = &snap.instance;
    validate_ring(
        &sel.selection.ring,
        common::policy().requirement,
        &inst.rings,
        &inst.claims,
        &inst.universe,
    ) == Verdict::Eligible
}

/// The selected ring as sorted ledger ids.
pub fn ledger_ring(snap: &BatchSnapshot, sel: &DegradedSelection) -> Vec<TokenId> {
    sel.selection
        .ring
        .tokens()
        .iter()
        .map(|t| TokenId(snap.tokens[t.0 as usize]))
        .collect()
}

/// Step 3: sign a one-output transaction to `receiver` over `ring`.
pub fn sign(
    tr: &mut Tracer,
    chain: &Chain,
    signer: &KeyPair,
    ring: Vec<TokenId>,
    receiver: PublicKey,
    rng: &mut StdRng,
) -> Option<Transaction> {
    let ring_keys: Vec<PublicKey> = ring
        .iter()
        .map(|t| chain.token(*t).expect("ring token minted").owner)
        .collect();
    let outputs = vec![TokenOutput {
        owner: receiver,
        amount: dams_blockchain::Amount(1),
    }];
    let payload = Transaction {
        inputs: vec![],
        outputs: outputs.clone(),
        memo: vec![],
    }
    .signing_payload();
    let signature = tr
        .span("crypto.sign", || {
            dams_crypto::sign(chain.group(), &payload, &ring_keys, signer, rng)
        })
        .ok()?;
    let req = common::policy().requirement;
    Some(Transaction {
        inputs: vec![RingInput {
            ring,
            signature,
            claimed_c: req.c,
            claimed_l: req.l,
        }],
        outputs,
        memo: vec![],
    })
}

/// Steps 6–10 on the peer: verify, WAL-append, adopt, checkpoint, index.
/// Returns whether the block was accepted.
pub fn ingest(
    tr: &mut Tracer,
    peer: &mut Chain,
    store: &mut Store,
    index: &mut DiversityIndex,
    block: Block,
    counters: &mut Counters,
) -> bool {
    if tr
        .span("blockchain.verify_block", || {
            peer.verify_block(&block, &NoConfiguration)
        })
        .is_err()
    {
        return false;
    }
    counters.rings_verified += block
        .transactions
        .iter()
        .flat_map(|ct| &ct.tx.inputs)
        .map(|i| i.ring.len() as u64)
        .sum::<u64>();
    counters.inputs_verified += block
        .transactions
        .iter()
        .map(|ct| ct.tx.inputs.len() as u64)
        .sum::<u64>();
    tr.span("store.append", || store.append_block(&block))
        .expect("WAL append");
    if tr
        .span("blockchain.adopt", || peer.adopt_block(block))
        .is_err()
    {
        return false;
    }
    tr.span("store.checkpoint", || store.maybe_checkpoint(peer))
        .expect("checkpoint");
    let tip = peer.tip().expect("adopted tip");
    let applied = tr.span("core.index.apply", || index.apply_block(&block_delta(tip)));
    counters.index_ops += index.stats().last_block_ops;
    counters.blocks_applied += 1;
    applied.is_ok()
}

/// Commit `blocks` blocks of `per_block` spends on `chain`, untimed,
/// through the same select, validate and sign path as a timed spend.
/// Each block draws its spends from distinct batches of `index`, which
/// follows every block. `keys[id]` owns minted token `id`; targets are
/// minted tokens not yet marked in `spent`, and each spent one is marked.
pub fn commit_spends(
    keys: &[KeyPair],
    chain: &mut Chain,
    index: &mut DiversityIndex,
    spent: &mut [bool],
    blocks: usize,
    per_block: usize,
    rng: &mut StdRng,
) {
    // No root span is open, so the tracer records nothing.
    let mut tr = Tracer::new(Instant::now());
    let registry = Registry::new();
    let mut frontend = frontend(&registry);
    let batches = index.batch_count();
    for _ in 0..blocks {
        let mut order: Vec<usize> = (0..batches).collect();
        order.shuffle(rng);
        let mut spends = 0;
        for batch in order {
            if spends == per_block {
                break;
            }
            let unspent: Vec<u64> = index
                .batch_tokens(batch)
                .iter()
                .copied()
                .filter(|&t| (t as usize) < spent.len() && !spent[t as usize])
                .collect();
            if unspent.is_empty() {
                continue;
            }
            let target = unspent[rng.gen_range(0..unspent.len())];
            let Ok((snap, sel)) = select(&mut tr, index, &mut frontend, target) else {
                continue;
            };
            if !validate(&snap, &sel) {
                continue;
            }
            let receiver = KeyPair::generate(chain.group(), rng).public;
            let ring = ledger_ring(&snap, &sel);
            let Some(tx) = sign(&mut tr, chain, &keys[target as usize], ring, receiver, rng) else {
                continue;
            };
            if chain.submit(tx, &NoConfiguration).is_ok() {
                spent[target as usize] = true;
                spends += 1;
            }
        }
        assert_eq!(spends, per_block, "found a full block of spends");
        chain.seal_block().expect("seal");
        let tip = chain.tip().expect("sealed tip");
        index
            .apply_block(&block_delta(tip))
            .expect("committed block indexes");
    }
}

struct Setup {
    econ: Economy,
    prefix: StoreFiles,
    targets: Vec<u64>,
    receivers: Vec<PublicKey>,
}

/// Mint, commit the history, install it as the replica's prefix, and draw
/// the episode's targets from the tokens still unspent.
fn setup(seed: u64, scratch: &mut Scratch) -> Setup {
    let mut econ = common::mint(TOKENS, seed);
    let mut spent = vec![false; TOKENS];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6869_7374);
    commit_spends(
        &econ.keys,
        &mut econ.chain,
        &mut econ.index,
        &mut spent,
        HISTORY_BLOCKS,
        HISTORY_SPENDS_PER_BLOCK,
        &mut rng,
    );
    let prefix = StoreFiles::new(scratch.fresh());
    common::install_prefix(&prefix, &econ.chain);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7461_7267);
    let mut targets: Vec<u64> = (0..TOKENS as u64).filter(|&t| !spent[t as usize]).collect();
    targets.shuffle(&mut rng);
    targets.truncate(EPISODE);
    let receivers = (0..EPISODE)
        .map(|_| KeyPair::generate(econ.chain.group(), &mut rng).public)
        .collect();
    Setup {
        econ,
        prefix,
        targets,
        receivers,
    }
}

/// Run the `spend` workload.
pub fn run(seed: u64, seconds: f64, trace: bool, tr: &mut Tracer) -> Run {
    let mut scratch = Scratch::new("spend");
    let mut run = Run::new("spend", "spend");
    let setup = run.setups(SETUPS, || setup(seed, &mut scratch));
    let mut inputs = Fingerprint::default();
    inputs.bytes(&setup.econ.chain.tip().expect("minted tip").hash());
    for (t, r) in setup.targets.iter().zip(&setup.receivers) {
        inputs.u64(*t);
        inputs.u64(r.value());
    }
    run.inputs_hash = inputs.finish();

    let started = tr.now_ns();
    let mut episode = 0u64;
    while episode < 4 || (tr.now_ns() - started) as f64 / 1e9 < seconds {
        let counters = run_episode(&setup, seed, episode, trace, tr, &mut scratch, &mut run);
        run.episode_counters(counters);
        episode += 1;
    }
    run
}

fn run_episode(
    setup: &Setup,
    seed: u64,
    episode: u64,
    trace: bool,
    tr: &mut Tracer,
    scratch: &mut Scratch,
    run: &mut Run,
) -> Counters {
    let dir = scratch.fresh();
    let files = StoreFiles::copy_of(&setup.prefix, dir.clone());
    let Recovered {
        mut store,
        chain: mut peer,
        ..
    } = files.open(setup.econ.chain.group());
    let mut miner = setup.econ.chain.clone();
    let mut index = setup.econ.index.clone();
    let registry = Registry::new();
    let mut frontend = frontend(&registry);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7369_676e);
    let mut c = Counters::default();
    let (wal0, cp0, fsync0) = (files.wal.bytes(), files.cp.bytes(), files.fsyncs());
    // Whole episodes are traced or not, so both halves see the same mix
    // of checkpointing and quiet blocks.
    tr.set_enabled(trace && episode.is_multiple_of(2));
    let mut spend_ns = 0u64;

    for (i, (&target, &receiver)) in setup.targets.iter().zip(&setup.receivers).enumerate() {
        let op = episode * EPISODE as u64 + i as u64;
        let (outcome, timing) = tr.root(op, "spend", |tr| {
            let Some(answer) = request(tr, &index, &mut frontend, op, target) else {
                return Outcome::Rejected;
            };
            let Ok((snap, sel)) = answer else {
                return Outcome::Shed;
            };
            c.record_selection(&sel);
            if !tr.span("node.validate_ring", || validate(&snap, &sel)) {
                c.validate_rejects += 1;
                return Outcome::Rejected;
            }
            let signer = &setup.econ.keys[target as usize];
            let ring = ledger_ring(&snap, &sel);
            let Some(tx) = sign(tr, &miner, signer, ring, receiver, &mut rng) else {
                return Outcome::Rejected;
            };
            c.rings_signed += tx.inputs[0].ring.len() as u64;
            c.inputs_signed += 1;
            if tr
                .span("blockchain.submit", || miner.submit(tx, &NoConfiguration))
                .is_err()
            {
                return Outcome::Rejected;
            }
            tr.span("blockchain.seal", || miner.seal_block())
                .expect("seal");
            let block = tr.span("blockchain.codec", || {
                let bytes = dams_blockchain::block_to_bytes(miner.tip().expect("sealed tip"));
                (bytes.len(), decode_block(miner.group(), &bytes))
            });
            c.block_bytes += block.0 as u64;
            c.blocks += 1;
            let Ok(block) = block.1 else {
                return Outcome::Rejected;
            };
            if ingest(tr, &mut peer, &mut store, &mut index, block, &mut c) {
                Outcome::Ok
            } else {
                Outcome::Rejected
            }
        });
        run.record(outcome, Timed::root(timing));
        spend_ns += timing.duration_ns();
    }
    run.episode_throughput(c.blocks_applied, spend_ns);
    c.spends = c.blocks_applied;
    c.wal_bytes = files.wal.bytes() - wal0;
    c.checkpoint_bytes = files.cp.bytes() - cp0;
    c.fsyncs = files.fsyncs() - fsync0;
    c.record_index(&index);
    drop(store);

    // Correctness: the peer followed the miner, the store recovers clean
    // at the same tip, and the index matches a rebuild from the chain.
    let miner_tip = miner.tip().expect("tip").hash();
    run.check(
        peer.tip().expect("tip").hash() == miner_tip,
        "peer tip equals miner tip",
    );
    let opened = Instant::now();
    let recovered = files.open(setup.econ.chain.group());
    run.recover_ns.push(opened.elapsed().as_nanos() as f64);
    let report = &recovered.report;
    run.check(
        report.clean() && report.tip == miner_tip,
        "spend store recovers clean at the miner's tip",
    );
    c.records_replayed = report.records_replayed;
    c.rings_checked = report.rings_checked;
    let rebuilt = index_of_chain(&peer, common::LAMBDA).expect("peer chain indexes");
    run.check(
        rebuilt.token_count() == index.token_count()
            && rebuilt.batch_count() == index.batch_count()
            && (0..index.batch_count())
                .all(|b| rebuilt.batch_fingerprint(b) == index.batch_fingerprint(b)),
        "index matches index_of_chain(peer)",
    );
    drop(recovered);
    scratch.discard(&dir);
    c
}
