//! `catchup`: a replica ingesting a peer's chain in bulk, then its
//! restart.
//!
//! Set-up has a peer build [`BLOCKS`] blocks of [`SPENDS_PER_BLOCK`]
//! spends on a minted chain, each block drawing its spends from distinct
//! batches, and encodes them. Each episode starts a replica from the
//! minted prefix, ingests every block (decode, verify, WAL append, adopt,
//! checkpoint, index update), then times `Store::open` on its files.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_blockchain::decode_block;
use dams_store::Recovered;

use crate::common::{self, Economy, Scratch, StoreFiles};
use crate::report::{Counters, Run, Timed};
use crate::spend;
use crate::stats::{Fingerprint, Outcome};
use crate::trace::Tracer;

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Tokens minted before the peer's blocks.
pub const TOKENS: usize = 16_384;
/// Blocks the replica catches up on.
pub const BLOCKS: usize = 256;
/// Spends per block, each from a distinct batch.
pub const SPENDS_PER_BLOCK: usize = 16;

struct Setup {
    econ: Economy,
    prefix: StoreFiles,
    /// The peer's blocks past the minted prefix, encoded.
    wire: Vec<Vec<u8>>,
    peer_tip: [u8; 32],
}

fn setup(seed: u64, scratch: &mut Scratch) -> Setup {
    let econ = common::mint(TOKENS, seed);
    let prefix = StoreFiles::new(scratch.fresh());
    common::install_prefix(&prefix, &econ.chain);

    let mut peer = econ.chain.clone();
    let mut index = econ.index.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6361_7463);
    spend::commit_spends(
        &econ.keys,
        &mut peer,
        &mut index,
        &mut vec![false; TOKENS],
        BLOCKS,
        SPENDS_PER_BLOCK,
        &mut rng,
    );
    let wire = peer.blocks()[econ.chain.height()..]
        .iter()
        .map(dams_blockchain::block_to_bytes)
        .collect();
    let peer_tip = peer.tip().expect("tip").hash();
    Setup {
        econ,
        prefix,
        wire,
        peer_tip,
    }
}

/// Run the `catchup` workload.
pub fn run(seed: u64, seconds: f64, trace: bool, tr: &mut Tracer) -> Run {
    let mut scratch = Scratch::new("catchup");
    let mut run = Run::new("catchup", "block");
    let setup = run.setups(SETUPS, || setup(seed, &mut scratch));
    let mut inputs = Fingerprint::default();
    setup.wire.iter().for_each(|b| inputs.bytes(b));
    run.inputs_hash = inputs.finish();

    let started = tr.now_ns();
    let mut episode = 0u64;
    while episode < 4 || (tr.now_ns() - started) as f64 / 1e9 < seconds {
        tr.set_enabled(trace && episode.is_multiple_of(2));
        let counters = run_episode(&setup, episode, tr, &mut scratch, &mut run);
        run.episode_counters(counters);
        episode += 1;
    }
    run
}

fn run_episode(
    setup: &Setup,
    episode: u64,
    tr: &mut Tracer,
    scratch: &mut Scratch,
    run: &mut Run,
) -> Counters {
    let dir = scratch.fresh();
    let files = StoreFiles::copy_of(&setup.prefix, dir.clone());
    let Recovered {
        mut store,
        chain: mut replica,
        ..
    } = files.open(setup.econ.chain.group());
    let mut index = setup.econ.index.clone();
    let mut c = Counters::default();
    let (wal0, cp0, fsync0) = (files.wal.bytes(), files.cp.bytes(), files.fsyncs());
    let mut ingest_ns = 0u64;

    for (i, bytes) in setup.wire.iter().enumerate() {
        let op = episode * BLOCKS as u64 + i as u64;
        let (outcome, timing) = tr.root(op, "block", |tr| {
            let Ok(block) = tr.span("blockchain.codec", || decode_block(replica.group(), bytes))
            else {
                return Outcome::Rejected;
            };
            if spend::ingest(tr, &mut replica, &mut store, &mut index, block, &mut c) {
                Outcome::Ok
            } else {
                Outcome::Rejected
            }
        });
        run.record(outcome, Timed::root(timing));
        ingest_ns += timing.duration_ns();
        c.blocks += 1;
        c.block_bytes += bytes.len() as u64;
    }
    c.spends = c.inputs_verified;
    run.episode_throughput(c.spends, ingest_ns);
    c.wal_bytes = files.wal.bytes() - wal0;
    c.checkpoint_bytes = files.cp.bytes() - cp0;
    c.fsyncs = files.fsyncs() - fsync0;
    c.record_index(&index);
    drop(store);

    // Restart: recover the replica from its files.
    let (recovered, timing) = tr.root(episode, "recover", |tr| {
        tr.span("store.open", || files.open(setup.econ.chain.group()))
    });
    run.recover_ns.push(timing.duration_ns() as f64);
    let report = &recovered.report;
    c.records_replayed = report.records_replayed;
    c.rings_checked = report.rings_checked;
    run.check(
        replica.tip().expect("tip").hash() == setup.peer_tip,
        "replica tip equals the peer's",
    );
    run.check(
        report.clean()
            && report.rings_checked == c.spends
            && c.spends == (BLOCKS * SPENDS_PER_BLOCK) as u64
            && report.tip == setup.peer_tip,
        "replica recovers clean with every committed ring re-checked",
    );
    drop(recovered);
    scratch.discard(&dir);
    c
}
