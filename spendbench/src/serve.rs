//! `serve`: selection serving for independent wallets, the read-only
//! path, on a streamed chain of 10⁵ tokens.
//!
//! Each request and each response makes a byte round trip through the
//! service wire codec; one streamed block is applied every
//! [`WRITE_EVERY`] requests, so writes land beside reads and keep
//! invalidating the open batch's cached snapshot. An episode runs the
//! request sequence twice from the same starting index: first as an
//! open loop of Poisson arrivals (latency from the due time), then back
//! to back as a closed loop (capacity).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{
    satisfies_first_configuration, BatchSnapshot, BlockDelta, DegradedSelection, DiversityIndex,
};
use dams_diversity::{HtHistogram, TokenId};
use dams_obs::Registry;
use dams_workload::{ChainStream, StreamConfig};

use crate::common::{self, LAMBDA};
use crate::report::{Counters, Run, Timed};
use crate::spend::{self, request, Answer};
use crate::stats::{self, Fingerprint, Outcome};
use crate::trace::Tracer;

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 9;
/// Tokens streamed into the index before serving.
pub const TOKENS: u64 = 100_000;
/// Open-loop offered load.
pub const RATE_PER_S: f64 = 2000.0;
/// Requests per episode (one second of arrivals).
pub const EPISODE: usize = 2000;
/// One streamed block is applied after every this many requests.
pub const WRITE_EVERY: usize = 4;
/// An answer later than this after its due time counts as failed.
pub const LIMIT_NS: u64 = 1_000_000;

struct Setup {
    index: DiversityIndex,
    deltas: Vec<BlockDelta>,
    targets: Vec<u64>,
    due_ns: Vec<u64>,
}

fn setup(seed: u64) -> Setup {
    let mut stream = ChainStream::new(StreamConfig {
        seed,
        lambda: LAMBDA,
        ..StreamConfig::default()
    });
    let mut index = DiversityIndex::new(LAMBDA);
    while index.token_count() < TOKENS {
        index
            .apply_block(&stream.next_block())
            .expect("stream is contiguous");
    }
    let deltas = (0..EPISODE / WRITE_EVERY)
        .map(|_| stream.next_block())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276);
    let tokens = index.token_count();
    let targets = (0..EPISODE).map(|_| rng.gen_range(0..tokens)).collect();
    let due_ns = stats::poisson_schedule(seed, RATE_PER_S, EPISODE);
    Setup {
        index,
        deltas,
        targets,
        due_ns,
    }
}

fn inputs_hash(s: &Setup) -> u64 {
    let mut h = Fingerprint::default();
    for (t, d) in s.targets.iter().zip(&s.due_ns) {
        h.u64(*t);
        h.u64(*d);
    }
    for delta in &s.deltas {
        h.u64(delta.height);
        for (token, ht) in &delta.minted {
            h.u64(*token);
            h.u64(*ht);
        }
        for ring in &delta.rings {
            h.u64(ring.claimed_c.to_bits());
            h.u64(ring.claimed_l as u64);
            ring.tokens.iter().for_each(|t| h.u64(*t));
        }
    }
    h.finish()
}

/// Apply the streamed block due after request `i`, if any.
fn maybe_write(
    tr: &mut Tracer,
    index: &mut DiversityIndex,
    deltas: &[BlockDelta],
    i: usize,
    op: u64,
    c: &mut Counters,
) -> Option<u64> {
    if i % WRITE_EVERY != WRITE_EVERY - 1 {
        return None;
    }
    let (applied, timing) = tr.root(op, "apply", |tr| {
        tr.span("core.index.apply", || {
            index.apply_block(&deltas[i / WRITE_EVERY])
        })
    });
    applied.expect("streamed blocks apply");
    c.index_ops += index.stats().last_block_ops;
    c.blocks_applied += 1;
    Some(timing.end_ns)
}

/// Spin until `due_ns` on the tracer's clock. Spinning keeps the thread
/// on its core, so wake-up latency does not pose as queueing.
fn wait_until(tr: &Tracer, due_ns: u64) {
    while tr.now_ns() < due_ns {}
}

/// Run the `serve` workload.
pub fn run(seed: u64, seconds: f64, trace: bool, tr: &mut Tracer) -> Run {
    let mut run = Run::new("serve", "request");
    let setup = run.setups(SETUPS, || setup(seed));
    run.inputs_hash = inputs_hash(&setup);

    let started = tr.now_ns();
    let mut episode = 0u64;
    while episode < 2 || (tr.now_ns() - started) as f64 / 1e9 < seconds {
        tr.set_enabled(trace && episode.is_multiple_of(2));
        let (counters, answers) = open_loop(&setup, episode, tr, &mut run);
        let (closed, wall_ns) = closed_loop(&setup, episode, tr);
        run.episode_throughput(EPISODE as u64, wall_ns);

        // Correctness, outside the timed path: every answer is a ring the
        // selection layer promises, and the closed loop gave the open
        // loop's answers.
        run.check(
            answers
                .iter()
                .zip(&setup.targets)
                .all(|(a, &t)| !matches!(a, Some(Ok((snap, sel))) if !well_formed(snap, sel, t))),
            "every answered ring holds its target, meets (c, l) and nests with its batch's rings",
        );
        let rings = |a: &[Option<Answer>]| -> Vec<Option<Vec<dams_blockchain::TokenId>>> {
            a.iter()
                .map(|x| match x {
                    Some(Ok((snap, sel))) => Some(spend::ledger_ring(snap, sel)),
                    _ => None,
                })
                .collect()
        };
        run.check(
            rings(&answers) == rings(&closed),
            "closed loop repeats the open loop's answers",
        );
        run.episode_counters(counters);
        episode += 1;
    }
    run
}

fn open_loop(
    setup: &Setup,
    episode: u64,
    tr: &mut Tracer,
    run: &mut Run,
) -> (Counters, Vec<Option<Answer>>) {
    let mut index = setup.index.clone();
    let registry = Registry::new();
    let mut frontend = spend::frontend(&registry);
    let mut c = Counters::default();
    let mut answers = Vec::with_capacity(EPISODE);
    let mut outcomes = Vec::with_capacity(EPISODE);
    // Start a millisecond out, so the first arrival is not already late.
    let t0 = tr.now_ns() + 1_000_000;
    let mut idle_from = 0u64;
    for (i, (&target, &due)) in setup.targets.iter().zip(&setup.due_ns).enumerate() {
        let due = t0 + due;
        wait_until(tr, due);
        let op = 2 * episode * EPISODE as u64 + i as u64;
        let (answer, timing) = tr.root(op, "request", |tr| {
            request(tr, &index, &mut frontend, op, target)
        });
        let waited = timing.start_ns.saturating_sub(due);
        run.queue_wait_ns.push(waited as f64);
        if idle_from <= due {
            // The thread was idle at the due time: any wait is the
            // generator waking late, not queueing.
            run.late_ns.push(waited as f64);
        }
        let latency_ns = timing.end_ns - due;
        let outcome = match &answer {
            None => Outcome::Rejected,
            Some(a) => stats::classify_request(a.is_err(), latency_ns, LIMIT_NS),
        };
        if let Some(Ok((_, sel))) = &answer {
            c.record_selection(sel);
        }
        run.record(
            outcome,
            Timed {
                latency_ns,
                traced: timing.traced,
            },
        );
        answers.push(answer);
        outcomes.push(outcome);
        idle_from =
            maybe_write(tr, &mut index, &setup.deltas, i, op, &mut c).unwrap_or(timing.end_ns);
    }
    c.record_index(&index);
    // A wallet validates its answer before signing; one validate_ring
    // rejects is a failed request (checked after the phase, untimed).
    for (answer, outcome) in answers.iter().zip(&outcomes) {
        if let Some(Ok((snap, sel))) = answer {
            if !spend::validate(snap, sel) {
                c.validate_rejects += 1;
                if *outcome == Outcome::Ok {
                    run.fail_answered();
                }
            }
        }
    }
    (c, answers)
}

/// What the selection layer itself promises about an answer: the ring
/// holds the target, meets (c, ℓ), and nests with the batch's rings
/// (the first practical configuration).
fn well_formed(snap: &BatchSnapshot, sel: &DegradedSelection, target: u64) -> bool {
    let ring = &sel.selection.ring;
    let inst = &snap.instance;
    let holds_target = snap
        .tokens
        .binary_search(&target)
        .is_ok_and(|local| ring.tokens().contains(&TokenId(local as u32)));
    holds_target
        && common::policy()
            .requirement
            .satisfied_by(&HtHistogram::from_ring(ring, &inst.universe))
        && satisfies_first_configuration(ring, &inst.rings)
}

/// The same requests back to back; returns the answers and the wall time.
/// Only the open loop is accounted: this loop must repeat its answers.
fn closed_loop(setup: &Setup, episode: u64, tr: &mut Tracer) -> (Vec<Option<Answer>>, u64) {
    let mut index = setup.index.clone();
    let registry = Registry::new();
    let mut frontend = spend::frontend(&registry);
    let mut c = Counters::default();
    let mut answers = Vec::with_capacity(EPISODE);
    let started = tr.now_ns();
    for (i, &target) in setup.targets.iter().enumerate() {
        let op = (episode * 2 + 1) * EPISODE as u64 + i as u64;
        let (answer, _) = tr.root(op, "request", |tr| {
            request(tr, &index, &mut frontend, op, target)
        });
        answers.push(answer);
        maybe_write(tr, &mut index, &setup.deltas, i, op, &mut c);
    }
    (answers, tr.now_ns() - started)
}
