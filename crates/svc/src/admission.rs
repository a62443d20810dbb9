//! The admission state machine behind every serving path.
//!
//! The degrade tiers keep their guarantees only if every serving path
//! applies the same admission rules, so the rules exist once, here, as
//! one pure state machine: [`Admission`]. It owns the circuit breaker,
//! the `svc.*` admission counters, the seeded jitter/backoff stream and
//! the terminal-fate tally ([`TerminalLedger`]). It has three
//! transitions:
//!
//! * [`Admission::arrive`] — the deadline, static anonymity-floor,
//!   circuit-open and queue-full sheds, in that order;
//! * [`Admission::dispatch`] — the queue-wait debit, floor narrowing,
//!   the ladder and the exact grant, and chaos stall injection;
//! * [`Admission::settle`] — pricing, breaker feedback, and
//!   met/missed/degraded accounting.
//!
//! Each shed also decides retry-or-terminal: batch queue-full and
//! circuit-open sheds retry with full-jitter backoff (plus an optional
//! hedge twin), deadline and floor sheds are terminal, and a hedge
//! copy's shed never settles its id.
//!
//! The serving paths own only time, queues and execution:
//!
//! * the virtual-tick [`Service`](crate::service::Service) keeps its
//!   event heap and class queues, and settles at dispatch;
//! * the queueless [`Frontend`](crate::frontend::Frontend) runs `arrive`
//!   then `dispatch` with zero wait at one reading of its
//!   [`MonoClock`], and settles in line;
//! * the [`runtime`](crate::runtime) engine keeps the worker threads, the
//!   wire, the ledger it shares with its workers, and both paces.
//!
//! Nothing here reads a clock, spawns a thread or does IO. Each serving
//! path passes its own `now`, its own breaker timestamps ([`Finish`]) and its
//! own rng seed domain, so every seeded artifact replays byte-identically.
//!
//! The arithmetic underneath:
//!
//! * the reserve/grant split (`grant = (remaining − reserve) / tpc`);
//! * the ladder choice while the breaker denies exact budgets;
//! * the degrade budget handed to the solver;
//! * the tick price of a finished outcome;
//! * the breaker feedback classification (deadline-driven fallback vs
//!   exact success).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dams_core::{
    select_with_ladder_exec, BfsBudget, CoreMetrics, Deadline, DegradeBudget, DegradedSelection,
    Instance, LadderExec, SelectError, SelectionPolicy, Tier,
};
use dams_obs::{Mode, Registry};

use crate::breaker::{CircuitBreaker, CircuitState, Transition};
use crate::clock::MonoClock;
use crate::obs::SvcMetrics;
use crate::service::{Priority, Request, ShedReason, SvcConfig, SvcReport};

/// The tier ladder a request runs: full while exact budgets are granted,
/// cheap-only while the circuit is open.
fn ladder_for(exact_ok: bool) -> &'static [Tier] {
    if exact_ok {
        &Tier::DEFAULT_LADDER
    } else {
        &[Tier::Progressive, Tier::GameTheoretic]
    }
}

/// The ladder a request with an anonymity floor runs: [`ladder_for`]
/// filtered to tiers whose measured [`Tier::anonymity_score`] meets the
/// floor. An empty result means no tier can serve the request without
/// degrading privacy below its declared floor — it is shed as
/// `ShedReason::AnonymityFloor` rather than answered. Under overload
/// the system degrades latency, never privacy.
fn floored_ladder(exact_ok: bool, floor: u32) -> Vec<Tier> {
    ladder_for(exact_ok)
        .iter()
        .copied()
        .filter(|t| t.anonymity_score() >= floor)
        .collect()
}

/// The exact-tier candidate grant for a request with `remaining` ticks of
/// budget. The caller must already have checked `remaining ≥ reserve`.
fn exact_grant(
    remaining: u64,
    reserve_ticks: u64,
    ticks_per_candidate: u64,
    exact_ok: bool,
) -> u64 {
    if !exact_ok {
        return 0;
    }
    remaining.saturating_sub(reserve_ticks) / ticks_per_candidate.max(1)
}

/// The degrade budget carrying a candidate grant as a virtual deadline.
fn grant_budget(grant_candidates: u64) -> DegradeBudget {
    DegradeBudget {
        exact_timeout: None,
        bfs: BfsBudget {
            deadline: Some(Deadline::Ticks(grant_candidates)),
            ..BfsBudget::default()
        },
    }
}

/// Price a finished selection in ticks.
///
/// Exact answers cost the candidates they examined (≤ grant by the
/// `Ticks` deadline); a burned exact probe costs its full grant; the
/// answering cheap tier adds its own work, which the calibrated reserve
/// covers. Terminal errors are priced at one tick.
fn price_outcome(
    outcome: &Result<DegradedSelection, SelectError>,
    exact_ok: bool,
    grant_candidates: u64,
    ticks_per_candidate: u64,
) -> u64 {
    let tpc = ticks_per_candidate.max(1);
    let cost = match outcome {
        Ok(sel) => {
            let exact_part = if sel.tier == Tier::ExactBfs {
                sel.selection.stats.candidates_examined.saturating_mul(tpc)
            } else if exact_ok && burned_exact_probe(sel) {
                grant_candidates.saturating_mul(tpc)
            } else {
                0
            };
            let cheap_part = if sel.tier == Tier::ExactBfs {
                0
            } else {
                1 + sel.selection.stats.diversity_checks
            };
            exact_part + cheap_part
        }
        Err(_) => 1,
    };
    cost.max(1)
}

/// Whether a degraded answer actually spent (and exhausted) an exact
/// probe before falling back.
fn burned_exact_probe(sel: &DegradedSelection) -> bool {
    sel.attempts
        .iter()
        .any(|(t, e)| *t == Tier::ExactBfs && *e == SelectError::BudgetExhausted)
}

/// Breaker feedback for an outcome that was granted an exact budget:
/// `Some(true)` strikes (deadline-driven fallback), `Some(false)` heals
/// (exact answer), `None` is neutral.
fn breaker_feedback(
    outcome: &Result<DegradedSelection, SelectError>,
    exact_ok: bool,
) -> Option<bool> {
    if !exact_ok {
        return None;
    }
    match outcome {
        Ok(sel) if sel.tier == Tier::ExactBfs => Some(false),
        Ok(_) => Some(true),
        Err(SelectError::DeadlineInfeasible) => Some(true),
        Err(_) => None,
    }
}

/// The terminal fate of one request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalFate {
    Completed { met: bool, degraded: bool },
    Shed(ShedReason),
    Failed,
}

/// First-writer-wins terminal accounting, shared between a serving path and
/// (in the wall-pace runtime) its racing workers. Exactly one settlement
/// per id ever succeeds; everything downstream — response frames,
/// completion counters, hedge dedup — keys off that single success.
#[derive(Debug, Default)]
pub struct TerminalLedger {
    inner: Mutex<HashMap<u64, TerminalFate>>,
}

impl TerminalLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `fate` for `id` unless a twin got there first. Returns
    /// whether this call won the settlement.
    pub fn settle(&self, id: u64, fate: TerminalFate) -> bool {
        let mut map = self.inner.lock().expect("ledger lock");
        match map.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(fate);
                true
            }
        }
    }

    pub fn contains(&self, id: u64) -> bool {
        self.inner.lock().expect("ledger lock").contains_key(&id)
    }

    pub fn get(&self, id: u64) -> Option<TerminalFate> {
        self.inner.lock().expect("ledger lock").get(&id).copied()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("ledger lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A request admitted by [`Admission::arrive`], waiting for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Queued {
    pub req: Request,
    /// Submission attempt, 1-based.
    pub attempt: u32,
    /// A hedge twin: its sheds never settle the id.
    pub hedge: bool,
    /// The tick it was admitted at.
    pub enqueued: u64,
}

/// The bounded per-class FIFOs a queued serving path keeps between `arrive`
/// and `dispatch`; interactive traffic dispatches first.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    interactive: VecDeque<Queued>,
    batch: VecDeque<Queued>,
}

impl Queues {
    fn class_len(&self, class: Priority) -> usize {
        match class {
            Priority::Interactive => self.interactive.len(),
            Priority::Batch => self.batch.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn push(&mut self, q: Queued) {
        match q.req.class {
            Priority::Interactive => self.interactive.push_back(q),
            Priority::Batch => self.batch.push_back(q),
        }
    }

    /// The next request to dispatch, skipping ids a twin already settled.
    pub fn pop(&mut self, adm: &Admission) -> Option<Queued> {
        while let Some(q) = self
            .interactive
            .pop_front()
            .or_else(|| self.batch.pop_front())
        {
            if !adm.twin_settled(q.req.id, q.hedge) {
                return Some(q);
            }
        }
        None
    }
}

/// What [`Admission::arrive`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// A twin already settled this id; nothing to do.
    Duplicate,
    /// Admitted: the caller queues it, or a queueless caller dispatches
    /// it at once.
    Admitted(Queued),
    Shed(Shed),
}

/// A shed and what the caller does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shed {
    pub reason: ShedReason,
    /// Re-offer the request later (retryable batch sheds only).
    pub retry: Option<Retry>,
    /// Whether this shed settled the id terminally: the caller answers it.
    pub answered: bool,
}

/// A scheduled re-offer of a shed batch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Retry {
    pub req: Request,
    /// The attempt number the re-offer carries.
    pub attempt: u32,
    /// The tick the retry re-arrives at.
    pub at: u64,
    /// The tick its staggered hedge twin re-arrives at (`hedge_batch`).
    pub hedge_at: Option<u64>,
}

/// What [`Admission::dispatch`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// Run the granted ladder, then [`Admission::settle`] the outcome.
    Run(Grant),
    Shed(Shed),
}

/// A dispatched request with its ladder grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grant {
    pub req: Request,
    pub hedge: bool,
    pub enqueued: u64,
    pub dispatched: u64,
    /// Whether the exact tier runs: the breaker allowed it and the
    /// anonymity floor keeps it.
    pub exact_ok: bool,
    /// Exact-tier candidates granted (0 without the exact tier).
    pub candidates: u64,
    /// Injected stall ticks.
    pub stall: u64,
}

impl Grant {
    /// Run the granted ladder under its tick budget. Never empty: an
    /// emptied ladder sheds at dispatch.
    pub fn select(
        &self,
        instance: &Instance,
        policy: SelectionPolicy,
        core: &CoreMetrics,
        exec: &LadderExec<'_>,
    ) -> Result<DegradedSelection, SelectError> {
        let ladder = floored_ladder(self.exact_ok, self.req.anonymity_floor);
        select_with_ladder_exec(
            instance,
            self.req.target,
            policy,
            grant_budget(self.candidates),
            &ladder,
            core,
            exec,
        )
    }

    /// The fate of the request finishing at tick `finish`: it met its
    /// deadline if it finished inside its budget.
    pub fn fate(
        &self,
        outcome: &Result<DegradedSelection, SelectError>,
        finish: u64,
    ) -> TerminalFate {
        match outcome {
            Ok(sel) => TerminalFate::Completed {
                met: finish.saturating_sub(self.enqueued) <= self.req.budget,
                degraded: sel.tier != Tier::ExactBfs,
            },
            Err(_) => TerminalFate::Failed,
        }
    }
}

/// When a settled request finished, and the breaker's timestamp.
#[derive(Debug)]
pub(crate) enum Finish<'c> {
    /// On the virtual clock: `cost + stall` ticks after dispatch. The
    /// breaker is stamped at dispatch.
    Priced,
    /// On the caller's clock, read after crediting the priced cost. The
    /// breaker is stamped at that reading.
    Clock(&'c mut MonoClock),
    /// A worker finished at tick `at` and already raced the ledger
    /// (`won`). The breaker is stamped at `at`.
    Raced { at: u64, won: bool },
}

/// What [`Admission::settle`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Settled {
    /// The tick the request finished at (its worker frees then).
    pub finish: u64,
    /// The fate this settlement won; `None` when a twin won first.
    pub answer: Option<TerminalFate>,
}

/// The admission state machine (see the module docs).
#[derive(Debug)]
pub(crate) struct Admission {
    cfg: SvcConfig,
    breaker: CircuitBreaker,
    metrics: SvcMetrics,
    rng: StdRng,
    /// `None` for a queueless caller that answers in line and tracks no
    /// ids.
    ledger: Option<Arc<TerminalLedger>>,
    offered: u64,
    dispatches: u64,
}

impl Admission {
    /// A closed-circuit state machine whose `svc.*` metrics land in
    /// `registry` and whose jitter/backoff stream starts at `rng_seed`.
    pub fn new(
        cfg: SvcConfig,
        rng_seed: u64,
        registry: &Registry,
        ledger: Option<Arc<TerminalLedger>>,
    ) -> Self {
        let metrics = SvcMetrics::in_registry(registry);
        metrics
            .circuit_state
            .set(CircuitState::Closed.gauge_value());
        Admission {
            cfg,
            breaker: CircuitBreaker::new(cfg.breaker),
            metrics,
            rng: StdRng::seed_from_u64(rng_seed),
            ledger,
            offered: 0,
            dispatches: 0,
        }
    }

    pub fn circuit_state(&self) -> CircuitState {
        self.breaker.state()
    }

    /// Admit `req` (its `attempt`-th submission; `hedge` for a hedge
    /// twin) at tick `now` into `queues`, or shed it. A queueless caller
    /// passes `None` and is never shed as [`ShedReason::QueueFull`].
    pub fn arrive(
        &mut self,
        now: u64,
        req: Request,
        attempt: u32,
        hedge: bool,
        queues: Option<&Queues>,
    ) -> Arrival {
        if attempt == 1 && !hedge {
            self.offered += 1;
            self.metrics.offered.inc();
        }
        if self.twin_settled(req.id, hedge) {
            return Arrival::Duplicate;
        }
        let floor = req.anonymity_floor;
        // Deadline feasibility first: a budget below the cheap-tier
        // reserve can never finish, no matter the queue. The floor is
        // static next: if even the full ladder has no qualifying tier (or
        // the required exact tier is floored out), no queueing or breaker
        // recovery can answer it. Exact-only requests are refused while
        // the circuit is open: queueing them would only burn their budget.
        let reason = if req.budget < self.cfg.reserve_ticks {
            ShedReason::DeadlineInfeasible
        } else if floor > 0
            && (floored_ladder(true, floor).is_empty()
                || (req.require_exact && Tier::ExactBfs.anonymity_score() < floor))
        {
            ShedReason::AnonymityFloor
        } else if req.require_exact && !self.exact_allowed(now) {
            ShedReason::CircuitOpen
        } else if queues.is_some_and(|q| q.class_len(req.class) >= self.cfg.queue_capacity) {
            ShedReason::QueueFull
        } else {
            self.metrics.admitted.inc();
            if let Some(q) = queues {
                self.metrics.queue_depth_peak.set_max(q.len() as i64 + 1);
            }
            return Arrival::Admitted(Queued {
                req,
                attempt,
                hedge,
                enqueued: now,
            });
        };
        Arrival::Shed(self.shed(now, req, attempt, hedge, reason))
    }

    /// Dispatch `q` at tick `now`: debit its queue wait, narrow the
    /// ladder, and grant the exact tier what the remaining budget buys
    /// above the reserve.
    pub fn dispatch(&mut self, now: u64, q: Queued) -> Dispatch {
        let waited = now.saturating_sub(q.enqueued);
        self.metrics.queue_wait.record(waited);
        let remaining = q.req.budget.saturating_sub(waited);
        if remaining < self.cfg.reserve_ticks {
            // Queue wait ate the budget: shed instead of missing.
            let shed = self.shed(
                now,
                q.req,
                q.attempt,
                q.hedge,
                ShedReason::DeadlineInfeasible,
            );
            return Dispatch::Shed(shed);
        }
        // The anonymity floor narrows the ladder *before* any budget is
        // granted: a floored-out exact tier gets no grant (and gives no
        // breaker feedback), exactly as if the breaker had denied it.
        let exact_ok =
            self.exact_allowed(now) && Tier::ExactBfs.anonymity_score() >= q.req.anonymity_floor;
        if floored_ladder(exact_ok, q.req.anonymity_floor).is_empty() {
            let shed = self.shed(now, q.req, q.attempt, q.hedge, ShedReason::AnonymityFloor);
            return Dispatch::Shed(shed);
        }
        self.dispatches += 1;
        let stall =
            if self.cfg.stall_every > 0 && self.dispatches.is_multiple_of(self.cfg.stall_every) {
                self.metrics.stalls_injected.inc();
                self.metrics.stall_ticks.add(self.cfg.stall_ticks);
                self.cfg.stall_ticks
            } else {
                0
            };
        let cfg = &self.cfg;
        Dispatch::Run(Grant {
            req: q.req,
            hedge: q.hedge,
            enqueued: q.enqueued,
            dispatched: now,
            exact_ok,
            candidates: exact_grant(
                remaining,
                cfg.reserve_ticks,
                cfg.ticks_per_candidate,
                exact_ok,
            ),
            stall,
        })
    }

    /// Settle a granted request's outcome: price it, feed the breaker,
    /// and account its fate — unless a twin settled the id first, in
    /// which case only the work was burned.
    pub fn settle(
        &mut self,
        grant: &Grant,
        outcome: &Result<DegradedSelection, SelectError>,
        finish: Finish<'_>,
    ) -> Settled {
        let cost = price_outcome(
            outcome,
            grant.exact_ok,
            grant.candidates,
            self.cfg.ticks_per_candidate,
        );
        let (finish, stamp, raced) = match finish {
            Finish::Priced => (
                grant.dispatched + cost + grant.stall,
                grant.dispatched,
                None,
            ),
            Finish::Clock(clock) => {
                clock.advance(cost);
                let at = clock.now();
                (at, at, None)
            }
            Finish::Raced { at, won } => (at, at, Some(won)),
        };
        let lost = match raced {
            Some(won) => !won,
            None => self.settled(grant.req.id),
        };
        if lost {
            if grant.hedge {
                self.metrics.hedges_wasted.inc();
            }
            return Settled {
                finish,
                answer: None,
            };
        }
        self.metrics.service.record(cost);
        // Only grants count: a deadline-driven fallback (burned probe or
        // zero-grant skip) strikes; an exact answer heals.
        match breaker_feedback(outcome, grant.exact_ok) {
            Some(true) => {
                let jitter = self.rng.gen_range(0..=self.cfg.breaker.cooldown.max(4) / 4);
                let tr = self.breaker.on_fallback(stamp, jitter);
                self.surface(tr);
            }
            Some(false) => {
                let tr = self.breaker.on_exact_success();
                self.surface(tr);
            }
            None => {}
        }
        let fate = grant.fate(outcome, finish);
        if let TerminalFate::Completed { met, degraded } = fate {
            self.metrics
                .latency
                .record(finish.saturating_sub(grant.enqueued));
            if met {
                self.metrics.deadline_met.inc();
            } else {
                self.metrics.deadline_missed.inc();
            }
            if degraded {
                self.metrics.degraded.inc();
            }
            self.metrics.completed.inc();
        } else {
            self.metrics.failed.inc();
        }
        if raced.is_none() {
            self.record(grant.req.id, fate);
        }
        Settled {
            finish,
            answer: Some(fate),
        }
    }

    /// Fail a granted request that never ran (its worker died), so
    /// accounting still closes. Returns the fate if this call settled it.
    pub fn abandon(&mut self, grant: &Grant) -> Option<TerminalFate> {
        self.metrics.failed.inc();
        self.record(grant.req.id, TerminalFate::Failed)
            .then_some(TerminalFate::Failed)
    }

    /// The run's terminal accounting: per unique id, so `completed +
    /// failed + shed_* == offered` holds exactly.
    pub fn report(&self, final_tick: u64, registry: &Registry) -> SvcReport {
        let mut r = SvcReport {
            offered: self.offered,
            admitted_events: self.metrics.admitted.get(),
            p50_latency_ticks: self.metrics.latency.quantile(0.5).unwrap_or(0),
            p99_latency_ticks: self.metrics.latency.quantile(0.99).unwrap_or(0),
            final_tick,
            snapshot: registry.snapshot().render_text(Mode::Deterministic),
            ..SvcReport::default()
        };
        let Some(ledger) = &self.ledger else { return r };
        for fate in ledger.inner.lock().expect("ledger lock").values() {
            match fate {
                TerminalFate::Completed { met: true, .. } => r.deadline_met += 1,
                TerminalFate::Completed { met: false, .. } => r.deadline_missed += 1,
                TerminalFate::Failed => r.failed += 1,
                TerminalFate::Shed(ShedReason::QueueFull) => r.shed_queue_full += 1,
                TerminalFate::Shed(ShedReason::DeadlineInfeasible) => {
                    r.shed_deadline_infeasible += 1
                }
                TerminalFate::Shed(ShedReason::CircuitOpen) => r.shed_circuit_open += 1,
                TerminalFate::Shed(ShedReason::AnonymityFloor) => r.shed_anonymity_floor += 1,
            }
        }
        r.completed = r.deadline_met + r.deadline_missed;
        r
    }

    /// Count a shed and decide retry-or-terminal. Deadline and floor
    /// sheds are terminal: a retry re-offers the same budget (resp. the
    /// same floor against the same measured tier scores), so it can
    /// never fare better.
    fn shed(
        &mut self,
        now: u64,
        req: Request,
        attempt: u32,
        hedge: bool,
        reason: ShedReason,
    ) -> Shed {
        match reason {
            ShedReason::QueueFull => self.metrics.shed_queue_full.inc(),
            ShedReason::DeadlineInfeasible => self.metrics.shed_deadline_infeasible.inc(),
            ShedReason::CircuitOpen => self.metrics.shed_circuit_open.inc(),
            ShedReason::AnonymityFloor => self.metrics.shed_anonymity_floor.inc(),
        }
        let mut shed = Shed {
            reason,
            retry: None,
            answered: false,
        };
        // Hedge copies never settle the id: their primary twin does.
        if hedge {
            return shed;
        }
        let retryable = req.class == Priority::Batch
            && reason != ShedReason::DeadlineInfeasible
            && reason != ShedReason::AnonymityFloor
            && self.cfg.retry.may_retry(attempt);
        if !retryable {
            shed.answered = self.record(req.id, TerminalFate::Shed(reason));
            return shed;
        }
        let backoff = self.cfg.retry.backoff_ticks(attempt, &mut self.rng);
        self.metrics.retries.inc();
        // Staggered duplicate: whichever twin settles first wins, the
        // other is deduplicated on arrival, dispatch or settlement.
        let hedge_at = self.cfg.hedge_batch.then(|| {
            self.metrics.hedges_spawned.inc();
            now + backoff + 1 + backoff / 2
        });
        shed.retry = Some(Retry {
            req,
            attempt: attempt + 1,
            at: now + backoff,
            hedge_at,
        });
        shed
    }

    /// Whether a twin already settled `id`; a hedge copy that finds so is
    /// counted as wasted.
    fn twin_settled(&self, id: u64, hedge: bool) -> bool {
        let settled = self.settled(id);
        if settled && hedge {
            self.metrics.hedges_wasted.inc();
        }
        settled
    }

    /// Whether `id` has a terminal fate.
    fn settled(&self, id: u64) -> bool {
        self.ledger.as_ref().is_some_and(|l| l.contains(id))
    }

    /// Record `fate` for `id`; whether this call settled it.
    fn record(&self, id: u64, fate: TerminalFate) -> bool {
        self.ledger.as_ref().is_none_or(|l| l.settle(id, fate))
    }

    /// Whether the breaker grants an exact budget at `now`.
    fn exact_allowed(&mut self, now: u64) -> bool {
        let (allowed, tr) = self.breaker.exact_allowed(now);
        self.surface(tr);
        allowed
    }

    fn surface(&self, tr: Option<Transition>) {
        let Some(tr) = tr else { return };
        match tr {
            Transition::Opened => self.metrics.circuit_opened.inc(),
            Transition::HalfOpened => self.metrics.circuit_half_open.inc(),
            Transition::Closed => self.metrics.circuit_closed.inc(),
        }
        self.metrics
            .circuit_state
            .set(self.breaker.state().gauge_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;

    #[test]
    fn grant_arithmetic_honours_reserve_and_breaker() {
        assert_eq!(exact_grant(100, 20, 4, true), 20);
        assert_eq!(exact_grant(100, 20, 4, false), 0);
        assert_eq!(exact_grant(19, 20, 4, true), 0, "saturates below reserve");
        assert_eq!(exact_grant(100, 20, 0, true), 80, "tpc clamps to 1");
    }

    #[test]
    fn ladder_drops_exact_tier_when_denied() {
        assert_eq!(ladder_for(true), &Tier::DEFAULT_LADDER);
        assert_eq!(ladder_for(false), &[Tier::Progressive, Tier::GameTheoretic]);
    }

    #[test]
    fn floored_ladder_filters_by_anonymity_score() {
        assert_eq!(floored_ladder(true, 0), Tier::DEFAULT_LADDER.to_vec());
        // A floor above the exact tier's score drops it but keeps the
        // (higher-anonymity) approximate tiers.
        let floor = Tier::ExactBfs.anonymity_score() + 1;
        let ladder = floored_ladder(true, floor);
        assert!(!ladder.contains(&Tier::ExactBfs));
        assert!(ladder.iter().all(|t| t.anonymity_score() >= floor));
        // An unsatisfiable floor empties the ladder entirely.
        assert!(floored_ladder(true, u32::MAX).is_empty());
        assert!(floored_ladder(false, u32::MAX).is_empty());
    }

    #[test]
    fn grant_budget_carries_a_tick_deadline() {
        let b = grant_budget(17);
        assert_eq!(b.bfs.deadline, Some(Deadline::Ticks(17)));
        assert_eq!(b.exact_timeout, None);
    }

    #[test]
    fn errors_price_at_one_tick() {
        let err: Result<DegradedSelection, SelectError> = Err(SelectError::Infeasible);
        assert_eq!(price_outcome(&err, true, 50, 4), 1);
        assert_eq!(breaker_feedback(&err, true), None);
    }

    #[test]
    fn deadline_infeasible_strikes_only_with_a_grant() {
        let err: Result<DegradedSelection, SelectError> = Err(SelectError::DeadlineInfeasible);
        assert_eq!(breaker_feedback(&err, true), Some(true));
        assert_eq!(breaker_feedback(&err, false), None);
    }

    // ---- the state machine ------------------------------------------

    use crate::breaker::BreakerConfig;
    use dams_diversity::{DiversityRequirement, HtId, TokenId, TokenUniverse};

    const RESERVE: u64 = 10;
    const BIG: u64 = 1 << 20;

    fn machine() -> (Admission, Registry) {
        let cfg = SvcConfig {
            queue_capacity: 1,
            reserve_ticks: RESERVE,
            ticks_per_candidate: 1,
            hedge_batch: true,
            breaker: BreakerConfig {
                open_after: 1,
                cooldown: 8,
                max_cooldown: 8,
            },
            ..SvcConfig::default()
        };
        let registry = Registry::new();
        let adm = Admission::new(cfg, 7, &registry, Some(Arc::default()));
        (adm, registry)
    }

    fn request(id: u64, class: Priority, budget: u64) -> Request {
        Request {
            id,
            target: TokenId(0),
            class,
            budget,
            require_exact: false,
            anonymity_floor: 0,
        }
    }

    fn queued(req: Request, enqueued: u64) -> Queued {
        Queued {
            req,
            attempt: 1,
            hedge: false,
            enqueued,
        }
    }

    fn counter(registry: &Registry, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    fn shed_counter(reason: ShedReason) -> &'static str {
        match reason {
            ShedReason::QueueFull => "svc.shed.queue_full_total",
            ShedReason::DeadlineInfeasible => "svc.shed.deadline_infeasible_total",
            ShedReason::CircuitOpen => "svc.shed.circuit_open_total",
            ShedReason::AnonymityFloor => "svc.shed.anonymity_floor_total",
        }
    }

    const REASONS: [ShedReason; 4] = [
        ShedReason::DeadlineInfeasible,
        ShedReason::AnonymityFloor,
        ShedReason::CircuitOpen,
        ShedReason::QueueFull,
    ];

    /// Strike the breaker open with one granted exact probe that fell
    /// back (`open_after` is 1); it may half-open from tick `now + 10`.
    fn open_circuit(adm: &mut Admission, now: u64) {
        let q = queued(request(900, Priority::Interactive, BIG), now);
        let Dispatch::Run(grant) = adm.dispatch(now, q) else {
            panic!("probe shed")
        };
        assert!(grant.exact_ok);
        adm.settle(
            &grant,
            &Err(SelectError::DeadlineInfeasible),
            Finish::Priced,
        );
        assert_eq!(adm.circuit_state(), CircuitState::Open);
    }

    /// A machine, its registry and queues in which a request of `class`
    /// meets `reason` at arrival, and that request.
    fn provoke(reason: ShedReason, class: Priority) -> (Admission, Registry, Queues, Request) {
        let (mut adm, registry) = machine();
        let mut queues = Queues::default();
        let mut req = request(1, class, BIG);
        match reason {
            ShedReason::DeadlineInfeasible => req.budget = RESERVE - 1,
            ShedReason::AnonymityFloor => req.anonymity_floor = u32::MAX,
            ShedReason::CircuitOpen => {
                open_circuit(&mut adm, 0);
                req.require_exact = true;
            }
            ShedReason::QueueFull => queues.push(queued(request(2, class, BIG), 0)),
        }
        (adm, registry, queues, req)
    }

    /// A small instance and policy whose exact tier answers quickly.
    fn exact_answer(grant: &Grant) -> Result<DegradedSelection, SelectError> {
        let inst = Instance::fresh(TokenUniverse::new((0..8).map(HtId).collect()));
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
        let core = CoreMetrics::in_registry(&Registry::new());
        let exec = LadderExec {
            workers: 1,
            cache: None,
            modular: None,
        };
        grant.select(&inst, policy, &core, &exec)
    }

    #[test]
    fn every_shed_reason_at_arrival() {
        for reason in REASONS {
            let (mut adm, registry, queues, req) = provoke(reason, Priority::Interactive);
            assert_eq!(
                adm.arrive(1, req, 1, false, Some(&queues)),
                Arrival::Shed(Shed {
                    reason,
                    retry: None,
                    answered: true,
                }),
                "{reason}"
            );
            assert_eq!(counter(&registry, shed_counter(reason)), 1, "{reason}");
            assert_eq!(counter(&registry, "svc.admitted_total"), 0, "{reason}");
        }
        // An exact-only request whose exact tier the floor rules out is a
        // floor violation, even though cheaper tiers would meet it.
        let (mut adm, _) = machine();
        let req = Request {
            require_exact: true,
            anonymity_floor: Tier::ExactBfs.anonymity_score() + 1,
            ..request(1, Priority::Interactive, BIG)
        };
        let Arrival::Shed(shed) = adm.arrive(1, req, 1, false, None) else {
            panic!("admitted an exact-only request below its floor")
        };
        assert_eq!(shed.reason, ShedReason::AnonymityFloor);
        // A queueless caller is never shed for a full queue.
        let (mut adm, _, _, req) = provoke(ShedReason::QueueFull, Priority::Interactive);
        assert!(matches!(
            adm.arrive(1, req, 1, false, None),
            Arrival::Admitted(_)
        ));
    }

    #[test]
    fn every_shed_reason_at_dispatch() {
        use ShedReason::{AnonymityFloor, DeadlineInfeasible};
        // (case, budget, floor, queue wait, circuit opened first, expected
        // shed — `None` runs). Every request requires the exact tier.
        let cases = [
            (
                "queue wait ate the budget",
                20,
                0,
                15,
                false,
                Some(DeadlineInfeasible),
            ),
            (
                "no tier meets the floor",
                BIG,
                u32::MAX,
                0,
                false,
                Some(AnonymityFloor),
            ),
            (
                "an open circuit degrades, never sheds",
                BIG,
                0,
                0,
                true,
                None,
            ),
        ];
        for (case, budget, floor, wait, open, expected) in cases {
            let req = Request {
                require_exact: true,
                anonymity_floor: floor,
                ..request(1, Priority::Interactive, budget)
            };
            let (enqueued, now) = (1, 1 + wait);
            let (mut adm, registry) = machine();
            if open {
                open_circuit(&mut adm, 0);
            }
            match (adm.dispatch(now, queued(req, enqueued)), expected) {
                (Dispatch::Shed(shed), Some(reason)) => {
                    assert_eq!(shed.reason, reason, "{case}");
                    assert!(shed.answered, "{case}");
                    assert_eq!(counter(&registry, shed_counter(reason)), 1, "{case}");
                }
                (Dispatch::Run(grant), None) => {
                    assert_eq!(grant.exact_ok, !open, "{case}");
                    assert_eq!(grant.dispatched, now, "{case}");
                }
                (got, _) => panic!("{case}: {got:?}"),
            }
        }
    }

    #[test]
    fn floored_out_exact_tier_gets_no_grant_and_no_breaker_feedback() {
        // A zero-grant skip strikes the breaker only when the exact tier
        // was granted: with `open_after` 1 one strike opens it.
        let floored = Tier::ExactBfs.anonymity_score() + 1;
        for (floor, granted) in [(0, true), (floored, false)] {
            let (mut adm, registry) = machine();
            let req = Request {
                anonymity_floor: floor,
                ..request(1, Priority::Interactive, BIG)
            };
            let Dispatch::Run(grant) = adm.dispatch(0, queued(req, 0)) else {
                panic!("floor {floor} shed")
            };
            assert_eq!(grant.exact_ok, granted, "floor {floor}");
            assert_eq!(grant.candidates > 0, granted, "floor {floor}");
            adm.settle(
                &grant,
                &Err(SelectError::DeadlineInfeasible),
                Finish::Priced,
            );
            let opened = counter(&registry, "svc.circuit.opened_total");
            assert_eq!(opened, u64::from(granted), "floor {floor}");
        }
    }

    #[test]
    fn half_open_probe_closes_on_success_and_reopens_on_fallback() {
        // (probe answers at the exact tier, state after settling it,
        // times the circuit opened in all).
        for (exact, state, opened) in [
            (true, CircuitState::Closed, 1),
            (false, CircuitState::Open, 2),
        ] {
            let (mut adm, registry) = machine();
            open_circuit(&mut adm, 0);
            let q = queued(request(1, Priority::Interactive, BIG), 100);
            let Dispatch::Run(probe) = adm.dispatch(100, q) else {
                panic!("probe shed")
            };
            assert_eq!(adm.circuit_state(), CircuitState::HalfOpen);
            assert!(probe.exact_ok, "a half-open circuit grants its probe");
            let outcome = if exact {
                exact_answer(&probe)
            } else {
                Err(SelectError::DeadlineInfeasible)
            };
            assert_eq!(
                outcome.as_ref().is_ok_and(|s| s.tier == Tier::ExactBfs),
                exact
            );
            adm.settle(&probe, &outcome, Finish::Priced);
            assert_eq!(adm.circuit_state(), state, "exact answer: {exact}");
            assert_eq!(counter(&registry, "svc.circuit.opened_total"), opened);
            assert_eq!(counter(&registry, "svc.circuit.half_open_total"), 1);
        }
    }

    #[test]
    fn batch_queue_and_circuit_sheds_retry_deadline_and_floor_sheds_are_terminal() {
        let max = RetryPolicy::default().max_attempts;
        // (class, attempt, reason, retried).
        let cases = [
            (Priority::Batch, 1, ShedReason::QueueFull, true),
            (Priority::Batch, 1, ShedReason::CircuitOpen, true),
            (Priority::Batch, 1, ShedReason::DeadlineInfeasible, false),
            (Priority::Batch, 1, ShedReason::AnonymityFloor, false),
            (Priority::Batch, max, ShedReason::QueueFull, false),
            (Priority::Interactive, 1, ShedReason::QueueFull, false),
            (Priority::Interactive, 1, ShedReason::CircuitOpen, false),
        ];
        for (class, attempt, reason, retried) in cases {
            let case = format!("{class:?} attempt {attempt} {reason}");
            let (mut adm, registry, queues, req) = provoke(reason, class);
            let Arrival::Shed(shed) = adm.arrive(5, req, attempt, false, Some(&queues)) else {
                panic!("{case}: admitted")
            };
            assert_eq!(shed.reason, reason, "{case}");
            assert_eq!(shed.retry.is_some(), retried, "{case}");
            assert_eq!(shed.answered, !retried, "{case}");
            assert_eq!(adm.settled(req.id), !retried, "{case}");
            if let Some(retry) = shed.retry {
                assert_eq!(retry.attempt, attempt + 1, "{case}");
                assert!(retry.at > 5, "{case}: backoff is at least a tick");
                assert!(retry.hedge_at.is_some_and(|h| h > retry.at), "{case}");
                assert_eq!(counter(&registry, "svc.retry.scheduled_total"), 1);
                assert_eq!(counter(&registry, "svc.hedge.spawned_total"), 1);
            }
        }
    }

    #[test]
    fn hedge_sheds_never_settle_an_id() {
        for reason in REASONS {
            let (mut adm, _, queues, req) = provoke(reason, Priority::Batch);
            let shed = adm.arrive(5, req, 2, true, Some(&queues));
            let expected = Shed {
                reason,
                retry: None,
                answered: false,
            };
            assert_eq!(shed, Arrival::Shed(expected), "{reason}");
            assert!(!adm.settled(req.id), "{reason}");
        }
        // Nor does a hedge copy shed at dispatch.
        let (mut adm, _) = machine();
        let q = Queued {
            hedge: true,
            ..queued(request(1, Priority::Batch, 20), 0)
        };
        let Dispatch::Shed(shed) = adm.dispatch(15, q) else {
            panic!("the wait did not eat the budget")
        };
        assert_eq!((shed.retry, shed.answered), (None, false));
        assert!(!adm.settled(1));
    }

    #[test]
    fn a_twin_settling_first_leaves_only_burned_work() {
        let (mut adm, registry) = machine();
        let req = request(1, Priority::Batch, BIG);
        let Dispatch::Run(primary) = adm.dispatch(0, queued(req, 0)) else {
            panic!("primary shed")
        };
        let hedge = Grant {
            hedge: true,
            ..primary
        };
        let outcome = exact_answer(&primary);
        let won = adm.settle(&primary, &outcome, Finish::Priced);
        assert!(matches!(
            won.answer,
            Some(TerminalFate::Completed {
                met: true,
                degraded: false
            })
        ));
        assert_eq!(adm.settle(&hedge, &outcome, Finish::Priced).answer, None);
        let raced = Finish::Raced { at: 3, won: false };
        assert_eq!(adm.settle(&hedge, &outcome, raced).answer, None);
        assert_eq!(counter(&registry, "svc.hedge.wasted_total"), 2);
        assert_eq!(counter(&registry, "svc.completed_total"), 1);
        // A duplicate arrival or a queued twin is dropped the same way.
        assert_eq!(adm.arrive(1, req, 2, true, None), Arrival::Duplicate);
        let mut queues = Queues::default();
        queues.push(Queued {
            hedge: true,
            ..queued(req, 0)
        });
        assert_eq!(queues.pop(&adm), None);
        assert_eq!(counter(&registry, "svc.hedge.wasted_total"), 4);
    }

    #[test]
    fn settlement_counts_met_and_missed_against_the_budget() {
        // (stall ticks, finish a racing worker read, met): the finish is
        // priced at `cost + stall` after dispatch unless a worker read it.
        let cases = [
            (0, None, true),
            (BIG, None, false),
            (0, Some(BIG), true),
            (0, Some(BIG + 1), false),
        ];
        for (stall, raced, met) in cases {
            let case = format!("stall {stall} raced {raced:?}");
            let (mut adm, registry) = machine();
            let q = queued(request(1, Priority::Interactive, BIG), 0);
            let Dispatch::Run(grant) = adm.dispatch(0, q) else {
                panic!("{case}: shed")
            };
            let grant = Grant { stall, ..grant };
            let finish = match raced {
                Some(at) => Finish::Raced { at, won: true },
                None => Finish::Priced,
            };
            let settled = adm.settle(&grant, &exact_answer(&grant), finish);
            let Some(TerminalFate::Completed { met: got, .. }) = settled.answer else {
                panic!("{case}: {settled:?}")
            };
            assert_eq!(got, met, "{case}");
            let name = if met {
                "svc.deadline.met_total"
            } else {
                "svc.deadline.missed_total"
            };
            assert_eq!(counter(&registry, name), 1, "{case}");
            // Only a raced settlement leaves the ledger to its worker.
            assert_eq!(
                adm.report(0, &registry).completed,
                u64::from(raced.is_none())
            );
        }
    }
}
