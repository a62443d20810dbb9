//! A synchronous, single-caller facade over the admission state machine,
//! for embedding in `dams-node`'s wallet.
//!
//! The full [`Service`](crate::service::Service) simulates queueing over
//! an arrival schedule; a wallet instead makes one blocking selection at
//! a time. [`Frontend`] drives the same `Admission` state machine
//! without a queue: each call runs `arrive` and then `dispatch` with zero
//! wait at one reading of its [`MonoClock`], so deadline-infeasible
//! budgets, unsatisfiable anonymity floors and circuit-open exact
//! requirements are refused with a typed [`ShedReason`] *before* any
//! search runs. The answer is then settled in line: priced, fed to the
//! breaker, and counted as a met or missed deadline by comparing its
//! priced cost to the budget. The clock is virtual ticks advanced by each
//! call's priced work by default, or wall-clock ticks when embedded in a
//! real runtime — `advance` is simply a no-op on a wall clock.

use dams_core::{
    CoreMetrics, DegradedSelection, Instance, LadderExec, ModularInstance, SelectionPolicy,
};
use dams_diversity::TokenId;
use dams_obs::Registry;

use crate::admission::{Admission, Arrival, Dispatch, Finish};
use crate::breaker::{BreakerConfig, CircuitState};
use crate::clock::MonoClock;
use crate::service::{Priority, Request, ShedReason, SvcConfig};

/// Frontend tuning (the queueless subset of the service config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Exchange rate: ticks one exact-BFS candidate costs.
    pub ticks_per_candidate: u64,
    /// Ticks held back from the exact grant for the cheap tiers.
    pub reserve_ticks: u64,
    pub breaker: BreakerConfig,
    /// Threads inside one exact search.
    pub bfs_workers: usize,
    /// Seed for breaker jitter.
    pub seed: u64,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            ticks_per_candidate: 4,
            reserve_ticks: 64,
            breaker: BreakerConfig::default(),
            bfs_workers: 1,
            seed: 0,
        }
    }
}

/// Overload-aware selection facade (see the module docs).
pub struct Frontend<'a> {
    instance: &'a Instance,
    policy: SelectionPolicy,
    bfs_workers: usize,
    adm: Admission,
    core: CoreMetrics,
    /// The breaker/deadline clock: virtual ticks advanced by priced work,
    /// or wall time in a real runtime (`advance` no-ops there).
    clock: MonoClock,
}

impl<'a> Frontend<'a> {
    /// Metrics land in `registry` under the usual `svc.*` / `core.*`
    /// names, so callers can merge them into their own observability.
    /// Runs on the virtual tick clock; see [`Frontend::with_clock`].
    pub fn new(
        instance: &'a Instance,
        policy: SelectionPolicy,
        cfg: FrontendConfig,
        registry: &Registry,
    ) -> Self {
        Self::with_clock(instance, policy, cfg, registry, MonoClock::ticks())
    }

    /// A frontend on an explicit clock — pass [`MonoClock::wall`] to run
    /// the breaker cooldown in wall-clock ticks.
    pub fn with_clock(
        instance: &'a Instance,
        policy: SelectionPolicy,
        cfg: FrontendConfig,
        registry: &Registry,
        clock: MonoClock,
    ) -> Self {
        // Queueless and interactive-only: the queue, retry and stall
        // settings of the service config never apply.
        let svc = SvcConfig {
            ticks_per_candidate: cfg.ticks_per_candidate,
            reserve_ticks: cfg.reserve_ticks,
            breaker: cfg.breaker,
            ..SvcConfig::default()
        };
        Frontend {
            instance,
            policy,
            bfs_workers: cfg.bfs_workers,
            adm: Admission::new(svc, cfg.seed ^ 0xf07e_57a7, registry, None),
            core: CoreMetrics::in_registry(registry),
            clock,
        }
    }

    /// The breaker's current state (for tests and introspection).
    pub fn circuit_state(&self) -> CircuitState {
        self.adm.circuit_state()
    }

    /// One admission-controlled selection. `budget_ticks` is the caller's
    /// deadline in virtual ticks; `require_exact` refuses degraded
    /// answers instead of running without an exact grant.
    pub fn select(
        &mut self,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
    ) -> Result<DegradedSelection, ShedReason> {
        let instance = self.instance;
        self.select_on(instance, None, target, budget_ticks, require_exact)
    }

    /// Like [`Frontend::select`], but honouring a declared anonymity
    /// floor: only ladder tiers whose measured
    /// [`Tier::anonymity_score`](dams_core::Tier::anonymity_score) meets
    /// `anonymity_floor` may answer, and a floor no tier meets is refused
    /// as [`ShedReason::AnonymityFloor`] before any search runs.
    pub fn select_floored(
        &mut self,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
        anonymity_floor: u32,
    ) -> Result<DegradedSelection, ShedReason> {
        let instance = self.instance;
        self.select_on_floored(
            instance,
            None,
            target,
            budget_ticks,
            require_exact,
            anonymity_floor,
        )
    }

    /// Like [`Frontend::select`], but against an explicit `instance` —
    /// the multi-batch serving path: one frontend (one breaker, one tick
    /// economy) serves selections over whichever batch each request
    /// targets. `modular` optionally supplies an incrementally maintained
    /// partition (e.g. a [`dams_core::BatchSnapshot`]'s), so the
    /// approximation tiers skip their O(n²) decomposition entirely.
    pub fn select_on(
        &mut self,
        instance: &Instance,
        modular: Option<&ModularInstance>,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
    ) -> Result<DegradedSelection, ShedReason> {
        self.select_on_floored(instance, modular, target, budget_ticks, require_exact, 0)
    }

    /// The floor-aware core path behind every `select*` variant (see
    /// [`Frontend::select_floored`] for the floor semantics).
    pub fn select_on_floored(
        &mut self,
        instance: &Instance,
        modular: Option<&ModularInstance>,
        target: TokenId,
        budget_ticks: u64,
        require_exact: bool,
        anonymity_floor: u32,
    ) -> Result<DegradedSelection, ShedReason> {
        let now = self.clock.now();
        let req = Request {
            id: 0,
            target,
            class: Priority::Interactive,
            budget: budget_ticks,
            require_exact,
            anonymity_floor,
        };
        let shed = match self.adm.arrive(now, req, 1, false, None) {
            Arrival::Admitted(q) => match self.adm.dispatch(now, q) {
                Dispatch::Run(grant) => {
                    let exec = LadderExec {
                        workers: self.bfs_workers,
                        cache: None,
                        modular,
                    };
                    let outcome = grant.select(instance, self.policy, &self.core, &exec);
                    let finish = Finish::Clock(&mut self.clock);
                    self.adm.settle(&grant, &outcome, finish);
                    // Terminal selection errors surface as an infeasible
                    // deadline: the caller's budget cannot buy an answer.
                    return outcome.map_err(|_| ShedReason::DeadlineInfeasible);
                }
                Dispatch::Shed(shed) => shed,
            },
            Arrival::Shed(shed) => shed,
            Arrival::Duplicate => unreachable!("a queueless frontend tracks no ids"),
        };
        Err(shed.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use dams_core::Tier;
    use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};

    fn instance(n: u32) -> Instance {
        Instance::fresh(TokenUniverse::new((0..n).map(HtId).collect()))
    }

    fn policy() -> SelectionPolicy {
        SelectionPolicy::new(DiversityRequirement::new(1.0, 3))
    }

    #[test]
    fn generous_budget_answers_exact() {
        let inst = instance(8);
        let registry = Registry::new();
        let mut f = Frontend::new(&inst, policy(), FrontendConfig::default(), &registry);
        let sel = f.select(TokenId(0), 1 << 20, false).expect("selects");
        assert_eq!(sel.tier, Tier::ExactBfs);
        assert_eq!(f.circuit_state(), CircuitState::Closed);
    }

    #[test]
    fn starved_budget_is_refused_typed() {
        let inst = instance(8);
        let registry = Registry::new();
        let cfg = FrontendConfig {
            reserve_ticks: 100,
            ..FrontendConfig::default()
        };
        let mut f = Frontend::new(&inst, policy(), cfg, &registry);
        assert_eq!(
            f.select(TokenId(0), 10, false),
            Err(ShedReason::DeadlineInfeasible)
        );
        assert_eq!(
            registry
                .snapshot()
                .counter("svc.shed.deadline_infeasible_total"),
            Some(1)
        );
    }

    #[test]
    fn anonymity_floor_restricts_the_answering_tier_or_sheds_typed() {
        let inst = instance(8);
        let registry = Registry::new();
        let mut f = Frontend::new(&inst, policy(), FrontendConfig::default(), &registry);
        // A floor above the exact tier's score forces a degraded answer
        // from a tier that meets it.
        let floor = Tier::ExactBfs.anonymity_score() + 1;
        let sel = f
            .select_floored(TokenId(0), 1 << 20, false, floor)
            .expect("a qualifying tier answers");
        assert!(sel.tier.anonymity_score() >= floor);
        // An unsatisfiable floor is refused before any search runs.
        assert_eq!(
            f.select_floored(TokenId(0), 1 << 20, false, u32::MAX),
            Err(ShedReason::AnonymityFloor)
        );
        // require_exact plus a floor that rules the exact tier out is a
        // contradiction, shed as the floor violation it is.
        assert_eq!(
            f.select_floored(TokenId(0), 1 << 20, true, floor),
            Err(ShedReason::AnonymityFloor)
        );
        assert_eq!(
            registry.snapshot().counter("svc.shed.anonymity_floor_total"),
            Some(2)
        );
    }

    #[test]
    fn repeated_fallbacks_open_the_circuit_for_exact_requirements() {
        let inst = instance(8);
        let registry = Registry::new();
        let cfg = FrontendConfig {
            reserve_ticks: 64,
            breaker: BreakerConfig {
                open_after: 2,
                cooldown: 1 << 30,
                max_cooldown: 1 << 30,
            },
            ..FrontendConfig::default()
        };
        let mut f = Frontend::new(&inst, policy(), cfg, &registry);
        // Budget clears the reserve but grants ~0 exact candidates, so
        // each call is a deadline fallback.
        for _ in 0..3 {
            let sel = f.select(TokenId(1), 70, false).expect("degrades");
            assert_ne!(sel.tier, Tier::ExactBfs);
        }
        assert_eq!(f.circuit_state(), CircuitState::Open);
        assert_eq!(
            f.select(TokenId(1), 1 << 20, true),
            Err(ShedReason::CircuitOpen)
        );
        // Non-exact callers still get degraded answers while open.
        assert!(f.select(TokenId(1), 1 << 20, false).is_ok());
        assert!(registry.snapshot().counter("svc.circuit.opened_total").unwrap() >= 1);
    }

    #[test]
    fn deadline_accounting_compares_priced_cost_to_budget_as_the_service_does() {
        // A 1-tick budget clears a 1-tick reserve but buys no exact
        // candidates: the cheap tier answers, and its priced cost overruns
        // the budget. Both serving paths must count that as a miss.
        let inst = instance(8);
        let registry = Registry::new();
        let cfg = FrontendConfig {
            reserve_ticks: 1,
            ..FrontendConfig::default()
        };
        let mut f = Frontend::new(&inst, policy(), cfg, &registry);
        let sel = f.select(TokenId(0), 1, false).expect("a degraded answer");
        assert_ne!(sel.tier, Tier::ExactBfs);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("svc.deadline.missed_total"), Some(1));
        assert_eq!(snap.counter("svc.deadline.met_total"), Some(0));

        let svc_cfg = SvcConfig {
            reserve_ticks: 1,
            ..SvcConfig::default()
        };
        let req = Request {
            id: 0,
            target: TokenId(0),
            class: Priority::Interactive,
            budget: 1,
            require_exact: false,
            anonymity_floor: 0,
        };
        let report = Service::new(&inst, policy(), svc_cfg).run(&[(0, req)]);
        assert_eq!((report.deadline_met, report.deadline_missed), (0, 1));
    }
}
