//! The sim-vs-real differential oracle.
//!
//! The virtual-tick [`Service`] is the *model*:
//! deterministic, instantly-settling, trivially auditable. The
//! [`runtime`](crate::runtime) is the *implementation*: real threads,
//! a real wire, real completion races. This module replays the **same
//! seeded open-loop arrival trace** through both and diffs their
//! shed/complete/deadline-met accounting row by row.
//!
//! # Tolerance rationale
//!
//! Three effects let a faithful runtime legitimately drift from the sim
//! by a bounded amount (see the [`runtime`](crate::runtime) module docs):
//! settle-at-completion instead of settle-at-dispatch (in-flight hedge
//! twins), batched breaker feedback, and a differently-ordered RNG
//! stream for backoff/jitter. All three shift *which* bucket a handful
//! of borderline requests land in, never the total. So:
//!
//! * `offered`, the terminal-accounting invariant, and the
//!   client-vs-server wire cross-checks get **zero** tolerance;
//! * per-bucket rows (completed, shed-by-reason, deadline met/missed,
//!   failed) get `max(abs, ⌈rel · offered⌉)` — defaults are calibrated
//!   by the 64-seed property sweep in
//!   `crates/svc/tests/differential_properties.rs`.
//!
//! The rendered report is grep-able line-oriented text whose final line
//! is always `verdict: MATCH` or `verdict: DIVERGED`; every failed row
//! additionally emits a typed `divergence<TAB>…` diagnostic line. CI
//! greps that final line and archives the report.

use dams_core::{Instance, SelectionPolicy};
use dams_diversity::{DiversityRequirement, HtId, TokenUniverse};
use dams_workload::ArrivalEvent;

use crate::overload::{build_arrivals, calibrate, service_config, OverloadConfig};
use crate::runtime::{run_runtime, Pace, RuntimeConfig, RuntimeReport, Transport};
use crate::service::{Priority, Request, Service, SvcReport};
use crate::wire::WireError;

/// Allowed sim-vs-real drift for per-bucket accounting rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffTolerance {
    /// Absolute slack per row.
    pub abs: u64,
    /// Relative slack as a fraction of offered requests.
    pub rel: f64,
}

impl Default for DiffTolerance {
    fn default() -> Self {
        // Calibrated against the 64-seed sweep: observed worst-case row
        // drift stays well inside 4 + 8% of offered.
        DiffTolerance { abs: 4, rel: 0.08 }
    }
}

impl DiffTolerance {
    /// The per-row slack for a scenario that offered `offered` requests.
    pub fn budget(&self, offered: u64) -> u64 {
        let rel = (self.rel * offered as f64).ceil() as u64;
        self.abs.max(rel)
    }
}

/// One compared accounting row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    pub metric: &'static str,
    pub sim: u64,
    pub real: u64,
    pub tol: u64,
}

impl DiffRow {
    pub fn delta(&self) -> u64 {
        self.sim.abs_diff(self.real)
    }

    pub fn ok(&self) -> bool {
        self.delta() <= self.tol
    }
}

/// A named boolean invariant (zero-tolerance cross-check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffInvariant {
    pub name: &'static str,
    pub detail: String,
    pub ok: bool,
}

/// The full differential verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub seed: u64,
    pub load: f64,
    pub workers: usize,
    pub requests: u64,
    pub transport: Transport,
    pub tol: DiffTolerance,
    pub rows: Vec<DiffRow>,
    pub invariants: Vec<DiffInvariant>,
}

impl DiffReport {
    pub fn matched(&self) -> bool {
        self.rows.iter().all(DiffRow::ok) && self.invariants.iter().all(|i| i.ok)
    }

    /// One scenario's section: header, rows, invariants, divergence
    /// diagnostics — everything except the final verdict line.
    pub fn render_section(&self) -> String {
        let mut out = String::new();
        out.push_str("dams-differential v1\n");
        out.push_str(&format!("seed: {}\n", self.seed));
        out.push_str(&format!("load: {:.2}\n", self.load));
        out.push_str(&format!("workers: {}\n", self.workers));
        out.push_str(&format!("requests: {}\n", self.requests));
        out.push_str(&format!("transport: {}\n", self.transport));
        out.push_str(&format!(
            "tolerance: abs={} rel={:.3}\n",
            self.tol.abs, self.tol.rel
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "row\t{}\tsim={}\treal={}\ttol={}\t{}\n",
                r.metric,
                r.sim,
                r.real,
                r.tol,
                if r.ok() { "ok" } else { "DIVERGED" }
            ));
        }
        for i in &self.invariants {
            out.push_str(&format!(
                "invariant\t{}\t{}\t{}\n",
                i.name,
                i.detail,
                if i.ok { "ok" } else { "DIVERGED" }
            ));
        }
        for r in self.rows.iter().filter(|r| !r.ok()) {
            out.push_str(&format!(
                "divergence\t{}\tsim={}\treal={}\tdelta={}\ttol={}\n",
                r.metric,
                r.sim,
                r.real,
                r.delta(),
                r.tol
            ));
        }
        for i in self.invariants.iter().filter(|i| !i.ok) {
            out.push_str(&format!("divergence\tinvariant:{}\t{}\n", i.name, i.detail));
        }
        out
    }

    /// The standalone report: section plus the final verdict line.
    pub fn render(&self) -> String {
        let mut out = self.render_section();
        out.push_str(if self.matched() {
            "verdict: MATCH\n"
        } else {
            "verdict: DIVERGED\n"
        });
        out
    }
}

/// Render several scenarios as one report with a single overall verdict
/// on the last line (what `DIFF_report.txt` holds for a load ramp).
pub fn render_multi(reports: &[DiffReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.render_section());
        out.push('\n');
    }
    let all = reports.iter().all(DiffReport::matched);
    out.push_str(&format!("scenarios: {}\n", reports.len()));
    out.push_str(if all && !reports.is_empty() {
        "verdict: MATCH\n"
    } else {
        "verdict: DIVERGED\n"
    });
    out
}

/// Differential scenario configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    pub overload: OverloadConfig,
    pub tol: DiffTolerance,
    pub transport: Transport,
    pub tenants: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            overload: OverloadConfig::default(),
            tol: DiffTolerance::default(),
            transport: Transport::Duplex,
            tenants: 3,
        }
    }
}

/// Everything one differential run produced.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    pub report: DiffReport,
    pub sim: SvcReport,
    pub real: RuntimeReport,
    /// The replayed trace in `dams-trace v1` text form.
    pub trace_text: String,
}

/// Convert the overload harness's arrival schedule into the on-the-wire
/// trace: same ticks, ids, targets, classes, budgets; tenants assigned
/// round-robin.
pub fn trace_from_arrivals(arrivals: &[(u64, Request)], tenants: u64) -> Vec<ArrivalEvent> {
    let tenants = tenants.max(1);
    arrivals
        .iter()
        .map(|&(tick, req)| ArrivalEvent {
            tick,
            id: req.id,
            tenant: req.id % tenants,
            target: req.target.0,
            interactive: req.class == Priority::Interactive,
            budget: req.budget,
            require_exact: req.require_exact,
        })
        .collect()
}

/// Replay one seeded scenario through the sim and the real runtime
/// (virtual pace) and diff the accounting.
pub fn run_differential(cfg: &DiffConfig) -> Result<DiffOutcome, WireError> {
    let universe = TokenUniverse::new((0..cfg.overload.universe.max(4)).map(HtId).collect());
    let instance = Instance::fresh(universe);
    let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
    let calib = calibrate(&instance, policy, 4);
    let svc_cfg = service_config(&cfg.overload, &calib);
    let arrivals = build_arrivals(&cfg.overload, &calib, instance.universe.len() as u64);
    let trace = trace_from_arrivals(&arrivals, cfg.tenants);
    let trace_text = dams_workload::render_trace(&trace);

    let mut service = Service::new(&instance, policy, svc_cfg);
    let sim = service.run(&arrivals);

    let rt_cfg = RuntimeConfig {
        svc: svc_cfg,
        pace: Pace::Virtual,
        transport: cfg.transport,
        tenants: cfg.tenants.max(1),
    };
    let real = run_runtime(&instance, policy, &rt_cfg, &trace)?;

    let report = diff_reports(cfg, &sim, &real);
    Ok(DiffOutcome {
        report,
        sim,
        real,
        trace_text,
    })
}

/// Build the row-by-row diff between a sim report and a runtime report.
pub fn diff_reports(cfg: &DiffConfig, sim: &SvcReport, real: &RuntimeReport) -> DiffReport {
    let tol = cfg.tol.budget(sim.offered);
    let rows = vec![
        DiffRow {
            metric: "offered",
            sim: sim.offered,
            real: real.svc.offered,
            tol: 0,
        },
        DiffRow {
            metric: "completed",
            sim: sim.completed,
            real: real.svc.completed,
            tol,
        },
        DiffRow {
            metric: "failed",
            sim: sim.failed,
            real: real.svc.failed,
            tol,
        },
        DiffRow {
            metric: "shed.queue_full",
            sim: sim.shed_queue_full,
            real: real.svc.shed_queue_full,
            tol,
        },
        DiffRow {
            metric: "shed.deadline_infeasible",
            sim: sim.shed_deadline_infeasible,
            real: real.svc.shed_deadline_infeasible,
            tol,
        },
        DiffRow {
            metric: "shed.circuit_open",
            sim: sim.shed_circuit_open,
            real: real.svc.shed_circuit_open,
            tol,
        },
        DiffRow {
            metric: "shed.anonymity_floor",
            sim: sim.shed_anonymity_floor,
            real: real.svc.shed_anonymity_floor,
            tol,
        },
        DiffRow {
            metric: "deadline.met",
            sim: sim.deadline_met,
            real: real.svc.deadline_met,
            tol,
        },
        DiffRow {
            metric: "deadline.missed",
            sim: sim.deadline_missed,
            real: real.svc.deadline_missed,
            tol,
        },
    ];

    let shed_total = |r: &SvcReport| r.shed_total();
    let sim_accounted = sim.completed + sim.failed + shed_total(sim);
    let real_accounted = real.svc.completed + real.svc.failed + shed_total(&real.svc);
    let invariants = vec![
        DiffInvariant {
            name: "sim.accounting",
            detail: format!(
                "completed+failed+shed={} offered={}",
                sim_accounted, sim.offered
            ),
            ok: sim_accounted == sim.offered,
        },
        DiffInvariant {
            name: "real.accounting",
            detail: format!(
                "completed+failed+shed={} offered={}",
                real_accounted, real.svc.offered
            ),
            ok: real_accounted == real.svc.offered,
        },
        DiffInvariant {
            name: "wire.responses",
            detail: format!(
                "client={} server_offered={} duplicates={}",
                real.client.responses, real.svc.offered, real.client.duplicates
            ),
            ok: real.client.responses == real.svc.offered && real.client.duplicates == 0,
        },
        DiffInvariant {
            name: "wire.client_buckets",
            detail: format!(
                "completed {}={} failed {}={} shed {}={}",
                real.client.completed,
                real.svc.completed,
                real.client.failed,
                real.svc.failed,
                real.client.shed,
                shed_total(&real.svc),
            ),
            ok: real.client.completed == real.svc.completed
                && real.client.failed == real.svc.failed
                && real.client.shed == shed_total(&real.svc),
        },
        DiffInvariant {
            name: "wire.frames",
            detail: format!(
                "received={} expected={} rejected={}",
                real.frames_received,
                cfg.tenants.max(1) + cfg.overload.requests + 1,
                real.frames_rejected
            ),
            ok: real.frames_received == cfg.tenants.max(1) + cfg.overload.requests + 1
                && real.frames_rejected == 0,
        },
    ];

    DiffReport {
        seed: cfg.overload.seed,
        load: cfg.overload.load,
        workers: cfg.overload.workers,
        requests: cfg.overload.requests,
        transport: cfg.transport,
        tol: cfg.tol,
        rows,
        invariants,
    }
}

/// Render sim-vs-real goodput ramp rows as the `BENCH_runtime.json`
/// document (hand-rolled: the workspace is hermetic, no serde).
pub fn render_runtime_bench_json(
    base: &OverloadConfig,
    rows: &[(f64, DiffOutcome)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"runtime-differential\",\n");
    out.push_str(&format!("  \"seed\": {},\n", base.seed));
    out.push_str(&format!("  \"workers\": {},\n", base.workers));
    out.push_str(&format!("  \"requests\": {},\n", base.requests));
    out.push_str("  \"rows\": [\n");
    for (i, (load, o)) in rows.iter().enumerate() {
        let goodput = |r: &SvcReport| {
            if r.offered == 0 {
                0.0
            } else {
                r.deadline_met as f64 / r.offered as f64
            }
        };
        out.push_str(&format!(
            "    {{\"load\": {:.2}, \"sim\": {{\"offered\": {}, \"completed\": {}, \"deadline_met\": {}, \"goodput\": {:.4}}}, \"real\": {{\"offered\": {}, \"completed\": {}, \"deadline_met\": {}, \"goodput\": {:.4}, \"frames_received\": {}, \"client_responses\": {}}}, \"verdict\": \"{}\"}}{}\n",
            load,
            o.sim.offered,
            o.sim.completed,
            o.sim.deadline_met,
            goodput(&o.sim),
            o.real.svc.offered,
            o.real.svc.completed,
            o.real.svc.deadline_met,
            goodput(&o.real.svc),
            o.real.frames_received,
            o.real.client.responses,
            if o.report.matched() { "MATCH" } else { "DIVERGED" },
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> DiffConfig {
        DiffConfig {
            overload: OverloadConfig {
                seed,
                requests: 32,
                universe: 8,
                ..OverloadConfig::default()
            },
            ..DiffConfig::default()
        }
    }

    #[test]
    fn differential_matches_on_a_smoke_seed() {
        let out = run_differential(&quick_cfg(7)).expect("runtime runs");
        let text = out.report.render();
        assert!(
            out.report.matched(),
            "sim and runtime diverged:\n{text}"
        );
        assert!(text.ends_with("verdict: MATCH\n"));
        assert!(text.contains("row\toffered"));
    }

    #[test]
    fn report_render_flags_divergences() {
        let mut report = run_differential(&quick_cfg(3)).unwrap().report;
        report.rows.push(DiffRow {
            metric: "synthetic",
            sim: 10,
            real: 20,
            tol: 1,
        });
        let text = report.render();
        assert!(text.contains("row\tsynthetic\tsim=10\treal=20\ttol=1\tDIVERGED"));
        assert!(text.contains("divergence\tsynthetic\tsim=10\treal=20\tdelta=10\ttol=1"));
        assert!(text.ends_with("verdict: DIVERGED\n"));
    }

    #[test]
    fn multi_report_has_one_overall_verdict() {
        let a = run_differential(&quick_cfg(1)).unwrap().report;
        let b = run_differential(&quick_cfg(2)).unwrap().report;
        let text = render_multi(&[a, b]);
        assert_eq!(text.matches("verdict:").count(), 1);
        assert!(text.contains("scenarios: 2"));
        assert!(text.ends_with("verdict: MATCH\n") || text.ends_with("verdict: DIVERGED\n"));
    }

    #[test]
    fn tolerance_budget_takes_the_larger_bound() {
        let tol = DiffTolerance { abs: 4, rel: 0.1 };
        assert_eq!(tol.budget(10), 4, "abs floor");
        assert_eq!(tol.budget(200), 20, "rel kicks in");
    }

    #[test]
    fn trace_round_trips_through_text() {
        let cfg = quick_cfg(11);
        let universe = TokenUniverse::new((0..cfg.overload.universe).map(HtId).collect());
        let instance = Instance::fresh(universe);
        let policy = SelectionPolicy::new(DiversityRequirement::new(1.0, 3));
        let calib = calibrate(&instance, policy, 4);
        let arrivals = build_arrivals(&cfg.overload, &calib, instance.universe.len() as u64);
        let trace = trace_from_arrivals(&arrivals, 3);
        let text = dams_workload::render_trace(&trace);
        let back = dams_workload::parse_trace(&text).expect("parses");
        assert_eq!(trace, back);
    }
}
