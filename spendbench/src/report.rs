//! What one run measured, and how it is printed: a readable block, then
//! the result object as the last line of standard output.

use std::time::Instant;

use dams_core::{DegradedSelection, DiversityIndex, Tier};

use crate::common;
use crate::stats::{self, Accounting, Fingerprint, Outcome};
use crate::trace::{Attribution, RootTiming, Tracer, LAYERS};

/// Work counters of one episode. They depend only on the seed, so every
/// episode of a run, and every run with the same seed, repeats them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// `diversity_checks + candidates_examined` of each answered selection.
    pub work: Vec<u64>,
    pub exact_answers: u64,
    /// Answered rings `validate_ring` rejected.
    pub validate_rejects: u64,
    pub snapshot_hits: u64,
    pub snapshot_lookups: u64,
    pub index_ops: u64,
    pub blocks_applied: u64,
    pub rings_signed: u64,
    pub inputs_signed: u64,
    pub rings_verified: u64,
    pub inputs_verified: u64,
    pub block_bytes: u64,
    pub blocks: u64,
    pub spends: u64,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    pub fsyncs: u64,
    pub records_replayed: u64,
    pub rings_checked: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Counters {
    pub fn record_selection(&mut self, sel: &DegradedSelection) {
        let s = sel.selection.stats;
        self.work.push(s.diversity_checks + s.candidates_examined);
        if sel.tier == Tier::ExactBfs {
            self.exact_answers += 1;
        }
    }

    /// Snapshot-cache counts of an index cloned at the episode's start.
    pub fn record_index(&mut self, index: &DiversityIndex) {
        let s = index.stats();
        self.snapshot_hits = s.snapshot_hits;
        self.snapshot_lookups = s.snapshot_hits + s.snapshot_misses;
    }

    /// `(name, value, unit)` of every counter metric.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        let work = stats::sorted(self.work.iter().map(|&w| w as f64).collect());
        vec![
            ("core.select.work.p50", stats::median(&work), "count"),
            ("core.select.work.p99", stats::tail(&work).value, "count"),
            (
                "core.select.exact_share",
                ratio(self.exact_answers, self.work.len() as u64),
                "ratio",
            ),
            (
                "node.validate_ring.reject_share",
                ratio(self.validate_rejects, self.work.len() as u64),
                "ratio",
            ),
            (
                "core.index.snapshot_hit_ratio",
                ratio(self.snapshot_hits, self.snapshot_lookups),
                "ratio",
            ),
            (
                "core.index.snapshot_hits",
                self.snapshot_hits as f64,
                "count",
            ),
            (
                "core.index.snapshot_lookups",
                self.snapshot_lookups as f64,
                "count",
            ),
            (
                "core.index.ops_per_block",
                ratio(self.index_ops, self.blocks_applied),
                "count",
            ),
            (
                "crypto.ring_members.signed",
                ratio(self.rings_signed, self.inputs_signed),
                "count",
            ),
            (
                "crypto.ring_members.verified",
                ratio(self.rings_verified, self.inputs_verified),
                "count",
            ),
            (
                "blockchain.block_bytes",
                ratio(self.block_bytes, self.blocks),
                "bytes",
            ),
            (
                "store.fsyncs_per_spend",
                ratio(self.fsyncs, self.spends),
                "count",
            ),
            (
                "store.wal_bytes_per_spend",
                ratio(self.wal_bytes, self.spends),
                "bytes",
            ),
            (
                "store.checkpoint_bytes_per_spend",
                ratio(self.checkpoint_bytes, self.spends),
                "bytes",
            ),
            (
                "recover.records_replayed",
                self.records_replayed as f64,
                "count",
            ),
            ("recover.rings_checked", self.rings_checked as f64, "count"),
        ]
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::default();
        for (name, value, _) in self.entries() {
            h.bytes(name.as_bytes());
            h.u64(value.to_bits());
        }
        h.finish()
    }
}

/// One timed operation as the end-to-end metrics see it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// The latency a user sees (from the due time, for open-loop requests).
    pub latency_ns: u64,
    pub traced: bool,
}

impl Timed {
    pub fn root(t: RootTiming) -> Self {
        Timed {
            latency_ns: t.duration_ns(),
            traced: t.traced,
        }
    }
}

/// Everything one run measured.
pub struct Run {
    pub workload: &'static str,
    /// Name of the root span of one operation.
    op_name: &'static str,
    pub setup_s: Vec<f64>,
    untraced_ns: Vec<f64>,
    traced_ns: Vec<f64>,
    pub acc: Accounting,
    /// Each episode's throughput (see each workload); `ops_per_s` is
    /// their median.
    throughput: Vec<f64>,
    /// `Store::open` durations of the run's recoveries.
    pub recover_ns: Vec<f64>,
    /// Counters of the first episode.
    pub counters: Option<Counters>,
    /// Open-loop waits: start minus due, and generator lateness.
    pub queue_wait_ns: Vec<f64>,
    pub late_ns: Vec<f64>,
    /// Fingerprint of the generated inputs.
    pub inputs_hash: u64,
    failures: Vec<String>,
}

impl Run {
    pub fn new(workload: &'static str, op_name: &'static str) -> Self {
        Run {
            workload,
            op_name,
            setup_s: Vec::new(),
            // Reserved up front, so the open loop never stalls on a regrow.
            untraced_ns: Vec::with_capacity(1 << 16),
            traced_ns: Vec::with_capacity(1 << 16),
            acc: Accounting::default(),
            throughput: Vec::new(),
            recover_ns: Vec::new(),
            counters: None,
            queue_wait_ns: Vec::with_capacity(1 << 16),
            late_ns: Vec::with_capacity(1 << 16),
            inputs_hash: 0,
            failures: Vec::new(),
        }
    }

    /// Set up `times` times, timing each, and keep the last; `setup_s`
    /// is the median.
    pub fn setups<T>(&mut self, times: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..times {
            // Drop the previous set-up first, so peak memory holds one.
            drop(last.take());
            let started = Instant::now();
            last = Some(f());
            self.setup_s.push(started.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up")
    }

    /// Account one attempted operation; answered ones feed the latency
    /// sample of their half (traced or not).
    pub fn record(&mut self, outcome: Outcome, t: Timed) {
        self.acc.record(outcome);
        if outcome == Outcome::Ok || outcome == Outcome::Late {
            let sample = if t.traced {
                &mut self.traced_ns
            } else {
                &mut self.untraced_ns
            };
            sample.push(t.latency_ns as f64);
        }
    }

    /// Count an operation already recorded as answered as failed after all.
    pub fn fail_answered(&mut self) {
        self.acc.failed += 1;
    }

    /// One episode's throughput: `ops` done in `ns` of timed work.
    pub fn episode_throughput(&mut self, ops: u64, ns: u64) {
        self.throughput.push(ops as f64 / (ns.max(1) as f64 / 1e9));
    }

    /// Keep the first episode's counters and demand every later one
    /// repeats them exactly.
    pub fn episode_counters(&mut self, c: Counters) {
        match &self.counters {
            None => self.counters = Some(c),
            Some(first) => self.check(first == &c, "episodes repeat their work counters"),
        }
    }

    /// A correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok && !self.failures.iter().any(|f| f == what) {
            self.failures.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn latency(&self) -> (f64, stats::Tail) {
        let s = stats::sorted(self.untraced_ns.clone());
        (stats::median(&s), stats::tail(&s))
    }

    fn setup_median_s(&self) -> f64 {
        stats::median(&stats::sorted(self.setup_s.clone()))
    }

    /// The end-to-end metrics, by generic name. The tail is reported with
    /// the per-layer metrics: its run-to-run spread follows the shared
    /// disk's fsync tail and exceeds any bound the benchmark may set.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (p50, _) = self.latency();
        vec![
            ("setup_s", self.setup_median_s(), "s"),
            ("rss_mb", common::peak_rss_mb(), "MB"),
            ("p50_us", p50 / 1e3, "us"),
            ("ops_per_s", self.ops_per_s(), "1/s"),
        ]
    }

    fn ops_per_s(&self) -> f64 {
        stats::median(&stats::sorted(self.throughput.clone()))
    }

    /// The per-layer metrics of a traced run.
    fn per_layer(&self, a: &Attribution) -> Vec<(String, f64, &'static str)> {
        let (_, tail) = self.latency();
        let mut out = vec![("p99_us".to_string(), tail.value / 1e3, "us")];
        for layer in LAYERS {
            let l = a.layers.get(layer).cloned().unwrap_or_default();
            out.push((format!("{layer}.p50_ns"), l.p50_ns, "ns"));
            out.push((format!("{layer}.p99_ns"), l.p99_ns, "ns"));
            out.push((format!("{layer}.share"), a.share(layer), "ratio"));
        }
        let counters = self.counters.clone().unwrap_or_default();
        for (name, value, unit) in counters.entries() {
            out.push((name.to_string(), value, unit));
        }
        if self.workload == "serve" {
            let waits = stats::sorted(self.queue_wait_ns.clone());
            let late = stats::sorted(self.late_ns.clone());
            out.push((
                "serve.queue_wait_us.p50".into(),
                stats::median(&waits) / 1e3,
                "us",
            ));
            out.push((
                "serve.queue_wait_us.p99".into(),
                stats::tail(&waits).value / 1e3,
                "us",
            ));
            out.push(("serve.late_us".into(), stats::tail(&late).value / 1e3, "us"));
        }
        let recover = stats::sorted(self.recover_ns.clone());
        out.push(("recover_s".into(), stats::median(&recover) / 1e9, "s"));
        let (untraced, _) = self.latency();
        let traced = stats::median(&stats::sorted(self.traced_ns.clone()));
        out.push(("trace.explained_share".into(), a.explained_share(), "ratio"));
        out.push((
            "trace.unexplained_share".into(),
            1.0 - a.explained_share(),
            "ratio",
        ));
        out.push(("trace.overhead_us".into(), (traced - untraced) / 1e3, "us"));
        out.push((
            "trace.overhead_share".into(),
            (traced - untraced) / untraced.max(1.0),
            "ratio",
        ));
        let traced_ops = a.roots_by_name.get(self.op_name).copied().unwrap_or(0);
        out.push(("trace.ops_traced".into(), traced_ops as f64, "count"));
        out
    }

    /// Print the readable block and, last, the result object.
    pub fn print(&self, seed: u64, trace: bool, tracer: &Tracer) {
        let (p50, tail) = self.latency();
        println!(
            "workload {} seed {seed} trace {}",
            self.workload,
            u8::from(trace)
        );
        println!(
            "  setup_s {:.4} s (median of {} set-ups: {:?})",
            self.setup_median_s(),
            self.setup_s.len(),
            self.setup_s
        );
        println!(
            "  latency p50 {:.1} us, p{} {:.1} us ({} samples, {} beyond the tail)",
            p50 / 1e3,
            tail.pct,
            tail.value / 1e3,
            tail.samples,
            tail.beyond
        );
        println!(
            "  ops_per_s {:.1} (median of {} episodes); ops attempted {} failed {}",
            self.ops_per_s(),
            self.throughput.len(),
            self.acc.attempted,
            self.acc.failed
        );
        let counters = self.counters.clone().unwrap_or_default();
        println!(
            "  determinism inputs {:016x} counters {:016x}",
            self.inputs_hash,
            counters.fingerprint()
        );
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
        let metrics: Vec<(String, f64, &'static str)> = if trace {
            let a = Attribution::of(tracer.spans());
            self.print_attribution(&a);
            self.per_layer(&a)
        } else {
            let e2e = self.end_to_end();
            for (name, value, unit) in &e2e {
                println!("  {name} {value:.4} {unit}");
            }
            e2e.into_iter()
                .map(|(n, v, u)| (n.to_string(), v, u))
                .collect()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.acc.attempted,
            self.acc.failed,
            body.join(", ")
        );
    }

    /// The traced-run report: each layer's self time per operation and
    /// its share of the end-to-end median, and what no layer explains.
    fn print_attribution(&self, a: &Attribution) {
        let (untraced, _) = self.latency();
        let traced = stats::median(&stats::sorted(self.traced_ns.clone()));
        let ops = a.roots_by_name.get(self.op_name).copied().unwrap_or(0);
        println!(
            "  traced {} ops {ops}, roots {:?}",
            self.op_name, a.roots_by_name
        );
        let ops = ops.max(1) as f64;
        println!(
            "  {:<26} {:>12} {:>10} {:>12}",
            "layer", "self us/op", "share", "of e2e p50"
        );
        for layer in LAYERS {
            let self_ns = a.layers.get(layer).map_or(0, |l| l.self_ns) as f64;
            println!(
                "  {layer:<26} {:>12.2} {:>10.4} {:>12.4}",
                self_ns / ops / 1e3,
                a.share(layer),
                self_ns / ops / untraced.max(1.0)
            );
        }
        println!(
            "  {:<26} {:>12.2} {:>10.4}",
            "unexplained",
            a.unexplained_ns as f64 / ops / 1e3,
            1.0 - a.explained_share()
        );
        println!(
            "  tracing overhead: traced p50 {:.1} us vs untraced p50 {:.1} us",
            traced / 1e3,
            untraced / 1e3
        );
    }
}
