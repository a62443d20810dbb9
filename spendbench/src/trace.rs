//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every timed operation (one spend, one request, one block) is a root
//! span; each public call into a layer made while it runs is a child span
//! of that root. Spans live in memory and are written out when the run
//! ends. A span's self time is its duration minus the time its children
//! cover, so the roots' self time is the part of an operation no layer
//! explains (the benchmark's own glue).
//!
//! Root durations are always measured — they are the end-to-end samples.
//! Layer spans are kept only while tracing is enabled.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats;

/// The layer spans, in the order a spend crosses them.
pub const LAYERS: [&str; 14] = [
    "core.index.snapshot",
    "svc.frontend.select",
    "node.validate_ring",
    "crypto.sign",
    "blockchain.submit",
    "blockchain.seal",
    "blockchain.codec",
    "blockchain.verify_block",
    "store.append",
    "blockchain.adopt",
    "store.checkpoint",
    "core.index.apply",
    "svc.wire",
    "store.open",
];

#[derive(Debug, Clone)]
pub struct Span {
    /// The operation (spend, request or block) this span belongs to.
    pub op: u64,
    pub name: &'static str,
    /// Index of the parent span; `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// The open root span's index, while it is being recorded.
    root: Option<usize>,
}

/// One root span's timing, returned whether or not tracing is on.
#[derive(Debug, Clone, Copy)]
pub struct RootTiming {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether this operation's layer spans were recorded.
    pub traced: bool,
}

impl RootTiming {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: false,
            spans: Vec::new(),
            root: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record layer spans for the following operations (or stop).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Time one whole operation as a root span named `name`.
    pub fn root<T>(
        &mut self,
        op: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, RootTiming) {
        let traced = self.enabled;
        let start_ns = self.now_ns();
        if traced {
            self.root = Some(self.spans.len());
            self.spans.push(Span {
                op,
                name,
                parent: None,
                start_ns,
                end_ns: start_ns,
            });
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(i) = self.root.take() {
            self.spans[i].end_ns = end_ns;
        }
        let timing = RootTiming {
            start_ns,
            end_ns,
            traced,
        };
        (out, timing)
    }

    /// Time one call into a layer as a child of the open root.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(root) = self.root else {
            return f();
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op: self.spans[root].op,
            name,
            parent: Some(root),
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `op name parent start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "op\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.op, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStats {
    pub count: usize,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub self_ns: u64,
}

/// The attribution of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Layer name → duration percentiles and total self time.
    pub layers: BTreeMap<&'static str, LayerStats>,
    /// Total duration of the root spans: the workload's busy wall time.
    pub root_ns: u64,
    /// Self time of the root spans: time no layer span covers.
    pub unexplained_ns: u64,
    pub roots: usize,
    /// Root spans by name (operations, recoveries, index updates).
    pub roots_by_name: BTreeMap<&'static str, usize>,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut attribution = Attribution::default();
        for (i, s) in spans.iter().enumerate() {
            let self_ns = s.duration_ns().saturating_sub(child_ns[i]);
            if s.parent.is_none() {
                attribution.roots += 1;
                *attribution.roots_by_name.entry(s.name).or_default() += 1;
                attribution.root_ns += s.duration_ns();
                attribution.unexplained_ns += self_ns;
                continue;
            }
            durations
                .entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64);
            attribution.layers.entry(s.name).or_default().self_ns += self_ns;
        }
        for (name, d) in durations {
            let d = stats::sorted(d);
            let layer = attribution.layers.get_mut(name).expect("entry made above");
            layer.count = d.len();
            layer.p50_ns = stats::median(&d);
            layer.p99_ns = stats::tail(&d).value;
        }
        attribution
    }

    /// A layer's self time as a share of the roots' total time.
    pub fn share(&self, name: &str) -> f64 {
        let self_ns = self.layers.get(name).map_or(0, |l| l.self_ns);
        self_ns as f64 / self.root_ns.max(1) as f64
    }

    pub fn explained_share(&self) -> f64 {
        1.0 - self.unexplained_ns as f64 / self.root_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            op,
            name,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, "spend", None, 0, 100),
            span(0, "crypto.sign", Some(0), 10, 40),
            span(0, "store.append", Some(0), 40, 90),
            span(1, "spend", None, 100, 150),
            span(1, "crypto.sign", Some(3), 100, 130),
        ];
        let a = Attribution::of(&spans);
        assert_eq!(a.roots, 2);
        assert_eq!(a.root_ns, 150);
        assert_eq!(a.unexplained_ns, 20 + 20);
        assert_eq!(a.layers["crypto.sign"].self_ns, 60);
        assert_eq!(a.layers["crypto.sign"].count, 2);
        assert!((a.share("store.append") - 50.0 / 150.0).abs() < 1e-12);
        assert_eq!(a.share("svc.wire"), 0.0);
        assert!((a.explained_share() - 110.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_times_roots_but_keeps_no_spans() {
        let mut t = Tracer::new(Instant::now());
        let (v, timing) = t.root(0, "spend", |t| t.span("crypto.sign", || 7));
        assert_eq!(v, 7);
        assert!(!timing.traced);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let (_, timing) = t.root(1, "spend", |t| t.span("crypto.sign", || ()));
        assert!(timing.traced);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 1);
    }
}
