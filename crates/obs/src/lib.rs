//! # dams-obs
//!
//! The workspace's observability layer: named **counters**, **gauges**,
//! **log2-bucketed histograms** (with quantile estimation), and RAII
//! **span timers**, collected in a [`Registry`] that renders to a stable
//! sorted text format and a JSON document.
//!
//! Like `dams-prng` and `dams-proptest`, this crate is hermetic: zero
//! external dependencies, `std` only. Handles are `Arc`-backed atomics,
//! so instrumented hot paths pay one relaxed atomic op per event and
//! handles clone freely across threads.
//!
//! ## Determinism contract
//!
//! [`Registry::snapshot`] captures every metric; rendering takes a
//! [`Mode`]:
//!
//! * [`Mode::Deterministic`] — wall-clock-derived values (the bucket
//!   layout and sums of [`Unit::Nanos`] histograms) are suppressed and
//!   timers report **only their observation counts**. Under a fixed PRNG
//!   seed the rendered snapshot is byte-for-byte reproducible, so tests
//!   can assert "the fault channel dropped exactly d frames at seed s" or
//!   diff two whole runs.
//! * [`Mode::Full`] — everything, including nanosecond sums, bucket
//!   counts, and estimated p50/p90/p99. This is what perf baselines
//!   (`BENCH_*.json`) record.
//! * [`Mode::WallClock`] — the complement of `Deterministic`: *only*
//!   [`Unit::Nanos`] histograms, in full detail. The wall-time sidecar a
//!   real (non-simulated) runtime prints next to its deterministic
//!   accounting without polluting the reproducible snapshot.
//!
//! Value-domain histograms ([`Unit::Count`] — ring sizes, batch sizes)
//! are fully deterministic and render identically in both modes.
//!
//! ## Naming scheme
//!
//! `<crate>.<subsystem>.<metric>[_total]`, lower-case, dot-separated
//! path, underscores inside a segment: `core.bfs.candidates_total`,
//! `chain.verify.block_ns`, `node.bus.dropped_total`. Counters end in
//! `_total`, gauges name a level (`node.inbox.high_watermark`), timers
//! end in `_ns`.

mod metrics;
mod registry;
mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, Span, Unit, BUCKETS};
pub use registry::{global, Registry};
pub use snapshot::{Mode, Snapshot, SnapshotEntry, SnapshotValue};
