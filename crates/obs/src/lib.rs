//! Dual-clock tracing and metrics for the adaptive-spatial-join engine.
//!
//! The engine simulates a cluster: a handful of host threads execute tasks on
//! behalf of many *simulated nodes*, and job time is reported on the
//! simulated clock (`ExecStats::per_node_busy` / makespan). A conventional
//! profiler therefore shows a misleading picture — host threads, not nodes.
//! This crate records spans on **both clocks at once**: each span carries its
//! host wall interval *and* a simulated interval allocated from its node's
//! private monotone clock, so a Chrome/Perfetto view shows one clean lane per
//! simulated node whose busy time matches the engine's reported stats
//! exactly.
//!
//! Entry points:
//!
//! * [`Recorder`] — explicit, clonable sink; [`Recorder::noop`] is free.
//! * [`Attrs`], [`Span`], [`Event`], [`Lane`] — the data model.
//! * [`Trace`] (via [`Recorder::snapshot`]) — exports with
//!   [`Trace::to_chrome_json`] / [`Trace::to_jsonl`].
//! * Metrics: [`Recorder::counter_add`] etc., queryable via
//!   [`Recorder::metrics`] as a [`MetricsSnapshot`].
//! * [`json`] — the workspace's one JSON codec: the exporters here, the job
//!   server's journal and the reproduction record all write through it.

mod export;
pub mod json;
mod recorder;
mod registry;
mod span;

pub use export::{Trace, TraceFormat};
pub use recorder::Recorder;
pub use registry::{HistogramSummary, MetricsSnapshot, Registry};
pub use span::{Attrs, Event, Lane, Span};
