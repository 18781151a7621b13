//! The [`Recorder`]: thread-safe span/event/metric sink with a disabled mode
//! that costs one pointer compare per call site.
//!
//! # Dual clocks
//!
//! Every span carries two intervals. The *wall* interval is host monotonic
//! time since the recorder's epoch — what really happened on this machine,
//! where task spans from different simulated nodes overlap freely because a
//! few OS threads multiplex many nodes. The *simulated* interval re-attributes
//! the same measured duration to the span's simulated node: each node owns a
//! private monotone clock (an atomic cursor), and a task span *allocates* its
//! duration from that cursor. Consequently, per node, simulated spans are
//! disjoint, start times are monotone in recording order, and durations sum to
//! exactly the node's busy time (`ExecStats::per_node_busy`).
//!
//! # No global state
//!
//! A `Recorder` is an explicit value (internally an `Arc`), cloned into
//! whatever needs it — there is no global registry, no `set_global_default`,
//! and two recorders in one process never interfere. The default
//! [`Recorder::noop`] drops everything without locking or allocating.

use crate::export::Trace;
use crate::registry::{MetricsSnapshot, Registry};
use crate::span::{Attrs, Event, Lane, Span};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span buffers are sharded by thread to keep pool workers from serializing
/// on one lock. 16 shards comfortably covers the host thread counts the
/// engine uses.
const N_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct Shard {
    spans: Vec<Span>,
    events: Vec<Event>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    nodes: usize,
    /// Per-node simulated clock: the next free nanosecond on that node's
    /// simulated timeline. Task spans allocate from it with `fetch_add`.
    node_clocks: Vec<AtomicU64>,
    shards: [Mutex<Shard>; N_SHARDS],
    registry: Registry,
}

/// Handle to a trace being recorded; cheap to clone, `None`-backed when
/// disabled.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    /// Optional lane namespace (e.g. `"job:3:"`), prepended to every stage,
    /// counter-scope and event name this handle records. The prefix lives on
    /// the *handle*, not the shared buffers, so many prefixed views of one
    /// recording coexist and land in the same trace.
    prefix: Option<Arc<str>>,
}

impl Recorder {
    /// A recorder that drops everything. All methods return immediately
    /// without locking or allocating.
    pub fn noop() -> Self {
        Recorder {
            inner: None,
            prefix: None,
        }
    }

    /// An enabled recorder with one simulated-time lane per node (plus the
    /// driver lane). The epoch is `Instant::now()`.
    pub fn for_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one node lane");
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                nodes,
                node_clocks: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
                shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
                registry: Registry::default(),
            })),
            prefix: None,
        }
    }

    /// A view of the same recording whose stage names, counter scopes and
    /// event names all carry `prefix` (replacing any prefix this handle
    /// already had). The job server uses this to give each tenant an isolated
    /// `job:<id>:` lane set inside one shared trace. Clocks, shards and the
    /// metric registry stay shared — only the naming changes.
    pub fn with_stage_prefix(&self, prefix: impl Into<String>) -> Self {
        let p: String = prefix.into();
        Recorder {
            inner: self.inner.clone(),
            prefix: if p.is_empty() {
                None
            } else {
                Some(Arc::from(p.as_str()))
            },
        }
    }

    /// The stage prefix carried by this handle, if any.
    pub fn stage_prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    /// Applies this handle's prefix to a stage/event name. Borrows when there
    /// is no prefix so the common (unprefixed) path stays allocation-free.
    fn scoped<'a>(&self, stage: &'a str) -> std::borrow::Cow<'a, str> {
        match self.prefix.as_deref() {
            None => std::borrow::Cow::Borrowed(stage),
            Some(p) => std::borrow::Cow::Owned(format!("{p}{stage}")),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Node lanes this recorder was created with (0 when disabled).
    pub fn nodes(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.nodes)
    }

    fn shard_index() -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % N_SHARDS
    }

    fn push_span(inner: &Inner, span: Span) {
        inner.shards[Self::shard_index()]
            .lock()
            .expect("recorder shard poisoned")
            .spans
            .push(span);
    }

    /// Records a span for a task that just finished on simulated node `node`:
    /// its wall interval lasted `wall_dur` and ends now; its simulated
    /// interval is `sim_dur` allocated from the node's clock. Only `sim_dur`
    /// advances that clock, so it must be what the engine bills the node
    /// (`ExecStats::per_node_busy`). Call it from the worker thread that ran
    /// the task, right after measuring it.
    pub fn task_span_sim(
        &self,
        stage: &str,
        node: usize,
        partition: Option<u64>,
        wall_dur: Duration,
        sim_dur: Duration,
        attrs: Attrs,
    ) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        assert!(node < inner.nodes, "node {node} out of range");
        let wall_dur_ns = wall_dur.as_nanos() as u64;
        let sim_dur_ns = sim_dur.as_nanos() as u64;
        let wall_end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let sim_start_ns = inner.node_clocks[node].fetch_add(sim_dur_ns, Ordering::Relaxed);
        Self::push_span(
            inner,
            Span {
                stage: self.scoped(stage).into_owned(),
                lane: Lane::Node(node),
                partition,
                attrs,
                wall_start_ns: wall_end_ns.saturating_sub(wall_dur_ns),
                wall_dur_ns,
                sim_start_ns,
                sim_dur_ns,
            },
        );
    }

    /// Runs `f` inside a driver-lane span named `stage`. Driver spans nest:
    /// a phase recorded inside another phase is contained in it on both
    /// clocks (the driver is serial, so its simulated clock is the wall
    /// clock).
    pub fn phase<R>(&self, stage: &str, f: impl FnOnce() -> R) -> R {
        self.phase_attrs(stage, |_| f())
    }

    /// Like [`Recorder::phase`], but `f` can attach attributes it computed
    /// (e.g. how many records the phase produced).
    pub fn phase_attrs<R>(&self, stage: &str, f: impl FnOnce(&mut Attrs) -> R) -> R {
        let mut attrs = Attrs::new();
        let Some(inner) = self.inner.as_deref() else {
            return f(&mut attrs);
        };
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut attrs);
        let dur_ns = (inner.epoch.elapsed().as_nanos() as u64).saturating_sub(start_ns);
        self.push_driver(inner, stage, start_ns, dur_ns, attrs);
        out
    }

    /// Records a driver-lane span named `stage` that lasted `dur` on both
    /// clocks and ends now: a serial driver phase timed by its caller, whose
    /// span is then exactly the duration the caller bills.
    pub fn driver_span(&self, stage: &str, dur: Duration, attrs: Attrs) {
        if let Some(inner) = self.inner.as_deref() {
            let dur_ns = dur.as_nanos() as u64;
            let start_ns = (inner.epoch.elapsed().as_nanos() as u64).saturating_sub(dur_ns);
            self.push_driver(inner, stage, start_ns, dur_ns, attrs);
        }
    }

    /// The driver is serial, so its simulated clock is the wall clock.
    fn push_driver(&self, inner: &Inner, stage: &str, start: u64, dur: u64, attrs: Attrs) {
        let span = Span {
            stage: self.scoped(stage).into_owned(),
            lane: Lane::Driver,
            partition: None,
            attrs,
            wall_start_ns: start,
            wall_dur_ns: dur,
            sim_start_ns: start,
            sim_dur_ns: dur,
        };
        Self::push_span(inner, span);
    }

    /// Records an instant event. Node-lane events are stamped at the node's
    /// current simulated clock (without advancing it); driver events at wall
    /// time.
    pub fn event(&self, name: &str, lane: Lane, partition: Option<u64>, attrs: Attrs) {
        let Some(inner) = self.inner.as_deref() else {
            return;
        };
        let wall_ns = inner.epoch.elapsed().as_nanos() as u64;
        let sim_ns = match lane {
            Lane::Driver => wall_ns,
            Lane::Node(n) => {
                assert!(n < inner.nodes, "node {n} out of range");
                inner.node_clocks[n].load(Ordering::Relaxed)
            }
        };
        inner.shards[Self::shard_index()]
            .lock()
            .expect("recorder shard poisoned")
            .events
            .push(Event {
                name: self.scoped(name).into_owned(),
                lane,
                partition,
                attrs,
                wall_ns,
                sim_ns,
            });
    }

    pub fn counter_add(&self, stage: &str, name: &str, delta: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.counter_add(&self.scoped(stage), name, delta);
        }
    }

    pub fn gauge_set(&self, stage: &str, name: &str, value: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.registry.gauge_set(&self.scoped(stage), name, value);
        }
    }

    pub fn histogram_record(&self, stage: &str, name: &str, value: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner
                .registry
                .histogram_record(&self.scoped(stage), name, value);
        }
    }

    /// Current value of a counter (None when absent or disabled). Looked up
    /// under this handle's stage prefix, if any.
    pub fn counter_value(&self, stage: &str, name: &str) -> Option<u64> {
        self.inner
            .as_deref()
            .and_then(|i| i.registry.counter_value(&self.scoped(stage), name))
    }

    /// Total simulated busy time allocated to `node` so far.
    pub fn node_sim_total(&self, node: usize) -> Duration {
        match self.inner.as_deref() {
            Some(inner) if node < inner.nodes => {
                Duration::from_nanos(inner.node_clocks[node].load(Ordering::Relaxed))
            }
            _ => Duration::ZERO,
        }
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner
            .as_deref()
            .map(|i| i.registry.snapshot())
            .unwrap_or_default()
    }

    /// Copies everything recorded so far into an exportable [`Trace`].
    /// Spans and events are ordered by wall start time (ties broken by lane
    /// and stage) so the output is deterministic for a given recording.
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = self.inner.as_deref() else {
            return Trace::empty();
        };
        let mut spans = Vec::new();
        let mut events = Vec::new();
        for shard in &inner.shards {
            let g = shard.lock().expect("recorder shard poisoned");
            spans.extend(g.spans.iter().cloned());
            events.extend(g.events.iter().cloned());
        }
        spans.sort_by(|a, b| {
            (a.wall_start_ns, a.lane, &a.stage, a.partition).cmp(&(
                b.wall_start_ns,
                b.lane,
                &b.stage,
                b.partition,
            ))
        });
        events.sort_by(|a, b| {
            (a.wall_ns, a.lane, &a.name, a.partition).cmp(&(
                b.wall_ns,
                b.lane,
                &b.name,
                b.partition,
            ))
        });
        Trace {
            nodes: inner.nodes,
            spans,
            events,
            metrics: inner.registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_records_nothing() {
        let r = Recorder::noop();
        assert!(!r.is_enabled());
        let ms = Duration::from_millis(1);
        r.task_span_sim("map", 0, Some(1), ms, ms, Attrs::new());
        r.event("e", Lane::Driver, None, Attrs::new());
        r.counter_add("s", "n", 5);
        let ran = r.phase("p", || 42);
        assert_eq!(ran, 42);
        assert_eq!(r.counter_value("s", "n"), None);
        let t = r.snapshot();
        assert!(t.spans.is_empty() && t.events.is_empty() && t.metrics.is_empty());
    }

    #[test]
    fn sim_clock_is_monotone_and_sums_per_node() {
        let r = Recorder::for_nodes(2);
        let us = Duration::from_micros;
        r.task_span_sim("t", 0, Some(0), us(100), us(100), Attrs::new());
        r.task_span_sim("t", 1, Some(1), us(50), us(50), Attrs::new());
        r.task_span_sim("t", 0, Some(2), us(25), us(25), Attrs::new());
        let t = r.snapshot();
        let node0: Vec<_> = t.spans.iter().filter(|s| s.lane == Lane::Node(0)).collect();
        assert_eq!(node0.len(), 2);
        // Disjoint, monotone allocation on node 0's simulated timeline.
        assert_eq!(node0[0].sim_start_ns, 0);
        assert_eq!(node0[1].sim_start_ns, 100_000);
        assert_eq!(r.node_sim_total(0), Duration::from_micros(125));
        assert_eq!(r.node_sim_total(1), Duration::from_micros(50));
    }

    #[test]
    fn task_span_sim_charges_only_sim_duration() {
        let r = Recorder::for_nodes(1);
        r.task_span_sim(
            "t!failed",
            0,
            Some(0),
            Duration::from_micros(10),
            Duration::from_micros(40),
            Attrs::new(),
        );
        let t = r.snapshot();
        assert_eq!(t.spans[0].wall_dur_ns, 10_000);
        assert_eq!(t.spans[0].sim_dur_ns, 40_000);
        assert_eq!(r.node_sim_total(0), Duration::from_micros(40));
    }

    #[test]
    fn phases_nest_on_the_driver_lane() {
        let r = Recorder::for_nodes(1);
        let v = r.phase("outer", || {
            r.phase("inner", || std::thread::sleep(Duration::from_millis(1)));
            7
        });
        assert_eq!(v, 7);
        let t = r.snapshot();
        let outer = t.spans.iter().find(|s| s.stage == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.stage == "inner").unwrap();
        assert_eq!(outer.lane, Lane::Driver);
        assert!(outer.wall_start_ns <= inner.wall_start_ns);
        assert!(inner.wall_start_ns + inner.wall_dur_ns <= outer.wall_start_ns + outer.wall_dur_ns);
        // Driver lane: simulated == wall.
        assert_eq!(outer.sim_start_ns, outer.wall_start_ns);
        assert_eq!(outer.sim_dur_ns, outer.wall_dur_ns);
    }

    #[test]
    fn phase_attrs_records_computed_attributes() {
        let r = Recorder::for_nodes(1);
        let n = r.phase_attrs("sampling", |attrs| {
            *attrs = attrs.records(123);
            123u64
        });
        assert_eq!(n, 123);
        let t = r.snapshot();
        assert_eq!(t.spans[0].attrs.records, Some(123));
    }

    #[test]
    fn events_and_counters_round_trip() {
        let r = Recorder::for_nodes(3);
        r.event("spill", Lane::Node(2), Some(9), Attrs::new().bytes(4096));
        r.counter_add("shuffle", "remote_bytes", 100);
        r.counter_add("shuffle", "remote_bytes", 11);
        let t = r.snapshot();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].lane, Lane::Node(2));
        assert_eq!(t.events[0].attrs.bytes, Some(4096));
        assert_eq!(t.metrics.counter("shuffle", "remote_bytes"), Some(111));
        assert_eq!(r.counter_value("shuffle", "remote_bytes"), Some(111));
    }

    #[test]
    fn stage_prefix_namespaces_spans_events_and_counters() {
        let base = Recorder::for_nodes(2);
        let j0 = base.with_stage_prefix("job:0:");
        let j1 = base.with_stage_prefix("job:1:");
        assert_eq!(j0.stage_prefix(), Some("job:0:"));
        assert_eq!(base.stage_prefix(), None);

        let us = Duration::from_micros;
        j0.task_span_sim("map", 0, Some(1), us(10), us(10), Attrs::new());
        j1.task_span_sim("map", 1, Some(2), us(20), us(20), Attrs::new());
        j0.event("spill", Lane::Node(0), None, Attrs::new());
        j0.counter_add("shuffle", "remote_bytes", 7);
        j1.counter_add("shuffle", "remote_bytes", 9);

        // Both views share the same recording and node clocks.
        let t = base.snapshot();
        assert!(t.spans.iter().any(|s| s.stage == "job:0:map"));
        assert!(t.spans.iter().any(|s| s.stage == "job:1:map"));
        assert!(t.events.iter().any(|e| e.name == "job:0:spill"));
        assert_eq!(t.metrics.counter("job:0:shuffle", "remote_bytes"), Some(7));
        assert_eq!(t.metrics.counter("job:1:shuffle", "remote_bytes"), Some(9));
        // Lookups through a prefixed handle resolve inside its namespace.
        assert_eq!(j1.counter_value("shuffle", "remote_bytes"), Some(9));
        assert_eq!(base.counter_value("shuffle", "remote_bytes"), None);
        assert_eq!(base.node_sim_total(0), Duration::from_micros(10));
        assert_eq!(base.node_sim_total(1), Duration::from_micros(20));

        // Re-prefixing replaces, empty clears.
        let re = j0.with_stage_prefix("job:9:");
        assert_eq!(re.stage_prefix(), Some("job:9:"));
        assert_eq!(re.with_stage_prefix("").stage_prefix(), None);
    }

    #[test]
    fn concurrent_task_spans_from_many_threads() {
        let r = Recorder::for_nodes(4);
        std::thread::scope(|s| {
            for w in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..50 {
                        let d = Duration::from_nanos(10);
                        r.task_span_sim("t", (w + i) % 4, Some(i as u64), d, d, Attrs::new());
                    }
                });
            }
        });
        let t = r.snapshot();
        assert_eq!(t.spans.len(), 400);
        let total: u64 = (0..4).map(|n| r.node_sim_total(n).as_nanos() as u64).sum();
        assert_eq!(total, 400 * 10);
    }
}
