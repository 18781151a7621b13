//! Trace exporters: Chrome `trace_event` JSON (open in Perfetto or
//! `chrome://tracing`) and line-delimited JSON for machine consumption.
//!
//! Chrome export convention: one process (`pid` 1), one *thread lane per
//! simulated node* plus a driver lane (`tid` = [`Lane::tid`]), timestamps and
//! durations in **simulated** microseconds. Wall-clock values ride along in
//! each event's `args` so neither clock is lost.
//!
//! Both renderers write through [`crate::json`], the codec the journal and
//! the reproduction record share; only the layout and the microsecond
//! fragments are rendered here.

use crate::json::Value::{self, Raw, Str, F64, U64};
use crate::registry::MetricsSnapshot;
use crate::span::{Attrs, Event, Lane, Span};

/// Output format selector, parsed from e.g. a `--trace-format` CLI flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    #[default]
    Chrome,
    Jsonl,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "chrome" => Ok(TraceFormat::Chrome),
            "jsonl" => Ok(TraceFormat::Jsonl),
            other => Err(format!("unknown trace format {other:?} (chrome|jsonl)")),
        }
    }
}

/// Everything a recorder captured, ready to export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Simulated node lanes the recorder was created with.
    pub nodes: usize,
    pub spans: Vec<Span>,
    pub events: Vec<Event>,
    pub metrics: MetricsSnapshot,
}

impl Trace {
    pub fn empty() -> Self {
        Trace::default()
    }

    pub fn render(&self, format: TraceFormat) -> String {
        match format {
            TraceFormat::Chrome => self.to_chrome_json(),
            TraceFormat::Jsonl => self.to_jsonl(),
        }
    }

    /// Chrome `trace_event` JSON object (`{"traceEvents": [...]}`).
    pub fn to_chrome_json(&self) -> String {
        // Lane names: driver + one lane per simulated node.
        let mut lines = vec![meta_thread_name(Lane::Driver, "driver")];
        for n in 0..self.nodes {
            lines.push(meta_thread_name(Lane::Node(n), &format!("node {n} (sim)")));
        }

        for s in &self.spans {
            let (wall_ts, wall_dur) = (us(s.wall_start_ns), us(s.wall_dur_ns));
            let mut args = attrs(s.partition, &s.attrs);
            args.extend([
                ("wall_ts_us", Str(&wall_ts)),
                ("wall_dur_us", Str(&wall_dur)),
            ]);
            let span = Value::Object(vec![
                ("name", Str(&s.stage)),
                ("cat", Str("span")),
                ("ph", Str("X")),
                ("pid", U64(1)),
                ("tid", U64(s.lane.tid() as u64)),
                ("ts", Raw(us(s.sim_start_ns))),
                ("dur", Raw(us(s.sim_dur_ns))),
                ("args", Value::Object(args)),
            ]);
            lines.push(span.to_string());
        }

        for e in &self.events {
            let wall_ts = us(e.wall_ns);
            let mut args = attrs(e.partition, &e.attrs);
            args.push(("wall_ts_us", Str(&wall_ts)));
            let event = Value::Object(vec![
                ("name", Str(&e.name)),
                ("cat", Str("event")),
                ("ph", Str("i")),
                ("s", Str("t")),
                ("pid", U64(1)),
                ("tid", U64(e.lane.tid() as u64)),
                ("ts", Raw(us(e.sim_ns))),
                ("args", Value::Object(args)),
            ]);
            lines.push(event.to_string());
        }

        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            lines.join(",\n")
        )
    }

    /// One JSON object per line: a `meta` header, then every span, event and
    /// metric.
    pub fn to_jsonl(&self) -> String {
        let nodes = U64(self.nodes as u64);
        let mut lines = vec![Value::Object(vec![("kind", Str("meta")), ("nodes", nodes)])];
        for s in &self.spans {
            let mut span = vec![("kind", Str("span")), ("stage", Str(&s.stage))];
            span.extend(lane(s.lane));
            span.extend(attrs(s.partition, &s.attrs));
            span.extend([
                ("wall_start_ns", U64(s.wall_start_ns)),
                ("wall_dur_ns", U64(s.wall_dur_ns)),
                ("sim_start_ns", U64(s.sim_start_ns)),
                ("sim_dur_ns", U64(s.sim_dur_ns)),
            ]);
            lines.push(Value::Object(span));
        }
        for e in &self.events {
            let mut event = vec![("kind", Str("event")), ("name", Str(&e.name))];
            event.extend(lane(e.lane));
            event.extend(attrs(e.partition, &e.attrs));
            event.extend([("wall_ns", U64(e.wall_ns)), ("sim_ns", U64(e.sim_ns))]);
            lines.push(Value::Object(event));
        }
        for ((stage, name), v) in &self.metrics.counters {
            lines.push(metric("counter", stage, name, [("value", U64(*v))]));
        }
        for ((stage, name), v) in &self.metrics.gauges {
            lines.push(metric("gauge", stage, name, [("value", F64(*v))]));
        }
        for ((stage, name), h) in &self.metrics.histograms {
            let summary = [
                ("count", U64(h.count)),
                ("min", F64(h.min)),
                ("max", F64(h.max)),
                ("sum", F64(h.sum)),
            ];
            lines.push(metric("histogram", stage, name, summary));
        }
        lines.iter().map(|line| format!("{line}\n")).collect()
    }
}

fn meta_thread_name(lane: Lane, name: &str) -> String {
    Value::Object(vec![
        ("name", Str("thread_name")),
        ("ph", Str("M")),
        ("pid", U64(1)),
        ("tid", U64(lane.tid() as u64)),
        ("args", Value::Object(vec![("name", Str(name))])),
    ])
    .to_string()
}

/// The members naming a JSONL span's or event's lane.
fn lane(lane: Lane) -> Vec<(&'static str, Value<'static>)> {
    match lane {
        Lane::Driver => vec![("lane", Str("driver"))],
        Lane::Node(n) => vec![("lane", Str("node")), ("node", U64(n as u64))],
    }
}

/// The `partition` and attribute members that are set, in that order.
fn attrs<'a>(partition: Option<u64>, attrs: &Attrs) -> Vec<(&'static str, Value<'a>)> {
    let members = [
        ("partition", partition),
        ("records", attrs.records),
        ("bytes", attrs.bytes),
        ("cells", attrs.cells),
    ];
    let set = members
        .into_iter()
        .filter_map(|(key, v)| Some((key, U64(v?))));
    set.collect()
}

/// One JSONL metric line: its kind and name, then `values`.
fn metric<'a>(
    kind: &'a str,
    stage: &'a str,
    name: &'a str,
    values: impl IntoIterator<Item = (&'a str, Value<'a>)>,
) -> Value<'a> {
    let mut members = vec![
        ("kind", Str(kind)),
        ("stage", Str(stage)),
        ("name", Str(name)),
    ];
    members.extend(values);
    Value::Object(members)
}

/// Nanoseconds rendered as decimal microseconds (Chrome's `ts`/`dur` unit)
/// without going through floating point.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_format_parses() {
        assert_eq!(
            "chrome".parse::<TraceFormat>().unwrap(),
            TraceFormat::Chrome
        );
        assert_eq!("jsonl".parse::<TraceFormat>().unwrap(), TraceFormat::Jsonl);
        assert!("xml".parse::<TraceFormat>().is_err());
    }

    #[test]
    fn json_str_escapes_specials() {
        assert_eq!(Str("a\"b\\c\nd").to_string(), r#""a\"b\\c\u000ad""#);
        assert_eq!(Str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn us_renders_sub_microsecond_precision() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(999), "0.999");
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(F64(1.5).to_string(), "1.5");
        assert_eq!(F64(f64::INFINITY).to_string(), "null");
    }
}
