//! Trace exporters: Chrome `trace_event` JSON (open in Perfetto or
//! `chrome://tracing`) and line-delimited JSON for machine consumption.
//!
//! Chrome export convention: one process (`pid` 1), one *thread lane per
//! simulated node* plus a driver lane (`tid` = [`Lane::tid`]), timestamps and
//! durations in **simulated** microseconds. Wall-clock values ride along in
//! each event's `args` so neither clock is lost.

use crate::registry::MetricsSnapshot;
use crate::span::{Attrs, Event, Lane, Span};
use std::fmt::Write as _;

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
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&line);
        };

        // Lane names: driver + one lane per simulated node.
        push(meta_thread_name(Lane::Driver, "driver"), &mut out);
        for n in 0..self.nodes {
            push(
                meta_thread_name(Lane::Node(n), &format!("node {n} (sim)")),
                &mut out,
            );
        }

        for s in &self.spans {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
                json_str(&s.stage),
                s.lane.tid(),
                us(s.sim_start_ns),
                us(s.sim_dur_ns),
            );
            line.push_str(",\"args\":{");
            let mut args = ArgWriter::new(&mut line);
            args.u64_opt("partition", s.partition);
            args.attrs(&s.attrs);
            args.str("wall_ts_us", &us(s.wall_start_ns));
            args.str("wall_dur_us", &us(s.wall_dur_ns));
            line.push_str("}}");
            push(line, &mut out);
        }

        for e in &self.events {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\":{},\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{}",
                json_str(&e.name),
                e.lane.tid(),
                us(e.sim_ns),
            );
            line.push_str(",\"args\":{");
            let mut args = ArgWriter::new(&mut line);
            args.u64_opt("partition", e.partition);
            args.attrs(&e.attrs);
            args.str("wall_ts_us", &us(e.wall_ns));
            line.push_str("}}");
            push(line, &mut out);
        }

        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// One JSON object per line: a `meta` header, then every span, event and
    /// metric.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"kind\":\"meta\",\"nodes\":{}}}", self.nodes);
        for s in &self.spans {
            let mut line = format!("{{\"kind\":\"span\",\"stage\":{}", json_str(&s.stage));
            lane_field(&mut line, s.lane);
            let mut w = ArgWriter::mid(&mut line);
            w.u64_opt("partition", s.partition);
            w.attrs(&s.attrs);
            let _ = write!(
                line,
                ",\"wall_start_ns\":{},\"wall_dur_ns\":{},\"sim_start_ns\":{},\"sim_dur_ns\":{}}}",
                s.wall_start_ns, s.wall_dur_ns, s.sim_start_ns, s.sim_dur_ns
            );
            out.push_str(&line);
            out.push('\n');
        }
        for e in &self.events {
            let mut line = format!("{{\"kind\":\"event\",\"name\":{}", json_str(&e.name));
            lane_field(&mut line, e.lane);
            let mut w = ArgWriter::mid(&mut line);
            w.u64_opt("partition", e.partition);
            w.attrs(&e.attrs);
            let _ = write!(line, ",\"wall_ns\":{},\"sim_ns\":{}}}", e.wall_ns, e.sim_ns);
            out.push_str(&line);
            out.push('\n');
        }
        for ((stage, name), v) in &self.metrics.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"stage\":{},\"name\":{},\"value\":{}}}",
                json_str(stage),
                json_str(name),
                v
            );
        }
        for ((stage, name), v) in &self.metrics.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"stage\":{},\"name\":{},\"value\":{}}}",
                json_str(stage),
                json_str(name),
                json_f64(*v)
            );
        }
        for ((stage, name), h) in &self.metrics.histograms {
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"stage\":{},\"name\":{},\"count\":{},\"min\":{},\"max\":{},\"sum\":{}}}",
                json_str(stage),
                json_str(name),
                h.count,
                json_f64(h.min),
                json_f64(h.max),
                json_f64(h.sum)
            );
        }
        out
    }
}

fn meta_thread_name(lane: Lane, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
        lane.tid(),
        json_str(name)
    )
}

fn lane_field(line: &mut String, lane: Lane) {
    match lane {
        Lane::Driver => line.push_str(",\"lane\":\"driver\""),
        Lane::Node(n) => {
            let _ = write!(line, ",\"lane\":\"node\",\"node\":{n}");
        }
    }
}

/// Nanoseconds rendered as decimal microseconds (Chrome's `ts`/`dur` unit)
/// without going through floating point.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Escapes a string for embedding in JSON, quotes included.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats as-is; non-finite values are not valid JSON numbers, so
/// render them as null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Writes `"key":value` pairs with correct comma placement into an object
/// that may already have entries.
struct ArgWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ArgWriter<'a> {
    /// Start inside a freshly opened `{`.
    fn new(out: &'a mut String) -> Self {
        ArgWriter { out, first: true }
    }

    /// Continue an object that already has fields (always emits commas).
    fn mid(out: &'a mut String) -> Self {
        ArgWriter { out, first: false }
    }

    fn sep(&mut self) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
    }

    fn u64_opt(&mut self, key: &str, v: Option<u64>) {
        if let Some(v) = v {
            self.sep();
            let _ = write!(self.out, "\"{key}\":{v}");
        }
    }

    fn str(&mut self, key: &str, v: &str) {
        self.sep();
        let _ = write!(self.out, "\"{key}\":{}", json_str(v));
    }

    fn attrs(&mut self, attrs: &Attrs) {
        self.u64_opt("records", attrs.records);
        self.u64_opt("bytes", attrs.bytes);
        self.u64_opt("cells", attrs.cells);
    }
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
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn us_renders_sub_microsecond_precision() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(999), "0.999");
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
