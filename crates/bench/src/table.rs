//! The reproduction record: every experiment returns typed [`Table`]s, and
//! both the text report and `repro.json` render from them.
//!
//! `repro.json` holds a `config` object, then a `counters` object, then a
//! `measurements` object, with one table per line in each, so `diff` names
//! the artefact that moved. A table's `counters` line keeps its label columns
//! and every column holding an exact counter; its `measurements` line keeps
//! the labels and every column holding a measurement. A cell of the other
//! kind in a kept column is `null`. Byte totals are bytes in the JSON even
//! where the text prints MiB. Values are written through [`asj_obs::json`],
//! the codec the journal and the trace exporters share; the line layout and
//! the checksum text are rendered here.

use crate::ExpConfig;
use asj_engine::FaultPlan;
use asj_obs::json::Value;

/// One typed cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Names the row: an algorithm, a configuration, an arm.
    Label(String),
    /// An exact counter: identical across runs, thread counts and hosts.
    Count(u64),
    /// An exact byte total that the text prints in MiB.
    Mib(u64),
    /// An exact checksum (FNV-1a, or a join's pair digest), printed and
    /// serialized as 16 hex digits.
    Checksum(u64),
    /// A measurement — simulated time, a clock, a ratio — with its printed
    /// form.
    Measure(f64, String),
    /// No value (`-`, `null`).
    Missing,
}

impl Cell {
    pub fn label(text: impl Into<String>) -> Cell {
        Cell::Label(text.into())
    }

    /// Simulated seconds, printed with three decimals.
    pub fn secs(secs: f64) -> Cell {
        Cell::Measure(secs, format!("{secs:.3}"))
    }

    /// Seconds, held and printed as milliseconds with two decimals.
    pub fn ms(secs: f64) -> Cell {
        let ms = secs * 1e3;
        Cell::Measure(ms, format!("{ms:.2}"))
    }

    /// `Some(true)` for an exact counter, `Some(false)` for a measurement,
    /// `None` for a label or a missing value.
    fn kind(&self) -> Option<bool> {
        match self {
            Cell::Count(_) | Cell::Mib(_) | Cell::Checksum(_) => Some(true),
            Cell::Measure(..) => Some(false),
            Cell::Label(_) | Cell::Missing => None,
        }
    }

    fn text(&self) -> String {
        match self {
            Cell::Label(s) | Cell::Measure(_, s) => s.clone(),
            Cell::Count(n) => n.to_string(),
            Cell::Mib(bytes) => format!("{:.2}", *bytes as f64 / (1024.0 * 1024.0)),
            Cell::Checksum(h) => format!("{h:016x}"),
            Cell::Missing => "-".to_string(),
        }
    }

    fn json(&self) -> Value<'_> {
        match self {
            Cell::Label(s) => Value::Str(s),
            Cell::Count(n) | Cell::Mib(n) => Value::U64(*n),
            Cell::Checksum(h) => Value::Raw(format!("\"{h:016x}\"")),
            Cell::Measure(x, _) => Value::F64(*x),
            Cell::Missing => Value::Null,
        }
    }
}

/// One artefact: the key naming it in `repro.json`, the title the text
/// report prints, a header and typed rows.
#[derive(Debug, Clone)]
pub struct Table {
    pub key: String,
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new<S: Into<String>>(
        key: impl Into<String>,
        title: impl Into<String>,
        header: Vec<S>,
    ) -> Self {
        Table {
            key: key.into(),
            title: title.into(),
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
    }

    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The fixed-width text table: the first column left-aligned, the rest
    /// right-aligned.
    pub fn render(&self) -> String {
        let text: Vec<Vec<String>> = std::iter::once(self.header.clone())
            .chain(self.rows.iter().map(|r| r.iter().map(Cell::text).collect()))
            .collect();
        let mut width = vec![0usize; self.header.len()];
        for row in &text {
            for (w, c) in width.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        for (i, row) in text.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .zip(&width)
                .enumerate()
                .map(|(j, (c, &w))| match j {
                    0 => format!("{c:<w$}"),
                    _ => format!("{c:>w$}"),
                })
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
            if i == 0 {
                let rule = width.iter().sum::<usize>() + 2 * (width.len() - 1);
                out.push_str(&"-".repeat(rule));
                out.push('\n');
            }
        }
        out
    }

    /// This table's line in the `counters` (or `measurements`) section, or
    /// `None` when it holds no cell of that kind.
    pub(crate) fn json_line(&self, counters: bool) -> Option<String> {
        let kinds = |c: usize| self.rows.iter().filter_map(move |r| r[c].kind());
        let keep: Vec<usize> = (0..self.header.len())
            .filter(|&c| kinds(c).next().is_none() || kinds(c).any(|k| k == counters))
            .collect();
        if !keep.iter().any(|&c| kinds(c).any(|k| k == counters)) {
            return None;
        }
        let columns = keep.iter().map(|&c| Value::Str(&self.header[c])).collect();
        let rows = self.rows.iter().map(|row| {
            let cells = keep.iter().map(|&c| match row[c].kind() {
                Some(k) if k != counters => Value::Null,
                _ => row[c].json(),
            });
            Value::List(cells.collect())
        });
        let table = Value::Object(vec![
            ("columns", Value::List(columns)),
            ("rows", Value::List(rows.collect())),
        ]);
        Some(format!("{}:{table}", Value::Str(&self.key)))
    }
}

/// Every table of one `repro` run, in the order the experiments produced
/// them, and the configuration they ran under.
#[derive(Debug)]
pub struct Record {
    config: String,
    tables: Vec<Table>,
}

impl Record {
    /// An empty record of runs under `cfg`; `ab_plan` is the plan the
    /// `faults` experiment compares against.
    pub fn new(cfg: &ExpConfig, ab_plan: &FaultPlan) -> Record {
        let faults = cfg.faults.as_ref().map(|f| format!("{f:?}"));
        let ab_plan = format!("{ab_plan:?}");
        let eps = cfg.eps_values.iter().map(|&e| Value::F64(e)).collect();
        let sizes = cfg.size_factors.iter().map(|&f| Value::U64(f as u64));
        let config = Value::Object(vec![
            ("base", Value::U64(cfg.base as u64)),
            ("eps_values", Value::List(eps)),
            ("default_eps", Value::F64(cfg.default_eps)),
            ("nodes", Value::U64(cfg.nodes as u64)),
            ("partitions", Value::U64(cfg.partitions as u64)),
            ("reps", Value::U64(cfg.reps as u64)),
            ("size_factors", Value::List(sizes.collect())),
            ("faults", faults.as_deref().map_or(Value::Null, Value::Str)),
            ("fault_ab_plan", Value::Str(&ab_plan)),
        ]);
        let config = format!("\"config\": {config}");
        Record {
            config,
            tables: Vec::new(),
        }
    }

    /// Prints each table and keeps it.
    pub fn push(&mut self, tables: Vec<Table>) {
        for t in tables {
            print!("\n=== {} ===\n{}", t.title, t.render());
            self.tables.push(t);
        }
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The record's `"config": {...}` line.
    pub fn config(&self) -> &str {
        &self.config
    }

    /// `repro.json`.
    pub fn to_json(&self) -> String {
        let section = |counters: bool| {
            let lines: Vec<String> = self
                .tables
                .iter()
                .filter_map(|t| t.json_line(counters))
                .collect();
            lines.join(",\n")
        };
        format!(
            "{{\n{},\n\"counters\": {{\n{}\n}},\n\"measurements\": {{\n{}\n}}\n}}\n",
            self.config,
            section(true),
            section(false)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", "a table", vec!["algo", "replicas", "time", "sum"]);
        t.row(vec![
            Cell::label("LPiB"),
            Cell::Count(12),
            Cell::secs(1.25),
            Cell::Checksum(0xb1ff),
        ]);
        t.row(vec![
            Cell::label("UNI(R)"),
            Cell::secs(4.5),
            Cell::secs(10.5),
            Cell::Missing,
        ]);
        t
    }

    #[test]
    fn renders_aligned_columns() {
        let s = sample().render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("algo    replicas"));
        assert!(lines[2].starts_with("LPiB  "));
        assert!(lines[2].ends_with(" 1.250  000000000000b1ff"));
        assert!(lines[3].ends_with(&format!("10.500  {:>16}", "-")));
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("t", "t", vec!["a", "b"]);
        t.row(vec![Cell::label("only one")]);
    }

    #[test]
    fn sections_split_counters_from_measurements() {
        let t = sample();
        assert_eq!(
            t.json_line(true).as_deref(),
            Some(concat!(
                r#""t":{"columns":["algo","replicas","sum"],"#,
                r#""rows":[["LPiB",12,"000000000000b1ff"],["UNI(R)",null,null]]}"#
            ))
        );
        assert_eq!(
            t.json_line(false).as_deref(),
            Some(concat!(
                r#""t":{"columns":["algo","replicas","time"],"#,
                r#""rows":[["LPiB",null,1.25],["UNI(R)",4.5,10.5]]}"#
            ))
        );
        let mut labels = Table::new("l", "l", vec!["only"]);
        labels.row(vec![Cell::label("x")]);
        assert_eq!(labels.json_line(true), None);
        assert_eq!(labels.json_line(false), None);
    }

    #[test]
    fn writer_escapes_strings_and_keeps_one_table_per_line() {
        let json_str = |s: &str| Value::Str(s).to_string();
        assert_eq!(json_str("S1 ⋈ S2"), "\"S1 ⋈ S2\"");
        assert_eq!(json_str("a\"b\\c\nd\te"), r#""a\"b\\c\u000ad\u0009e""#);
        let mut t = Table::new("ten\"ant", "tenants", vec!["name", "results"]);
        t.row(vec![Cell::label("tenant \"x\"\n"), Cell::Count(3)]);
        t.row(vec![Cell::label("R1 ⋈ S1"), Cell::Mib(1 << 20)]);
        let mut rec = Record::new(&ExpConfig::quick(), &FaultPlan::chaos(7));
        rec.push(vec![sample(), t]);
        let json = rec.to_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[0], "{");
        assert!(lines[1].starts_with("\"config\": {\"base\":20000,\"eps_values\":["));
        assert!(lines[1].contains("\"reps\":1,\"size_factors\":[1,2,4],\"faults\":null,"));
        assert!(lines[1].ends_with("},"));
        assert_eq!(lines[2], "\"counters\": {");
        assert!(lines[3].starts_with("\"t\":{") && lines[3].ends_with("]]},"));
        assert_eq!(
            lines[4],
            concat!(
                r#""ten\"ant":{"columns":["name","results"],"#,
                r#""rows":[["tenant \"x\"\u000a",3],["R1 ⋈ S1",1048576]]}"#
            )
        );
        assert_eq!(lines[5], "},");
        assert_eq!(lines[6], "\"measurements\": {");
        assert!(lines[7].starts_with("\"t\":{") && lines[7].ends_with("]]}"));
        assert_eq!(&lines[8..], ["}", "}"]);
        assert_eq!(rec.tables().len(), 2);
    }
}
