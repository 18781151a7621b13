//! One table of options for every front end. `asj`'s `--name value`
//! arguments, the queue file's `name=value` tokens and `repro`'s flags all
//! parse through [`ROWS`], so each option has one parse, one range check and
//! one USAGE spelling, and means the same wherever it is accepted. The one
//! name with two meanings is `seed`: on `asj join` it seeds the fault plan,
//! on `asj generate` and in a queue line the generator.

use crate::queue::parse_bytes;
use asj_data::GenKind;
use asj_engine::{FaultPlan, RetryPolicy, SchedPolicy, TraceFormat};
use asj_geom::Rect;
use asj_join::{Algorithm, LocalKernel};
use std::str::FromStr;

/// How a front end spells an option: `--name` on a command line, `name` in
/// a queue line. Errors name the option as the user spelled it; the rest of
/// their text is the same for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Spelling {
    #[default]
    Flag,
    Key,
}

impl Spelling {
    pub fn of(self, name: &str) -> String {
        match self {
            Spelling::Flag => format!("--{name}"),
            Spelling::Key => name.to_string(),
        }
    }

    /// The text of a `JoinError::InvalidSpec`: the option the `JoinSpec`
    /// field (or entry-point argument) comes from, then `reason`.
    pub fn invalid_spec(self, field: &str, reason: &str) -> String {
        match ROWS.iter().find(|row| row.field == Some(field)) {
            Some(row) => format!("{} {reason}", self.of(row.name)),
            None => format!("{field} {reason}"),
        }
    }
}

/// Every value the options of [`ROWS`] set: `None` (or `false`) where the
/// option was not given. Each front end applies its own defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    pub spelling: Spelling,
    /// Command-line words that are not options (`repro`'s experiments).
    pub operands: Vec<String>,
    pub r: Option<String>,
    pub s: Option<String>,
    pub input: Option<String>,
    pub out: Option<String>,
    pub jobs: Option<String>,
    pub journal: Option<String>,
    pub checkpoint_dir: Option<String>,
    pub spill_dir: Option<String>,
    pub trace: Option<String>,
    pub trace_format: Option<TraceFormat>,
    pub kind: Option<GenKind>,
    pub n: Option<usize>,
    pub seed: Option<u64>,
    pub fault_seed: Option<u64>,
    pub algo: Option<Algorithm>,
    pub eps: Option<f64>,
    pub partitions: Option<usize>,
    pub grid_factor: Option<f64>,
    pub kernel: Option<LocalKernel>,
    pub k: Option<usize>,
    pub nodes: Option<usize>,
    pub memory_budget: Option<u64>,
    pub faults: Option<String>,
    pub max_attempts: Option<usize>,
    pub speculation: bool,
    pub policy: Option<SchedPolicy>,
    pub verify: bool,
    pub recover: bool,
    pub compact_every: Option<u64>,
    pub rect: Option<Rect>,
    pub width: Option<usize>,
    pub height: Option<usize>,
    pub weight: Option<u32>,
    pub payload: Option<u64>,
    pub estimate: Option<u64>,
    pub quick: bool,
    pub scale: Option<usize>,
    pub reps: Option<usize>,
}

/// Parses `value`, given as option `at`, into its field of [`Options`].
type Set = fn(&mut Options, &str, &str) -> Result<(), String>;

/// One option of the table.
pub struct Opt {
    pub name: &'static str,
    /// The value's placeholder in a USAGE synopsis; empty for a switch.
    pub value: &'static str,
    /// The `JoinSpec` field (or entry-point argument) whose range error
    /// `JoinSpec::validate` reports for this option.
    pub field: Option<&'static str>,
    /// The option this one is meaningless without.
    pub requires: Option<&'static str>,
    set: Set,
}

const fn opt(name: &'static str, value: &'static str, set: Set) -> Opt {
    Opt {
        name,
        value,
        field: None,
        requires: None,
        set,
    }
}

impl Opt {
    const fn field(self, field: &'static str) -> Opt {
        Opt {
            field: Some(field),
            ..self
        }
    }

    const fn requires(self, name: &'static str) -> Opt {
        Opt {
            requires: Some(name),
            ..self
        }
    }
}

/// Every option of every front end. Range checks of `JoinSpec` fields are
/// not here but in `JoinSpec::validate`, which every front end calls.
pub const ROWS: &[Opt] = &[
    opt("r", "FILE", |o, v, _| text(&mut o.r, v)),
    opt("s", "FILE", |o, v, _| text(&mut o.s, v)),
    opt("input", "FILE", |o, v, _| text(&mut o.input, v)),
    opt("out", "FILE", |o, v, _| text(&mut o.out, v)),
    opt("jobs", "FILE", |o, v, _| text(&mut o.jobs, v)),
    opt("journal", "FILE", |o, v, _| text(&mut o.journal, v)),
    opt("checkpoint-dir", "DIR", |o, v, _| {
        text(&mut o.checkpoint_dir, v)
    })
    .requires("journal"),
    opt("spill-dir", "DIR", |o, v, _| text(&mut o.spill_dir, v)),
    opt("trace", "FILE", |o, v, _| text(&mut o.trace, v)),
    opt("trace-format", "chrome|jsonl", |o, v, _| {
        parsed(&mut o.trace_format, v)
    })
    .requires("trace"),
    opt("kind", "gaussian|hydrography|parks|uniform", |o, v, _| {
        parsed(&mut o.kind, v)
    }),
    opt("n", "N", |o, v, a| num(&mut o.n, v, a)),
    opt("seed", "S", |o, v, a| num(&mut o.seed, v, a)),
    opt("fault-seed", "N", |o, v, a| num(&mut o.fault_seed, v, a)),
    opt("algo", "ALGO", |o, v, _| {
        put(&mut o.algo, Algorithm::from_token(v))
    }),
    opt("eps", "E", |o, v, a| num(&mut o.eps, v, a)).field("eps"),
    opt("partitions", "P", |o, v, a| num(&mut o.partitions, v, a)).field("num_partitions"),
    opt("grid-factor", "F", |o, v, a| num(&mut o.grid_factor, v, a)).field("grid_factor"),
    opt("kernel", "K", |o, v, _| parsed(&mut o.kernel, v)),
    opt("k", "K", |o, v, a| num(&mut o.k, v, a)).field("k"),
    opt("nodes", "N", |o, v, a| positive(&mut o.nodes, v, a)),
    opt("memory-budget", "B", |o, v, a| {
        let budget = parse_bytes(v).map_err(|e| format!("{a}: {e}"))?;
        put(&mut o.memory_budget, nonzero(budget, a))
    }),
    opt("faults", "SPEC", |o, v, _| text(&mut o.faults, v)),
    // Checked by `Options::fault_setup`, which a spec built in code also
    // reaches.
    opt("max-attempts", "N", |o, v, a| {
        num(&mut o.max_attempts, v, a)
    }),
    opt("speculation", "", |o, _, _| on(&mut o.speculation)),
    opt("policy", "fair-share|fifo", |o, v, _| {
        let policy =
            SchedPolicy::parse(v).ok_or(format!("unknown policy '{v}' (fair-share | fifo)"));
        put(&mut o.policy, policy)
    }),
    opt("verify", "", |o, _, _| on(&mut o.verify)),
    opt("recover", "", |o, _, _| on(&mut o.recover)).requires("journal"),
    opt("compact-every", "N", |o, v, a| {
        positive(&mut o.compact_every, v, a)
    })
    .requires("journal"),
    opt("rect", "x0,y0,x1,y1", |o, v, a| {
        put(&mut o.rect, rect(v, a))
    }),
    opt("width", "W", |o, v, a| positive(&mut o.width, v, a)),
    opt("height", "H", |o, v, a| positive(&mut o.height, v, a)),
    opt("weight", "W", |o, v, a| positive(&mut o.weight, v, a)),
    // Bounded by `check_payload`, which a spec built in code also reaches.
    opt("payload", "B", |o, v, a| bytes(&mut o.payload, v, a)),
    opt("estimate", "B", |o, v, a| bytes(&mut o.estimate, v, a)),
    opt("quick", "", |o, _, _| on(&mut o.quick)),
    opt("scale", "N", |o, v, a| positive(&mut o.scale, v, a)),
    opt("reps", "N", |o, v, a| positive(&mut o.reps, v, a)),
];

fn put<T>(slot: &mut Option<T>, value: Result<T, String>) -> Result<(), String> {
    *slot = Some(value?);
    Ok(())
}

fn text(slot: &mut Option<String>, value: &str) -> Result<(), String> {
    put(slot, Ok(value.into()))
}

fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

fn parsed<T: FromStr<Err = String>>(slot: &mut Option<T>, value: &str) -> Result<(), String> {
    put(slot, value.parse())
}

fn number<T: FromStr>(value: &str, at: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for '{at}': '{value}'"))
}

fn num<T: FromStr>(slot: &mut Option<T>, value: &str, at: &str) -> Result<(), String> {
    put(slot, number(value, at))
}

fn nonzero<T: Default + PartialEq>(n: T, at: &str) -> Result<T, String> {
    if n == T::default() {
        return Err(format!("{at} must be positive"));
    }
    Ok(n)
}

fn positive<T>(slot: &mut Option<T>, value: &str, at: &str) -> Result<(), String>
where
    T: FromStr + Default + PartialEq,
{
    put(slot, nonzero(number(value, at)?, at))
}

fn bytes(slot: &mut Option<u64>, value: &str, at: &str) -> Result<(), String> {
    put(slot, parse_bytes(value).map_err(|e| format!("{at}: {e}")))
}

/// `x0,y0,x1,y1`, corners in either order.
fn rect(value: &str, at: &str) -> Result<Rect, String> {
    let nums = value
        .split(',')
        .map(|v| number(v.trim(), at))
        .collect::<Result<Vec<f64>, String>>()?;
    let [x0, y0, x1, y1] = nums[..] else {
        return Err(format!("{at} needs exactly x0,y0,x1,y1"));
    };
    Ok(Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1)))
}

impl Options {
    /// Parses `words` against the options named in `accepted`: `--name
    /// value` pairs (a switch takes no value) with [`Spelling::Flag`], where
    /// any other word is an operand, or `name=value` tokens with
    /// [`Spelling::Key`]. An unknown or repeated option, and an option given
    /// without the one it requires, is an error; `what` names the command in
    /// the error for an unknown flag.
    pub fn parse<'a>(
        accepted: &[&str],
        spelling: Spelling,
        words: impl IntoIterator<Item = &'a str>,
        what: &str,
    ) -> Result<Options, String> {
        let mut opts = Options {
            spelling,
            ..Options::default()
        };
        let mut seen: Vec<&Opt> = Vec::new();
        let mut words = words.into_iter();
        while let Some(word) = words.next() {
            let (name, inline) = match spelling {
                Spelling::Flag => match word.strip_prefix("--") {
                    Some(name) => (name, None),
                    None => {
                        opts.operands.push(word.to_string());
                        continue;
                    }
                },
                // Split on the FIRST '=' only: fault specs carry their own
                // '='s (`faults=p=0.3,slow:1=2.0`).
                Spelling::Key => match word.split_once('=') {
                    Some((name, value)) => (name, Some(value)),
                    None => return Err(format!("expected key=value, found '{word}'")),
                },
            };
            let at = spelling.of(name);
            let row = ROWS
                .iter()
                .find(|row| row.name == name && accepted.contains(&name))
                .ok_or_else(|| match spelling {
                    Spelling::Flag => format!("unknown flag '{at}' for '{what}'"),
                    Spelling::Key => format!("unknown key '{at}'"),
                })?;
            let value = match inline {
                Some(value) => value,
                None if row.value.is_empty() => "",
                None => words
                    .next()
                    .ok_or_else(|| format!("missing value for {at}"))?,
            };
            // A repeated option is almost always a copy-paste mistake;
            // letting the last one win would hide it.
            if seen.iter().any(|s| s.name == name) {
                return Err(format!("duplicate option '{at}'"));
            }
            seen.push(row);
            (row.set)(&mut opts, value, &at)?;
        }
        for row in &seen {
            if let Some(name) = row.requires.filter(|n| !seen.iter().any(|s| s.name == *n)) {
                let (at, needed) = (spelling.of(row.name), spelling.of(name));
                return Err(format!("{at} requires {needed} {}", placeholder(name)));
            }
        }
        Ok(opts)
    }

    /// `value`, or the error for the missing required option `name`.
    pub fn need<T: Clone>(&self, value: &Option<T>, name: &str) -> Result<T, String> {
        value
            .clone()
            .ok_or_else(|| format!("missing required {}", self.spelling.of(name)))
    }

    /// The fault plan and retry policy these options ask for: the plan
    /// `faults` names, seeded by `seed` (without `faults`, and with
    /// `from_env`, the `ASJ_FAULTS` / `ASJ_FAULT_SEED` plan), under a policy
    /// of `max_attempts` and `speculation`. A policy without a plan still
    /// applies over an inert plan: `--speculation` on a fault-free run, or a
    /// tenant's retry budget, which pins its fault state to its own context
    /// instead of the server's. `None` leaves the cluster single-attempt and
    /// fail-stop.
    pub fn fault_setup(
        &self,
        seed: u64,
        from_env: bool,
    ) -> Result<Option<(FaultPlan, RetryPolicy)>, String> {
        let plan = match &self.faults {
            Some(spec) => Some(FaultPlan::parse(spec, seed)?),
            None if from_env => FaultPlan::from_env(),
            None => None,
        };
        let mut policy = RetryPolicy::default().with_speculation(self.speculation);
        if let Some(n) = self.max_attempts {
            let at = self.spelling.of("max-attempts");
            policy = policy.with_max_attempts(nonzero(n, &at)?);
        }
        match plan {
            Some(plan) => Ok(Some((plan, policy))),
            None if self.max_attempts.is_some() || self.speculation => {
                Ok(Some((FaultPlan::none(), policy)))
            }
            None => Ok(None),
        }
    }
}

/// The USAGE placeholder of option `name`'s value.
fn placeholder(name: &str) -> &'static str {
    ROWS.iter()
        .find(|row| row.name == name)
        .map_or("", |row| row.value)
}

/// A USAGE synopsis: `head`, then each option of `required` and, in
/// brackets, each of `optional` as `--name VALUE`, wrapped at 80 columns
/// under the first.
pub fn synopsis(head: &str, required: &[&str], optional: &[&str]) -> String {
    let item = |name: &str| match placeholder(name) {
        "" => format!("--{name}"),
        value => format!("--{name} {value}"),
    };
    let items = required
        .iter()
        .map(|name| item(name))
        .chain(optional.iter().map(|name| format!("[{}]", item(name))));
    let mut out = head.to_string();
    let mut column = head.len();
    for item in items {
        if column > head.len() {
            if column + 1 + item.len() > 80 {
                out.push('\n');
                out.push_str(&" ".repeat(head.len()));
                column = head.len();
            } else {
                out.push(' ');
                column += 1;
            }
        }
        out.push_str(&item);
        column += item.len();
    }
    out
}
