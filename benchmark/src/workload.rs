//! The four workloads: how each one's inputs are made from the seed, the
//! command line of a repetition, and how a repetition's output is checked
//! against a reference that comes from different code.

use crate::proc::{self, ChildRun};
use crate::report::{JoinReport, ServeReport};
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Input sizes. `Smoke` runs the same code path on inputs ÷ 20 so the harness
/// itself can be exercised in seconds; its numbers mean nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    fn apply(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Smoke => n / 20,
        }
    }
}

/// One input file of a join workload. The generator's own seed is fixed so
/// the *distribution* (cluster positions and widths, which swing the join's
/// work by 5x from one generator seed to the next) is the same for every
/// benchmark seed; the benchmark seed picks which `n` of the generated
/// `n * 5/4` rows the program gets.
struct JoinInput {
    kind: &'static str,
    generator_seed: u64,
    n: usize,
}

struct JoinWorkload {
    r: JoinInput,
    s: JoinInput,
    eps: &'static str,
    /// `--out pairs.csv --memory-budget 2m`: materialise the pairs and push
    /// the shuffle through spill segments.
    spill_and_write: bool,
}

/// One tenant of the serve queue (`job NAME key=value …`).
struct Tenant {
    name: &'static str,
    algo: &'static str,
    eps: &'static str,
    n: usize,
    kind: &'static str,
    seed: u64,
    payload: usize,
    partitions: usize,
}

const TENANTS: [Tenant; 8] = [
    Tenant {
        name: "big-gauss",
        algo: "lpib",
        eps: "0.15",
        n: 125_000,
        kind: "gaussian",
        seed: 11,
        payload: 64,
        partitions: 96,
    },
    Tenant {
        name: "parks-hyd",
        algo: "lpib",
        eps: "0.12",
        n: 100_000,
        kind: "parks",
        seed: 21,
        payload: 128,
        partitions: 96,
    },
    Tenant {
        name: "hydro",
        algo: "diff",
        eps: "0.12",
        n: 100_000,
        kind: "hydrography",
        seed: 31,
        payload: 64,
        partitions: 96,
    },
    Tenant {
        name: "uni-r",
        algo: "uni-r",
        eps: "0.15",
        n: 60_000,
        kind: "gaussian",
        seed: 41,
        payload: 256,
        partitions: 96,
    },
    Tenant {
        name: "small-a",
        algo: "lpib",
        eps: "0.25",
        n: 20_000,
        kind: "uniform",
        seed: 51,
        payload: 32,
        partitions: 32,
    },
    Tenant {
        name: "small-b",
        algo: "eps-grid",
        eps: "0.25",
        n: 20_000,
        kind: "gaussian",
        seed: 61,
        payload: 32,
        partitions: 32,
    },
    Tenant {
        name: "small-c",
        algo: "sedona",
        eps: "0.25",
        n: 20_000,
        kind: "parks",
        seed: 71,
        payload: 32,
        partitions: 32,
    },
    Tenant {
        name: "dedup",
        algo: "lpib-dedup",
        eps: "0.2",
        n: 30_000,
        kind: "gaussian",
        seed: 81,
        payload: 64,
        partitions: 64,
    },
];

enum Kind {
    Join(JoinWorkload),
    /// `durable` adds `--journal` and `--checkpoint-dir`.
    Serve {
        durable: bool,
    },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "join_dense",
        why: "gaussian 700k x 700k, eps 0.4, counting only: ~130 M candidate pairs, so the partition-local kernel is the largest layer",
        kind: Kind::Join(JoinWorkload {
            r: JoinInput { kind: "gaussian", generator_seed: 1, n: 700_000 },
            s: JoinInput { kind: "gaussian", generator_seed: 2, n: 700_000 },
            eps: "0.4",
            spill_and_write: false,
        }),
    },
    Workload {
        name: "join_skew_spill",
        why: "parks 512k x hydrography 1129k, eps 0.04, --out, --memory-budget 2m: skewed fine grid, kernel small; CSV ingest, pair output and a spilling shuffle dominate",
        kind: Kind::Join(JoinWorkload {
            r: JoinInput { kind: "parks", generator_seed: 3, n: 512_400 },
            s: JoinInput { kind: "hydrography", generator_seed: 4, n: 1_129_200 },
            eps: "0.04",
            spill_and_write: true,
        }),
    },
    Workload {
        name: "serve_mem",
        why: "asj serve, 8 mixed tenants with 32-256 B payloads, all in memory: job scheduling quanta and payload shuffle, no CSV and no disk",
        kind: Kind::Serve { durable: false },
    },
    Workload {
        name: "serve_durable",
        why: "the serve_mem queue with --journal and --checkpoint-dir: the same work plus checkpoint writes, fsyncs and GC on the path",
        kind: Kind::Serve { durable: true },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where the program lives and where one workload keeps its scratch files.
pub struct Env {
    pub asj: PathBuf,
    pub dir: PathBuf,
    pub scale: Scale,
}

impl Env {
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    fn asj(&self, subcommand: &str) -> Command {
        let mut cmd = Command::new(&self.asj);
        cmd.arg(subcommand)
            .arg("--spill-dir")
            .arg(self.path("spill"));
        cmd
    }
}

/// What a correct repetition must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    Join {
        result_pairs: u64,
        /// Order-independent digest of the reference pair file (`--out` only).
        digest: Option<u64>,
    },
    Serve {
        answers: Vec<(String, u64, String)>,
    },
}

impl Reference {
    /// One line that is equal exactly when two references are: written to the
    /// result file so two runs on one seed can be held against each other.
    pub fn describe(&self) -> String {
        match self {
            Reference::Join {
                result_pairs,
                digest,
            } => match digest {
                Some(d) => format!("result_pairs={result_pairs} digest={d:016x}"),
                None => format!("result_pairs={result_pairs}"),
            },
            Reference::Serve { answers } => answers
                .iter()
                .map(|(n, r, c)| format!("{n}={r}:{c}"))
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
}

/// The outcome of one set-up.
pub struct Prepared {
    pub reference: Reference,
    /// Input size, stated beside every timing.
    pub input: String,
    /// Time inside `asj generate` children.
    pub generate_s: f64,
    /// The two CSVs the layer probe replays, with ε and payload bytes.
    pub probe: ProbeInput,
}

pub struct ProbeInput {
    pub r: PathBuf,
    pub s: PathBuf,
    pub eps: f64,
    pub payload: usize,
    pub partitions: usize,
    /// Whether the program materialises result pairs on this workload.
    pub collect_pairs: bool,
    /// The program's `--memory-budget` on this workload, if any.
    pub memory_budget: Option<u64>,
}

/// What one finished repetition reported, once it checked out.
pub enum Observed {
    Join(JoinReport),
    Serve(ServeReport),
}

fn run_checked(cmd: &mut Command, what: &str) -> Result<ChildRun, String> {
    let run = proc::run(cmd).map_err(|e| format!("{what}: {e}"))?;
    if run.success {
        Ok(run)
    } else {
        Err(format!("{what}: non-zero exit\n{}", run.stdout))
    }
}

/// SplitMix64 — the harness's own generator for seeded choices.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the tiny modulo bias is irrelevant here).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Wrapping sum of per-line FNV-1a: equal for two files holding the same
/// lines in any order.
pub fn digest_lines(path: &Path) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut digest = 0u64;
    for line in BufReader::new(file).split(b'\n') {
        let line = line.map_err(|e| format!("{}: {e}", path.display()))?;
        digest = digest.wrapping_add(fnv1a(&line));
    }
    Ok(digest)
}

/// Keeps exactly `keep` of the `total` rows of `from` (Knuth's selection
/// sampling, so every subset is equally likely) and renumbers their ids from
/// 0, which is what `asj generate` itself would have written.
fn subsample(from: &Path, to: &Path, total: usize, keep: usize, seed: u64) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{} -> {}: {e}", from.display(), to.display());
    let mut out = BufWriter::new(File::create(to).map_err(err)?);
    let mut rng = SplitMix(seed);
    let mut kept = 0usize;
    for (seen, line) in BufReader::new(File::open(from).map_err(err)?)
        .lines()
        .enumerate()
    {
        let line = line.map_err(err)?;
        if seen < total && rng.below((total - seen) as u64) < (keep - kept) as u64 {
            let (_id, xy) = line
                .split_once(',')
                .ok_or_else(|| format!("{}: row without a comma", from.display()))?;
            writeln!(out, "{kept},{xy}").map_err(err)?;
            kept += 1;
        }
    }
    out.flush().map_err(err)?;
    if kept == keep {
        Ok(())
    } else {
        Err(format!(
            "{}: expected {total} rows, kept {kept} of {keep}",
            from.display()
        ))
    }
}

/// First `rows` lines of `from`, parsed by the harness itself.
fn head_points(from: &Path, to: &Path, rows: usize) -> Result<Vec<(u64, f64, f64)>, String> {
    let err = |e: std::io::Error| format!("{} -> {}: {e}", from.display(), to.display());
    let mut out = BufWriter::new(File::create(to).map_err(err)?);
    let mut points = Vec::with_capacity(rows);
    for line in BufReader::new(File::open(from).map_err(err)?)
        .lines()
        .take(rows)
    {
        let line = line.map_err(err)?;
        let mut fields = line.split(',');
        let mut next = || {
            fields
                .next()
                .ok_or_else(|| format!("{}: short row", from.display()))
        };
        let id = next()?.parse::<u64>().map_err(|e| e.to_string())?;
        let x = next()?.parse::<f64>().map_err(|e| e.to_string())?;
        let y = next()?.parse::<f64>().map_err(|e| e.to_string())?;
        points.push((id, x, y));
        writeln!(out, "{line}").map_err(err)?;
    }
    out.flush().map_err(err)?;
    Ok(points)
}

/// The ε-join by definition: every pair, one distance test. Shares no code
/// with the system, so it anchors the reference to something independent. Returns the pair count and the digest of its `a,b` lines.
pub fn brute_force(r: &[(u64, f64, f64)], s: &[(u64, f64, f64)], eps: f64) -> (u64, u64) {
    let (mut count, mut digest) = (0u64, 0u64);
    for &(a, ax, ay) in r {
        for &(b, bx, by) in s {
            let (dx, dy) = (ax - bx, ay - by);
            if dx * dx + dy * dy <= eps * eps {
                count += 1;
                digest = digest.wrapping_add(fnv1a(format!("{a},{b}").as_bytes()));
            }
        }
    }
    (count, digest)
}

/// The queue file for `seed`. A tenant's generator ties its distribution to
/// its `seed=` (see [`JoinInput`]), and `asj serve` generates in-process, so
/// only the parameter-free `uniform` tenant can take the benchmark seed
/// without the queue's total work swinging from seed to seed; the others keep
/// their data.
pub fn queue_file(seed: u64, scale: Scale) -> String {
    TENANTS
        .iter()
        .map(|t| {
            let data_seed = if t.kind == "uniform" {
                t.seed.wrapping_add(seed)
            } else {
                t.seed
            };
            format!(
                "job {} algo={} eps={} n={} kind={} seed={data_seed} payload={} partitions={}\n",
                t.name,
                t.algo,
                t.eps,
                scale.apply(t.n),
                t.kind,
                t.payload,
                t.partitions,
            )
        })
        .collect()
}

impl JoinWorkload {
    fn generate(&self, env: &Env, seed: u64) -> Result<f64, String> {
        let mut generate_s = 0.0;
        for (input, file, salt) in [(&self.r, "r.csv", 0u64), (&self.s, "s.csv", 1)] {
            let keep = env.scale.apply(input.n);
            let total = keep * 5 / 4;
            let population = env.path("population.csv");
            let run = run_checked(
                env.asj("generate")
                    .args(["--kind", input.kind, "--n", &total.to_string()])
                    .args(["--seed", &input.generator_seed.to_string(), "--out"])
                    .arg(&population),
                "asj generate",
            )?;
            generate_s += run.wall_s;
            subsample(
                &population,
                &env.path(file),
                total,
                keep,
                seed.wrapping_mul(2).wrapping_add(salt),
            )?;
            fs::remove_file(&population).map_err(|e| e.to_string())?;
        }
        Ok(generate_s)
    }

    /// `asj join` on inputs `r`, `s`, writing pairs to `out`: with the
    /// workload's own flags, or as the reference — `eps-grid`: another grid
    /// (ε-sized cells), universal replication instead of the graph of
    /// agreements, the shuffle in memory. (`sedona` would differ as much, but
    /// its wall on these inputs flips between ~1.2 s and ~3 s from one seed
    /// to the next, which makes `setup_s` useless as a gate.)
    fn join(&self, env: &Env, r: &str, s: &str, out: &str, reference: bool) -> Command {
        let mut cmd = env.asj("join");
        cmd.arg("--r").arg(env.path(r)).arg("--s").arg(env.path(s));
        cmd.args(["--eps", self.eps]);
        if self.spill_and_write {
            cmd.arg("--out").arg(env.path(out));
        }
        if reference {
            cmd.args(["--algo", "eps-grid"]);
        } else if self.spill_and_write {
            cmd.args(["--memory-budget", "2m"]);
        }
        cmd
    }

    fn check(
        &self,
        env: &Env,
        out: &str,
        stdout: &str,
        want_pairs: u64,
        want_digest: Option<u64>,
    ) -> Result<JoinReport, String> {
        let report = JoinReport::parse(stdout)?;
        if report.result_pairs != want_pairs {
            return Err(format!(
                "result pairs {} != reference {want_pairs}",
                report.result_pairs
            ));
        }
        if let Some(want) = want_digest {
            let got = digest_lines(&env.path(out))?;
            if got != want {
                return Err(format!(
                    "pair-file digest {got:016x} != reference {want:016x}"
                ));
            }
        }
        Ok(report)
    }

    /// A down-sample small enough for the brute-force join, run through the
    /// workload's own command line.
    fn anchor(&self, env: &Env) -> Result<(), String> {
        let rows = 20_000
            .min(env.scale.apply(self.r.n) / 4)
            .min(env.scale.apply(self.s.n) / 4);
        let r = head_points(&env.path("r.csv"), &env.path("anchor_r.csv"), rows)?;
        let s = head_points(&env.path("s.csv"), &env.path("anchor_s.csv"), rows)?;
        let eps: f64 = self.eps.parse().expect("eps literal");
        let (pairs, digest) = brute_force(&r, &s, eps);
        let run = run_checked(
            &mut self.join(
                env,
                "anchor_r.csv",
                "anchor_s.csv",
                "anchor_pairs.csv",
                false,
            ),
            "asj join (anchor)",
        )?;
        self.check(
            env,
            "anchor_pairs.csv",
            &run.stdout,
            pairs,
            self.spill_and_write.then_some(digest),
        )
        .map(drop)
        .map_err(|e| format!("{rows} x {rows} down-sample against brute force: {e}"))
    }

    fn prepare(&self, env: &Env, seed: u64) -> Result<Prepared, String> {
        let generate_s = self.generate(env, seed)?;
        let run = run_checked(
            &mut self.join(env, "r.csv", "s.csv", "pairs.csv", true),
            "asj join --algo eps-grid",
        )?;
        let report = JoinReport::parse(&run.stdout)?;
        let digest = if self.spill_and_write {
            Some(digest_lines(&env.path("pairs.csv"))?)
        } else {
            None
        };
        self.anchor(env)?;
        Ok(Prepared {
            reference: Reference::Join {
                result_pairs: report.result_pairs,
                digest,
            },
            input: format!(
                "{} x {} points",
                env.scale.apply(self.r.n),
                env.scale.apply(self.s.n)
            ),
            generate_s,
            probe: ProbeInput {
                r: env.path("r.csv"),
                s: env.path("s.csv"),
                eps: self.eps.parse().expect("eps literal"),
                payload: 0,
                partitions: 96,
                collect_pairs: self.spill_and_write,
                memory_budget: self.spill_and_write.then_some(2 << 20),
            },
        })
    }
}

fn serve(env: &Env, durable: bool) -> Command {
    let mut cmd = env.asj("serve");
    cmd.arg("--jobs").arg(env.path("queue.txt"));
    if durable {
        cmd.arg("--journal").arg(env.path("journal.log"));
        cmd.arg("--checkpoint-dir").arg(env.path("checkpoints"));
    }
    cmd
}

fn prepare_serve(env: &Env, seed: u64) -> Result<Prepared, String> {
    fs::write(env.path("queue.txt"), queue_file(seed, env.scale)).map_err(|e| e.to_string())?;
    // `--verify` re-runs every tenant alone and fails unless the concurrent
    // answers match: the reference is the solo, in-memory answer.
    let run = run_checked(serve(env, false).arg("--verify"), "asj serve --verify")?;
    let report = ServeReport::parse(&run.stdout)?;
    if !report.isolation_verified || report.jobs.len() != TENANTS.len() {
        return Err(format!(
            "asj serve --verify did not vouch for all {} tenants",
            TENANTS.len()
        ));
    }
    // The layer probe replays the heaviest tenant's join from files.
    let tenant = &TENANTS[0];
    let mut generate_s = 0.0;
    for (file, offset) in [("r.csv", 0), ("s.csv", 1)] {
        let run = run_checked(
            env.asj("generate")
                .args([
                    "--kind",
                    tenant.kind,
                    "--n",
                    &env.scale.apply(tenant.n).to_string(),
                ])
                .args(["--seed", &(tenant.seed + offset).to_string(), "--out"])
                .arg(env.path(file)),
            "asj generate",
        )?;
        generate_s += run.wall_s;
    }
    let tuples: usize = TENANTS.iter().map(|t| 2 * env.scale.apply(t.n)).sum();
    Ok(Prepared {
        reference: Reference::Serve {
            answers: report
                .answers()
                .into_iter()
                .map(|(n, r, c)| (n.to_string(), r, c.to_string()))
                .collect(),
        },
        input: format!("{} tenants, {tuples} tuples", TENANTS.len()),
        generate_s,
        probe: ProbeInput {
            r: env.path("r.csv"),
            s: env.path("s.csv"),
            eps: tenant.eps.parse().expect("eps literal"),
            payload: tenant.payload,
            partitions: tenant.partitions,
            collect_pairs: true,
            memory_budget: None,
        },
    })
}

impl Workload {
    /// Whether this serve workload journals and checkpoints; `None` for joins.
    pub fn durable(&self) -> Option<bool> {
        match self.kind {
            Kind::Join(_) => None,
            Kind::Serve { durable } => Some(durable),
        }
    }

    /// Generates the inputs for `seed` and computes the reference. Returns
    /// the outcome and how long all of it took.
    pub fn prepare(&self, env: &Env, seed: u64) -> Result<(Prepared, f64), String> {
        let start = Instant::now();
        let _ = fs::remove_dir_all(&env.dir);
        fs::create_dir_all(env.path("spill")).map_err(|e| format!("{}: {e}", env.dir.display()))?;
        let prepared = match &self.kind {
            Kind::Join(join) => join.prepare(env, seed)?,
            Kind::Serve { .. } => prepare_serve(env, seed)?,
        };
        proc::flush_disk_writes();
        Ok((prepared, start.elapsed().as_secs_f64()))
    }

    /// One repetition: clears what the previous one left, runs the program
    /// with its defaults (never `--exec`, `--shuffle`, `--kernel`), and
    /// checks the answer. `durable` overrides the serve variant so
    /// `serve_durable − serve_mem` can be taken inside one run.
    pub fn repetition(
        &self,
        env: &Env,
        reference: &Reference,
        trace: Option<&Path>,
        durable: Option<bool>,
    ) -> Result<(ChildRun, Result<Observed, String>), String> {
        for leftover in ["pairs.csv", "journal.log"] {
            let _ = fs::remove_file(env.path(leftover));
        }
        let _ = fs::remove_dir_all(env.path("checkpoints"));
        let mut cmd = match &self.kind {
            Kind::Join(join) => join.join(env, "r.csv", "s.csv", "pairs.csv", false),
            Kind::Serve { durable: own } => serve(env, durable.unwrap_or(*own)),
        };
        if let Some(path) = trace {
            cmd.arg("--trace")
                .arg(path)
                .args(["--trace-format", "jsonl"]);
        }
        let run = proc::run(&mut cmd).map_err(|e| format!("{}: {e}", env.asj.display()))?;
        let observed = if !run.success {
            Err("non-zero exit".to_string())
        } else {
            match (&self.kind, reference) {
                (
                    Kind::Join(join),
                    Reference::Join {
                        result_pairs,
                        digest,
                    },
                ) => join
                    .check(env, "pairs.csv", &run.stdout, *result_pairs, *digest)
                    .map(Observed::Join),
                (Kind::Serve { .. }, Reference::Serve { answers }) => {
                    ServeReport::parse(&run.stdout).and_then(|report| {
                        let same = report
                            .answers()
                            .iter()
                            .map(|(n, r, c)| (*n, *r, *c))
                            .eq(answers.iter().map(|(n, r, c)| (n.as_str(), *r, c.as_str())));
                        if same {
                            Ok(Observed::Serve(report))
                        } else {
                            Err(
                                "per-tenant results/checksums differ from the --verify reference"
                                    .to_string(),
                            )
                        }
                    })
                }
                _ => unreachable!("a workload only ever sees its own reference"),
            }
        };
        Ok((run, observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test scratch lives beside the test binary, inside the target directory.
    fn temp_file(name: &str, content: &str) -> PathBuf {
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("asj-benchmark-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn digest_ignores_line_order_but_not_content() {
        let a = temp_file("digest_a.csv", "1,2\n3,4\n5,6\n");
        let b = temp_file("digest_b.csv", "5,6\n1,2\n3,4\n");
        let c = temp_file("digest_c.csv", "5,6\n1,2\n3,5\n");
        assert_eq!(digest_lines(&a).unwrap(), digest_lines(&b).unwrap());
        assert_ne!(digest_lines(&a).unwrap(), digest_lines(&c).unwrap());
        assert_eq!(
            digest_lines(&a).unwrap(),
            fnv1a(b"1,2")
                .wrapping_add(fnv1a(b"3,4"))
                .wrapping_add(fnv1a(b"5,6"))
        );
    }

    #[test]
    fn brute_force_counts_and_digests_pairs_within_eps() {
        let r = [(0, 0.0, 0.0), (1, 10.0, 10.0)];
        let s = [(7, 0.25, 0.0), (8, 0.25, 0.125), (9, 10.0, 10.25)];
        let (count, digest) = brute_force(&r, &s, 0.25);
        assert_eq!(
            count, 2,
            "(0,7) at exactly eps and (1,9); (0,8) is just outside"
        );
        assert_eq!(digest, fnv1a(b"0,7").wrapping_add(fnv1a(b"1,9")));
    }

    #[test]
    fn subsample_keeps_exactly_n_rows_and_depends_on_the_seed() {
        let rows: String = (0..1000)
            .map(|i| format!("{i},{}.5,{}.25\n", i, i * 2))
            .collect();
        let from = temp_file("population.csv", &rows);
        let pick = |seed: u64, name: &str| {
            let to = from.with_file_name(name);
            subsample(&from, &to, 1000, 800, seed).unwrap();
            fs::read_to_string(to).unwrap()
        };
        let a = pick(1, "sub_a.csv");
        assert_eq!(a.lines().count(), 800);
        assert!(a.starts_with("0,"), "ids are renumbered from 0");
        assert!(a.lines().last().unwrap().starts_with("799,"));
        assert_eq!(a, pick(1, "sub_a2.csv"), "same seed, same rows");
        assert_ne!(a, pick(2, "sub_b.csv"), "another seed, other rows");
        assert!(subsample(&from, &from.with_file_name("sub_c.csv"), 2000, 1900, 1).is_err());
    }

    #[test]
    fn queue_file_takes_the_seed_only_where_work_stays_put() {
        let a = queue_file(1, Scale::Full);
        assert!(a.starts_with("job big-gauss algo=lpib eps=0.15 n=125000 kind=gaussian seed=11 payload=64 partitions=96\n"));
        assert_eq!(a.lines().count(), TENANTS.len());
        let b = queue_file(4, Scale::Full);
        let differing: Vec<(&str, &str)> =
            a.lines().zip(b.lines()).filter(|(x, y)| x != y).collect();
        assert_eq!(differing.len(), 1);
        assert!(
            differing[0].0.contains("kind=uniform seed=52")
                && differing[0].1.contains("kind=uniform seed=55")
        );
        assert!(queue_file(1, Scale::Smoke).contains("n=6250 "));
    }
}
