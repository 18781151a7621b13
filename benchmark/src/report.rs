//! Parsers for what the program prints: the `key : value` report lines of
//! `asj join` / `asj serve` and the per-tenant `job …` summary lines.

/// The value of the first `label : value` line, up to the first space of the
/// value (`replicated objects : 100894 (R: …)` reads `100894`).
fn field<'a>(stdout: &'a str, label: &str) -> Option<&'a str> {
    stdout.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == label).then(|| value.trim().split(' ').next().unwrap_or(""))
    })
}

fn number<T: std::str::FromStr>(stdout: &str, label: &str) -> Result<T, String> {
    field(stdout, label)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no '{label}' line in the program's report"))
}

/// The metrics report of one `asj join`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinReport {
    pub result_pairs: u64,
    pub replicated_objects: u64,
    pub shuffle_remote_kib: u64,
    /// The report's own `wall time` line: the join without ingest and output.
    pub wall_s: f64,
}

impl JoinReport {
    pub fn parse(stdout: &str) -> Result<JoinReport, String> {
        Ok(JoinReport {
            result_pairs: number(stdout, "result pairs")?,
            replicated_objects: number(stdout, "replicated objects")?,
            shuffle_remote_kib: number(stdout, "shuffle remote reads")?,
            wall_s: number(stdout, "wall time")?,
        })
    }
}

/// One `job NAME ok results N checksum HEX …`.
/// A `job NAME FAILED message` line does not parse, so a failed tenant shows
/// as a missing answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobLine {
    pub name: String,
    pub results: u64,
    pub checksum: String,
}

impl JobLine {
    pub fn parse(line: &str) -> Option<JobLine> {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.first() != Some(&"job") || words.get(2) != Some(&"ok") {
            return None;
        }
        let after = |key: &str| {
            words
                .iter()
                .position(|w| *w == key)
                .and_then(|i| words.get(i + 1))
                .copied()
        };
        Some(JobLine {
            name: words[1].to_string(),
            results: after("results")?.parse().ok()?,
            checksum: after("checksum")?.to_string(),
        })
    }
}

/// The report of one `asj serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    pub quanta: u64,
    pub server_clock_s: f64,
    /// Whether `--verify` printed its all-tenants-match line.
    pub isolation_verified: bool,
    /// Sorted by tenant name: the queue order is part of the seeded input,
    /// the per-tenant answers are not.
    pub jobs: Vec<JobLine>,
}

impl ServeReport {
    pub fn parse(stdout: &str) -> Result<ServeReport, String> {
        let mut jobs: Vec<JobLine> = stdout.lines().filter_map(JobLine::parse).collect();
        if jobs.is_empty() {
            return Err("no 'job …' summary line in the program's report".into());
        }
        jobs.sort();
        Ok(ServeReport {
            quanta: number(stdout, "quanta granted")?,
            server_clock_s: number(stdout, "server clock")?,
            isolation_verified: field(stdout, "isolation") == Some("all"),
            jobs,
        })
    }

    /// `(name, results, checksum)` per tenant — what two runs must agree on.
    pub fn answers(&self) -> Vec<(&str, u64, &str)> {
        self.jobs
            .iter()
            .map(|j| (j.name.as_str(), j.results, j.checksum.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOIN: &str = "\
algorithm            : LPiB
result pairs         : 4401974
candidates evaluated : 5610885
replicated objects   : 1129297 (R: 927241, S: 202056)
shuffle remote reads : 124589 KiB
shuffle total        : 135889 KiB
peak partition       : 1917 KiB
simulated time       : 0.256 s
wall time            : 0.705 s
peak memory          : 2047 KiB
spilled to disk      : 117230 KiB
wrote 4401974 pairs to pairs.csv
";

    #[test]
    fn parses_the_join_report() {
        let r = JoinReport::parse(JOIN).unwrap();
        assert_eq!(
            r,
            JoinReport {
                result_pairs: 4401974,
                replicated_objects: 1129297,
                shuffle_remote_kib: 124589,
                wall_s: 0.705,
            }
        );
        assert!(JoinReport::parse("error: reading r.csv").is_err());
    }

    const SERVE: &str = "\
policy               : fair-share
tenants              : 2
simulated nodes      : 12
server clock         : 0.300 s (serialized simulated time)
quanta granted       : 61
journal grants       : 0
checkpoint bytes     : 572161648
job uni-r        ok    results    450762  checksum 7b514228174271f6  wait  0.000ns  turnaround 141.448ms  stages   5  retries  0  spilled 0
job big-gauss    ok    results   2317268  checksum 31ae7b2622efbbeb  wait  0.000ns  turnaround 199.192ms  stages   7  retries  1  spilled 4096
isolation            : all tenants match their solo runs
";

    #[test]
    fn parses_the_serve_report_and_job_lines() {
        let r = ServeReport::parse(SERVE).unwrap();
        assert_eq!((r.quanta, r.server_clock_s), (61, 0.3));
        assert!(r.isolation_verified);
        assert_eq!(
            r.answers(),
            vec![
                ("big-gauss", 2317268, "31ae7b2622efbbeb"),
                ("uni-r", 450762, "7b514228174271f6"),
            ]
        );
    }

    #[test]
    fn failed_and_malformed_job_lines() {
        assert_eq!(
            JobLine::parse("job x            FAILED  task 3 panicked"),
            None
        );
        assert_eq!(JobLine::parse("job x ok results many"), None);
        assert_eq!(JobLine::parse("policy : fifo"), None);
        assert!(ServeReport::parse("policy : fifo").is_err());
    }
}
