use crate::options::{Options, Spelling};
use crate::run::tenant_join_spec;
use asj_data::GenKind;
use asj_engine::{FaultPlan, RetryPolicy};
use asj_join::{Algorithm, JoinError, LocalKernel, MAX_PAYLOAD_BYTES};

/// One tenant's job request, as parsed from a queue file line.
///
/// A tenant is a complete ε-distance join: two generated datasets (seeds
/// `seed` and `seed + 1`), an algorithm, its own ε, kernel and partitioning,
/// an optional fault plan, a fair-share weight and an optional working-set
/// estimate override for admission control.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name (reports are keyed by it).
    pub name: String,
    pub algorithm: Algorithm,
    /// Distance threshold ε of this tenant's join.
    pub eps: f64,
    /// Cardinality of each input side.
    pub cardinality: usize,
    /// Distribution family of both generated inputs.
    pub kind: GenKind,
    /// Generator seed for R; S uses `seed + 1`.
    pub seed: u64,
    /// Fair-share weight (vruntime divisor; 1 = baseline share).
    pub weight: u32,
    pub kernel: LocalKernel,
    /// Shuffle partitions of this tenant's join.
    pub partitions: usize,
    pub grid_factor: f64,
    /// Synthetic payload bytes attached to every generated record (`payload=`
    /// key, byte suffixes allowed). Payloads ride the shuffle like real
    /// attribute data would, so the admission estimator must price them in.
    /// At most [`MAX_PAYLOAD_BYTES`].
    pub payload: u64,
    /// Fault-plan spec (`FaultPlan::parse` syntax), injected only into this
    /// tenant's stages.
    pub faults: Option<String>,
    /// Seed for the fault plan's randomized clauses.
    pub fault_seed: u64,
    /// Retry budget override (engine default if absent).
    pub max_attempts: Option<usize>,
    /// Working-set estimate override in bytes; when absent the server
    /// estimates from a calibrated sample (see `WorkingSetModel`).
    pub estimate_override: Option<u64>,
}

impl TenantSpec {
    /// A tenant with the queue-file defaults: LPiB, uniform data, weight 1,
    /// auto kernel, 32 partitions, grid factor 2.
    pub fn new(name: impl Into<String>, eps: f64, cardinality: usize) -> Self {
        TenantSpec {
            name: name.into(),
            algorithm: Algorithm::Lpib,
            eps,
            cardinality,
            kind: GenKind::Uniform,
            seed: 7,
            weight: 1,
            kernel: LocalKernel::Auto,
            partitions: 32,
            grid_factor: 2.0,
            payload: 0,
            faults: None,
            fault_seed: 7,
            max_attempts: None,
            estimate_override: None,
        }
    }

    /// This tenant's own fault plan and retry policy: no environment
    /// fallback, as a tenant without a plan inherits the server's. A crash
    /// clause is refused: it stops the whole server, so a tenant's copy
    /// could only be ignored.
    pub(crate) fn fault_setup(&self) -> Result<Option<(FaultPlan, RetryPolicy)>, String> {
        let opts = Options {
            spelling: Spelling::Key,
            faults: self.faults.clone(),
            max_attempts: self.max_attempts,
            ..Options::default()
        };
        let setup = opts.fault_setup(self.fault_seed, false)?;
        if let Some(grants) = setup.as_ref().and_then(|(plan, _)| plan.crash_after_grants) {
            return Err(format!(
                "fault clause 'crash@{grants}' stops the whole server, not one tenant: \
                 a tenant's faults cannot carry it"
            ));
        }
        Ok(setup)
    }
}

/// Renders the spec back into a `job NAME key=value ...` line that
/// [`parse_queue`] accepts. Every explicit key is emitted (defaults
/// included), so `parse(format(spec)) == spec` — the round-trip property the
/// parser tests pin.
impl std::fmt::Display for TenantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} algo={} eps={} n={} kind={} seed={} weight={} kernel={} \
             partitions={} grid-factor={} payload={}",
            self.name,
            self.algorithm.token(),
            self.eps,
            self.cardinality,
            self.kind.name(),
            self.seed,
            self.weight,
            self.kernel.name(),
            self.partitions,
            self.grid_factor,
            self.payload,
        )?;
        if let Some(faults) = &self.faults {
            write!(f, " faults={faults} fault-seed={}", self.fault_seed)?;
        }
        if let Some(n) = self.max_attempts {
            write!(f, " max-attempts={n}")?;
        }
        if let Some(bytes) = self.estimate_override {
            write!(f, " estimate={bytes}")?;
        }
        Ok(())
    }
}

/// Typed failure of [`parse_queue`]: which line and why.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueError {
    /// 1-based line number in the queue file.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QueueError {}

/// Parses a byte size with optional binary suffix (`64m`, `2g`, `512k`).
pub fn parse_bytes(value: &str) -> Result<u64, String> {
    let lower = value.trim().to_ascii_lowercase();
    let (digits, mult) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 1u64 << 10),
        Some(b'm') => (&lower[..lower.len() - 1], 1 << 20),
        Some(b'g') => (&lower[..lower.len() - 1], 1 << 30),
        _ => (lower.as_str(), 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("invalid byte size: '{value}'"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte size overflows u64: '{value}'"))
}

/// Rejects a `payload=` the record generator cannot lay out, before anything
/// is allocated for it: the size comes from a queue file.
pub(crate) fn check_payload(bytes: u64) -> Result<(), String> {
    if bytes > MAX_PAYLOAD_BYTES as u64 {
        return Err(format!(
            "payload must be at most {MAX_PAYLOAD_BYTES} bytes (a payload window addresses \
             its shared arena block with 32 bits), got {bytes}"
        ));
    }
    Ok(())
}

/// The keys a queue line accepts (`eps` is required).
pub const QUEUE_KEYS: &[&str] = &[
    "algo",
    "eps",
    "n",
    "kind",
    "seed",
    "weight",
    "kernel",
    "partitions",
    "grid-factor",
    "payload",
    "faults",
    "fault-seed",
    "max-attempts",
    "estimate",
];

fn parse_job_line(line: &str) -> Result<TenantSpec, String> {
    let mut tokens = line.split_whitespace();
    match tokens.next() {
        Some("job") => {}
        Some(other) => return Err(format!("expected 'job', found '{other}'")),
        None => return Err("empty job line".into()),
    }
    let name = tokens.next().ok_or("missing tenant name after 'job'")?;
    if name.contains('=') {
        return Err(format!("missing tenant name after 'job' (found '{name}')"));
    }
    let opts = Options::parse(QUEUE_KEYS, Spelling::Key, tokens, "job")?;
    let base = TenantSpec::new(name, opts.need(&opts.eps, "eps")?, opts.n.unwrap_or(2_000));
    let spec = TenantSpec {
        algorithm: opts.algo.unwrap_or(base.algorithm),
        kind: opts.kind.unwrap_or(base.kind),
        seed: opts.seed.unwrap_or(base.seed),
        weight: opts.weight.unwrap_or(base.weight),
        kernel: opts.kernel.unwrap_or(base.kernel),
        partitions: opts.partitions.unwrap_or(base.partitions),
        grid_factor: opts.grid_factor.unwrap_or(base.grid_factor),
        payload: opts.payload.unwrap_or(base.payload),
        fault_seed: opts.fault_seed.unwrap_or(base.fault_seed),
        max_attempts: opts.max_attempts,
        estimate_override: opts.estimate,
        faults: opts.faults,
        ..base
    };
    if spec.cardinality == 0 {
        return Err("n must be positive".into());
    }
    // The checks a spec built in code meets at submit time, here with the
    // queue line's number.
    check_payload(spec.payload)?;
    spec.fault_setup()?;
    tenant_join_spec(&spec).validate().map_err(|e| match e {
        JoinError::InvalidSpec { field, reason } => Spelling::Key.invalid_spec(field, &reason),
        other => other.to_string(),
    })?;
    Ok(spec)
}

/// Parses a tenant queue file: one `job NAME key=value ...` per line, `#`
/// comments and blank lines skipped. Tenant names must be unique.
///
/// ```text
/// # two tenants, the second twice the share and chaos-injected
/// job alpha algo=lpib eps=0.4 n=4000 kind=gaussian seed=11
/// job beta  algo=uni-r eps=0.2 n=8000 weight=2 faults=p=0.2 fault-seed=3
/// ```
pub fn parse_queue(text: &str) -> Result<Vec<TenantSpec>, QueueError> {
    let mut tenants: Vec<TenantSpec> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let spec = parse_job_line(line).map_err(|message| QueueError {
            line: idx + 1,
            message,
        })?;
        if tenants.iter().any(|t| t.name == spec.name) {
            return Err(QueueError {
                line: idx + 1,
                message: format!("duplicate tenant name '{}'", spec.name),
            });
        }
        tenants.push(spec);
    }
    Ok(tenants)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_queue() {
        let text = "\
# comment, then a blank line

job alpha algo=lpib eps=0.4 n=4000 kind=gaussian seed=11 weight=2
job beta algo=uni-r eps=0.2 n=8000 kernel=plane-sweep partitions=16 \
grid-factor=3 payload=2k faults=p=0.2,slow:1=2.0 fault-seed=3 max-attempts=5 estimate=64m
";
        let q = parse_queue(text).expect("queue parses");
        assert_eq!(q.len(), 2);
        let a = &q[0];
        assert_eq!(a.name, "alpha");
        assert_eq!(a.algorithm, Algorithm::Lpib);
        assert_eq!(a.eps, 0.4);
        assert_eq!(a.cardinality, 4000);
        assert_eq!(a.kind, GenKind::GaussianClusters);
        assert_eq!(a.seed, 11);
        assert_eq!(a.weight, 2);
        assert_eq!(a.kernel, LocalKernel::Auto, "default kernel");
        assert_eq!(a.partitions, 32, "default partitions");
        assert_eq!(a.faults, None);
        let b = &q[1];
        assert_eq!(b.algorithm, Algorithm::UniR);
        assert_eq!(b.kernel, LocalKernel::PlaneSweep);
        assert_eq!(b.partitions, 16);
        assert_eq!(b.grid_factor, 3.0);
        assert_eq!(
            b.faults.as_deref(),
            Some("p=0.2,slow:1=2.0"),
            "fault spec keeps its inner '='s"
        );
        assert_eq!(b.fault_seed, 3);
        assert_eq!(b.max_attempts, Some(5));
        assert_eq!(b.estimate_override, Some(64 << 20));
        assert_eq!(a.payload, 0, "default payload");
        assert_eq!(b.payload, 2048);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_queue("# fine\njob a eps=0.5\njob b eps=nope").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("eps"), "{}", err.message);

        let err = parse_queue("job a eps=0.5\njob a eps=0.5").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate"), "{}", err.message);

        for (bad, needle) in [
            ("job a n=100", "eps"),
            ("job a eps=0", "positive"),
            ("job a eps=0.5 weight=0", "weight"),
            ("job a eps=0.5 algo=quadtree", "unknown algorithm"),
            ("job a eps=0.5 color=red", "unknown key"),
            // An option of the command line only is not a queue key.
            ("job a eps=0.5 nodes=4", "unknown key 'nodes'"),
            // A bad fault plan is found at parse time, not at submit time.
            ("job a eps=0.5 faults=gremlins", "fault clause 'gremlins'"),
            (
                "job a eps=0.5 faults=p=0.1,crash@2",
                "fault clause 'crash@2' stops the whole server",
            ),
            ("job eps=0.5", "missing tenant name"),
            ("run a eps=0.5", "expected 'job'"),
            ("job a eps=0.5 eps=0.6", "duplicate option 'eps'"),
            ("job a eps=0.5 seed=1 seed=2", "duplicate option 'seed'"),
            (
                "job a eps=0.5 faults=p=0.1 faults=p=0.2",
                "duplicate option 'faults'",
            ),
            ("job a eps=0.5 n=-4", "invalid value for 'n'"),
            ("job a eps=0.5 seed=1.5", "invalid value for 'seed'"),
            ("job a eps=0.5 weight=big", "invalid value for 'weight'"),
            ("job a eps=0.5 payload=lots", "invalid byte size"),
            (
                "job a eps=0.5 n=100 payload=5g",
                "payload must be at most 4194303 bytes",
            ),
            (
                "job a eps=0.5 n=100 payload=64g",
                "payload must be at most 4194303 bytes",
            ),
            ("job a eps=0.5 payload=4m", "got 4194304"),
            ("job a eps=0.5 partitions", "expected key=value"),
            ("job a eps=0.5 kernel=turbo", "unknown kernel"),
            ("job a eps=0.5 kind=zipf", "unknown generator kind"),
            ("job a eps=0.5 grid-factor=0.5", "grid-factor must be"),
            ("job a eps=0.5 grid-factor=nan", "grid-factor must be"),
            ("job a eps=0.5 grid-factor=inf", "grid-factor must be"),
            ("job a eps=inf", "eps must be finite and positive"),
            ("job a eps=nan", "eps must be finite and positive"),
            (
                "job a eps=0.5 max-attempts=0",
                "max-attempts must be positive",
            ),
            (
                "job a eps=0.5 partitions=0",
                "partitions must be at least 1",
            ),
        ] {
            let err = parse_queue(&format!("# header\n{bad}")).unwrap_err();
            assert_eq!(err.line, 2, "'{bad}' is on line 2");
            assert!(
                err.message.contains(needle),
                "'{bad}' should mention '{needle}', got: {}",
                err.message
            );
        }
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_bytes("1024"), Ok(1024));
        assert_eq!(parse_bytes("4k"), Ok(4096));
        assert_eq!(parse_bytes("2M"), Ok(2 << 20));
        assert_eq!(parse_bytes("1g"), Ok(1 << 30));
        assert!(parse_bytes("lots").is_err());
    }

    #[test]
    fn display_renders_a_parseable_job_line() {
        let mut spec = TenantSpec::new("alpha", 0.4, 4_000);
        spec.algorithm = Algorithm::UniS;
        spec.kind = GenKind::Parks;
        spec.kernel = LocalKernel::GridBucket;
        spec.payload = 512;
        spec.faults = Some("p=0.2,slow:1=2.0".into());
        spec.fault_seed = 3;
        spec.max_attempts = Some(5);
        spec.estimate_override = Some(64 << 20);
        let line = spec.to_string();
        let parsed = parse_queue(&line).expect("rendered line parses");
        assert_eq!(parsed, vec![spec]);
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        fn arb_tenant() -> impl Strategy<Value = TenantSpec> {
            // Two nested tuples keep within the strategy tuple arity; the
            // ε / grid-factor / payload menus are indexed rather than
            // sampled directly so every drawn float Displays to a short
            // literal that re-parses to the same bits.
            (
                (
                    any::<u64>(), // name tag
                    0..6usize,    // algorithm
                    0..5usize,    // eps menu index
                    1usize..50_000,
                    0..4usize, // generator kind
                    any::<u64>(),
                    1u32..9,
                    0..4usize, // kernel
                ),
                (
                    1usize..128,  // partitions
                    0..4usize,    // grid-factor menu index
                    0..5usize,    // payload menu index
                    0..3usize,    // fault plan: none / p=0.2 / p=0.5
                    any::<u64>(), // fault seed (used only with a plan)
                    0..13usize,   // max-attempts: 0 = none
                    0..3usize,    // estimate override menu: 0 = none
                ),
            )
                .prop_map(
                    |(
                        (name_tag, algo, eps_idx, n, kind, seed, weight, kernel),
                        (partitions, gf_idx, payload_idx, fault_idx, fault_seed, attempts, est_idx),
                    )| {
                        let eps = [0.05f64, 0.1, 0.25, 0.4, 1.5][eps_idx];
                        let mut spec = TenantSpec::new(format!("t{name_tag:x}"), eps, n);
                        spec.algorithm = Algorithm::ALL[algo];
                        spec.kind = [
                            GenKind::GaussianClusters,
                            GenKind::Hydrography,
                            GenKind::Parks,
                            GenKind::Uniform,
                        ][kind];
                        spec.seed = seed;
                        spec.weight = weight;
                        spec.kernel = [
                            LocalKernel::NestedLoop,
                            LocalKernel::PlaneSweep,
                            LocalKernel::GridBucket,
                            LocalKernel::Auto,
                        ][kernel];
                        spec.partitions = partitions;
                        spec.grid_factor = [1.0f64, 2.0, 2.5, 3.0][gf_idx];
                        spec.payload = [0u64, 1, 512, 4096, MAX_PAYLOAD_BYTES as u64][payload_idx];
                        if fault_idx > 0 {
                            spec.faults = Some(["p=0.2", "p=0.5,slow:1=2.0"][fault_idx - 1].into());
                            spec.fault_seed = fault_seed;
                        }
                        spec.max_attempts = (attempts > 0).then_some(attempts);
                        spec.estimate_override = [None, Some(4096u64), Some(64 << 20)][est_idx];
                        spec
                    },
                )
        }

        proptest! {
            /// `parse(format(spec)) == spec` for any well-formed tenant: the
            /// Display impl and the parser are exact inverses.
            #[test]
            fn job_lines_roundtrip(spec in arb_tenant()) {
                let line = spec.to_string();
                let parsed = parse_queue(&line).expect("rendered line parses");
                prop_assert_eq!(parsed, vec![spec]);
            }
        }
    }
}
