use crate::estimate::WorkingSetModel;
use crate::queue::{check_payload, TenantSpec};
use asj_data::{DatasetSpec, PAPER_BBOX};
use asj_engine::{
    ensure_remaining, Cluster, JobReport, JobServer, JobSpec, SchedPolicy, ServerRun, SubmitError,
    Wire, WireError,
};
use asj_join::{JoinError, JoinInput, JoinSpec, PairSink};
use bytes::{Buf, BufMut};
use std::path::PathBuf;

/// What one tenant's join produced, reduced to the fields that must be
/// byte-identical between a solo run and any multi-tenant interleaving.
/// Durations and spill volumes are intentionally absent: host timings vary,
/// and a tenant's spilling follows the budget it runs under; results must
/// not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOutcome {
    pub result_count: u64,
    pub candidates: u64,
    /// Replicated objects across both inputs.
    pub replicated: u64,
    /// The join's [`PairDigest`](asj_engine::digest::PairDigest) value —
    /// the isolation oracle's fingerprint of the result pairs, folded by
    /// each partition as it finds them.
    pub checksum: u64,
}

/// Wire codec for journaled `done` records: four LE u64s, so a recovered
/// server replays a finished tenant's outcome byte-identically.
impl Wire for TenantOutcome {
    fn encoded_size(&self) -> usize {
        32
    }

    fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.result_count);
        buf.put_u64_le(self.candidates);
        buf.put_u64_le(self.replicated);
        buf.put_u64_le(self.checksum);
    }

    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        ensure_remaining(buf, 32)?;
        Ok(TenantOutcome {
            result_count: buf.get_u64_le(),
            candidates: buf.get_u64_le(),
            replicated: buf.get_u64_le(),
            checksum: buf.get_u64_le(),
        })
    }
}

/// One aligned report line per tenant, for the CLI and bench logs: the join
/// outcome, or the join's error (a failed stage, a rejected spec; the panic
/// message if the tenant crashed), which fails only its own tenant.
pub fn summary_line(report: &JobReport<TenantOutcome>) -> String {
    match &report.result {
        Ok(out) => format!(
            "job {name:<12} ok    results {results:>9}  checksum {checksum:016x}  \
             wait {wait:>8.3?}  turnaround {turnaround:>8.3?}  stages {stages:>3}  \
             retries {retries:>2}  spilled {spilled}",
            name = report.name,
            results = out.result_count,
            checksum = out.checksum,
            wait = report.queue_wait(),
            turnaround = report.turnaround(),
            stages = report.stages,
            retries = report.stats.retries,
            spilled = report.stats.spilled_bytes,
        ),
        Err(message) => format!(
            "job {name:<12} FAILED  {message}",
            name = report.name,
            message = message
        ),
    }
}

/// Typed failure of [`run_queue`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A tenant's spec could not be turned into a job (bad fault plan, …).
    Spec { tenant: String, message: String },
    /// The job server refused the tenant at submit time.
    Submit { tenant: String, error: SubmitError },
    /// The journal or checkpoint store could not be opened/read (message
    /// carries the rendered io error; kept as a string so `ServeError` stays
    /// `Clone + PartialEq`).
    Io { context: String, message: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Spec { tenant, message } => {
                write!(f, "tenant '{tenant}': {message}")
            }
            ServeError::Submit { tenant, error } => {
                write!(f, "tenant '{tenant}' rejected: {error}")
            }
            ServeError::Io { context, message } => {
                write!(f, "{context}: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One side of a tenant's input: generated records, each input partition
/// made inside the join's tasks that read it (points only for the sample,
/// the records for the shuffle's map task) and dropped after, so no tenant
/// holds its input between quanta. `payload=0` produces bare records (an
/// empty payload encodes identically).
fn tenant_input(tenant: &TenantSpec, seed: u64) -> JoinInput {
    let spec = DatasetSpec {
        name: "serve",
        kind: tenant.kind,
        cardinality: tenant.cardinality,
        seed,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    };
    let n = spec.cardinality;
    JoinInput::generated(
        n,
        move |ids| spec.block_stream(ids),
        tenant.payload as usize,
    )
}

pub(crate) fn tenant_join_spec(tenant: &TenantSpec) -> JoinSpec {
    JoinSpec::new(PAPER_BBOX, tenant.eps)
        .with_partitions(tenant.partitions)
        .with_grid_factor(tenant.grid_factor)
        .with_kernel(tenant.kernel)
        .with_seed(tenant.seed)
        .with_sink(PairSink::Digest)
}

fn run_tenant_body(tenant: &TenantSpec, cluster: &Cluster) -> Result<TenantOutcome, JoinError> {
    // The inputs are made inside the join's stages, in the tenant's quanta;
    // the checksum is folded inside the join's tasks.
    let spec = tenant_join_spec(tenant);
    let side = |k| tenant_input(tenant, tenant.seed.wrapping_add(k));
    let out = tenant.algorithm.try_run(cluster, &spec, side(0), side(1))?;
    debug_assert_eq!(out.digest.count, out.result_count);
    Ok(TenantOutcome {
        result_count: out.result_count,
        candidates: out.candidates,
        replicated: out.replicated_total(),
        checksum: out.digest.value(),
    })
}

/// Builds the [`JobSpec`] for one tenant: the join body, the fair-share
/// weight, the tenant's own fault plan and the working-set estimate
/// (override, or the [`WorkingSetModel`]'s).
pub fn tenant_job(tenant: &TenantSpec, nodes: usize) -> Result<JobSpec<TenantOutcome>, String> {
    // Same text as the queue parser, for a spec built in code.
    check_payload(tenant.payload)?;
    let estimate = tenant
        .estimate_override
        .unwrap_or_else(|| WorkingSetModel::default().estimate(tenant, nodes));
    let owned = tenant.clone();
    let mut spec = JobSpec::new(tenant.name.clone(), move |cluster: &Cluster| {
        run_tenant_body(&owned, cluster)
    })
    .with_weight(tenant.weight)
    .with_estimate(estimate);
    if let Some((plan, policy)) = tenant.fault_setup()? {
        spec = spec.with_faults(plan, policy);
    }
    Ok(spec)
}

/// Durability options for [`run_queue`]: where (and whether) to journal
/// server state and checkpoint stage outputs, and whether this run resumes a
/// crashed one. The default is none of it: an in-memory run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Append-only JSONL write-ahead journal. Created fresh unless
    /// `recover` is set (then it is read, and reopened for append).
    pub journal: Option<PathBuf>,
    /// Directory for per-stage shuffle checkpoints (manifest + segment
    /// pairs). Opened (and swept of orphaned debris) at startup.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from the journal: finished tenants replay their journaled
    /// outcomes, in-flight tenants re-run against their checkpoints.
    pub recover: bool,
    /// Compact the journal after every N durable completions (the server's
    /// `--compact-every` option); `None` leaves the journal append-only.
    pub compact_every: Option<u64>,
}

/// Runs a whole tenant queue on `cluster` under `policy` and reports every
/// tenant in submit order — the engine's [`ServerRun`], one
/// [`JobReport`] per tenant. Admission estimates come from the
/// [`WorkingSetModel`], each tenant's payload included. With `options` the run journals server state,
/// checkpoints completed stages, or resumes from a prior crashed run's
/// journal + checkpoint directory.
pub fn run_queue(
    cluster: &Cluster,
    tenants: &[TenantSpec],
    policy: SchedPolicy,
    options: &RecoveryOptions,
) -> Result<ServerRun<TenantOutcome>, ServeError> {
    let mut cluster = cluster.clone();
    if let Some(dir) = &options.checkpoint_dir {
        cluster = cluster
            .with_checkpoint_dir(dir)
            .map_err(|e| ServeError::Io {
                context: format!("opening checkpoint dir {}", dir.display()),
                message: e.to_string(),
            })?;
    }
    let mut server = JobServer::new(cluster.clone()).with_policy(policy);
    for tenant in tenants {
        let job = tenant_job(tenant, cluster.nodes()).map_err(|message| ServeError::Spec {
            tenant: tenant.name.clone(),
            message,
        })?;
        let id = server.submit(job).map_err(|error| ServeError::Submit {
            tenant: tenant.name.clone(),
            error,
        })?;
        // Checkpoint keys are `job<id>-…`: a server that does not recover
        // must never read a checkpoint it did not write, such as one another
        // queue's crashed run left under the same id.
        if let (false, Some(store)) = (options.recover, cluster.checkpoint_store()) {
            store
                .gc_scope(&format!("job{id}"))
                .map_err(|e| ServeError::Io {
                    context: format!("clearing stale checkpoints of job {id}"),
                    message: e.to_string(),
                })?;
        }
    }
    if let Some(path) = &options.journal {
        server = if options.recover {
            server.recover(path).map_err(|e| ServeError::Io {
                context: format!("recovering from journal {}", path.display()),
                message: e.to_string(),
            })?
        } else {
            server.with_journal(path).map_err(|e| ServeError::Io {
                context: format!("creating journal {}", path.display()),
                message: e.to_string(),
            })?
        };
        if let Some(every) = options.compact_every {
            server = server.with_compact_every(every);
        }
    }
    Ok(server.run())
}

/// The isolation oracle: runs `tenant` alone on a FRESH cluster of the same
/// shape (own accountant, no gate) and returns the outcome
/// a multi-tenant run must reproduce byte-identically.
pub fn solo_outcome(cluster: &Cluster, tenant: &TenantSpec) -> Result<TenantOutcome, String> {
    let mut solo = Cluster::new(cluster.config());
    if let Some((plan, policy)) = tenant.fault_setup()? {
        solo = solo.with_fault_policy(plan, policy);
    } else if let Some(ctx) = cluster.fault_context() {
        // Mirror the server: tenants without their own plan inherit the base
        // cluster's (with fresh state, as the per-job context is rebuilt).
        solo = solo.with_fault_policy(ctx.plan.clone(), ctx.policy);
    }
    run_tenant_body(tenant, &solo).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_engine::{ClusterConfig, FaultPlan, Recorder, RetryPolicy};
    use asj_join::Algorithm;
    use std::time::Duration;

    fn two_tenants() -> Vec<TenantSpec> {
        let mut a = TenantSpec::new("alpha", 0.5, 900);
        a.algorithm = Algorithm::Lpib;
        a.partitions = 8;
        a.seed = 11;
        let mut b = TenantSpec::new("beta", 0.3, 1_400);
        b.algorithm = Algorithm::UniR;
        b.partitions = 8;
        b.seed = 23;
        b.weight = 2;
        vec![a, b]
    }

    /// `run_queue` without journal or checkpoints.
    fn in_memory(
        cluster: &Cluster,
        tenants: &[TenantSpec],
        policy: SchedPolicy,
    ) -> Result<ServerRun<TenantOutcome>, ServeError> {
        run_queue(cluster, tenants, policy, &RecoveryOptions::default())
    }

    fn test_cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(4, 2))
    }

    /// A tenant's checksum is its join's pair digest: the same for every
    /// partitioning of the work, and moved by a changed answer.
    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let cluster = test_cluster();
        let tenant = &two_tenants()[0];
        let solo = solo_outcome(&cluster, tenant).expect("solo runs");
        let mut repartitioned = tenant.clone();
        repartitioned.partitions *= 3;
        let other = solo_outcome(&cluster, &repartitioned).expect("solo runs");
        assert_eq!(other.result_count, solo.result_count);
        assert_eq!(
            other.checksum, solo.checksum,
            "partition order must not matter"
        );
        let mut wider = tenant.clone();
        wider.eps *= 1.1;
        let moved = solo_outcome(&cluster, &wider).expect("solo runs");
        assert_ne!(moved.result_count, solo.result_count);
        assert_ne!(moved.checksum, solo.checksum);
        // The digest of the collected pairs, folded on the driver.
        let spec = tenant_join_spec(tenant).with_sink(PairSink::Collect);
        let (r, s) = (
            tenant_input(tenant, tenant.seed),
            tenant_input(tenant, tenant.seed + 1),
        );
        let out = tenant
            .algorithm
            .try_run(&cluster, &spec, r, s)
            .expect("join runs");
        let mut digest = asj_engine::digest::PairDigest::default();
        out.pairs.iter().for_each(|&(r, s)| digest.add(r, s));
        assert_eq!(digest.value(), solo.checksum);
    }

    #[test]
    fn queue_outcomes_match_solo_runs() {
        let cluster = test_cluster();
        let tenants = two_tenants();
        let run = in_memory(&cluster, &tenants, SchedPolicy::FairShare).expect("queue runs");
        assert_eq!(run.reports.len(), 2);
        for (tenant, report) in tenants.iter().zip(&run.reports) {
            let solo = solo_outcome(&cluster, tenant).expect("solo runs");
            let shared = report.result.as_ref().expect("tenant succeeded");
            assert_eq!(shared, &solo, "tenant '{}' isolation", tenant.name);
            assert!(shared.result_count > 0, "joins must produce results");
        }
        // Interleaved under fair-share: both tenants are served before
        // either finishes (the grant log mixes job ids).
        let first_of_1 = run.grants.iter().position(|&g| g == 1);
        let last_of_0 = run.grants.iter().rposition(|&g| g == 0);
        assert!(
            first_of_1.expect("job 1 granted") < last_of_0.expect("job 0 granted"),
            "fair-share must interleave: {:?}",
            run.grants
        );
    }

    /// Also across host thread counts: generation runs on one thread or on
    /// four, and nothing a report holds may move.
    #[test]
    fn queue_runs_are_deterministic() {
        let mut tenants = two_tenants();
        let mut payload = TenantSpec::new("gamma", 0.4, 2_500);
        payload.kind = asj_data::GenKind::Parks;
        payload.partitions = 16;
        payload.seed = 37;
        payload.payload = 96;
        tenants.push(payload);
        let run = |threads| {
            let cluster = Cluster::new(ClusterConfig::with_threads(4, threads));
            in_memory(&cluster, &tenants, SchedPolicy::FairShare).expect("queue runs")
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.grants, b.grants, "grant log is deterministic");
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(
                x.result.as_ref().expect("ok"),
                y.result.as_ref().expect("ok"),
                "outcomes are deterministic"
            );
            // Queue waits and turnarounds are simulated-clock values built
            // from measured stage makespans: reproducible in ORDER (the
            // grant log) but not to the nanosecond, so they are not
            // asserted equal here.
            assert_eq!(x.stages, y.stages, "stage counts are deterministic");
            assert_eq!(x.quanta, y.quanta);
        }
    }

    /// A tenant's report is billed each stage's stats as the stage returns
    /// them, once: under a small budget every tenant spills, and its
    /// report's spilled bytes are what its own shuffles counted.
    #[test]
    fn a_tenant_report_holds_its_own_spills() {
        let recorder = Recorder::for_nodes(4);
        let cluster = Cluster::new(ClusterConfig::with_threads(4, 2).with_memory_budget(4 << 10))
            .with_recorder(recorder.clone());
        let mut tenants = two_tenants();
        for tenant in &mut tenants {
            tenant.estimate_override = Some(1 << 10);
        }
        let run = in_memory(&cluster, &tenants, SchedPolicy::FairShare).expect("queue runs");
        let counters = recorder.metrics().counters;
        assert_eq!(run.reports.len(), 2);
        for (job, report) in run.reports.iter().enumerate() {
            let prefix = format!("job:{job}:");
            let traced: u64 = counters
                .iter()
                .filter(|((stage, name), _)| stage.starts_with(&prefix) && name == "spill_bytes")
                .map(|(_, bytes)| bytes)
                .sum();
            assert!(report.result.is_ok(), "{}", report.name);
            assert!(
                report.stats.spilled_bytes > 0,
                "{} spilled nothing",
                report.name
            );
            assert_eq!(report.stats.spilled_bytes, traced, "{}", report.name);
        }
    }

    #[test]
    fn oversized_tenant_is_a_typed_submit_error() {
        let cluster = Cluster::new(ClusterConfig::with_threads(4, 2).with_memory_budget(1 << 20));
        let mut tenants = two_tenants();
        tenants[1].estimate_override = Some(u64::MAX);
        let err = in_memory(&cluster, &tenants, SchedPolicy::Fifo).unwrap_err();
        match err {
            ServeError::Submit {
                tenant,
                error: SubmitError::RejectedMemory { budget_bytes, .. },
            } => {
                assert_eq!(tenant, "beta");
                assert_eq!(budget_bytes, 1 << 20);
            }
            other => panic!("expected RejectedMemory, got {other:?}"),
        }
    }

    #[test]
    fn bad_fault_spec_is_a_typed_spec_error() {
        // A crash clause stops the whole server, so a tenant's copy is
        // refused rather than silently ignored.
        for (faults, needle) in [
            ("gremlins", "fault clause 'gremlins'"),
            (
                "crash@2",
                "'crash@2' stops the whole server, not one tenant",
            ),
        ] {
            let mut tenants = two_tenants();
            tenants[0].faults = Some(faults.into());
            let err = in_memory(&test_cluster(), &tenants, SchedPolicy::Fifo).unwrap_err();
            match err {
                ServeError::Spec { tenant, message } => {
                    assert_eq!(tenant, "alpha");
                    assert!(message.contains(needle), "{message}");
                }
                other => panic!("expected Spec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_payload_in_a_coded_spec_gets_the_queue_parsers_error() {
        let mut tenants = two_tenants();
        tenants[1].payload = asj_join::MAX_PAYLOAD_BYTES as u64 + 1;
        let parsed = crate::parse_queue(&tenants[1].to_string()).unwrap_err();
        let err = in_memory(&test_cluster(), &tenants, SchedPolicy::Fifo).unwrap_err();
        match err {
            ServeError::Spec { tenant, message } => {
                assert_eq!(tenant, "beta");
                assert_eq!(message, parsed.message);
                assert!(message.contains("at most 4194303 bytes"), "{message}");
            }
            other => panic!("expected Spec error, got {other:?}"),
        }
        assert_eq!(tenant_job(&tenants[1], 4).err(), Some(parsed.message));
    }

    #[test]
    fn faulty_tenant_retries_without_touching_the_calm_one() {
        let mut tenants = two_tenants();
        tenants[0].faults = Some("p=0.4".into());
        tenants[0].max_attempts = Some(8);
        let run = in_memory(&test_cluster(), &tenants, SchedPolicy::FairShare).expect("runs");
        let chaotic = &run.reports[0];
        let calm = &run.reports[1];
        assert_eq!(calm.stats.retries, 0, "fault plans are per-tenant");
        // The chaotic tenant still matches its solo outcome (recovery is
        // deterministic given the plan seed).
        let solo = solo_outcome(&test_cluster(), &tenants[0]).expect("solo");
        assert_eq!(chaotic.result.as_ref().expect("recovered"), &solo);
    }

    #[test]
    fn unsurvivable_tenant_fails_alone_with_the_job_error() {
        let mut tenants = two_tenants();
        tenants[0].faults = Some("p=1.0".into());
        tenants[0].max_attempts = Some(2);
        let run = in_memory(&test_cluster(), &tenants, SchedPolicy::FairShare).expect("runs");
        let message = run.reports[0].result.as_ref().expect_err("doomed");
        assert!(
            message.starts_with("stage 'sample' task 0 failed after 2 attempt(s)"),
            "{message}"
        );
        assert_eq!(
            solo_outcome(&test_cluster(), &tenants[0]).as_ref(),
            Err(message),
            "the solo run fails the same way"
        );
        let solo = solo_outcome(&test_cluster(), &tenants[1]).expect("solo");
        assert_eq!(run.reports[1].result.as_ref().expect("calm tenant"), &solo);
    }

    #[test]
    fn zero_max_attempts_is_a_spec_error_not_a_panic() {
        let mut tenants = two_tenants();
        tenants[0].max_attempts = Some(0);
        let message = "max-attempts must be positive".to_string();
        assert_eq!(
            in_memory(&test_cluster(), &tenants, SchedPolicy::FairShare).err(),
            Some(ServeError::Spec {
                tenant: tenants[0].name.clone(),
                message: message.clone(),
            })
        );
        assert_eq!(solo_outcome(&test_cluster(), &tenants[0]), Err(message));
    }

    #[test]
    fn estimator_prices_payload_bytes_in() {
        // Regression: the estimator once priced every tenant's records as
        // bare ones, under-admitting by the whole payload volume.
        let bare = TenantSpec::new("bare", 0.4, 2_000);
        let mut fat = bare.clone();
        fat.payload = 256;
        let model = WorkingSetModel::default();
        let (bare_est, fat_est) = (model.estimate(&bare, 4), model.estimate(&fat, 4));
        assert!(
            fat_est > bare_est,
            "payload bytes must grow the estimate: {fat_est} vs {bare_est}"
        );
        // The growth is at least the payload's share of the record: bare
        // records are ~28 B, so 256 B payloads must grow the estimate
        // several-fold, not marginally.
        assert!(
            fat_est > bare_est * 4,
            "256 B payloads on ~28 B records: {fat_est} vs {bare_est}"
        );
    }

    /// The admission estimate of every tenant of the benchmark's `asj serve`
    /// queue (full scale, benchmark seed 1) at 4 nodes and at `asj serve`'s
    /// default 12. The values were taken while each tenant's record size was
    /// still measured on 256 of its generated records, so computing it from
    /// `payload` moves no admission decision.
    #[test]
    fn benchmark_queue_estimates_are_pinned() {
        let queue = "\
job big-gauss algo=lpib eps=0.15 n=125000 kind=gaussian seed=11 payload=64 partitions=96
job parks-hyd algo=lpib eps=0.12 n=100000 kind=parks seed=21 payload=128 partitions=96
job hydro algo=diff eps=0.12 n=100000 kind=hydrography seed=31 payload=64 partitions=96
job uni-r algo=uni-r eps=0.15 n=60000 kind=gaussian seed=41 payload=256 partitions=96
job small-a algo=lpib eps=0.25 n=20000 kind=uniform seed=52 payload=32 partitions=32
job small-b algo=eps-grid eps=0.25 n=20000 kind=gaussian seed=61 payload=32 partitions=32
job small-c algo=sedona eps=0.25 n=20000 kind=parks seed=71 payload=32 partitions=32
job dedup algo=lpib-dedup eps=0.2 n=30000 kind=gaussian seed=81 payload=64 partitions=64
";
        let pinned = [
            ("big-gauss", 230_000_000, 76_666_667),
            ("parks-hyd", 312_000_000, 104_000_000),
            ("hydro", 184_000_000, 61_333_334),
            ("uni-r", 340_800_000, 113_600_000),
            ("small-a", 24_000_000, 8_000_000),
            ("small-b", 24_000_000, 8_000_000),
            ("small-c", 24_000_000, 8_000_000),
            ("dedup", 55_200_000, 18_400_000),
        ];
        let tenants = crate::parse_queue(queue).expect("the benchmark queue parses");
        assert_eq!(tenants.len(), pinned.len());
        let model = WorkingSetModel::default();
        for (t, (name, at_4, at_12)) in tenants.iter().zip(pinned) {
            assert_eq!(t.name, name);
            let got = (model.estimate(t, 4), model.estimate(t, 12));
            assert_eq!(got, (at_4, at_12), "{name}");
        }
    }

    #[test]
    fn payload_tenants_join_like_bare_ones() {
        // Payload bytes ride the shuffle but must not change join results.
        let mut tenants = two_tenants();
        tenants[0].payload = 64;
        let run = in_memory(&test_cluster(), &tenants, SchedPolicy::FairShare).expect("runs");
        let solo = solo_outcome(&test_cluster(), &tenants[0]).expect("solo");
        assert_eq!(run.reports[0].result.as_ref().expect("ok"), &solo);
        assert!(solo.result_count > 0);
    }

    #[test]
    fn tenant_outcome_wire_roundtrips() {
        let out = TenantOutcome {
            result_count: 1,
            candidates: 2,
            replicated: 3,
            checksum: 0xDEAD_BEEF_F00D_CAFE,
        };
        let mut buf = Vec::new();
        out.encode(&mut buf);
        assert_eq!(buf.len(), out.encoded_size());
        let mut cursor: &[u8] = &buf;
        assert_eq!(TenantOutcome::try_decode(&mut cursor), Ok(out));
        assert!(cursor.is_empty());
        let mut short: &[u8] = &buf[..16];
        assert!(TenantOutcome::try_decode(&mut short).is_err());
    }

    #[test]
    fn crashed_queue_recovers_with_identical_outcomes() {
        let dir = std::env::temp_dir().join(format!("asj-serve-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let journal = dir.join("server.journal");

        let tenants = two_tenants();
        // Uncrashed oracle.
        let oracle = in_memory(&test_cluster(), &tenants, SchedPolicy::FairShare).expect("oracle");

        // Crash the journaled, checkpointed run two grants shy of done: by
        // then at least one tenant has completed shuffle stages (so the
        // recovery leg has checkpoints to replay) and at least one tenant
        // is still unfinished (so there is something to recover).
        let crash_at = (oracle.grants.len() as u64).saturating_sub(2).max(1);
        let crash_cluster = test_cluster().with_fault_policy(
            FaultPlan::none().with_crash_after_grants(crash_at),
            RetryPolicy::default(),
        );
        let opts = RecoveryOptions {
            journal: Some(journal.clone()),
            checkpoint_dir: Some(dir.clone()),
            recover: false,
            compact_every: None,
        };
        let crashed = run_queue(&crash_cluster, &tenants, SchedPolicy::FairShare, &opts)
            .expect("crashing run");
        assert!(crashed.crashed);
        assert_eq!(crashed.grants[..], oracle.grants[..crash_at as usize]);

        // Recover on a fresh cluster: byte-identical outcomes, journaled
        // grant prefix intact.
        let opts = RecoveryOptions {
            journal: Some(journal),
            checkpoint_dir: Some(dir.clone()),
            recover: true,
            compact_every: None,
        };
        let recovered = run_queue(&test_cluster(), &tenants, SchedPolicy::FairShare, &opts)
            .expect("recovered run");
        assert!(!recovered.crashed);
        assert_eq!(
            recovered.journal_grants[..],
            oracle.grants[..crash_at as usize]
        );
        for (a, b) in oracle.reports.iter().zip(&recovered.reports) {
            assert_eq!(
                a.result.as_ref().expect("oracle ok"),
                b.result.as_ref().expect("recovered ok"),
                "tenant '{}' must recover byte-identically",
                a.name
            );
        }
        // The crashed run checkpointed at least one completed shuffle stage
        // that the recovery replayed instead of recomputing.
        assert!(crashed.checkpoint_bytes > 0);
        assert!(recovered.stages_recovered > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_lines_render_both_arms() {
        let mut report = JobReport {
            id: 0,
            name: "alpha".into(),
            weight: 1,
            estimate_bytes: 1024,
            result: Ok(TenantOutcome {
                result_count: 42,
                candidates: 99,
                replicated: 7,
                checksum: 0xDEAD_BEEF,
            }),
            stats: Default::default(),
            stages: 4,
            quanta: 5,
            admitted_at: Duration::ZERO,
            first_service_at: Duration::from_millis(3),
            finished_at: Duration::from_millis(9),
            recovered: false,
        };
        let line = summary_line(&report);
        assert!(line.contains("alpha") && line.contains("ok"), "{line}");
        assert!(line.contains("00000000deadbeef"), "{line}");
        report.result = Err("boom".into());
        let line = summary_line(&report);
        assert!(line.contains("FAILED") && line.contains("boom"), "{line}");
    }
}
