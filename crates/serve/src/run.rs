use crate::estimate::WorkingSetModel;
use crate::queue::{check_payload, TenantSpec};
use asj_data::{DatasetSpec, PAPER_BBOX};
use asj_engine::{
    ensure_remaining, on_host_threads, Cluster, Dataset, Fnv1a, JobReport, JobServer, JobSpec,
    SchedPolicy, ServerRun, SubmitError, Wire, WireError,
};
use asj_join::{to_record_partitions, JoinError, JoinSpec, Record};
use bytes::{Buf, BufMut};
use std::convert::Infallible;
use std::hash::Hasher;
use std::path::PathBuf;

/// What one tenant's join produced, reduced to the fields that must be
/// byte-identical between a solo run and any multi-tenant interleaving.
/// Durations and spill volumes are intentionally absent: host timings and
/// shared-accountant pressure vary; results must not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOutcome {
    pub result_count: u64,
    pub candidates: u64,
    /// Replicated objects across both inputs.
    pub replicated: u64,
    /// FNV-1a over the sorted result pairs (and the count) — the isolation
    /// oracle's fingerprint.
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

/// Fewest packed keys [`checksum_pairs`] gives one host thread to sort: a
/// shorter list sorts faster than threads start.
const MIN_SORT_RUN: usize = 1 << 12;

/// FNV-1a 64 over the result cardinality and the sorted `(r, s)` pairs.
/// Sorting first makes the fingerprint independent of partition emit order.
/// When every id fits 32 bits (generated ids always do) the pairs are sorted
/// as packed `r << 32 | s` keys — the same order at half the bytes moved —
/// in contiguous runs on up to `threads` host threads, and the runs are
/// merged as they are hashed; otherwise they are sorted as tuples, serially.
/// Both feed the same stream to the hash.
pub fn checksum_pairs(
    threads: usize,
    result_count: u64,
    pairs: impl Iterator<Item = (u64, u64)> + Clone + Sync,
) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write_u64(result_count);
    if pairs.clone().all(|(r, s)| (r | s) >> 32 == 0) {
        let n = pairs.clone().count();
        let runs = threads.min(n / MIN_SORT_RUN).max(1);
        let per_run = n.div_ceil(runs);
        let runs = on_host_threads(threads, runs, |t, _| {
            let mut keys = Vec::with_capacity(per_run);
            let run = pairs.clone().skip(t * per_run).take(per_run);
            keys.extend(run.map(|(r, s)| r << 32 | s));
            keys.sort_unstable();
            Ok::<_, Infallible>(keys)
        })
        .unwrap_or_else(|never| match never {});
        merge_runs(&runs, |key| {
            hash.write_u64(key >> 32);
            hash.write_u64(key & u64::from(u32::MAX));
        });
    } else {
        let mut sorted: Vec<(u64, u64)> = pairs.collect();
        sorted.sort_unstable();
        for (r, s) in sorted {
            hash.write_u64(r);
            hash.write_u64(s);
        }
    }
    hash.finish()
}

/// Visits the keys of the sorted `runs` in one ascending pass.
fn merge_runs(runs: &[Vec<u64>], mut visit: impl FnMut(u64)) {
    let mut heads: Vec<&[u64]> = runs
        .iter()
        .map(Vec::as_slice)
        .filter(|run| !run.is_empty())
        .collect();
    while heads.len() > 1 {
        let mut min = 0;
        for i in 1..heads.len() {
            if heads[i][0] < heads[min][0] {
                min = i;
            }
        }
        visit(heads[min][0]);
        heads[min] = &heads[min][1..];
        if heads[min].is_empty() {
            heads.swap_remove(min);
        }
    }
    if let Some(last) = heads.pop() {
        last.iter().copied().for_each(visit);
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

/// One side of a tenant's input, generated straight into `parts` input
/// partitions. `payload=0` produces bare records (an empty payload encodes
/// identically), so payload-free checksums are unchanged.
fn tenant_input(tenant: &TenantSpec, seed: u64, parts: usize) -> Dataset<Record> {
    let points = DatasetSpec {
        name: "serve",
        kind: tenant.kind,
        cardinality: tenant.cardinality,
        seed,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    }
    .stream();
    to_record_partitions(points, tenant.payload as usize, parts)
}

pub(crate) fn tenant_join_spec(tenant: &TenantSpec) -> JoinSpec {
    JoinSpec::new(PAPER_BBOX, tenant.eps)
        .with_partitions(tenant.partitions)
        .with_grid_factor(tenant.grid_factor)
        .with_kernel(tenant.kernel)
        .with_seed(tenant.seed)
}

fn run_tenant_body(tenant: &TenantSpec, cluster: &Cluster) -> Result<TenantOutcome, JoinError> {
    // Generation and the checksum run inside the tenant's quanta, on the
    // cluster's host threads while every other job is parked; as phases they
    // put the whole quantum in the trace.
    let recorder = cluster.recorder();
    let threads = cluster.threads();
    let spec = tenant_join_spec(tenant);
    let (r, s) = recorder.phase("generate", || {
        let sides = on_host_threads(threads, 2, |side, _| {
            let seed = tenant.seed.wrapping_add(side as u64);
            Ok::<_, Infallible>(tenant_input(tenant, seed, spec.input_partitions))
        })
        .unwrap_or_else(|never| match never {});
        <[_; 2]>::try_from(sides)
            .map(|[r, s]| (r, s))
            .expect("one input per side")
    });
    let out = tenant.algorithm.try_run(cluster, &spec, r, s)?;
    let checksum = recorder.phase("checksum", || {
        checksum_pairs(threads, out.result_count, out.pairs.iter().copied())
    });
    Ok(TenantOutcome {
        result_count: out.result_count,
        candidates: out.candidates,
        replicated: out.replicated_total(),
        checksum,
    })
}

/// Builds the [`JobSpec`] for one tenant: the join body, the fair-share
/// weight, the tenant's own fault plan and the working-set estimate
/// (override, or [`calibrated_model_for`] the tenant applied to its sampled
/// inputs).
pub fn tenant_job(tenant: &TenantSpec, nodes: usize) -> Result<JobSpec<TenantOutcome>, String> {
    // Same text as the queue parser, for a spec built in code — and before
    // the calibration probe generates a single record of that size.
    check_payload(tenant.payload)?;
    let estimate = tenant
        .estimate_override
        .unwrap_or_else(|| calibrated_model_for(tenant).estimate(tenant, nodes));
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
/// [`JobReport`] per tenant. Admission estimates come from a
/// [`WorkingSetModel`] calibrated per tenant on its own sampled records
/// (payload included). With `options` the run journals server state,
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
    let mut server = JobServer::new(cluster.clone())
        .with_policy(policy)
        .with_queue_capacity(tenants.len().max(1));
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

/// The estimator model [`run_queue`] uses for one tenant: record size
/// calibrated on a small sample of that tenant's own generated records.
/// Per-tenant, not per-queue: a tenant carrying `payload=` bytes encodes
/// fatter records than its payload-free neighbors, and pricing them with a
/// payload-free probe under-admits by the whole payload volume (the bug this
/// replaces: the old model calibrated once on the first tenant's bare
/// records and applied it queue-wide).
pub fn calibrated_model_for(tenant: &TenantSpec) -> WorkingSetModel {
    let mut probe = tenant.clone();
    probe.cardinality = tenant.cardinality.min(256);
    WorkingSetModel::calibrated(&tenant_input(&probe, probe.seed, 1).partitions()[0])
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
    use asj_engine::{ClusterConfig, FaultPlan, RetryPolicy};
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

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let checksum =
            |count, pairs: &[(u64, u64)]| checksum_pairs(2, count, pairs.iter().copied());
        let a = checksum(2, &[(1, 2), (3, 4)]);
        let b = checksum(2, &[(3, 4), (1, 2)]);
        assert_eq!(a, b, "pair order must not matter");
        assert_ne!(a, checksum(2, &[(1, 2), (3, 5)]));
        assert_ne!(checksum(0, &[]), checksum(1, &[]));
    }

    /// The tuple-sort definition `checksum_pairs` must reproduce whichever
    /// sort it picks.
    fn checksum_reference(result_count: u64, pairs: &[(u64, u64)]) -> u64 {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        let mut hash = Fnv1a::default();
        hash.write_u64(result_count);
        for (r, s) in sorted {
            hash.write_u64(r);
            hash.write_u64(s);
        }
        hash.finish()
    }

    mod checksum_props {
        use super::*;
        use proptest::prelude::*;

        /// Ids below 2³² (clustered, so duplicates and ties on `r` occur),
        /// just around the boundary, and anywhere in `u64`.
        fn arb_id() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..8,
                any::<u32>().prop_map(u64::from),
                (u64::from(u32::MAX) - 1)..(u64::from(u32::MAX) + 3),
                any::<u64>(),
            ]
        }

        proptest! {
            /// Short lists sort in one run; a quarter of the `long` lists
            /// hold two to five runs' worth of keys (`r` below `span`, so
            /// with ties) and split into as many runs as there are host
            /// threads. Whichever way a list is cut, the merge must hash
            /// what one sort does.
            #[test]
            fn packed_and_tuple_sorts_hash_alike(
                small in prop::collection::vec((0u64..1 << 32, 0u64..1 << 32), 0..200),
                mixed in prop::collection::vec((arb_id(), arb_id()), 0..200),
                long in (
                    prop_oneof![0usize..200, 0usize..200, 0usize..200, 2 * MIN_SORT_RUN..5 * MIN_SORT_RUN],
                    any::<u64>(),
                    1u64..1 << 20,
                ),
                count in any::<u64>(),
            ) {
                let (len, salt, span) = long;
                let long: Vec<(u64, u64)> = (0..len as u64)
                    .map(|i| {
                        let x = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        ((x >> 40) % span, x & u64::from(u32::MAX))
                    })
                    .collect();
                let want = [&small, &mixed, &long].map(|pairs| checksum_reference(count, pairs));
                for threads in [1, 2, 4] {
                    let got = [&small, &mixed, &long]
                        .map(|pairs| checksum_pairs(threads, count, pairs.iter().copied()));
                    prop_assert_eq!(got, want, "{} host threads", threads);
                }
            }
        }
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
            assert_eq!(report.residual_bytes, 0, "leak audit");
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

    /// Also across host thread counts: generation and the checksum sort run
    /// on one thread or on four, and nothing a report holds may move.
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
        // Regression: the estimator used to calibrate on payload-free
        // samples queue-wide, so a payload-carrying tenant was priced as if
        // its records were bare — under-admitting by the payload volume.
        let bare = TenantSpec::new("bare", 0.4, 2_000);
        let mut fat = bare.clone();
        fat.payload = 256;
        let bare_est = calibrated_model_for(&bare).estimate(&bare, 4);
        let fat_est = calibrated_model_for(&fat).estimate(&fat, 4);
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
            residual_bytes: 0,
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
