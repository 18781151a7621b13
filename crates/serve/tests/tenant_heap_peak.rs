//! Serve tenants do not hold their inputs: each input partition is made by
//! the task that reads it and dropped after, so a tenant that is parked
//! before its shuffles holds nothing. Two tenants of equal size, the first
//! weighted to run all its stages before the second's second quantum: the
//! heap high-water mark stays below what the two inputs and the shuffled
//! rows take, by more than one tenant's whole input — which is what eager
//! inputs kept beside the first tenant's shuffled rows. This lives in its
//! own integration-test binary so the counting global allocator only ever
//! observes this one test.

#[path = "../../join/tests/heap/mod.rs"]
mod heap;

use asj_engine::{Cluster, ClusterConfig, SchedPolicy};
use asj_join::Record;
use asj_serve::{run_queue, RecoveryOptions, TenantSpec};
use std::mem::size_of;

#[test]
fn parked_tenants_hold_no_input() {
    const N: usize = 20_000;
    const PAYLOAD: usize = 256;
    let tenants: Vec<TenantSpec> = [8, 1]
        .into_iter()
        .enumerate()
        .map(|(i, weight)| {
            let mut t = TenantSpec::new(format!("t{i}"), 0.3, N);
            t.payload = PAYLOAD as u64;
            t.weight = weight;
            t.partitions = 16;
            t.seed = 11 + 10 * i as u64;
            t
        })
        .collect();
    let cluster = Cluster::new(ClusterConfig::with_threads(4, 1));
    let options = RecoveryOptions::default();
    let (run, peak) =
        heap::peak_during(|| run_queue(&cluster, &tenants, SchedPolicy::FairShare, &options));
    let run = run.expect("queue runs");
    let replicated: u64 = run
        .reports
        .iter()
        .map(|r| r.result.as_ref().expect("tenant runs").replicated)
        .sum();
    // Each tenant's input is 2N records with their payloads; the shuffles
    // make one keyed row per record and replica.
    let tenant_input = 2 * N * (size_of::<Record>() + PAYLOAD);
    let inputs = tenants.len() * tenant_input;
    let rows = (tenants.len() * 2 * N + replicated as usize) * size_of::<(u64, Record)>();
    assert!(
        peak + tenant_input <= inputs + rows,
        "heap peak {peak} B: the inputs are {inputs} B and the shuffled rows {rows} B, \
         so a tenant's input of {tenant_input} B was held beside the other's rows"
    );
}
