//! Multi-tenant front end over the engine's [`JobServer`]: parse a tenant
//! queue file, estimate each tenant's working set for admission control, run
//! the queue under a scheduling policy and report per-tenant observables.
//!
//! The engine crate owns the mechanism (lockstep fair-share scheduling,
//! per-job obs lanes, fault/memory isolation — `asj_engine::jobs`);
//! this crate owns the *driver surface*: what a tenant IS (an ε-join over
//! generated inputs), how its memory footprint is estimated before any task
//! runs, and how a multi-tenant run is checked against solo runs.
//!
//! ```
//! use asj_engine::{Cluster, ClusterConfig, SchedPolicy};
//! use asj_serve::{parse_queue, run_queue, solo_outcome, RecoveryOptions};
//!
//! let queue = parse_queue(
//!     "job alpha algo=lpib eps=0.5 n=600 partitions=8 seed=11\n\
//!      job beta  algo=uni-r eps=0.3 n=900 partitions=8 seed=23 weight=2\n",
//! )
//! .expect("queue parses");
//! let cluster = Cluster::new(ClusterConfig::with_threads(4, 2));
//! let run = run_queue(&cluster, &queue, SchedPolicy::FairShare, &RecoveryOptions::default())
//!     .expect("runs");
//! for (tenant, report) in queue.iter().zip(&run.reports) {
//!     let solo = solo_outcome(&cluster, tenant).expect("solo");
//!     assert_eq!(report.result.as_ref().expect("ok"), &solo, "isolation");
//! }
//! ```
//!
//! [`JobServer`]: asj_engine::JobServer

mod estimate;
mod options;
mod queue;
mod run;

pub use estimate::WorkingSetModel;
pub use options::{synopsis, Opt, Options, Spelling, ROWS};
pub use queue::{parse_bytes, parse_queue, QueueError, TenantSpec, QUEUE_KEYS};
pub use run::{
    run_queue, solo_outcome, summary_line, tenant_job, RecoveryOptions, ServeError, TenantOutcome,
};
