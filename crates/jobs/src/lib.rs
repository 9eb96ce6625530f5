//! Durable distributed sweep jobs for the leakage limit study.
//!
//! `POST /v1/sweep` answers up to 512 generalized-model points in one
//! request; the paper-scale question — "give me the optimal
//! drowsy/sleep/hybrid savings over *the whole parameter space*" — is
//! millions of points and minutes of compute, which no single HTTP
//! request should hold open. This crate is that workload as a durable
//! job fabric:
//!
//! * [`spec`] — a job is a compact set of axis ranges (benchmarks ×
//!   cache sides × technology nodes × a refetch-energy sweep in
//!   permille of the node's `C_D`), never a materialized point list;
//!   a `u64` index addresses any point via mixed-radix decode, and the
//!   job id is the FNV-1a hash of the canonical spec JSON.
//! * [`checkpoint`] — completed chunks persist as FNV-1a-sealed files
//!   written temp-file + fsync + rename, read back and verified before
//!   they count; corrupt files are quarantined, never served.
//! * [`protocol`] — coordinator↔worker frames as line-delimited JSON,
//!   the worker's chunk answer, and the coordinator's bounded frame
//!   reader.
//! * [`transport`] — how those frames travel, and the one worker
//!   session every worker runs: locally-spawned children get one end
//!   of a Unix socket pair as stdin; remote workers dial `--job-listen`
//!   over TCP, admit themselves with a shared token, and redial with
//!   jittered backoff. Both heartbeat and answer assignments alike.
//! * [`fabric`] — the coordinator: submission, worker fan-out (local
//!   and remote), one deadline rule for every worker (silent past the
//!   heartbeat timeout or holding a chunk past the stall deadline: the
//!   chunk's lease expires and it is reassigned), crash recovery (a
//!   restart resumes from checkpoints and produces byte-identical
//!   results), and paginated result reads. Leases are per-chunk epochs
//!   in the runner's memory: an answer commits only under the epoch
//!   it was assigned with, so a late answer from a partitioned worker
//!   is discarded, and the first durable checkpoint wins.
//!
//! Failure injection rides the workspace-wide `LEAKAGE_FAULTS` plane.
//! Process sites: `jobs/spawn` (worker creation), `jobs/chunk`
//! (per-chunk boundary inside the worker — arm `panic#N` to kill a
//! worker deterministically), and `jobs/checkpoint` (the durable write
//! — arm `truncate:` to tear a checkpoint and watch the read-back
//! quarantine it). Network sites, visited on every data-frame send of
//! a worker link: `net/drop`, `net/delay` (latency),
//! `net/partition` (latency under the writer lock, silencing
//! heartbeats), and `net/dup`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fabric;
pub mod protocol;
pub mod spec;
pub mod transport;

pub use fabric::{
    CancelOutcome, FabricConfig, JobFabric, JobState, ResultError, SubmitError, Submitted,
    MAX_PER_PAGE, WORKER_BIN_ENV,
};
pub use transport::{run_local_worker, run_remote_worker, RemoteWorkerConfig};
pub use spec::{
    render_job_row, render_sweep_row, JobPoint, JobSpec, PermilleAxis, SpecError,
    DEFAULT_CHUNK_POINTS, MAX_CHUNK_POINTS, MIN_CHUNK_POINTS,
};
