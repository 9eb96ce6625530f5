//! The crash matrix: one golden (fault-free) run of a sharded job,
//! then the same job replayed under every failure mode the fabric
//! claims to survive — worker panics at chunk boundaries, stalled
//! workers, torn checkpoint writes, a coordinator restart, checkpoint
//! corruption discovered at read time, and (over the TCP transport)
//! dropped frames, duplicated frames, network partitions with
//! late-arriving commits, and killed remote workers. Every scenario
//! must complete and serve result pages byte-identical to the golden
//! run.
//!
//! Scenarios run sequentially inside one `#[test]` because the torn-
//! write scenario arms the process-global fault plane; parallel
//! scenarios would race on it. (The network scenarios arm faults only
//! in the *worker* processes' environment, so they cannot race, but
//! they stay in line for determinism.)

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_experiments::{query, ProfileStore};
use leakage_faults::inject::{set_plane, Plane};
use leakage_jobs::{FabricConfig, JobFabric, JobSpec, PermilleAxis, ResultError};
use leakage_telemetry::json::{self, Json};
use leakage_workloads::Scale;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Page size used everywhere, chosen to leave a partial last page.
const PER_PAGE: u64 = 25;
const DEADLINE: Duration = Duration::from_secs(180);

/// The matrix job: 2 benchmarks × 2 sides × 4 nodes × 7 permille
/// steps = 112 points in 7 chunks of 16 — small enough to finish in
/// CI, sharded enough that every failure mode has chunks to bite.
fn matrix_spec() -> JobSpec {
    JobSpec::build(
        "crash-matrix",
        Scale::Test,
        vec!["gzip".to_string(), "mesa".to_string()],
        vec![Level1::Instruction, Level1::Data],
        TechnologyNode::ALL.to_vec(),
        PermilleAxis {
            from: 940,
            to: 1000,
            step: 10,
        },
        16,
    )
    .expect("matrix spec is valid")
}

fn scenario_dir(scenario: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("leakage-crash-matrix-{}", std::process::id()))
        .join(scenario);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fabric(dir: PathBuf, workers: usize, env: &[(&str, &str)]) -> Arc<JobFabric> {
    fabric_with_deadline(dir, workers, env, Duration::from_secs(30))
}

fn fabric_with_deadline(
    dir: PathBuf,
    workers: usize,
    env: &[(&str, &str)],
    stall_deadline: Duration,
) -> Arc<JobFabric> {
    JobFabric::start(FabricConfig {
        jobs_dir: dir,
        workers,
        stall_deadline,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_leakage-job-worker"))),
        worker_env: env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        max_active_jobs: 4,
        ..FabricConfig::default()
    })
    .expect("fabric starts")
}

const SOCKET_TOKEN: &str = "matrix-secret";

/// A coordinator with zero local workers: all compute arrives over
/// the TCP listener.
fn remote_fabric(
    dir: PathBuf,
    heartbeat_timeout: Duration,
    stall_deadline: Duration,
) -> Arc<JobFabric> {
    JobFabric::start(FabricConfig {
        jobs_dir: dir,
        workers: 0,
        stall_deadline,
        listen: Some("127.0.0.1:0".to_string()),
        token: Some(SOCKET_TOKEN.to_string()),
        heartbeat_timeout,
        max_active_jobs: 4,
        ..FabricConfig::default()
    })
    .expect("listening fabric starts")
}

/// Spawns one external `leakage-job-worker --connect` process.
/// `faults` arms that worker's `LEAKAGE_FAULTS` plane (net sites
/// fire inside its socket transport).
fn spawn_remote_worker(fabric: &Arc<JobFabric>, hb_ms: u64, faults: Option<&str>) -> Child {
    let addr = fabric.remote_addr().expect("fabric is listening");
    let mut command = Command::new(env!("CARGO_BIN_EXE_leakage-job-worker"));
    command
        .arg("--connect")
        .arg(addr.to_string())
        .arg("--token")
        .arg(SOCKET_TOKEN)
        .arg("--hb-ms")
        .arg(hb_ms.to_string())
        .arg("--max-dials")
        .arg("200")
        .env_remove("LEAKAGE_FAULTS");
    if let Some(spec) = faults {
        command.env("LEAKAGE_FAULTS", spec);
    }
    command.spawn().expect("spawn remote worker")
}

fn reap_workers(mut workers: Vec<Child>) {
    for worker in &mut workers {
        let _ = worker.kill();
        let _ = worker.wait();
    }
}

fn status(fabric: &Arc<JobFabric>, id: &str) -> Json {
    let text = fabric.status_json(id).expect("job is registered");
    json::parse(&text).expect("status parses")
}

fn field(status: &Json, name: &str) -> u64 {
    status.get(name).and_then(Json::as_f64).expect(name) as u64
}

fn wait_done(fabric: &Arc<JobFabric>, id: &str, scenario: &str) -> Json {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let doc = status(fabric, id);
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return doc,
            Some(state @ ("queued" | "running")) => {
                assert!(
                    Instant::now() < deadline,
                    "{scenario}: still {state} after {DEADLINE:?}: {doc:?}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("{scenario}: job ended {other:?}: {doc:?}"),
        }
    }
}

/// Every result page of the job, as raw JSON strings. Job ids are
/// content-addressed, so pages from different runs of the same spec
/// are directly byte-comparable.
fn all_pages(fabric: &Arc<JobFabric>, id: &str, scenario: &str) -> Vec<String> {
    let total = field(&status(fabric, id), "points");
    let pages = total.div_ceil(PER_PAGE);
    (0..pages)
        .map(|page| {
            fabric
                .result_page(id, page, PER_PAGE)
                .unwrap_or_else(|err| panic!("{scenario}: page {page}: {err:?}"))
        })
        .collect()
}

fn submit(fabric: &Arc<JobFabric>, spec: &JobSpec) -> String {
    fabric.submit(spec.clone()).expect("submit accepted").id
}

#[test]
fn crash_matrix_runs_are_byte_identical_to_golden() {
    let spec = matrix_spec();
    assert_eq!(spec.point_count(), 112);
    assert_eq!(spec.chunk_count(), 7);

    // Golden: fault-free, two workers.
    let golden_dir = scenario_dir("golden");
    let golden_fabric = fabric(golden_dir.clone(), 2, &[]);
    let id = submit(&golden_fabric, &spec);
    wait_done(&golden_fabric, &id, "golden");
    let golden = all_pages(&golden_fabric, &id, "golden");

    // A finished job directory holds the spec and one checkpoint per
    // chunk, nothing else: leases live in the runner's memory.
    let mut entries: Vec<String> = std::fs::read_dir(golden_dir.join(&id))
        .expect("job dir")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    let mut expected = vec!["job.json".to_string()];
    expected.extend((0..7).map(|chunk| format!("chunk-{chunk:06}.ckpt")));
    expected.sort();
    assert_eq!(entries, expected, "golden job dir");

    // Spot-check the golden rows against the in-process oracle: point
    // 6 is the first benchmark/side/node at permille 1000 (the
    // innermost axis), which must route through the exact sweep path.
    let point = spec.point(6);
    assert_eq!(point.refetch_permille, 1000);
    let savings = query::sweep_point(
        ProfileStore::global(),
        Scale::Test,
        &query::SweepPoint {
            benchmark: point.benchmark.clone(),
            side: point.side,
            node: point.node,
        },
    )
    .expect("oracle point");
    let expected_row = leakage_jobs::render_job_row(&point, &savings, true);
    let one_row_page = golden_fabric
        .result_page(&id, 6, 1)
        .expect("single-row page");
    assert!(
        one_row_page.contains(&expected_row),
        "golden row 6 must match the oracle renderer:\n{one_row_page}\n{expected_row}"
    );
    golden_fabric.stop();

    // Worker crash: every worker process panics on arrival at its
    // second chunk, so each spawned worker completes exactly one chunk
    // before dying. The coordinator must reassign and respawn its way
    // through all seven.
    let crash_fabric = fabric(
        scenario_dir("crash"),
        2,
        &[("LEAKAGE_FAULTS", "jobs/chunk=panic#2")],
    );
    let id = submit(&crash_fabric, &spec);
    let doc = wait_done(&crash_fabric, &id, "crash");
    assert!(field(&doc, "worker_restarts") > 0, "{doc:?}");
    assert!(field(&doc, "reassigned_chunks") > 0, "{doc:?}");
    assert_eq!(all_pages(&crash_fabric, &id, "crash"), golden);
    crash_fabric.stop();

    // Stall: workers hang (armed latency far beyond the stall
    // deadline) at their second chunk instead of dying; the
    // coordinator must detect the stall, kill, reassign, respawn. A
    // healthy chunk takes well under a second, so a 3s deadline only
    // ever fires on the armed 60s hang.
    let stall_fabric = fabric_with_deadline(
        scenario_dir("stall"),
        2,
        &[("LEAKAGE_FAULTS", "jobs/chunk=latency:60000#2")],
        Duration::from_secs(3),
    );
    let id = submit(&stall_fabric, &spec);
    let doc = wait_done(&stall_fabric, &id, "stall");
    assert!(field(&doc, "reassigned_chunks") > 0, "{doc:?}");
    assert_eq!(all_pages(&stall_fabric, &id, "stall"), golden);
    stall_fabric.stop();

    // Torn checkpoint write (coordinator side): the first checkpoint
    // buffer is truncated mid-write. Read-back verification must catch
    // it, quarantine the torn file, and rewrite cleanly. Arrivals at a
    // site are counted across every point type, and each write attempt
    // passes `io_point` before `corrupt_point`, so the first torn
    // *buffer* is the site's second arrival.
    let torn_dir = scenario_dir("torn");
    let torn_fabric = fabric(torn_dir.clone(), 2, &[]);
    set_plane(Plane::parse("jobs/checkpoint=truncate:40#2").expect("torn spec"));
    let id = submit(&torn_fabric, &spec);
    let doc = wait_done(&torn_fabric, &id, "torn");
    set_plane(Plane::empty());
    let quarantined: Vec<_> = std::fs::read_dir(torn_dir.join(&id).join("quarantine"))
        .expect("quarantine dir exists")
        .collect();
    assert!(!quarantined.is_empty(), "torn write must be quarantined");
    assert_eq!(all_pages(&torn_fabric, &id, "torn"), golden);
    assert_eq!(field(&doc, "chunks_done"), 7);
    torn_fabric.stop();

    // Coordinator restart: stop the fabric mid-job (resumable stop, no
    // cancel marker), then start a fresh fabric over the same
    // directory. It must resume from the checkpoints on disk and only
    // recompute what was never durably written.
    let resume_dir = scenario_dir("resume");
    let first = fabric(resume_dir.clone(), 1, &[]);
    let id = submit(&first, &spec);
    let deadline = Instant::now() + DEADLINE;
    loop {
        let doc = status(&first, &id);
        let done = field(&doc, "chunks_done");
        if done >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "resume: only {done} chunks before restart: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    first.stop();
    drop(first);

    let second = fabric(resume_dir.clone(), 2, &[]);
    let doc = wait_done(&second, &id, "resume");
    assert!(
        field(&doc, "resumed_chunks") >= 2,
        "restart must resume from checkpoints: {doc:?}"
    );
    assert_eq!(all_pages(&second, &id, "resume"), golden);

    // Corruption discovered at read time: flip one byte of a durable
    // checkpoint. The read must refuse to serve it, quarantine it, and
    // schedule recomputation; once the job is done again the pages are
    // whole and identical.
    let victim = resume_dir.join(&id).join("chunk-000003.ckpt");
    let mut bytes = std::fs::read(&victim).expect("checkpoint readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("corrupt checkpoint");
    let err = second
        .result_page(&id, 2, PER_PAGE) // page 2 covers points 50..75 → chunk 3
        .expect_err("corrupt checkpoint must not be served");
    assert!(matches!(err, ResultError::Corrupt(_)), "{err:?}");
    let doc = wait_done(&second, &id, "heal");
    assert!(field(&doc, "quarantined") > 0, "{doc:?}");
    assert_eq!(all_pages(&second, &id, "heal"), golden);
    second.stop();

    // ---- Socket transport: the same job, computed entirely by
    // remote worker processes over TCP. ----

    // Socket golden: two fault-free remote workers, zero local ones.
    // The transport must be byte-invisible.
    let sg_fabric = remote_fabric(
        scenario_dir("socket-golden"),
        Duration::from_secs(5),
        Duration::from_secs(30),
    );
    let workers = vec![
        spawn_remote_worker(&sg_fabric, 250, None),
        spawn_remote_worker(&sg_fabric, 250, None),
    ];
    let id = submit(&sg_fabric, &spec);
    let doc = wait_done(&sg_fabric, &id, "socket-golden");
    assert_eq!(field(&doc, "late_commits"), 0, "{doc:?}");
    assert_eq!(all_pages(&sg_fabric, &id, "socket-golden"), golden);
    sg_fabric.stop();
    reap_workers(workers);

    // Partition + late commit: each worker freezes for 4s while
    // *sending its second chunk response* (`net/partition` holds the
    // writer lock, so heartbeats are silenced too — a true split
    // brain). The 400ms heartbeat timeout expires the lease and
    // requeues the chunk; when the partition heals, the stale response
    // arrives under a dead epoch and must be discarded, not
    // double-committed.
    let part_fabric = remote_fabric(
        scenario_dir("socket-partition"),
        Duration::from_millis(400),
        Duration::from_secs(30),
    );
    let workers = vec![
        spawn_remote_worker(&part_fabric, 100, Some("net/partition=latency:4000#3")),
        spawn_remote_worker(&part_fabric, 100, Some("net/partition=latency:4000#3")),
    ];
    let id = submit(&part_fabric, &spec);
    let doc = wait_done(&part_fabric, &id, "socket-partition");
    assert!(field(&doc, "leases_expired") >= 1, "{doc:?}");
    assert!(field(&doc, "late_commits") >= 1, "{doc:?}");
    assert_eq!(field(&doc, "chunks_done"), 7, "{doc:?}");
    assert_eq!(all_pages(&part_fabric, &id, "socket-partition"), golden);
    part_fabric.stop();
    reap_workers(workers);

    // Dropped frame: each worker's first chunk response vanishes on
    // the wire. Heartbeats keep flowing, so only the stall deadline
    // (2s) can expire the lease; the worker is idle by then and its
    // next heartbeat offers it the requeued chunk again.
    let drop_fabric = remote_fabric(
        scenario_dir("socket-drop"),
        Duration::from_secs(5),
        Duration::from_secs(2),
    );
    let workers = vec![
        spawn_remote_worker(&drop_fabric, 100, Some("net/drop=drop#2")),
        spawn_remote_worker(&drop_fabric, 100, Some("net/drop=drop#2")),
    ];
    let id = submit(&drop_fabric, &spec);
    let doc = wait_done(&drop_fabric, &id, "socket-drop");
    assert!(field(&doc, "leases_expired") >= 1, "{doc:?}");
    assert_eq!(all_pages(&drop_fabric, &id, "socket-drop"), golden);
    drop_fabric.stop();
    reap_workers(workers);

    // Duplicated frames: every frame both workers send arrives twice.
    // Duplicate `ready`s must not double-assign; duplicate chunk
    // responses must lose to the first durable checkpoint.
    let dup_fabric = remote_fabric(
        scenario_dir("socket-dup"),
        Duration::from_secs(5),
        Duration::from_secs(30),
    );
    let workers = vec![
        spawn_remote_worker(&dup_fabric, 250, Some("net/dup=dup")),
        spawn_remote_worker(&dup_fabric, 250, Some("net/dup=dup")),
    ];
    let id = submit(&dup_fabric, &spec);
    let doc = wait_done(&dup_fabric, &id, "socket-dup");
    assert!(field(&doc, "late_commits") >= 1, "{doc:?}");
    assert_eq!(field(&doc, "chunks_done"), 7, "{doc:?}");
    assert_eq!(all_pages(&dup_fabric, &id, "socket-dup"), golden);
    dup_fabric.stop();
    reap_workers(workers);

    // Killed remote worker: SIGKILL one mid-flight (slowed so it is
    // certainly holding a chunk), then admit a fresh replacement into
    // the same running job. The in-flight chunk is reassigned; the
    // result does not change.
    let kill_fabric = remote_fabric(
        scenario_dir("socket-kill"),
        Duration::from_secs(5),
        Duration::from_secs(30),
    );
    let mut victim = spawn_remote_worker(&kill_fabric, 100, Some("jobs/chunk=latency:400"));
    let survivor = spawn_remote_worker(&kill_fabric, 100, Some("jobs/chunk=latency:400"));
    let id = submit(&kill_fabric, &spec);
    let deadline = Instant::now() + DEADLINE;
    loop {
        let doc = status(&kill_fabric, &id);
        if field(&doc, "chunks_done") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "socket-kill: no chunk done yet: {doc:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    victim.kill().expect("kill remote worker");
    let _ = victim.wait();
    let replacement = spawn_remote_worker(&kill_fabric, 100, None);
    let doc = wait_done(&kill_fabric, &id, "socket-kill");
    assert_eq!(field(&doc, "chunks_done"), 7, "{doc:?}");
    assert_eq!(all_pages(&kill_fabric, &id, "socket-kill"), golden);
    kill_fabric.stop();
    reap_workers(vec![survivor, replacement]);
}
