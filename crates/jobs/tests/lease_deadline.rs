//! A remote worker that heartbeats faster than the runner's poll tick
//! must still have a stalled lease expired.
//!
//! The runner waits for worker events with a 100 ms timeout. If it
//! swept stall and heartbeat deadlines only when that wait timed out,
//! two workers beating every 100 ms could keep the event channel busy
//! for minutes, and a worker whose chunk answer was lost would hold its
//! lease forever while its heartbeats kept proving it alive. This test
//! plays the worker side of the socket protocol by hand: it takes an
//! assignment, never answers it, and heartbeats every 20 ms. The lease
//! must expire within a few stall deadlines, and the requeued chunk
//! must come back to the same (idle, beating) worker, whose answer then
//! completes the job.

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_experiments::ProfileStore;
use leakage_jobs::protocol::{chunk_response, Assign, Hello, SessionHello, WorkerFrame};
use leakage_jobs::{FabricConfig, JobFabric, JobSpec, PermilleAxis};
use leakage_telemetry::json::{self, Json};
use leakage_workloads::Scale;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TOKEN: &str = "lease-deadline";
const STALL: Duration = Duration::from_secs(1);
const BEAT: Duration = Duration::from_millis(20);

fn field(fabric: &JobFabric, id: &str, name: &str) -> Json {
    let doc = json::parse(&fabric.status_json(id).expect("job is registered")).expect("status");
    doc.get(name).cloned().unwrap_or(Json::Null)
}

/// Polls `done` every few milliseconds for up to `limit`.
fn wait_for(limit: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    done()
}

#[test]
fn stalled_lease_expires_under_a_steady_heartbeat() {
    let dir = std::env::temp_dir().join(format!("leakage-lease-deadline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fabric = JobFabric::start(FabricConfig {
        jobs_dir: dir.clone(),
        workers: 0,
        stall_deadline: STALL,
        listen: Some("127.0.0.1:0".to_string()),
        token: Some(TOKEN.to_string()),
        heartbeat_timeout: Duration::from_secs(30),
        ..FabricConfig::default()
    })
    .expect("listening fabric starts");

    let mut stream = TcpStream::connect(fabric.remote_addr().expect("listening")).expect("dial");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let admission = SessionHello {
        pid: std::process::id(),
        token: Some(TOKEN.to_string()),
    };
    stream
        .write_all((admission.encode() + "\n").as_bytes())
        .expect("admission");
    let mut lines = BufReader::new(stream.try_clone().expect("clone")).lines();

    // One chunk of 16 points.
    let spec = JobSpec::build(
        "lease-deadline",
        Scale::Test,
        vec!["gzip".to_string()],
        vec![Level1::Data],
        vec![TechnologyNode::ALL[0]],
        PermilleAxis {
            from: 850,
            to: 1000,
            step: 10,
        },
        16,
    )
    .expect("spec is valid");
    assert_eq!(spec.chunk_count(), 1);
    let id = fabric.submit(spec).expect("submit").id;

    let hello = Hello::parse(&lines.next().expect("hello").expect("read")).expect("hello frame");
    stream
        .write_all((WorkerFrame::Ready(std::process::id()).encode() + "\n").as_bytes())
        .expect("ready");
    let first = Assign::parse(&lines.next().expect("assign").expect("read")).expect("assign");

    // The answer to `first` is "lost": from here on only heartbeats
    // flow, from a side thread, as a real worker's would.
    let writer = Arc::new(Mutex::new(stream));
    let stop = Arc::new(AtomicBool::new(false));
    let beats = {
        let (writer, stop) = (Arc::clone(&writer), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut seq = 0;
            while !stop.load(Ordering::SeqCst) {
                seq += 1;
                let frame = WorkerFrame::Heartbeat(seq).encode() + "\n";
                if writer.lock().unwrap().write_all(frame.as_bytes()).is_err() {
                    return;
                }
                std::thread::sleep(BEAT);
            }
        })
    };
    let answer = chunk_response(&hello.spec, ProfileStore::global(), &first);
    let expired = wait_for(STALL * 10, || {
        field(&fabric, &id, "leases_expired").as_f64() >= Some(1.0)
    });
    assert!(
        expired,
        "lease never expired while heartbeats flowed: {}",
        fabric.status_json(&id).unwrap_or_default()
    );

    // A beat from the now-idle worker is an offer to work: the
    // requeued chunk comes back, and answering it completes the job.
    // Under load an answer can itself miss the stall deadline and be
    // reassigned once more, so answer every assignment until the
    // coordinator, with nothing left, closes its half.
    let mut reassigned = 0;
    for line in lines.by_ref() {
        let again = Assign::parse(&line.expect("read")).expect("assign");
        assert_eq!(again, first);
        reassigned += 1;
        writer
            .lock()
            .unwrap()
            .write_all(answer.as_bytes())
            .expect("answer");
    }
    assert!(reassigned >= 1, "the expired chunk was reassigned");
    stop.store(true, Ordering::SeqCst);
    let _ = beats.join();
    drop((lines, writer));
    let done = wait_for(Duration::from_secs(30), || {
        field(&fabric, &id, "state").as_str() == Some("done")
    });
    assert!(done, "{}", fabric.status_json(&id).unwrap_or_default());

    fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
