//! A worker that answers a chunk ordinal outside the job must be cut
//! off as a protocol violation, not take the job down with it.
//!
//! This test plays an admitted remote worker by hand: it takes its
//! first assignment, then answers — with a well-formed, correctly
//! sealed, empty chunk — an ordinal far past the job's last chunk. The
//! coordinator must close that worker's link and keep the job alive;
//! a fresh worker that dials in afterwards finishes it.

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_experiments::ProfileStore;
use leakage_jobs::protocol::{
    chunk_response, rows_checksum, Assign, Hello, SessionHello, WorkerFrame,
};
use leakage_jobs::{FabricConfig, JobFabric, JobSpec, PermilleAxis};
use leakage_telemetry::json::{self, Json};
use leakage_workloads::Scale;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const TOKEN: &str = "rogue-worker";

/// Dials and admits one hand-played worker; returns its writer and the
/// coordinator's lines.
fn dial(addr: SocketAddr) -> (TcpStream, Lines<BufReader<TcpStream>>) {
    let mut stream = TcpStream::connect(addr).expect("dial");
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
    let lines = BufReader::new(stream.try_clone().expect("clone")).lines();
    (stream, lines)
}

fn state(fabric: &JobFabric, id: &str) -> String {
    let doc = json::parse(&fabric.status_json(id).expect("job is registered")).expect("status");
    doc.get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

#[test]
fn an_out_of_range_chunk_answer_cuts_the_worker_off_not_the_job() {
    let dir = std::env::temp_dir().join(format!("leakage-rogue-worker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fabric = JobFabric::start(FabricConfig {
        jobs_dir: dir.clone(),
        workers: 0,
        listen: Some("127.0.0.1:0".to_string()),
        token: Some(TOKEN.to_string()),
        ..FabricConfig::default()
    })
    .expect("listening fabric starts");
    let addr = fabric.remote_addr().expect("listening");

    // One chunk of 16 points.
    let spec = JobSpec::build(
        "rogue-worker",
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
    let (mut rogue, mut lines) = dial(addr);
    let id = fabric.submit(spec).expect("submit").id;
    Hello::parse(&lines.next().expect("hello").expect("read")).expect("hello frame");
    rogue
        .write_all((WorkerFrame::Ready(1).encode() + "\n").as_bytes())
        .expect("ready");
    Assign::parse(&lines.next().expect("assign").expect("read")).expect("assign");

    let bogus = 1_000_000;
    let answer = format!(
        "{}\n{}\n",
        WorkerFrame::ChunkStart {
            chunk: bogus,
            points: 0
        }
        .encode(),
        WorkerFrame::ChunkEnd {
            chunk: bogus,
            fnv1a: rows_checksum(&[]),
        }
        .encode()
    );
    rogue.write_all(answer.as_bytes()).expect("bogus answer");
    // The coordinator hangs up on the rogue worker...
    assert!(
        matches!(lines.next(), None | Some(Err(_))),
        "the rogue worker's link is closed"
    );
    // ...and the job lives on.
    assert_eq!(state(&fabric, &id), "running");

    // An honest worker finishes it.
    let (mut honest, mut lines) = dial(addr);
    let hello = Hello::parse(&lines.next().expect("hello").expect("read")).expect("hello frame");
    honest
        .write_all((WorkerFrame::Ready(2).encode() + "\n").as_bytes())
        .expect("ready");
    for line in lines.by_ref() {
        let assign = Assign::parse(&line.expect("read")).expect("assign");
        let response = chunk_response(&hello.spec, ProfileStore::global(), &assign);
        honest.write_all(response.as_bytes()).expect("answer");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while state(&fabric, &id) != "done" && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        state(&fabric, &id),
        "done",
        "{}",
        fabric.status_json(&id).unwrap_or_default()
    );
    fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
