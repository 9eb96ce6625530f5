//! End-to-end tests of the sweep-job fabric over real sockets: the
//! differential conformance scenario (a sharded job's rows are
//! byte-identical to the single-process `POST /v1/sweep` path and the
//! in-process query oracle) and the pagination contract of
//! `GET /v1/jobs/<id>/result`.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::{query, ProfileStore};
use cache_leakage_limits::server::{fetch, Server, ServerConfig};
use cache_leakage_limits::telemetry::json::{self, Json};
use cache_leakage_limits::workloads::{Scale, SUITE_NAMES};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
const JOB_DEADLINE: Duration = Duration::from_secs(180);

/// `cargo test` at the workspace root only builds the root package's
/// own binaries, so the worker that `crates/jobs` ships may be missing
/// or older than the fabric linked into this test; build it once
/// before the first fabric spawns (a no-op when it is up to date).
fn ensure_worker_bin() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let exe = std::env::current_exe().expect("test exe path");
        let profile_dir = exe
            .ancestors()
            .find(|dir| dir.ends_with("debug") || dir.ends_with("release"))
            .expect("test exe lives under target/<profile>/")
            .to_path_buf();
        let mut build = std::process::Command::new(env!("CARGO"));
        build.args(["build", "--quiet", "-p", "leakage-jobs", "--bin", "leakage-job-worker"]);
        if profile_dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("cargo build runs");
        assert!(status.success(), "worker binary build failed: {status}");
    });
}

/// A server with its own throwaway jobs directory, so parallel tests
/// never share durable state.
fn jobs_server() -> Server {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    ensure_worker_bin();
    Server::start(ServerConfig {
        default_scale: Scale::Test,
        preserialize: false,
        jobs_dir: std::env::temp_dir().join(format!(
            "leakage-jobs-e2e-{}-{seq}",
            std::process::id()
        )),
        job_workers: 2,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn get(addr: SocketAddr, target: &str) -> cache_leakage_limits::server::ClientResponse {
    fetch(addr, "GET", target, None, CLIENT_TIMEOUT).expect("GET succeeds")
}

fn post(addr: SocketAddr, target: &str, body: &str) -> cache_leakage_limits::server::ClientResponse {
    fetch(addr, "POST", target, Some(body.as_bytes()), CLIENT_TIMEOUT).expect("POST succeeds")
}

/// Submits a job and polls until it is `done`, returning its id.
fn run_job(addr: SocketAddr, body: &str) -> String {
    let submit = post(addr, "/v1/jobs", body);
    assert_eq!(submit.status, 201, "{}", submit.text());
    let doc = json::parse(&submit.text()).expect("submit JSON");
    let id = doc.get("id").and_then(Json::as_str).expect("id").to_string();
    let deadline = Instant::now() + JOB_DEADLINE;
    loop {
        let status = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status.status, 200, "{}", status.text());
        let doc = json::parse(&status.text()).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => return id,
            Some(state @ ("queued" | "running")) => {
                assert!(Instant::now() < deadline, "job stuck {state}: {doc:?}");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("job ended {other:?}: {doc:?}"),
        }
    }
}

/// The raw bytes of the top-level array under `key` — for comparing
/// row renderings without re-serializing through a parser.
fn array_bytes<'a>(text: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\": [");
    let start = text.find(&marker).expect("array key present") + marker.len();
    let end = text.rfind(']').expect("array closes");
    &text[start..end]
}

/// The conformance scenario: the full suite × both sides × all nodes
/// (48 points, ≤512 as required) sharded into 16-point chunks across
/// worker processes must serve rows byte-identical to the same points
/// evaluated by one `POST /v1/sweep` batch in the server process, and
/// agree with the in-process query oracle.
#[test]
fn sharded_job_rows_are_byte_identical_to_sweep_batch() {
    let server = jobs_server();
    let addr = server.addr();

    let sides = ["icache", "dcache"];
    let nodes = ["70nm", "100nm", "130nm", "180nm"];
    let job_body = format!(
        r#"{{"name": "conformance", "scale": "test",
            "benchmarks": [{}],
            "sides": ["icache", "dcache"],
            "nodes": ["70nm", "100nm", "130nm", "180nm"],
            "chunk_points": 16}}"#,
        SUITE_NAMES
            .iter()
            .map(|b| format!("{b:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let id = run_job(addr, &job_body);

    // The same 48 points, in the job's benchmark-major order, as one
    // single-process sweep batch.
    let mut points = Vec::new();
    for benchmark in SUITE_NAMES {
        for side in sides {
            for node in nodes {
                points.push(format!(
                    r#"{{"benchmark": {benchmark:?}, "side": {side:?}, "node": {node:?}}}"#
                ));
            }
        }
    }
    let sweep_body = format!(r#"{{"scale": "test", "points": [{}]}}"#, points.join(", "));
    let sweep = post(addr, "/v1/sweep", &sweep_body);
    assert_eq!(sweep.status, 200, "{}", sweep.text());

    let page = get(addr, &format!("/v1/jobs/{id}/result?per_page=48"));
    assert_eq!(page.status, 200, "{}", page.text());
    let page_text = page.text();
    let sweep_text = sweep.text();
    assert_eq!(
        array_bytes(&page_text, "rows"),
        array_bytes(&sweep_text, "results"),
        "job rows and sweep results must be byte-identical"
    );

    // And both agree with the in-process oracle on a spot-checked
    // point (gzip/dcache/100nm = row index 1*8 + 1*4 + 1 = 29... use
    // explicit coordinates instead of arithmetic).
    let oracle = query::sweep_point(
        ProfileStore::global(),
        Scale::Test,
        &query::SweepPoint {
            benchmark: "gzip".to_string(),
            side: Level1::Data,
            node: TechnologyNode::N100,
        },
    )
    .expect("oracle point");
    let doc = json::parse(&page_text).expect("page JSON");
    let rows = doc.get("rows").and_then(Json::as_array).expect("rows");
    let row = rows
        .iter()
        .find(|r| {
            r.get("benchmark").and_then(Json::as_str) == Some("gzip")
                && r.get("side").and_then(Json::as_str) == Some("dcache")
                && r.get("node").and_then(Json::as_str) == Some("100nm")
        })
        .expect("gzip/dcache/100nm row");
    let served = row.get("opt_hybrid").and_then(Json::as_f64).expect("opt_hybrid");
    assert!(
        (served - oracle.opt_hybrid).abs() < 1e-12,
        "served {served} vs oracle {}",
        oracle.opt_hybrid
    );

    server.shutdown();
}

/// The pagination contract: per_page bounds, pages past the end,
/// partial last pages, and stable bytes across repeated reads.
#[test]
fn result_pagination_boundaries() {
    let server = jobs_server();
    let addr = server.addr();

    // 2 benchmarks × 2 sides × 4 nodes = 16 points in one chunk.
    let id = run_job(
        addr,
        r#"{"name": "pages", "scale": "test",
            "benchmarks": ["gzip", "mesa"], "chunk_points": 16}"#,
    );

    // per_page must be 1..=10000; zero, junk, and over-cap are 400s.
    for bad in ["per_page=0", "per_page=abc", "per_page=10001", "page=abc"] {
        let response = get(addr, &format!("/v1/jobs/{id}/result?{bad}"));
        assert_eq!(response.status, 400, "{bad}: {}", response.text());
    }

    // 16 points at 5 per page: pages of 5, 5, 5, then a partial 1.
    let mut all_rows = Vec::new();
    for (page, want) in [(0, 5), (1, 5), (2, 5), (3, 1)] {
        let response = get(addr, &format!("/v1/jobs/{id}/result?page={page}&per_page=5"));
        assert_eq!(response.status, 200, "{}", response.text());
        let doc = json::parse(&response.text()).expect("page JSON");
        assert_eq!(doc.get("total_points").and_then(Json::as_f64), Some(16.0));
        assert_eq!(doc.get("total_pages").and_then(Json::as_f64), Some(4.0));
        let rows = doc.get("rows").and_then(Json::as_array).expect("rows");
        assert_eq!(rows.len(), want, "page {page}");
        all_rows.extend(rows.iter().cloned());
    }

    // Pages past the end are empty 200s, not errors.
    let past = get(addr, &format!("/v1/jobs/{id}/result?page=4&per_page=5"));
    assert_eq!(past.status, 200);
    let doc = json::parse(&past.text()).expect("past-end JSON");
    assert_eq!(
        doc.get("rows").and_then(Json::as_array).map(<[Json]>::len),
        Some(0)
    );

    // Ordering is stable: a re-read returns identical bytes, and the
    // paged union equals the single-page read.
    let whole = get(addr, &format!("/v1/jobs/{id}/result?per_page=16"));
    let again = get(addr, &format!("/v1/jobs/{id}/result?per_page=16"));
    assert_eq!(whole.text(), again.text(), "re-reads must be stable");
    let doc = json::parse(&whole.text()).expect("whole JSON");
    let rows = doc.get("rows").and_then(Json::as_array).expect("rows");
    assert_eq!(rows, &all_rows[..], "paged union equals the whole read");

    // An empty job is legal and serves an empty first page.
    let id = run_job(addr, r#"{"name": "empty", "benchmarks": []}"#);
    let response = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(response.status, 200, "{}", response.text());
    let doc = json::parse(&response.text()).expect("empty JSON");
    assert_eq!(doc.get("total_points").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        doc.get("rows").and_then(Json::as_array).map(<[Json]>::len),
        Some(0)
    );

    server.shutdown();
}
