//! `sweep-job`: one op is one `POST /v1/jobs` of a fresh seeded spec,
//! then polling until the job is `done`, then reading every result
//! page. The server runs as its own process with one job worker per
//! CPU; set-up warms a `LEAKAGE_PROFILE_DIR`, so the workers decode
//! profiles from disk and never simulate.
//!
//! Every returned row must equal `render_job_row` of the point
//! evaluated in this process against the same profile.

use crate::http::{num_fields, str_field, Client};
use crate::sys::{self, ServerProc};
use crate::{median, Args, Checks, Layers, Rng, Timed, SETUPS};
use leakage_experiments::codec::decode_profile;
use leakage_experiments::{BenchmarkProfile, ProfileStore};
use leakage_jobs::checkpoint::{read_chunk, write_chunk, ChunkFile};
use leakage_jobs::{render_job_row, JobSpec};
use leakage_workloads::{Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host seconds one op takes on the reference machine (2 vCPUs); sets
/// the number of ops per run.
const OP_S: f64 = 0.3;

/// Points per checkpoint chunk: small enough that every worker gets
/// several chunks of a job.
const CHUNK_POINTS: u64 = 32;

/// Rows per result page.
const PER_PAGE: u64 = 100;

/// How often the client polls a running job.
const POLL: Duration = Duration::from_millis(2);

fn benchmarks() -> Vec<&'static str> {
    SUITE_NAMES
        .iter()
        .chain(ISA_SUITE_NAMES.iter())
        .copied()
        .collect()
}

/// Refetch-permille values per spec.
const PERMILLE_VALUES: u64 = 6;

/// The spec of op `index`: all 12 benchmarks × both sides × 4 nodes ×
/// six refetch-permille values whose start and step come from the
/// seed — 576 points.
fn spec_json(seed: u64, index: u64) -> String {
    let mut rng = Rng::new(seed, index.wrapping_add(1000));
    let from = 200 + rng.below(800);
    let step = 20 + rng.below(100);
    let names: Vec<String> = benchmarks().iter().map(|b| format!("\"{b}\"")).collect();
    format!(
        "{{\"name\": \"perfbench-{seed}-{index}\", \"scale\": \"small\", \"benchmarks\": [{}], \
         \"sides\": [\"icache\", \"dcache\"], \"nodes\": [\"70nm\", \"100nm\", \"130nm\", \"180nm\"], \
         \"refetch_permille\": {{\"from\": {from}, \"to\": {}, \"step\": {step}}}, \
         \"chunk_points\": {CHUNK_POINTS}}}",
        names.join(", "),
        from + (PERMILLE_VALUES - 1) * step
    )
}

/// A server plus the warmed profiles it serves from.
struct Fixture {
    server: ServerProc,
    client: Client,
    /// The warmed profile files, decoded: what the job workers load.
    profiles: HashMap<String, Arc<BenchmarkProfile>>,
    /// The raw bytes of each warmed profile file.
    files: HashMap<String, Vec<u8>>,
    workers: usize,
}

/// Warms `dir` with every benchmark's profile (one thread per CPU) and
/// returns the profiles.
fn warm_profiles(dir: &Path, threads: usize) -> HashMap<&'static str, Arc<BenchmarkProfile>> {
    let store = ProfileStore::with_disk_dir(dir);
    let names = benchmarks();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (store, names) = (&store, &names);
                scope.spawn(move || {
                    names
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&name| (name, store.fetch(name, Scale::Small)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("profile warm-up thread panicked"))
            .collect()
    })
}

fn setup(args: &Args, round: usize) -> io::Result<Fixture> {
    let dir = args.run_dir.join(format!("sweep-{round}"));
    let _ = fs::remove_dir_all(&dir);
    let profile_dir = dir.join("profiles");
    fs::create_dir_all(&profile_dir)?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let simulated = warm_profiles(&profile_dir, workers);
    let mut files = HashMap::new();
    for entry in fs::read_dir(&profile_dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.rsplit_once('-'));
        if let Some((name, _)) = name {
            files.insert(name.to_string(), fs::read(&path)?);
        }
    }
    let profiles: HashMap<String, Arc<BenchmarkProfile>> = files
        .iter()
        .map(|(name, bytes)| {
            Ok((
                name.clone(),
                Arc::new(decode_profile(bytes).map_err(io::Error::other)?),
            ))
        })
        .collect::<io::Result<_>>()?;
    if profiles.len() != simulated.len() {
        return Err(io::Error::other("a warmed profile file is missing"));
    }
    if round == 0 {
        report_roundtrip(args.seed, &simulated, &profiles);
    }
    let server = ServerProc::start(
        &args.bin_dir,
        &[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--no-preserialize".into(),
            "--jobs-dir".into(),
            dir.join("jobs").display().to_string(),
            "--job-workers".into(),
            workers.to_string(),
        ],
        &[("LEAKAGE_PROFILE_DIR", &profile_dir)],
    )?;
    let client = Client::new(&server.addr);
    Ok(Fixture {
        server,
        client,
        profiles,
        files,
        workers,
    })
}

/// Prints how many points of one spec evaluate differently against a
/// simulated profile and against the same profile after a codec round
/// trip. The codec stores interval classes sorted, which changes the
/// order evaluation sums them in, so results can differ in the last
/// bits; the rows are checked against the decoded profiles the job
/// workers use.
fn report_roundtrip(
    seed: u64,
    simulated: &HashMap<&'static str, Arc<BenchmarkProfile>>,
    decoded: &HashMap<String, Arc<BenchmarkProfile>>,
) {
    let spec = JobSpec::parse(&spec_json(seed, 0)).expect("generated spec is valid");
    let differing = (0..spec.point_count())
        .filter(|&index| {
            let point = spec.point(index);
            let name = point.benchmark.as_str();
            point.evaluate(&simulated[name]) != point.evaluate(&decoded[name])
        })
        .count();
    println!(
        "  note: {differing} of {} points evaluate differently against a simulated profile \
         and its codec round trip",
        spec.point_count()
    );
}

/// What one op observed.
struct OpRun {
    points: u64,
    latency_ms: f64,
    page_read_ms: f64,
    worker_rss_mb: f64,
    id: String,
    /// Result-page bodies in page order.
    pages: Vec<String>,
}

/// Runs one job end to end: submit, poll to `done`, read every page.
fn run_op(fx: &mut Fixture, spec: &str, points: u64) -> io::Result<OpRun> {
    let start = Instant::now();
    let submit = fx.client.post_json("/v1/jobs", spec)?;
    let id = str_field(&submit.text(), "id")
        .filter(|_| submit.status == 201)
        .ok_or_else(|| io::Error::other(format!("submit: {} {}", submit.status, submit.text())))?
        .to_string();
    let mut worker_rss_mb: f64 = 0.0;
    loop {
        let status = fx.client.get(&format!("/v1/jobs/{id}"))?.text();
        for pid in num_fields(&status, "pid") {
            worker_rss_mb = worker_rss_mb.max(sys::peak_rss_mb(pid as u32));
        }
        match str_field(&status, "state") {
            Some("done") => break,
            Some("queued" | "running") => std::thread::sleep(POLL),
            _ => return Err(io::Error::other(format!("job {id}: {status}"))),
        }
    }
    let pages_start = Instant::now();
    let mut pages = Vec::new();
    for page in 0..points.div_ceil(PER_PAGE) {
        let reply = fx.client.get(&format!(
            "/v1/jobs/{id}/result?page={page}&per_page={PER_PAGE}"
        ))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!("page {page}: {}", reply.status)));
        }
        pages.push(reply.text());
    }
    Ok(OpRun {
        points,
        latency_ms: start.elapsed().as_secs_f64() * 1e3,
        page_read_ms: pages_start.elapsed().as_secs_f64() * 1e3,
        worker_rss_mb,
        id,
        pages,
    })
}

/// The rows this process computes for `spec`, in point order, on
/// `threads` threads (the check runs between ops, never during one).
fn expected_rows(
    spec: &JobSpec,
    profiles: &HashMap<String, Arc<BenchmarkProfile>>,
    threads: usize,
) -> Vec<String> {
    let row = |index| {
        let point = spec.point(index);
        let savings = point.evaluate(&profiles[point.benchmark.as_str()]);
        render_job_row(&point, &savings, spec.has_refetch_axis())
    };
    let points = spec.point_count();
    let per_thread = points.div_ceil(threads as u64).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..points)
            .step_by(per_thread as usize)
            .map(|start| {
                scope.spawn(move || {
                    (start..(start + per_thread).min(points))
                        .map(row)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("row check thread panicked"))
            .collect()
    })
}

/// Checks every page against the rows computed in process.
fn verify(run: &OpRun, expected: &[String]) -> Result<(), String> {
    for (page, (body, rows)) in run
        .pages
        .iter()
        .zip(expected.chunks(PER_PAGE as usize))
        .enumerate()
    {
        let want = format!("\"rows\": [{}]", rows.join(", "));
        if !body.contains(&want) {
            return Err(format!(
                "job {} page {page}: rows differ from the in-process evaluation",
                run.id
            ));
        }
    }
    if run.pages.len() != expected.len().div_ceil(PER_PAGE as usize) {
        return Err(format!("job {}: {} pages", run.id, run.pages.len()));
    }
    Ok(())
}

/// Submits op `index` and checks it. Returns what it observed and the
/// CPU seconds it cost the client, the server and its workers, or
/// `None` (counted as failed) when the job did not complete.
fn checked_op(
    fx: &mut Fixture,
    seed: u64,
    index: u64,
    checks: &mut Checks,
) -> Option<(OpRun, f64)> {
    let text = spec_json(seed, index);
    let spec = JobSpec::parse(&text).expect("generated spec is valid");
    let (me, server) = (std::process::id(), fx.server.pid());
    let (client_cpu, server_cpu) = (sys::cpu_s(me), sys::cpu_s(server));
    let run = run_op(fx, &text, spec.point_count());
    let client_cpu = sys::cpu_s(me) - client_cpu;
    // Worker CPU reaches the server's counters once it reaps them.
    sys::wait_for_no_children(server, Duration::from_secs(5));
    let cpu = client_cpu + sys::cpu_s(server) - server_cpu;
    match run {
        Ok(run) => {
            checks.output(verify(
                &run,
                &expected_rows(&spec, &fx.profiles, fx.workers),
            ));
            Some((run, cpu))
        }
        Err(err) => {
            checks.no_answer(format!("job {index}: {err}"));
            None
        }
    }
}

fn ops(seconds: f64) -> u64 {
    ((seconds / OP_S).round() as u64).max(30)
}

/// The end-to-end run.
pub fn timed(args: &Args, checks: &mut Checks) -> io::Result<Timed> {
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for round in 0..SETUPS {
        drop(fixture.take());
        let start = Instant::now();
        let mut fx = setup(args, round)?;
        // The untimed warm-up op.
        checked_op(&mut fx, args.seed, u64::MAX - round as u64, checks)
            .ok_or_else(|| io::Error::other("the warm-up job failed"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");
    let (mut latencies_ms, mut cpu_s, mut work, mut rss) = (Vec::new(), 0.0, 0.0, 0.0_f64);
    for index in 0..ops(args.seconds) {
        let Some((run, cpu)) = checked_op(&mut fx, args.seed, index, checks) else {
            continue;
        };
        latencies_ms.push(run.latency_ms);
        cpu_s += cpu;
        work += run.points as f64;
        rss = rss.max(run.worker_rss_mb);
    }
    let peak_rss_mb = rss.max(sys::peak_rss_mb(fx.server.pid()));
    fx.server.stop()?;
    Ok(Timed {
        setup_s,
        latencies_ms,
        cpu_s,
        peak_rss_mb,
        work,
        work_unit: ("points_per_s", "points/s", 1.0),
    })
}

/// Sums over the traced ops.
#[derive(Default)]
struct Totals {
    op_ms: f64,
    covered_ms: f64,
    eval_per_worker_ms: f64,
    decode_ms: f64,
    decodes: u64,
    eval_ns: f64,
    points: u64,
    classes: u64,
    render_ns: f64,
    write_ms: f64,
    read_ms: f64,
    chunks: u64,
    page_read_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Re-evaluates one op's points in process, layer by layer, and
/// attributes its latency: worker-side layers (profile decode,
/// evaluation, row rendering) run on every worker at once and are
/// divided by the worker count; checkpoint writes run serially in the
/// coordinator; page reads were timed during the op. What remains is
/// the residual (process spawn, worker protocol, scheduling, polling).
fn replay(
    fx: &Fixture,
    spec: &JobSpec,
    run: &OpRun,
    scratch: &Path,
    t: &mut Totals,
) -> Result<(), String> {
    let workers = fx.workers as u64;
    // Each worker decodes the profile of every benchmark its chunks
    // touch; chunks go to workers round-robin.
    let mut touched: Vec<(u64, String)> = Vec::new();
    for chunk in 0..spec.chunk_count() {
        let (start, end) = spec.chunk_range(chunk);
        for index in [start, end - 1] {
            let entry = (chunk % workers, spec.point(index).benchmark);
            if !touched.contains(&entry) {
                touched.push(entry);
            }
        }
    }
    let mut decode_ms = 0.0;
    for (_, benchmark) in &touched {
        let bytes = fx
            .files
            .get(benchmark)
            .ok_or(format!("no profile file for {benchmark}"))?;
        let start = Instant::now();
        let decoded = decode_profile(bytes).map_err(|err| err.to_string())?;
        decode_ms += ms_since(start);
        if decoded.name != *benchmark {
            return Err(format!(
                "profile file for {benchmark} decodes as {}",
                decoded.name
            ));
        }
    }

    let points: Vec<_> = (0..spec.point_count()).map(|i| spec.point(i)).collect();
    let start = Instant::now();
    let savings: Vec<_> = points
        .iter()
        .map(|p| p.evaluate(&fx.profiles[p.benchmark.as_str()]))
        .collect();
    let eval_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let rows: Vec<String> = points
        .iter()
        .zip(&savings)
        .map(|(p, s)| render_job_row(p, s, spec.has_refetch_axis()))
        .collect();
    let render_ns = start.elapsed().as_nanos() as f64;
    verify(run, &rows)?;

    let (mut write_ms, mut read_ms) = (0.0, 0.0);
    for chunk in 0..spec.chunk_count() {
        let (start, end) = spec.chunk_range(chunk);
        let file = ChunkFile {
            job_id: run.id.clone(),
            chunk,
            start,
            end,
            rows: rows[start as usize..end as usize].to_vec(),
        };
        let timer = Instant::now();
        let path = write_chunk(scratch, &file).map_err(|err| err.to_string())?;
        write_ms += ms_since(timer);
        let timer = Instant::now();
        let back = read_chunk(&path).map_err(|err| format!("{err:?}"))?;
        read_ms += ms_since(timer);
        if back != file {
            return Err(format!("checkpoint {chunk} reads back different rows"));
        }
    }

    let eval_per_worker_ms = eval_ns / 1e6 / workers as f64;
    t.op_ms += run.latency_ms;
    t.covered_ms +=
        run.page_read_ms + (decode_ms + (eval_ns + render_ns) / 1e6) / workers as f64 + write_ms;
    t.eval_per_worker_ms += eval_per_worker_ms;
    t.decode_ms += decode_ms;
    t.decodes += touched.len() as u64;
    t.eval_ns += eval_ns;
    t.points += points.len() as u64;
    t.classes += points
        .iter()
        .map(|p| {
            fx.profiles[p.benchmark.as_str()]
                .side(p.side)
                .dist
                .num_classes() as u64
        })
        .sum::<u64>();
    t.render_ns += render_ns;
    t.write_ms += write_ms;
    t.read_ms += read_ms;
    t.chunks += spec.chunk_count();
    t.page_read_ms += run.page_read_ms;
    Ok(())
}

/// The traced run: plain and traced ops alternate, so the tracing
/// overhead is measured on the same server in the same process.
pub fn traced(args: &Args, checks: &mut Checks) -> io::Result<Layers> {
    let mut fx = setup(args, 0)?;
    checked_op(&mut fx, args.seed, u64::MAX, checks)
        .ok_or_else(|| io::Error::other("the warm-up job failed"))?;
    let scratch = args.run_dir.join("sweep-checkpoints");
    fs::create_dir_all(&scratch)?;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut t = Totals::default();
    for index in 0..(ops(args.seconds) / 4).max(10) {
        if let Some((run, _)) = checked_op(&mut fx, args.seed, 2 * index, checks) {
            plain_ms.push(run.latency_ms);
        }
        let text = spec_json(args.seed, 2 * index + 1);
        let spec = JobSpec::parse(&text).expect("generated spec is valid");
        match run_op(&mut fx, &text, spec.point_count()) {
            Ok(run) => {
                traced_ms.push(run.latency_ms);
                checks.output(replay(&fx, &spec, &run, &scratch, &mut t));
            }
            Err(err) => checks.no_answer(format!("job {}: {err}", 2 * index + 1)),
        }
    }
    fx.server.stop()?;
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    Ok(Layers::from([
        ("experiments.profile_decode_ms", per(t.decode_ms, t.decodes)),
        ("core.eval_us_per_point", per(t.eval_ns / 1e3, t.points)),
        ("core.eval_ns_per_class", per(t.eval_ns, t.classes)),
        ("intervals.classes", per(t.classes as f64, t.points)),
        ("jobs.checkpoint_write_ms", per(t.write_ms, t.chunks)),
        ("jobs.checkpoint_read_ms", per(t.read_ms, t.chunks)),
        ("jobs.render_row_ns", per(t.render_ns, t.points)),
        ("jobs.fabric_share", 1.0 - t.eval_per_worker_ms / t.op_ms),
        (
            "server.page_read_ms",
            per(t.page_read_ms, traced_ms.len() as u64),
        ),
        ("op.residual_share", 1.0 - t.covered_ms / t.op_ms),
        (
            "op.tracing_overhead_share",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        ),
    ]))
}
