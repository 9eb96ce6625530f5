//! `trace-upload`: one op is one chunked `POST /v1/trace/intervals` of
//! a pre-generated LKTR body, closed loop on one keep-alive connection.
//!
//! Set-up executes each `isa:*` program with a data seed drawn from the
//! run's seed, cuts every trace to the same record count, and frames it
//! for `Transfer-Encoding: chunked`. At most one body per program is
//! held in memory; the ops reuse them round-robin. Every response must
//! equal the summary `StreamingExtractor` computes in this process over
//! the same bytes.
//!
//! Each run also sends one upload with `Connection: close`, the way
//! one-shot clients such as Python's `urllib` do, and counts it as
//! failed unless a 200 with the right summary comes back.

use crate::http::{chunk_frame, num_fields, Client};
use crate::sys::{self, ServerProc};
use crate::{median, stream_ns, Args, Checks, CountSink, Layers, Rng, Timed, SETUPS};
use leakage_intervals::{CompactIntervalDist, StreamingExtractor};
use leakage_isa::{program_by_name, IsaSource};
use leakage_server::http::ChunkedDecoder;
use leakage_trace::io::{StreamDecoder, TraceWriter};
use leakage_trace::{MemoryAccess, TraceSink, TraceSource, VecTrace};
use leakage_workloads::ISA_SUITE_NAMES;
use std::fs;
use std::io;
use std::time::Instant;

/// Records per body: every body is cut to this length (52.4 MB).
const RECORDS: u64 = 1 << 21;

/// Cycle budget that yields at least [`RECORDS`] records from every
/// program.
const BUDGET: u64 = 3_200_000;

/// Bytes per chunk of the chunked framing.
const CHUNK: usize = 32 * 1024;

/// Slice size of the in-process replays: the server's socket read size.
const READ: usize = 16 * 1024;

/// Cache-line bits of the server's default summary.
const LINE_BITS: u32 = 6;

/// Host seconds one upload takes on the reference machine (2 vCPUs);
/// sets the number of ops per run.
const OP_S: f64 = 0.135;

const PATH: &str = "/v1/trace/intervals";

/// The summary fields of a `POST /v1/trace/intervals` response.
const FIELDS: [&str; 8] = [
    "events",
    "line_bits",
    "lines",
    "peak_resident_lines",
    "end_cycle",
    "intervals",
    "interval_classes",
    "interval_cycles",
];

type Summary = [u64; 8];

/// Writes the first [`RECORDS`] accesses as an LKTR body.
struct CutWriter<'a> {
    writer: TraceWriter<&'a mut Vec<u8>>,
}

impl TraceSink for CutWriter<'_> {
    fn accept(&mut self, access: MemoryAccess) {
        if self.writer.records() < RECORDS {
            self.writer.accept(access);
        }
    }
}

/// One upload body: the chunk-framed bytes and the summary the server
/// must return for them.
struct Body {
    name: &'static str,
    framed: Vec<u8>,
    raw_len: u64,
    expected: Summary,
}

/// The summary `StreamingExtractor` computes over `raw`.
fn summarize(raw: &[u8]) -> io::Result<Summary> {
    let mut decoder = StreamDecoder::new();
    let mut extractor = StreamingExtractor::new(LINE_BITS, CompactIntervalDist::new());
    decoder
        .feed(raw, &mut extractor)
        .map_err(io::Error::other)?;
    decoder.finish().map_err(io::Error::other)?;
    Ok(finish(extractor))
}

fn finish(extractor: StreamingExtractor<CompactIntervalDist>) -> Summary {
    let events = extractor.events();
    let lines = extractor.resident_lines() as u64;
    let peak = extractor.peak_resident_lines() as u64;
    let end_cycle = extractor.watermark().map_or(0, |last| last.raw() + 1);
    let dist = extractor.finish();
    [
        events,
        u64::from(LINE_BITS),
        lines,
        peak,
        end_cycle,
        dist.total_intervals(),
        dist.num_classes() as u64,
        dist.total_cycles(),
    ]
}

/// Executes every `isa:*` program with a data seed drawn from `seed`.
fn bodies(seed: u64) -> io::Result<Vec<Body>> {
    let mut rng = Rng::new(seed, 2000);
    ISA_SUITE_NAMES
        .iter()
        .map(|&name| {
            let program = program_by_name(name).expect("library program");
            let mut raw = Vec::new();
            let mut sink = CutWriter {
                writer: TraceWriter::new(&mut raw).map_err(io::Error::other)?,
            };
            IsaSource::new(program, BUDGET, rng.next_u64()).run(&mut sink);
            let records = sink.writer.records();
            sink.writer.flush().map_err(io::Error::other)?;
            drop(sink);
            if records < RECORDS {
                return Err(io::Error::other(format!("{name}: only {records} records")));
            }
            Ok(Body {
                name,
                framed: chunk_frame(&raw, CHUNK),
                raw_len: raw.len() as u64,
                expected: summarize(&raw)?,
            })
        })
        .collect()
}

/// Parses a summary response; `None` if a field is missing.
fn parse_summary(body: &str) -> Option<Summary> {
    let mut summary = [0; 8];
    for (slot, field) in summary.iter_mut().zip(FIELDS) {
        *slot = *num_fields(body, field).first()?;
    }
    Some(summary)
}

/// Uploads one body; returns the latency in ms or why it failed.
fn upload(client: &mut Client, body: &Body, extra: &str) -> Result<(f64, Summary), String> {
    let start = Instant::now();
    let reply = client
        .post_chunked(PATH, extra, &body.framed)
        .map_err(|err| format!("{}: {err}", body.name))?;
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    if reply.status != 200 {
        return Err(format!("{}: status {}", body.name, reply.status));
    }
    let summary = parse_summary(&reply.text()).ok_or(format!(
        "{}: bad summary {}",
        body.name,
        reply.text()
    ))?;
    Ok((latency_ms, summary))
}

fn check(body: &Body, summary: &Summary) -> Result<(), String> {
    if *summary == body.expected {
        Ok(())
    } else {
        Err(format!(
            "{}: summary {summary:?} != in-process {:?}",
            body.name, body.expected
        ))
    }
}

struct Fixture {
    bodies: Vec<Body>,
    server: ServerProc,
    client: Client,
}

fn setup(args: &Args) -> io::Result<Fixture> {
    let bodies = bodies(args.seed)?;
    let dir = args.run_dir.join("upload");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir)?;
    let server = ServerProc::start(
        &args.bin_dir,
        &[
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--no-preserialize".into(),
            "--jobs-dir".into(),
            dir.join("jobs").display().to_string(),
        ],
        &[],
    )?;
    let client = Client::new(&server.addr);
    Ok(Fixture {
        bodies,
        server,
        client,
    })
}

/// Uploads `body` and records the outcome; returns the latency of a
/// correct upload.
fn checked_upload(client: &mut Client, body: &Body, checks: &mut Checks) -> Option<f64> {
    match upload(client, body, "") {
        Ok((latency_ms, summary)) => {
            let verdict = check(body, &summary);
            let ok = verdict.is_ok();
            checks.output(verdict);
            ok.then_some(latency_ms)
        }
        Err(why) => {
            checks.no_answer(why);
            None
        }
    }
}

/// The known-failure probe: one upload with `Connection: close`.
fn close_probe(fx: &Fixture, checks: &mut Checks) {
    let mut client = Client::new(&fx.server.addr);
    let body = &fx.bodies[0];
    match upload(&mut client, body, "Connection: close\r\n") {
        Ok((_, summary)) => checks.output(check(body, &summary)),
        Err(why) => checks.no_answer(format!("Connection: close upload: {why}")),
    }
}

fn ops(seconds: f64) -> usize {
    let pass = ISA_SUITE_NAMES.len();
    ((seconds / OP_S / pass as f64).round() as usize).max(4) * pass
}

/// The end-to-end run.
pub fn timed(args: &Args, checks: &mut Checks) -> io::Result<Timed> {
    let mut setup_s = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let start = Instant::now();
        let mut fx = setup(args)?;
        checked_upload(&mut fx.client, &fx.bodies[0], checks);
        setup_s.push(start.elapsed().as_secs_f64());
        fixture = Some(fx);
    }
    let mut fx = fixture.expect("at least one set-up");
    let (me, server) = (std::process::id(), fx.server.pid());
    let (mut latencies_ms, mut cpu_s, mut work) = (Vec::new(), 0.0, 0.0);
    for op in 0..ops(args.seconds) {
        let body = &fx.bodies[op % fx.bodies.len()];
        let cpu = sys::cpu_s(me) + sys::cpu_s(server);
        let latency = checked_upload(&mut fx.client, body, checks);
        cpu_s += sys::cpu_s(me) + sys::cpu_s(server) - cpu;
        if let Some(latency_ms) = latency {
            latencies_ms.push(latency_ms);
            work += body.raw_len as f64;
        }
    }
    close_probe(&fx, checks);
    let peak_rss_mb = sys::peak_rss_mb(server);
    fx.server.stop()?;
    Ok(Timed {
        setup_s,
        latencies_ms,
        cpu_s,
        peak_rss_mb,
        work,
        work_unit: ("upload_mb_per_s", "MB/s", 1e-6),
    })
}

/// Sums over the traced ops.
#[derive(Default)]
struct Totals {
    op_ns: f64,
    layer_ns: f64,
    bytes: f64,
    framed_bytes: f64,
    chunked_ns: f64,
    decode_ns: f64,
    extract_ns: f64,
    events: u64,
    classes: u64,
    peak_lines: u64,
    uploads: u64,
}

/// Re-feeds one uploaded body through each decoder and the extractor
/// alone, as the server does, and checks the result against the
/// server's summary.
fn replay(body: &Body, op_ms: f64, served: &Summary, t: &mut Totals) -> Result<(), String> {
    // Deframe as the server does, into one reused slice-sized buffer.
    let mut chunks = ChunkedDecoder::new();
    let (mut scratch, mut deframed) = (Vec::with_capacity(2 * READ), 0);
    let start = Instant::now();
    for wire in body.framed.chunks(READ) {
        chunks.feed(wire, &mut scratch).map_err(|bad| bad.reason)?;
        deframed += scratch.len() as u64;
        scratch.clear();
    }
    let chunked_ns = start.elapsed().as_nanos() as f64;
    if !chunks.is_done() || deframed != body.raw_len {
        return Err(format!(
            "{}: deframed {deframed} of {} bytes",
            body.name, body.raw_len
        ));
    }
    let mut raw = Vec::with_capacity(body.raw_len as usize);
    ChunkedDecoder::new()
        .feed(&body.framed, &mut raw)
        .map_err(|bad| bad.reason)?;

    let mut decoder = StreamDecoder::new();
    let mut null = CountSink(0);
    let start = Instant::now();
    for piece in raw.chunks(READ) {
        decoder
            .feed(piece, &mut null)
            .map_err(|err| err.to_string())?;
    }
    let decode_ns = start.elapsed().as_nanos() as f64;
    decoder.finish().map_err(|err| err.to_string())?;

    let mut events = VecTrace::new();
    StreamDecoder::new()
        .feed(&raw, &mut events)
        .map_err(|err| err.to_string())?;
    let mut extractor = StreamingExtractor::new(LINE_BITS, CompactIntervalDist::new());
    let start = Instant::now();
    for access in events.iter() {
        extractor.on_access(access.addr.line(LINE_BITS), access.cycle);
    }
    let extract_ns = start.elapsed().as_nanos() as f64 - stream_ns(events.events());
    let summary = finish(extractor);
    if summary != *served || null.0 != summary[0] {
        return Err(format!(
            "{}: replayed summary {summary:?} != served {served:?}",
            body.name
        ));
    }

    t.op_ns += op_ms * 1e6;
    t.layer_ns += chunked_ns + decode_ns + extract_ns;
    t.bytes += body.raw_len as f64;
    t.framed_bytes += body.framed.len() as f64;
    t.chunked_ns += chunked_ns;
    t.decode_ns += decode_ns;
    t.extract_ns += extract_ns;
    t.events += summary[0];
    t.classes += summary[6];
    t.peak_lines = t.peak_lines.max(summary[3]);
    t.uploads += 1;
    Ok(())
}

/// The traced run: plain and traced uploads alternate on one
/// connection, so the tracing overhead is measured on the same server.
pub fn traced(args: &Args, checks: &mut Checks) -> io::Result<Layers> {
    let mut fx = setup(args)?;
    checked_upload(&mut fx.client, &fx.bodies[0], checks);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut t = Totals::default();
    for op in 0..ops(args.seconds) / 3 {
        let body = &fx.bodies[(op / 2) % fx.bodies.len()];
        if op % 2 == 0 {
            plain_ms.extend(checked_upload(&mut fx.client, body, checks));
            continue;
        }
        match upload(&mut fx.client, body, "") {
            Ok((latency_ms, summary)) => {
                traced_ms.push(latency_ms);
                checks.output(replay(body, latency_ms, &summary, &mut t));
            }
            Err(why) => checks.no_answer(why),
        }
    }
    close_probe(&fx, checks);
    fx.server.stop()?;
    let mb_per_s = |bytes: f64, ns: f64| bytes / 1e6 / (ns / 1e9);
    let residual = 1.0 - t.layer_ns / t.op_ns;
    Ok(Layers::from([
        (
            "server.chunked_decode_mb_per_s",
            mb_per_s(t.framed_bytes, t.chunked_ns),
        ),
        (
            "trace.stream_decode_mb_per_s",
            mb_per_s(t.bytes, t.decode_ns),
        ),
        (
            "intervals.streaming_ns_per_event",
            t.extract_ns / t.events.max(1) as f64,
        ),
        ("intervals.peak_resident_lines", t.peak_lines as f64),
        (
            "intervals.classes",
            t.classes as f64 / t.uploads.max(1) as f64,
        ),
        ("server.upload_residual_share", residual),
        ("op.residual_share", residual),
        (
            "op.tracing_overhead_share",
            median(&traced_ms) / median(&plain_ms) - 1.0,
        ),
    ]))
}
