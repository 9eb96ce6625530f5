//! The coordinator↔worker wire protocol: frames, the worker's chunk
//! answer, and the coordinator's frame reader.
//!
//! Workers are separate processes talking line-delimited JSON over one
//! socket — a Unix socket pair for a child the coordinator spawned, a
//! TCP stream for a worker that dialed `--job-listen` (see
//! [`crate::transport`], which also holds the one worker session both
//! run). The conversation per worker:
//!
//! ```text
//! worker → coordinator   {"worker":<pid>,"token":"…"}                   (remote only, once)
//! coordinator → worker   {"job":{...canonical spec...},"id":"j…"}      (once)
//! worker → coordinator   {"ready":<pid>}
//! coordinator → worker   {"assign":{"chunk":N,"start":S,"end":E}}      (repeated)
//! worker → coordinator   {"chunk":N,"points":K}
//!                        <row>                                          × K
//!                        {"chunk_end":N,"fnv1a":"<16 hex>"}
//!            — or —      {"chunk_err":N,"error":"…"}
//! worker → coordinator   {"hb":<seq>}                                   (any time between frames)
//! coordinator closes its half → worker ends the session
//! ```
//!
//! The admission line is checked against `--job-token` before a remote
//! session joins the pool; a local child needs none, because the
//! socket pair *is* its admission. Heartbeats let the coordinator tell
//! a slow worker from a dead or partitioned one.
//!
//! Rows travel verbatim (they are already canonical JSON) and are not
//! re-parsed in flight; the `chunk_end` footer carries FNV-1a over the
//! newline-terminated row bytes so a corrupted stream or a buggy worker
//! is caught before anything reaches a checkpoint. Framing is
//! stateful: after a `{"chunk":N,"points":K}` header the next `K`
//! lines are rows, so row content can never be mistaken for a frame.
//! [`FrameReader`] decodes that framing on the coordinator side and
//! bounds it: no line longer than [`MAX_LINE_BYTES`], no chunk header
//! announcing more rows than a chunk of the job holds.
//!
//! Evaluation failures are *reported* as `chunk_err` frames and leave
//! the worker alive; the `jobs/chunk` kill site sits in the session
//! loop, outside any unwinding guard.

use std::io::{self, BufRead, BufReader, Read};

use leakage_experiments::ProfileStore;
use leakage_faults::checksum::Fnv64;
use leakage_faults::panic_message;
use leakage_telemetry::json::{self, Json};

use crate::spec::JobSpec;

/// The one-time first frame: which job this worker will evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The job id the coordinator derived from the spec.
    pub job_id: String,
    /// The full job spec (the worker re-derives everything else).
    pub spec: JobSpec,
}

/// One unit of work: evaluate points `start..end` as chunk `chunk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assign {
    /// Chunk ordinal (names the checkpoint file).
    pub chunk: u64,
    /// First point index, inclusive.
    pub start: u64,
    /// One past the last point index.
    pub end: u64,
}

impl Hello {
    /// Encodes the hello frame (no trailing newline).
    pub fn encode(&self) -> String {
        json::object([
            json::key("job") + &self.spec.to_json(),
            json::key("id") + &json::string(&self.job_id),
        ])
    }

    /// Parses a hello frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line is not a hello frame or carries an
    /// invalid spec.
    pub fn parse(line: &str) -> io::Result<Hello> {
        let doc = parse_frame(line)?;
        let spec_doc = doc
            .get("job")
            .ok_or_else(|| bad_frame(line, "no \"job\" field"))?;
        let spec = JobSpec::from_json(spec_doc)
            .map_err(|err| bad_frame(line, &format!("bad spec: {err}")))?;
        let job_id = doc
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_frame(line, "no \"id\" field"))?
            .to_string();
        Ok(Hello { job_id, spec })
    }
}

impl Assign {
    /// Encodes the assignment frame (no trailing newline).
    pub fn encode(&self) -> String {
        json::object([json::key("assign")
            + &json::object([
                json::key("chunk") + &self.chunk.to_string(),
                json::key("start") + &self.start.to_string(),
                json::key("end") + &self.end.to_string(),
            ])])
    }

    /// Parses an assignment frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line is not an assignment.
    pub fn parse(line: &str) -> io::Result<Assign> {
        let doc = parse_frame(line)?;
        let body = doc
            .get("assign")
            .ok_or_else(|| bad_frame(line, "no \"assign\" field"))?;
        let field = |name: &str| -> io::Result<u64> {
            body.get(name)
                .and_then(uint)
                .ok_or_else(|| bad_frame(line, &format!("bad \"{name}\"")))
        };
        Ok(Assign {
            chunk: field("chunk")?,
            start: field("start")?,
            end: field("end")?,
        })
    }
}

/// The admission frame a remote worker sends immediately after
/// connecting, before any job is in play: its pid (for status
/// displays) and the shared token the listener checks before the
/// session may join the pool. Local workers never send this — their
/// socket pair *is* the admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionHello {
    /// The worker process id, as reported in job status.
    pub pid: u32,
    /// The shared secret; must match the coordinator's `--job-token`
    /// when one is configured.
    pub token: Option<String>,
}

impl SessionHello {
    /// Encodes the admission frame (no trailing newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![json::key("worker") + &self.pid.to_string()];
        if let Some(token) = &self.token {
            fields.push(json::key("token") + &json::string(token));
        }
        json::object(fields)
    }

    /// Parses an admission frame.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the line is not an admission frame.
    pub fn parse(line: &str) -> io::Result<SessionHello> {
        let doc = parse_frame(line)?;
        let pid = doc
            .get("worker")
            .and_then(uint)
            .ok_or_else(|| bad_frame(line, "no \"worker\" field"))? as u32;
        let token = doc.get("token").and_then(Json::as_str).map(str::to_string);
        Ok(SessionHello { pid, token })
    }
}

/// A frame the worker sends upward. Row lines are *not* frames — the
/// coordinator's reader counts them off after each `ChunkStart`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFrame {
    /// Worker is alive and parsed the hello; carries its pid.
    Ready(u32),
    /// A chunk's rows follow: exactly `points` verbatim lines.
    ChunkStart {
        /// Chunk ordinal being answered.
        chunk: u64,
        /// Number of row lines that follow.
        points: u64,
    },
    /// All rows for `chunk` were sent; `fnv1a` seals them.
    ChunkEnd {
        /// Chunk ordinal being sealed.
        chunk: u64,
        /// FNV-1a over the newline-terminated row bytes.
        fnv1a: u64,
    },
    /// The chunk could not be evaluated (worker stays alive).
    ChunkErr {
        /// Chunk ordinal that failed.
        chunk: u64,
        /// Human-readable cause, relayed into the job status.
        error: String,
    },
    /// Liveness beacon, sent from a side thread between frames; the
    /// sequence number is monotonic per session.
    Heartbeat(u64),
}

impl WorkerFrame {
    /// Encodes the frame (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerFrame::Ready(pid) => json::object([json::key("ready") + &pid.to_string()]),
            WorkerFrame::ChunkStart { chunk, points } => json::object([
                json::key("chunk") + &chunk.to_string(),
                json::key("points") + &points.to_string(),
            ]),
            WorkerFrame::ChunkEnd { chunk, fnv1a } => json::object([
                json::key("chunk_end") + &chunk.to_string(),
                json::key("fnv1a") + &json::string(&format!("{fnv1a:016x}")),
            ]),
            WorkerFrame::ChunkErr { chunk, error } => json::object([
                json::key("chunk_err") + &chunk.to_string(),
                json::key("error") + &json::string(error),
            ]),
            WorkerFrame::Heartbeat(seq) => json::object([json::key("hb") + &seq.to_string()]),
        }
    }

    /// Parses one worker frame line.
    ///
    /// # Errors
    ///
    /// `InvalidData` for anything that is not one of the four frames.
    pub fn parse(line: &str) -> io::Result<WorkerFrame> {
        let doc = parse_frame(line)?;
        if let Some(pid) = doc.get("ready").and_then(uint) {
            return Ok(WorkerFrame::Ready(pid as u32));
        }
        if let Some(seq) = doc.get("hb").and_then(uint) {
            return Ok(WorkerFrame::Heartbeat(seq));
        }
        if let Some(chunk) = doc.get("chunk_end").and_then(uint) {
            let fnv1a = doc
                .get("fnv1a")
                .and_then(Json::as_str)
                .filter(|hex| hex.len() == 16)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| bad_frame(line, "bad \"fnv1a\""))?;
            return Ok(WorkerFrame::ChunkEnd { chunk, fnv1a });
        }
        if let Some(chunk) = doc.get("chunk_err").and_then(uint) {
            let error = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            return Ok(WorkerFrame::ChunkErr { chunk, error });
        }
        if let Some(chunk) = doc.get("chunk").and_then(uint) {
            let points = doc
                .get("points")
                .and_then(uint)
                .ok_or_else(|| bad_frame(line, "bad \"points\""))?;
            return Ok(WorkerFrame::ChunkStart { chunk, points });
        }
        Err(bad_frame(line, "unrecognized frame"))
    }
}

/// FNV-1a over rows exactly as they travel: each row's bytes plus the
/// `\n` terminator. Shared by the worker (sealing) and the coordinator
/// (verifying).
pub fn rows_checksum(rows: &[String]) -> u64 {
    let mut hash = Fnv64::new();
    for row in rows {
        hash.update(row.as_bytes());
        hash.update(b"\n");
    }
    hash.finish()
}

/// Longest line the coordinator reads from a worker. Rows are about
/// 200 bytes and frames less, so a longer line is a broken or hostile
/// worker, not a large answer.
pub const MAX_LINE_BYTES: usize = 4096;

/// One frame from a worker, decoded by [`FrameReader`], with a chunk's
/// rows attached and verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inbound {
    /// The worker parsed the hello and takes assignments.
    Ready,
    /// A liveness beacon.
    Heartbeat,
    /// A chunk's rows: exactly as many as its header announced, sealed
    /// by a matching `chunk_end` whose checksum verified.
    ChunkDone {
        /// Chunk ordinal answered.
        chunk: u64,
        /// The verbatim rows, in point order.
        rows: Vec<String>,
    },
    /// The worker could not evaluate the chunk.
    ChunkErr {
        /// Chunk ordinal that failed.
        chunk: u64,
        /// The worker's reason.
        error: String,
    },
}

/// The coordinator's reader of one worker stream. Framing is stateful
/// (a chunk header's rows follow it), and every allocation is bounded
/// before it is made: lines by [`MAX_LINE_BYTES`], a chunk's rows by
/// the job's chunk size.
pub struct FrameReader<R> {
    input: BufReader<R>,
    max_points: u64,
}

impl<R: Read> FrameReader<R> {
    /// Reads frames from `input`; a chunk header announcing more than
    /// `max_points` rows is a protocol violation.
    pub fn new(input: R, max_points: u64) -> FrameReader<R> {
        FrameReader {
            input: BufReader::new(input),
            max_points,
        }
    }

    /// The next frame; `Ok(None)` when the stream ends between frames.
    ///
    /// # Errors
    ///
    /// Why the stream cannot be read on — a read failure, an oversized
    /// line, a malformed or out-of-order frame, a short or unsealed
    /// chunk, or a checksum mismatch. The link is unusable after one.
    pub fn next_frame(&mut self) -> Result<Option<Inbound>, String> {
        let Some(line) = self.line()? else {
            return Ok(None);
        };
        let (chunk, points) = match WorkerFrame::parse(&line).map_err(|err| err.to_string())? {
            WorkerFrame::Ready(_) => return Ok(Some(Inbound::Ready)),
            WorkerFrame::Heartbeat(_) => return Ok(Some(Inbound::Heartbeat)),
            WorkerFrame::ChunkErr { chunk, error } => {
                return Ok(Some(Inbound::ChunkErr { chunk, error }))
            }
            WorkerFrame::ChunkEnd { chunk, .. } => {
                return Err(format!("chunk_end {chunk} without chunk header"))
            }
            WorkerFrame::ChunkStart { chunk, points } => (chunk, points),
        };
        if points > self.max_points {
            return Err(format!(
                "chunk {chunk} announces {points} rows; a chunk holds at most {}",
                self.max_points
            ));
        }
        let mut rows = Vec::with_capacity(points as usize);
        while (rows.len() as u64) < points {
            match self.line()? {
                Some(row) => rows.push(row),
                None => {
                    return Err(format!(
                        "stream ended mid-chunk {chunk}: {}/{points} rows",
                        rows.len()
                    ))
                }
            }
        }
        let seal = self
            .line()?
            .ok_or_else(|| format!("no chunk_end after chunk {chunk}"))?;
        match WorkerFrame::parse(&seal) {
            Ok(WorkerFrame::ChunkEnd {
                chunk: sealed,
                fnv1a,
            }) if sealed == chunk => {
                if fnv1a != rows_checksum(&rows) {
                    return Err(format!("chunk {chunk} row checksum mismatch"));
                }
                Ok(Some(Inbound::ChunkDone { chunk, rows }))
            }
            _ => Err(format!("bad seal after chunk {chunk}: {seal:?}")),
        }
    }

    /// One line without its `\n` (or `\r\n`), read no further than
    /// [`MAX_LINE_BYTES`] past its start; `None` at end of stream.
    fn line(&mut self) -> Result<Option<String>, String> {
        let mut line = Vec::new();
        (&mut self.input)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
            .map_err(|err| format!("stream read: {err}"))?;
        if line.is_empty() {
            return Ok(None);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        } else if line.len() > MAX_LINE_BYTES {
            return Err(format!("line longer than {MAX_LINE_BYTES} bytes"));
        }
        String::from_utf8(line)
            .map(Some)
            .map_err(|_| "stream read: line is not UTF-8".to_string())
    }
}

/// A non-negative integral JSON number (saturating at `u64::MAX`).
fn uint(value: &Json) -> Option<u64> {
    value
        .as_f64()
        .filter(|v| v.fract() == 0.0 && *v >= 0.0)
        .map(|v| v as u64)
}

fn parse_frame(line: &str) -> io::Result<Json> {
    json::parse(line).map_err(|err| bad_frame(line, &err.to_string()))
}

fn bad_frame(line: &str, why: &str) -> io::Error {
    let head: String = line.chars().take(96).collect();
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("bad protocol frame {head:?}: {why}"),
    )
}

/// Evaluates one assignment and renders the complete wire response —
/// the `{"chunk":…}` header, the verbatim rows, and the sealing
/// `chunk_end` (or a single `chunk_err` line), every line
/// newline-terminated. Building the whole response before any byte
/// leaves lets the session send it under one writer lock, so
/// heartbeats can never interleave with rows.
pub fn chunk_response(spec: &JobSpec, store: &ProfileStore, assign: &Assign) -> String {
    if assign.end < assign.start || assign.end > spec.point_count() {
        let frame = WorkerFrame::ChunkErr {
            chunk: assign.chunk,
            error: format!(
                "assignment {}..{} outside job space of {} points",
                assign.start,
                assign.end,
                spec.point_count()
            ),
        };
        return frame.encode() + "\n";
    }
    let with_permille = spec.has_refetch_axis();
    let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<Vec<String>, String> {
            let mut rows = Vec::with_capacity((assign.end - assign.start) as usize);
            for index in assign.start..assign.end {
                let point = spec.point(index);
                let profile = store
                    .try_fetch(&point.benchmark, spec.scale)
                    .map_err(|err| format!("profile {}: {err}", point.benchmark))?;
                let savings = point.evaluate(&profile);
                rows.push(crate::spec::render_job_row(&point, &savings, with_permille));
            }
            Ok(rows)
        },
    ))
    .unwrap_or_else(|payload| Err(format!("panic: {}", panic_message(payload.as_ref()))));
    match evaluated {
        Ok(rows) => {
            let mut response = WorkerFrame::ChunkStart {
                chunk: assign.chunk,
                points: rows.len() as u64,
            }
            .encode();
            response.push('\n');
            for row in &rows {
                response.push_str(row);
                response.push('\n');
            }
            response.push_str(
                &WorkerFrame::ChunkEnd {
                    chunk: assign.chunk,
                    fnv1a: rows_checksum(&rows),
                }
                .encode(),
            );
            response.push('\n');
            response
        }
        Err(error) => {
            WorkerFrame::ChunkErr {
                chunk: assign.chunk,
                error,
            }
            .encode()
                + "\n"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_workloads::Scale;

    #[test]
    fn rows_checksum_matches_manual_fnv() {
        let rows = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        let mut hash = Fnv64::new();
        hash.update(b"{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(rows_checksum(&rows), hash.finish());
        assert_ne!(rows_checksum(&rows), rows_checksum(&rows[..1]));
    }

    fn one_chunk_spec() -> JobSpec {
        let mut spec = JobSpec::build(
            "inproc",
            Scale::Test,
            vec!["gzip".into()],
            vec![leakage_cachesim::Level1::Instruction],
            vec![leakage_energy::TechnologyNode::N70],
            crate::spec::PermilleAxis {
                from: 1000,
                to: 1003,
                step: 1,
            },
            crate::spec::MIN_CHUNK_POINTS,
        )
        .unwrap();
        spec.chunk_points = crate::spec::MIN_CHUNK_POINTS;
        spec
    }

    /// Every frame `FrameReader` yields for `bytes`, then the reason it
    /// stopped (`None`: a clean end of stream).
    fn read_all(bytes: &[u8], max_points: u64) -> (Vec<Inbound>, Option<String>) {
        let mut reader = FrameReader::new(bytes, max_points);
        let mut frames = Vec::new();
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(reason) => return (frames, Some(reason)),
            }
        }
    }

    #[test]
    fn chunk_response_reads_back_as_a_sealed_chunk() {
        let spec = one_chunk_spec();
        let assign = Assign {
            chunk: 0,
            start: 0,
            end: spec.point_count(),
        };
        let response = chunk_response(&spec, ProfileStore::global(), &assign);
        let stream = format!(
            "{}\n{response}{}\n",
            WorkerFrame::Ready(7).encode(),
            WorkerFrame::Heartbeat(1).encode()
        );
        let (frames, end) = read_all(stream.as_bytes(), 16);
        assert_eq!(end, None);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], Inbound::Ready);
        assert_eq!(frames[2], Inbound::Heartbeat);
        let Inbound::ChunkDone { chunk: 0, rows } = &frames[1] else {
            panic!("{:?}", frames[1]);
        };
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.contains("\"benchmark\": \"gzip\"")));
        assert!(rows[0].contains("\"refetch_permille\": 1000"));
    }

    #[test]
    fn out_of_range_assignment_reports_chunk_err() {
        let spec = JobSpec::default_axes("range", Scale::Test);
        let assign = Assign {
            chunk: 5,
            start: 0,
            end: spec.point_count() + 1,
        };
        let response = chunk_response(&spec, ProfileStore::global(), &assign);
        let (frames, end) = read_all(response.as_bytes(), 16);
        assert_eq!(end, None);
        assert!(
            matches!(frames[..], [Inbound::ChunkErr { chunk: 5, .. }]),
            "{frames:?}"
        );
    }
}
