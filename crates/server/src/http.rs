//! A minimal HTTP/1.1 protocol layer — incremental request parsing
//! over byte buffers (shared by the epoll reactor, the workers, and
//! the tests), pre-serializable responses, and a small
//! blocking client with keep-alive support (used by the load
//! generator and the integration tests).
//!
//! Scope is deliberately narrow: `Content-Length` bodies, plus
//! `Transfer-Encoding: chunked` on routes that opt into streaming
//! consumption (a chunked request parses [`Parse::Complete`] at the
//! end of its header block with [`Request::chunked`] set and an empty
//! `body`; the connection layer then drives a [`ChunkedDecoder`] over
//! the wire bytes instead of buffering the body). ASCII request
//! targets with percent-escapes. Persistent connections are the
//! default (HTTP/1.1 keep-alive); `Connection: close` and HTTP/1.0
//! are honored. That subset is everything the analysis service needs,
//! and keeping it small is what lets the crate stay dependency-free.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::trace::ReqTrace;

/// Maximum size of the request line plus headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Maximum accepted request body (`/v1/sweep` batches are the only
/// bodies; a thousand points is ~100 bytes each).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, percent-decoded path, decoded query
/// pairs in arrival order, and the raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// Percent-decoded `key=value` pairs, in query-string order.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise;
    /// always empty when [`Self::chunked`] — the body is still on the
    /// wire).
    pub body: Vec<u8>,
    /// The request declared `Transfer-Encoding: chunked`: its body
    /// was **not** buffered into `body` and must be consumed from the
    /// connection through a [`ChunkedDecoder`] before the next
    /// request can be framed.
    pub chunked: bool,
    /// Whether the client asked for the connection to close after
    /// this exchange (`Connection: close`, or HTTP/1.0 without
    /// `Connection: keep-alive`).
    pub close: bool,
    /// Trace context: the id from `X-Request-Id` (0 until assigned)
    /// plus parse-time stamps filled in by the connection layer.
    pub trace: ReqTrace,
}

impl Request {
    /// A GET request to `path` with no query or body (test helper).
    pub fn get(path: &str) -> Self {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: Vec::new(),
            body: Vec::new(),
            chunked: false,
            close: false,
            trace: ReqTrace::default(),
        }
    }

    /// The first value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The canonical cache key for this request: method and path plus
    /// the query pairs re-sorted, so `?a=1&b=2` and `?b=2&a=1` share a
    /// response-cache entry.
    pub fn canonical_key(&self) -> String {
        let mut pairs: Vec<&(String, String)> = self.query.iter().collect();
        pairs.sort();
        let query: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{} {}?{}", self.method, self.path, query.join("&"))
    }
}

/// Why a request could not be parsed, with the status the server
/// should answer.
#[derive(Debug)]
pub struct BadRequest {
    /// The HTTP status to answer with (400, 413, or 431).
    pub status: u16,
    /// Human-readable reason, echoed in the error body.
    pub reason: String,
}

impl BadRequest {
    fn new(status: u16, reason: impl Into<String>) -> Self {
        BadRequest {
            status,
            reason: reason.into(),
        }
    }
}

/// The outcome of one incremental parse attempt over a connection's
/// input buffer.
#[derive(Debug)]
pub enum Parse {
    /// A full request; `used` bytes of the buffer belong to it
    /// (pipelined successors may follow).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes consumed from the front of the buffer.
        used: usize,
    },
    /// The buffer holds a prefix of a request; read more bytes.
    Partial,
    /// A malformed request. `used: Some(n)` means the request's
    /// framing is known — answer the error, drop `n` bytes, and the
    /// connection may continue; `None` means framing was lost (e.g.
    /// an oversized or truncated header block) and the connection
    /// must close after the error is written.
    Bad {
        /// Status and reason to answer with.
        bad: BadRequest,
        /// Bytes to consume if the connection can survive.
        used: Option<usize>,
    },
}

/// Finds the next `\n` at or after `from`, eight bytes per step
/// (SWAR zero-byte trick). Both the request parser and the loadgen's
/// response parser scan every wire byte through here, so the naive
/// byte loop shows up directly as serving throughput.
#[inline]
fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let needle = LO * u64::from(b'\n');
    let mut i = from;
    while i + 8 <= buf.len() {
        let word = u64::from_le_bytes(buf[i..i + 8].try_into().expect("8-byte window"));
        let x = word ^ needle;
        let hit = x.wrapping_sub(LO) & !x & HI;
        if hit != 0 {
            return Some(i + hit.trailing_zeros() as usize / 8);
        }
        i += 8;
    }
    buf[i..].iter().position(|&b| b == b'\n').map(|p| i + p)
}

/// Finds the end of the header block: the index just past the first
/// `\r\n\r\n` or `\n\n`.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(nl) = find_newline(buf, i) {
        match buf.get(nl + 1) {
            Some(b'\n') => return Some(nl + 2),
            Some(b'\r') if buf.get(nl + 2) == Some(&b'\n') => return Some(nl + 3),
            _ => i = nl + 1,
        }
    }
    None
}

/// Incrementally parses one request from the front of `buf`.
///
/// This is the only request parser: the reactor calls it after each
/// readiness-driven read, and workers call it to peel pipelined
/// successors off an already-filled buffer.
pub fn parse_request(buf: &[u8]) -> Parse {
    let Some(head_end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Parse::Bad {
                bad: BadRequest::new(431, "request headers too large"),
                used: None,
            };
        }
        return Parse::Partial;
    };
    if head_end > MAX_HEADER_BYTES {
        return Parse::Bad {
            bad: BadRequest::new(431, "request headers too large"),
            used: None,
        };
    }

    let text = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = text.lines();
    let request_line = match lines.next() {
        Some(line) if !line.trim().is_empty() => line,
        // The header block is complete, so framing is known even
        // though the request line is junk.
        _ => {
            return Parse::Bad {
                bad: BadRequest::new(400, "empty request line"),
                used: Some(head_end),
            }
        }
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(method), Some(target)) => (method.to_ascii_uppercase(), target),
        _ => {
            return Parse::Bad {
                bad: BadRequest::new(400, "malformed request line"),
                used: Some(head_end),
            }
        }
    };
    let http10 = parts.next() == Some("HTTP/1.0");

    let mut content_length = 0usize;
    let mut close = http10;
    let mut chunked = false;
    let mut trace_id = 0u64;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            if value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            } else {
                // An encoding we cannot deframe: the body's extent is
                // unknowable, so the connection must close.
                return Parse::Bad {
                    bad: BadRequest::new(400, "unsupported Transfer-Encoding"),
                    used: None,
                };
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` only: `str::parse` would also take a leading
            // `+`, a framing that a stricter proxy in front would read
            // differently.
            let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
            match value.parse::<usize>().ok().filter(|_| digits) {
                Some(n) => content_length = n,
                // Framing depends on the unparseable length: close.
                None => {
                    return Parse::Bad {
                        bad: BadRequest::new(400, "bad Content-Length"),
                        used: None,
                    }
                }
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("x-request-id") {
            trace_id = crate::trace::parse_trace_id(value);
        }
    }
    if content_length > MAX_BODY_BYTES {
        // Refuse to buffer an oversized body just to resync; close.
        return Parse::Bad {
            bad: BadRequest::new(413, "request body too large"),
            used: None,
        };
    }
    // A chunked request completes at the header block: the body is
    // wire-framed by the chunk grammar (RFC 9112 overrides any
    // Content-Length) and is consumed by the connection layer through
    // a `ChunkedDecoder`, never buffered here.
    let total = if chunked { head_end } else { head_end + content_length };
    if buf.len() < total {
        return Parse::Partial;
    }
    let recoverable = |bad: BadRequest| Parse::Bad {
        bad,
        used: Some(total),
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let Some(path) = percent_decode(raw_path) else {
        return recoverable(BadRequest::new(400, "bad percent-escape in path"));
    };
    if !path.starts_with('/') {
        return recoverable(BadRequest::new(400, "request target must be absolute"));
    }
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        match (percent_decode(k), percent_decode(v)) {
            (Some(k), Some(v)) => query.push((k, v)),
            _ => return recoverable(BadRequest::new(400, "bad percent-escape in query")),
        }
    }

    Parse::Complete {
        request: Request {
            method,
            path,
            query,
            body: buf[head_end..total].to_vec(),
            chunked,
            close,
            trace: ReqTrace {
                id: trace_id,
                from_client: trace_id != 0,
                ..ReqTrace::default()
            },
        },
        used: total,
    }
}

/// Decodes `%XX` escapes and `+`-as-space. `None` on truncated or
/// non-hex escapes.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hex = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Progress of a [`ChunkedDecoder`] feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Reading the hex size line of the next chunk.
    Size,
    /// Inside a chunk's data, this many bytes still to come.
    Data(u64),
    /// Expecting the `\r\n` (or bare `\n`) terminating a chunk's data.
    DataEnd,
    /// Saw the `\r` of the data terminator; `\n` must follow.
    DataLf,
    /// After the zero-size chunk: trailer lines until a blank line.
    Trailer,
    /// The terminating blank line arrived; the body is complete.
    Done,
}

/// Longest accepted chunk-size or trailer line (a size line is ~16
/// hex digits plus extensions; anything longer is an attack or a bug).
const MAX_CHUNK_LINE: usize = 1024;

/// An incremental `Transfer-Encoding: chunked` body decoder.
///
/// Feed it raw wire bytes as they arrive; it appends the deframed
/// data bytes to the caller's output buffer and reports how many
/// input bytes it consumed, stopping at the end of the body so
/// pipelined successors stay in the caller's buffer. State is a few
/// words plus one partial line — memory never scales with body size,
/// which is what lets the trace route ingest arbitrarily long
/// uploads.
///
/// # Examples
///
/// ```
/// use leakage_server::http::ChunkedDecoder;
///
/// let mut decoder = ChunkedDecoder::new();
/// let mut data = Vec::new();
/// let used = decoder.feed(b"5\r\nhello\r\n0\r\n\r\nGET /", &mut data).unwrap();
/// assert!(decoder.is_done());
/// assert_eq!(data, b"hello");
/// assert_eq!(used, 15); // "GET /" belongs to the next request
/// ```
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: ChunkState,
    /// Partial size/trailer line straddling feeds.
    line: Vec<u8>,
    decoded: u64,
}

impl Default for ChunkedDecoder {
    fn default() -> Self {
        ChunkedDecoder::new()
    }
}

impl ChunkedDecoder {
    /// A decoder positioned before the first chunk-size line.
    pub fn new() -> Self {
        ChunkedDecoder {
            state: ChunkState::Size,
            line: Vec::new(),
            decoded: 0,
        }
    }

    /// Whether the terminating zero-size chunk (and its trailer) has
    /// been consumed.
    pub fn is_done(&self) -> bool {
        self.state == ChunkState::Done
    }

    /// Total data bytes deframed so far (the caller's streaming cap).
    pub fn decoded_bytes(&self) -> u64 {
        self.decoded
    }

    /// Consumes wire bytes from the front of `buf`, appending
    /// deframed data to `out`. Returns how many bytes of `buf` were
    /// consumed — all of them unless the body completed mid-buffer.
    ///
    /// # Errors
    ///
    /// Malformed chunk framing (bad hex size, missing terminator,
    /// oversized size/trailer line). Framing is lost: the connection
    /// must close after answering.
    pub fn feed(&mut self, buf: &[u8], out: &mut Vec<u8>) -> Result<usize, BadRequest> {
        let mut i = 0;
        while i < buf.len() {
            match self.state {
                ChunkState::Done => break,
                ChunkState::Size => match self.take_line(buf, &mut i)? {
                    None => {}
                    Some(line) => {
                        let size = parse_chunk_size(&line)?;
                        self.state = if size == 0 {
                            ChunkState::Trailer
                        } else {
                            ChunkState::Data(size)
                        };
                    }
                },
                ChunkState::Data(remaining) => {
                    let available = buf.len() - i;
                    let take = usize::try_from(remaining.min(available as u64))
                        .expect("bounded by available");
                    out.extend_from_slice(&buf[i..i + take]);
                    self.decoded += take as u64;
                    i += take;
                    self.state = match remaining - take as u64 {
                        0 => ChunkState::DataEnd,
                        left => ChunkState::Data(left),
                    };
                }
                ChunkState::DataEnd => {
                    match buf[i] {
                        b'\r' => self.state = ChunkState::DataLf,
                        b'\n' => self.state = ChunkState::Size,
                        _ => {
                            return Err(BadRequest::new(
                                400,
                                "chunk data not terminated by CRLF",
                            ))
                        }
                    }
                    i += 1;
                }
                ChunkState::DataLf => {
                    if buf[i] != b'\n' {
                        return Err(BadRequest::new(400, "chunk data not terminated by CRLF"));
                    }
                    i += 1;
                    self.state = ChunkState::Size;
                }
                ChunkState::Trailer => match self.take_line(buf, &mut i)? {
                    Some(line) if line.is_empty() => self.state = ChunkState::Done,
                    // Non-empty trailer fields are consumed and ignored
                    // (this server solicits none).
                    _ => {}
                },
            }
        }
        Ok(i)
    }

    /// Accumulates bytes up to the next `\n`; `Some(line)` (CR
    /// stripped) once complete, `None` when the buffer ran out first.
    fn take_line(&mut self, buf: &[u8], i: &mut usize) -> Result<Option<Vec<u8>>, BadRequest> {
        match buf[*i..].iter().position(|&b| b == b'\n') {
            Some(nl) => {
                self.line.extend_from_slice(&buf[*i..*i + nl]);
                *i += nl + 1;
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
                if self.line.len() > MAX_CHUNK_LINE {
                    return Err(BadRequest::new(400, "chunk framing line too long"));
                }
                Ok(Some(std::mem::take(&mut self.line)))
            }
            None => {
                self.line.extend_from_slice(&buf[*i..]);
                *i = buf.len();
                // A trailing CR may be the first half of the CRLF the
                // next feed completes; it is not counted against the
                // cap, so the verdict does not depend on where the
                // bytes were split.
                let pending_cr = usize::from(self.line.last() == Some(&b'\r'));
                if self.line.len() - pending_cr > MAX_CHUNK_LINE {
                    return Err(BadRequest::new(400, "chunk framing line too long"));
                }
                Ok(None)
            }
        }
    }
}

/// Parses a chunk-size line: hex digits, optional `;extension` tail.
fn parse_chunk_size(line: &[u8]) -> Result<u64, BadRequest> {
    let text = std::str::from_utf8(line)
        .map_err(|_| BadRequest::new(400, "chunk size line is not UTF-8"))?;
    let digits = text.split(';').next().unwrap_or("").trim();
    // `1*HEXDIG` only: `from_str_radix` would also take a leading `+`.
    if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(BadRequest::new(400, "bad chunk size"));
    }
    u64::from_str_radix(digits, 16).map_err(|_| BadRequest::new(400, "bad chunk size"))
}

/// A response ready to serialize: status, content type, extra headers
/// (e.g. `Retry-After`), body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// An `application/json` response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A `text/csv` response.
    pub fn csv(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/csv",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error body `{"error": reason}` with the given status.
    pub fn error(status: u16, reason: &str) -> Self {
        let body = leakage_telemetry::json::object([
            leakage_telemetry::json::key("error") + &leakage_telemetry::json::string(reason),
        ]);
        Response::json(status, body)
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Pre-serializes into a [`WireResponse`]: the head is rendered
    /// once, the body moves behind an `Arc`, and every later send is
    /// two `memcpy`s — this is the representation the response cache
    /// holds.
    pub fn into_wire(self) -> WireResponse {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        WireResponse {
            status: self.status,
            head: Arc::from(head.as_str()),
            body: Arc::from(self.body.into_boxed_slice()),
        }
    }

    /// Serializes the response (HTTP/1.1, `Connection: close`,
    /// explicit `Content-Length`) — the one-shot path.
    ///
    /// # Errors
    ///
    /// Transport errors from the underlying stream.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        self.clone().into_wire().serialize_into(&mut out, false);
        stream.write_all(&out)?;
        stream.flush()
    }
}

/// A pre-serialized response: rendered head (everything but the
/// `Connection` header) plus `Arc`-shared body bytes. Cloning is two
/// reference-count bumps, so cache hits and pre-built artifacts are
/// served without copying or re-rendering anything.
#[derive(Debug, Clone)]
pub struct WireResponse {
    status: u16,
    /// Status line + headers, each line `\r\n`-terminated; the
    /// `Connection` header and blank line are appended per send.
    head: Arc<str>,
    body: Arc<[u8]>,
}

impl WireResponse {
    /// HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Bytes in the rendered head (without the per-send `Connection`
    /// header).
    pub fn head_len(&self) -> usize {
        self.head.len()
    }

    /// Appends the full serialized response to `out`, choosing the
    /// `Connection` header per the connection's fate. Workers batch
    /// pipelined responses into one buffer this way and issue a
    /// single write.
    pub fn serialize_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        self.serialize_traced(out, keep_alive, |_| {});
    }

    /// [`Self::serialize_into`] with per-send headers: `extra` is
    /// invoked between the shared pre-rendered head and the
    /// `Connection` line, so request-scoped headers (`X-Request-Id`,
    /// `Server-Timing`) can ride on cached responses without
    /// touching the shared bytes.
    pub fn serialize_traced(
        &self,
        out: &mut Vec<u8>,
        keep_alive: bool,
        extra: impl FnOnce(&mut Vec<u8>),
    ) {
        // Headroom covers the Connection line plus the ~200 bytes of
        // per-request tracing headers `extra` may inject.
        out.reserve(self.head.len() + 256 + self.body.len());
        out.extend_from_slice(self.head.as_bytes());
        extra(out);
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n" as &[u8]
        } else {
            b"Connection: close\r\n\r\n"
        });
        out.extend_from_slice(&self.body);
    }

    /// The full serialized response as fresh bytes.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_into(&mut out, keep_alive);
        out
    }
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// What the blocking client got back.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw header block (status line through the blank line). Headers
    /// are scanned on demand by [`Self::header`] — the loadgen parses
    /// tens of thousands of responses per second, and materializing a
    /// `Vec<(String, String)>` per response costs more than every
    /// lookup the callers actually make.
    head: Vec<u8>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let mut pos = find_newline(&self.head, 0).map_or(self.head.len(), |nl| nl + 1);
        while pos < self.head.len() {
            let nl = find_newline(&self.head, pos).unwrap_or(self.head.len());
            let line = &self.head[pos..nl];
            if let Some(colon) = line.iter().position(|&b| b == b':') {
                if header_name_is(&line[..colon], name) {
                    let value = std::str::from_utf8(&line[colon + 1..]).ok()?;
                    return Some(value.trim());
                }
            }
            pos = nl + 1;
        }
        None
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Whether raw header-name bytes match `name` (ASCII
/// case-insensitive, surrounding whitespace ignored).
fn header_name_is(raw: &[u8], name: &str) -> bool {
    let start = raw.iter().position(|b| !b.is_ascii_whitespace());
    let Some(start) = start else { return false };
    let end = raw.iter().rposition(|b| !b.is_ascii_whitespace()).map_or(0, |p| p + 1);
    raw[start..end].eq_ignore_ascii_case(name.as_bytes())
}

/// Incrementally parses one response from the front of `buf`:
/// `Some((response, used))` when complete, `None` when more bytes are
/// needed. Requires `Content-Length` framing (which this server
/// always provides). Works on raw bytes — the loadgen funnels every
/// response through here, so there is no per-header allocation and no
/// up-front UTF-8 pass over the (tracing-bearing) header block.
///
/// # Errors
///
/// `InvalidData` on a malformed status line.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(ClientResponse, usize)>> {
    let Some(head_end) = find_header_end(buf) else {
        return Ok(None);
    };
    let head = &buf[..head_end];
    let status_end = find_newline(head, 0).unwrap_or(head.len());
    let status = parse_status_line(&head[..status_end]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "bad status line: {:?}",
                String::from_utf8_lossy(&head[..status_end])
            ),
        )
    })?;
    let mut content_length = 0usize;
    let mut pos = status_end + 1;
    while pos < head.len() {
        let nl = find_newline(head, pos).unwrap_or(head.len());
        let line = &head[pos..nl];
        // The colon scan stops at the (short) header name; values are
        // only traversed by the 8-bytes-a-step newline search.
        if let Some(colon) = line.iter().position(|&b| b == b':') {
            if header_name_is(&line[..colon], "content-length") {
                content_length = std::str::from_utf8(&line[colon + 1..])
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
            }
        }
        pos = nl + 1;
    }
    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        ClientResponse {
            status,
            head: head.to_vec(),
            body: buf[head_end..total].to_vec(),
        },
        total,
    )))
}

/// Parses `HTTP/1.1 200 OK` → `200`.
fn parse_status_line(line: &[u8]) -> Option<u16> {
    let sp = line.iter().position(|&b| b == b' ')?;
    let rest = &line[sp + 1..];
    let end = rest.iter().position(|&b| b == b' ').unwrap_or(rest.len());
    std::str::from_utf8(&rest[..end]).ok()?.trim().parse().ok()
}

/// A persistent keep-alive HTTP client over one connection: requests
/// are written without `Connection: close`, responses parsed by
/// `Content-Length`, so the connection is reused — and multiple
/// requests may be pipelined before the first response is read.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned responses. A
    /// cursor instead of `drain` so peeling one response off a
    /// pipelined burst does not memmove the rest of the burst.
    pos: usize,
    addr: SocketAddr,
}

impl Client {
    /// Connects with `timeout` applied to connect, reads, and writes.
    ///
    /// # Errors
    ///
    /// Connect/configure failures.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            pos: 0,
            addr,
        })
    }

    /// The underlying stream (tests shut down halves directly).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Renders one keep-alive request into `out` (no I/O). A
    /// `trace_id` adds an `X-Request-Id` header, opting the request
    /// into the server's `Server-Timing` attribution.
    pub fn render_request(
        &self,
        out: &mut Vec<u8>,
        method: &str,
        target: &str,
        trace_id: Option<u64>,
        body: &[u8],
    ) {
        out.extend_from_slice(method.as_bytes());
        out.extend_from_slice(b" ");
        out.extend_from_slice(target.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
        out.extend_from_slice(self.addr.to_string().as_bytes());
        if let Some(id) = trace_id {
            out.extend_from_slice(b"\r\nX-Request-Id: ");
            crate::trace::push_u64(out, id);
        }
        out.extend_from_slice(b"\r\nContent-Length: ");
        out.extend_from_slice(body.len().to_string().as_bytes());
        out.extend_from_slice(b"\r\n\r\n");
        out.extend_from_slice(body);
    }

    /// Sends one request on the persistent connection.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send(&mut self, method: &str, target: &str, body: Option<&[u8]>) -> io::Result<()> {
        let mut out = Vec::with_capacity(256);
        self.render_request(&mut out, method, target, None, body.unwrap_or_default());
        self.stream.write_all(&out)
    }

    /// Pipelines a batch of GETs in a single write.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_pipelined(&mut self, targets: &[&str]) -> io::Result<()> {
        let mut out = Vec::with_capacity(128 * targets.len());
        for target in targets {
            self.render_request(&mut out, "GET", target, None, b"");
        }
        self.stream.write_all(&out)
    }

    /// [`Self::send_pipelined`] with an optional trace id per target
    /// (the loadgen samples `Server-Timing` by attaching ids to a
    /// subset of its requests).
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send_pipelined_traced(&mut self, targets: &[(&str, Option<u64>)]) -> io::Result<()> {
        let mut out = Vec::with_capacity(160 * targets.len());
        for (target, trace_id) in targets {
            self.render_request(&mut out, "GET", target, *trace_id, b"");
        }
        self.stream.write_all(&out)
    }

    /// Reads the next response off the connection (in pipelined
    /// order).
    ///
    /// # Errors
    ///
    /// Transport failures, `UnexpectedEof` if the server closed
    /// before a full response arrived.
    pub fn recv(&mut self) -> io::Result<ClientResponse> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.buf[self.pos..])? {
                self.pos += used;
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                }
                return Ok(response);
            }
            // Only a response that straddles reads pays the compact.
            if self.pos > 0 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-response",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// One round trip on the persistent connection.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn roundtrip(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&[u8]>,
    ) -> io::Result<ClientResponse> {
        self.send(method, target, body)?;
        self.recv()
    }
}

/// One blocking request over a fresh `Connection: close` connection
/// (the protocol the integration tests and one-shot probes use).
///
/// # Errors
///
/// Connect/read/write failures and timeouts.
pub fn fetch(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    fetch_traced(addr, method, target, None, body, timeout)
}

/// [`fetch`] with an optional `X-Request-Id` trace id, opting the
/// request into the server's `Server-Timing` attribution.
///
/// # Errors
///
/// Connect/read/write failures and timeouts.
pub fn fetch_traced(
    addr: SocketAddr,
    method: &str,
    target: &str,
    trace_id: Option<u64>,
    body: Option<&[u8]>,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or_default();
    let id_line = trace_id.map_or(String::new(), |id| format!("X-Request-Id: {id}\r\n"));
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\n{id_line}Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((response, _)) = parse_response(&buf)? {
            return Ok(response);
        }
        match stream.read(&mut chunk)? {
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").as_deref(), Some("a b c"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("%2"), None);
        assert_eq!(percent_decode("%zz"), None);
    }

    #[test]
    fn canonical_key_sorts_query() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/table/2".into(),
            query: vec![("scale".into(), "test".into()), ("format".into(), "csv".into())],
            body: Vec::new(),
            close: false,
            chunked: false,
            trace: ReqTrace::default(),
        };
        assert_eq!(req.canonical_key(), "GET /v1/table/2?format=csv&scale=test");
        let flipped = Request {
            query: vec![("format".into(), "csv".into()), ("scale".into(), "test".into())],
            ..req.clone()
        };
        assert_eq!(req.canonical_key(), flipped.canonical_key());
    }

    #[test]
    fn parse_is_incremental_and_pipelined() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        // Every strict prefix of the first request (34 bytes) is
        // Partial.
        for cut in 0..34 {
            assert!(
                matches!(parse_request(&wire[..cut]), Parse::Partial),
                "cut {cut}"
            );
        }
        let Parse::Complete { request, used } = parse_request(wire) else {
            panic!("first request should parse");
        };
        assert_eq!(request.path, "/healthz");
        assert!(!request.close, "HTTP/1.1 defaults to keep-alive");
        let Parse::Complete { request, used: used2 } = parse_request(&wire[used..]) else {
            panic!("pipelined second request should parse");
        };
        assert_eq!(request.path, "/metrics");
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn connection_semantics() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        let Parse::Complete { request, .. } = parse_request(close) else {
            panic!()
        };
        assert!(request.close);

        let http10 = b"GET / HTTP/1.0\r\n\r\n";
        let Parse::Complete { request, .. } = parse_request(http10) else {
            panic!()
        };
        assert!(request.close, "HTTP/1.0 defaults to close");

        let http10_ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let Parse::Complete { request, .. } = parse_request(http10_ka) else {
            panic!()
        };
        assert!(!request.close);
    }

    #[test]
    fn x_request_id_header_becomes_the_trace_id() {
        let wire = b"GET / HTTP/1.1\r\nX-Request-ID: 424242\r\n\r\n";
        let Parse::Complete { request, .. } = parse_request(wire) else {
            panic!()
        };
        assert_eq!(request.trace.id, 424242);

        let wire = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        let Parse::Complete { request, .. } = parse_request(wire) else {
            panic!()
        };
        assert_eq!(request.trace.id, 0, "unassigned until the connection layer");
    }

    #[test]
    fn bodies_respect_content_length() {
        let wire = b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET";
        let Parse::Complete { request, used } = parse_request(wire) else {
            panic!()
        };
        assert_eq!(request.body, b"abcd");
        assert_eq!(&wire[used..], b"GET");
        // Body bytes not yet arrived → Partial.
        assert!(matches!(parse_request(&wire[..wire.len() - 7]), Parse::Partial));
    }

    #[test]
    fn oversized_headers_are_fatal_431() {
        let junk = vec![b'A'; MAX_HEADER_BYTES + 1];
        let Parse::Bad { bad, used } = parse_request(&junk) else {
            panic!("oversized request line must be rejected");
        };
        assert_eq!(bad.status, 431);
        assert!(used.is_none(), "framing is lost; connection must close");
    }

    #[test]
    fn recoverable_bad_requests_report_consumed_framing() {
        let wire = b"GET /bad%zz HTTP/1.1\r\n\r\n";
        let Parse::Bad { bad, used } = parse_request(wire) else {
            panic!()
        };
        assert_eq!(bad.status, 400);
        assert_eq!(used, Some(wire.len()), "framing known; connection survives");
    }

    #[test]
    fn wire_response_serializes_both_fates() {
        let wire = Response::error(503, "queue full")
            .with_header("Retry-After", "1".into())
            .into_wire();
        assert_eq!(wire.status(), 503);
        let keep = String::from_utf8(wire.to_bytes(true)).unwrap();
        assert!(keep.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{keep}");
        assert!(keep.contains("Retry-After: 1\r\n"));
        assert!(keep.contains("Connection: keep-alive\r\n"));
        let close = String::from_utf8(wire.to_bytes(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(close.ends_with("{\"error\": \"queue full\"}"));
    }

    #[test]
    fn responses_serialize_with_length_and_close() {
        let mut out = Vec::new();
        Response::error(503, "queue full")
            .with_header("Retry-After", "1".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\": \"queue full\"}"));
        let length: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(length, "{\"error\": \"queue full\"}".len());
    }

    #[test]
    fn client_response_parses_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 404";
        assert!(parse_response(&wire[..20]).unwrap().is_none());
        let (response, used) = parse_response(wire).unwrap().expect("complete");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"{}");
        assert_eq!(&wire[used..], b"HTTP/1.1 404");
    }

    #[test]
    fn chunked_request_completes_at_header_end() {
        let wire =
            b"POST /v1/trace/intervals HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello";
        let head_end = wire.iter().position(|&b| b == b'5').unwrap();
        match parse_request(wire) {
            Parse::Complete { request, used } => {
                assert!(request.chunked);
                assert!(request.body.is_empty());
                // The body stays on the wire for the streaming layer.
                assert_eq!(used, head_end);
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_transfer_encoding_is_rejected() {
        let wire = b"POST /v1/trace/intervals HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
        match parse_request(wire) {
            Parse::Bad { bad, used } => {
                assert_eq!(bad.status, 400);
                assert!(used.is_none(), "framing is unknowable; must close");
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn chunked_decoder_handles_extensions_trailers_and_splits() {
        let wire = b"4;ext=1\r\nabcd\r\nA\r\n0123456789\r\n0\r\nTrailer: x\r\n\r\ntail";
        // Whole-buffer feed.
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let used = decoder.feed(wire, &mut out).unwrap();
        assert!(decoder.is_done());
        assert_eq!(out, b"abcd0123456789");
        assert_eq!(&wire[used..], b"tail");
        assert_eq!(decoder.decoded_bytes(), 14);
        // Byte-at-a-time feed reaches the same state.
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let mut consumed = 0;
        while !decoder.is_done() {
            consumed += decoder
                .feed(&wire[consumed..consumed + 1], &mut out)
                .unwrap();
        }
        assert_eq!(out, b"abcd0123456789");
        assert_eq!(consumed, used);
    }

    #[test]
    fn chunked_decoder_tolerates_bare_lf() {
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let used = decoder.feed(b"3\nxyz\n0\n\n", &mut out).unwrap();
        assert!(decoder.is_done());
        assert_eq!(out, b"xyz");
        assert_eq!(used, 9);
    }

    #[test]
    fn chunked_decoder_rejects_malformed_framing() {
        let mut out = Vec::new();
        let bad = ChunkedDecoder::new().feed(b"zz\r\n", &mut out).unwrap_err();
        assert_eq!(bad.status, 400);
        let bad = ChunkedDecoder::new()
            .feed(b"2\r\nabX", &mut out)
            .unwrap_err();
        assert_eq!(bad.status, 400);
        let long = vec![b'1'; MAX_CHUNK_LINE + 2];
        let bad = ChunkedDecoder::new().feed(&long, &mut out).unwrap_err();
        assert_eq!(bad.status, 400);
        let bad = ChunkedDecoder::new().feed(b"+2\r\nab", &mut out).unwrap_err();
        assert_eq!(bad.reason, "bad chunk size", "signed sizes are not hex digits");
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        for value in ["+2", "-2", " ", "2x"] {
            let wire = format!("POST /v1/sweep HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}");
            let Parse::Bad { bad, used } = parse_request(wire.as_bytes()) else {
                panic!("Content-Length {value:?} must be refused");
            };
            assert_eq!((bad.status, used), (400, None), "{value:?}");
        }
    }
}
