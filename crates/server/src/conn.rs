//! Per-connection state handed between the reactor and the workers:
//! the input buffer requests are parsed out of, the
//! output buffer pipelined responses are batched into, and the
//! keep-alive bookkeeping (requests served, close fate, idle clock).

use crate::http::{parse_request_resuming, BadRequest, Parse, Request};
use crate::trace::{next_trace_id, us32, PendingRecord};
use std::net::TcpStream;
use std::time::Instant;

/// What [`Connection::take_request`] produced.
pub enum Taken {
    /// A complete request, ready for a handler.
    Request(Request),
    /// A malformed request; answer it. `recoverable: false` means the
    /// connection's framing is lost and it must close after the
    /// error.
    Bad {
        /// Status and reason to answer.
        bad: BadRequest,
        /// Whether the connection can keep serving afterwards.
        recoverable: bool,
    },
    /// No complete request buffered; read more bytes.
    NeedMore,
}

/// One client connection moving between the reactor (readiness-driven
/// reads) and the worker pool (parse → handle → write).
pub struct Connection {
    /// The socket, nonblocking while the reactor owns it.
    pub stream: TcpStream,
    /// Bytes read but not yet parsed (may hold several pipelined
    /// requests).
    pub buf: Vec<u8>,
    /// Serialized responses awaiting a write.
    pub out: Vec<u8>,
    /// Requests answered on this connection.
    pub served: u32,
    /// Reactor slab token.
    pub token: u64,
    /// Last read/write activity, for idle-timeout sweeps.
    pub last_activity: Instant,
    /// Close after the pending output is flushed (client asked, the
    /// per-connection request budget ran out, the peer half-closed,
    /// or the server is draining).
    pub close: bool,
    /// The peer closed its write half; no further requests can
    /// arrive, but buffered ones are still served.
    pub eof: bool,
    /// Flight-recorder records for the batch being serialized,
    /// published after the batch's socket write so they carry the
    /// real write cost. Reused across batches (no per-request
    /// allocation).
    pub pending: Vec<PendingRecord>,
    /// Serialize duration of the previous response on this
    /// connection, reported in the next `Server-Timing` header.
    pub last_serialize_us: u32,
    /// Write duration of the previous flushed batch, likewise.
    pub last_write_us: u32,
    /// How far the search for the buffered request's header end got
    /// (see [`parse_request_resuming`]); 0 whenever a request is
    /// consumed.
    header_scan: usize,
}

impl Connection {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream, token: u64) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            served: 0,
            token,
            last_activity: Instant::now(),
            close: false,
            eof: false,
            pending: Vec::new(),
            last_serialize_us: 0,
            last_write_us: 0,
            header_scan: 0,
        }
    }

    /// Parses the next request off the input buffer, consuming its
    /// bytes and enforcing the per-connection request budget
    /// (`max_requests`, 0 = unlimited): the budget-exhausting request
    /// is still served, with `Connection: close` on its response.
    pub fn take_request(&mut self, max_requests: u32) -> Taken {
        let parse_started = Instant::now();
        match parse_request_resuming(&self.buf, &mut self.header_scan) {
            Parse::Complete { mut request, used } => {
                self.buf.drain(..used);
                self.header_scan = 0;
                self.served += 1;
                if max_requests != 0 && self.served >= max_requests {
                    self.close = true;
                }
                if request.close {
                    self.close = true;
                }
                if request.trace.id == 0 {
                    request.trace.id = next_trace_id();
                }
                request.trace.req_bytes = u32::try_from(used).unwrap_or(u32::MAX);
                request.trace.parse_us = us32(parse_started.elapsed());
                request.trace.parsed_at = Instant::now();
                Taken::Request(request)
            }
            Parse::Bad { bad, used } => {
                let recoverable = match used {
                    Some(n) => {
                        self.buf.drain(..n);
                        self.header_scan = 0;
                        true
                    }
                    None => {
                        self.close = true;
                        false
                    }
                };
                Taken::Bad { bad, recoverable }
            }
            Parse::Partial => {
                if self.eof {
                    // Half-closed peer with a dangling partial
                    // request: nothing more can complete it.
                    self.close = true;
                }
                Taken::NeedMore
            }
        }
    }

    /// Whether the input buffer already starts with a complete (or
    /// decidedly bad) request — i.e. whether a worker should keep
    /// going without returning to the reactor.
    pub fn has_buffered_request(&self) -> bool {
        !matches!(
            parse_request_resuming(&self.buf, &mut self.header_scan.clone()),
            Parse::Partial
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::MAX_HEADER_BYTES;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn a_trickled_header_is_scanned_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream, 1);

        let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
        while head.len() <= MAX_HEADER_BYTES {
            head.extend_from_slice(b"X-Filler: abcdefghijklmnop\r\n");
        }
        // The reactor's read path, one byte per read: every parse
        // attempt may re-scan only the bytes that arrived since the
        // last one, plus the two a terminator can straddle.
        let mut scanned = 0;
        for &byte in &head {
            let resume = conn.header_scan;
            conn.buf.push(byte);
            scanned += conn.buf.len() - resume;
            match conn.take_request(0) {
                Taken::NeedMore => {}
                Taken::Bad { bad, recoverable } => {
                    assert_eq!(bad.status, 431);
                    assert!(!recoverable);
                    assert!(conn.buf.len() > MAX_HEADER_BYTES);
                    break;
                }
                Taken::Request(_) => panic!("an unterminated header completed"),
            }
        }
        assert!(conn.close, "refused past the cap");
        assert!(
            scanned <= 3 * (MAX_HEADER_BYTES + 1),
            "{scanned} bytes scanned for a {}-byte header",
            conn.buf.len()
        );

        // A terminator that straddles reads is still found, and the
        // next request starts its scan from the front.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Connection::new(stream, 2);
        for &byte in b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\n\r\n" {
            conn.buf.push(byte);
            if let Taken::Request(request) = conn.take_request(0) {
                assert_eq!(conn.header_scan, 0);
                assert!(
                    request.path == "/a" || request.path == "/b",
                    "{}",
                    request.path
                );
            }
        }
        assert_eq!(conn.served, 2);
    }
}
