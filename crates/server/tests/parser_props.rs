//! Property checks for the network-facing parsers: the incremental
//! request parser (`parse_request`) and the chunked body decoder
//! (`ChunkedDecoder`). These are the only code that reads request bytes
//! off the wire, so three things must hold for any input:
//!
//! - **Split-invariance.** TCP delivers a byte stream in arbitrary
//!   pieces. Feeding a pipelined stream in any split — appending each
//!   piece to a buffer and draining parsed requests by `used`, exactly
//!   as `Connection::take_request` does, with chunked bodies streamed
//!   through a decoder as `streaming::serve_upload` does — must yield
//!   the same outcomes as feeding it whole.
//! - **No panics.** Arbitrary mutations of valid requests end in typed
//!   `Bad` outcomes or decoder errors, never in a panic.
//! - **Bounded growth.** A header block that never ends is refused with
//!   431 as soon as it exceeds `MAX_HEADER_BYTES`.

use leakage_server::http::{parse_request, ChunkedDecoder, Parse, MAX_HEADER_BYTES};
use proptest::prelude::*;

/// What a connection observes, in order. Requests are reduced to the
/// fields the parser decides (the trace stamps are clocks).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Request {
        method: String,
        path: String,
        query: Vec<(String, String)>,
        body: Vec<u8>,
        chunked: bool,
        close: bool,
        trace_id: u64,
        used: usize,
    },
    Bad {
        status: u16,
        reason: String,
        recoverable: bool,
    },
    /// A chunked body, fully deframed.
    Body(Vec<u8>),
    /// Chunk framing broke; the connection closes.
    BodyError { status: u16, reason: String },
}

/// The server's read side reduced to its buffer discipline: bytes are
/// appended as they arrive, complete requests are drained by `used`,
/// and a chunked request's body is pumped through a `ChunkedDecoder`
/// before the next request is framed.
#[derive(Default)]
struct Wire {
    buf: Vec<u8>,
    upload: Option<(ChunkedDecoder, Vec<u8>)>,
    outcomes: Vec<Outcome>,
    closed: bool,
}

impl Wire {
    fn push(&mut self, bytes: &[u8]) {
        if self.closed {
            return;
        }
        self.buf.extend_from_slice(bytes);
        self.drain();
    }

    fn drain(&mut self) {
        while !self.closed {
            if let Some((decoder, data)) = &mut self.upload {
                match decoder.feed(&self.buf, data) {
                    Ok(used) => {
                        self.buf.drain(..used);
                        if !decoder.is_done() {
                            return;
                        }
                        self.outcomes.push(Outcome::Body(std::mem::take(data)));
                        self.upload = None;
                    }
                    Err(bad) => {
                        self.outcomes.push(Outcome::BodyError {
                            status: bad.status,
                            reason: bad.reason,
                        });
                        self.closed = true;
                    }
                }
                continue;
            }
            match parse_request(&self.buf) {
                Parse::Complete { request, used } => {
                    self.buf.drain(..used);
                    if request.chunked {
                        self.upload = Some((ChunkedDecoder::new(), Vec::new()));
                    }
                    self.outcomes.push(Outcome::Request {
                        method: request.method,
                        path: request.path,
                        query: request.query,
                        body: request.body,
                        chunked: request.chunked,
                        close: request.close,
                        trace_id: request.trace.id,
                        used,
                    });
                }
                Parse::Bad { bad, used } => {
                    match used {
                        Some(n) => {
                            self.buf.drain(..n);
                        }
                        None => self.closed = true,
                    }
                    self.outcomes.push(Outcome::Bad {
                        status: bad.status,
                        reason: bad.reason,
                        recoverable: used.is_some(),
                    });
                }
                Parse::Partial => return,
            }
        }
    }
}

/// Outcomes of feeding `stream` in pieces of the given sizes (cycled;
/// an empty size list feeds it whole).
fn feed(stream: &[u8], sizes: &[usize]) -> Vec<Outcome> {
    let mut wire = Wire::default();
    let mut rest = stream;
    let mut cycle = sizes.iter().copied().cycle();
    while !rest.is_empty() {
        let take = cycle.next().unwrap_or(rest.len()).clamp(1, rest.len());
        wire.push(&rest[..take]);
        rest = &rest[take..];
    }
    wire.outcomes
}

fn ascii(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    prop::collection::vec(0..alphabet.len(), len)
        .prop_map(move |ids| ids.into_iter().map(|i| alphabet[i] as char).collect())
}

/// A request-target: path segments and query pairs, with
/// percent-escapes (sometimes broken ones, which the parser answers
/// with a recoverable 400).
fn arb_target() -> impl Strategy<Value = String> {
    const SAFE: &[u8] = b"abcxyz019-._~+%";
    (
        prop::collection::vec(ascii(SAFE, 0..8), 1..4),
        prop::collection::vec((ascii(SAFE, 1..6), ascii(SAFE, 0..6)), 0..4),
        prop::sample::select(vec!["", "%41", "%2f", "%zz", "%4"]),
    )
        .prop_map(|(segments, query, escape)| {
            let mut target = format!("/{}{escape}", segments.join("/"));
            if !query.is_empty() {
                let pairs: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
                target.push('?');
                target.push_str(&pairs.join("&"));
            }
            target
        })
}

/// One header line's `name: value`, without the line ending.
fn arb_header() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(vec![
            "Connection: close",
            "Connection: keep-alive",
            "connection: Close",
            "Host: localhost",
            "X-Request-Id: 12345",
            "x-request-id: 0xBEEF",
            "X-Request-Id: trace-abc",
            "Accept: */*",
            "no colon here",
        ])
        .prop_map(str::to_string),
        (ascii(b"abcdefXYZ-", 1..12), ascii(b"abc 019;=,/", 0..24))
            .prop_map(|(name, value)| format!("{name}: {value}")),
    ]
}

/// A chunk extension (`;name=value`), sometimes long enough that its
/// size line sits right at the decoder's 1 KiB line cap.
fn arb_extension() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        ascii(b"abc=019", 1..12).prop_map(|ext| format!(";{ext}")),
        (1000usize..1030).prop_map(|len| format!(";{}", "e".repeat(len))),
    ]
}

/// A chunked body: sized chunks with optional extensions, the zero
/// chunk, optional trailer fields and the final blank line.
fn arb_chunked_body() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(
            (
                prop::collection::vec(0u8..=255, 1..48),
                arb_extension(),
                0u8..3,
            ),
            0..5,
        ),
        arb_extension(),
        prop::collection::vec(arb_header(), 0..3),
        prop::sample::select(vec!["\r\n", "\n"]),
    )
        .prop_map(|(chunks, last_ext, trailers, eol)| {
            let mut body = Vec::new();
            for (data, ext, style) in chunks {
                let size = match style {
                    0 => format!("{:x}", data.len()),
                    1 => format!("{:X}", data.len()),
                    _ => format!("00{:x}", data.len()),
                };
                body.extend_from_slice(format!("{size}{ext}{eol}").as_bytes());
                body.extend_from_slice(&data);
                body.extend_from_slice(eol.as_bytes());
            }
            body.extend_from_slice(format!("0{last_ext}{eol}").as_bytes());
            for trailer in trailers {
                body.extend_from_slice(format!("{trailer}{eol}").as_bytes());
            }
            body.extend_from_slice(eol.as_bytes());
            body
        })
}

/// One complete request on the wire: request line, headers, and a
/// body framed by `Content-Length`, by chunked encoding, or absent.
fn arb_request() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::sample::select(vec!["GET", "POST", "DELETE", "get"]),
        arb_target(),
        prop::sample::select(vec!["HTTP/1.1", "HTTP/1.0"]),
        prop::sample::select(vec!["\r\n", "\n"]),
        prop::collection::vec(arb_header(), 0..5),
        0u8..3,
        prop::collection::vec(0u8..=255, 0..64),
        arb_chunked_body(),
    )
        .prop_map(
            |(method, target, version, eol, headers, framing, body, chunked)| {
                let mut head = format!("{method} {target} {version}{eol}");
                for header in headers {
                    head.push_str(&header);
                    head.push_str(eol);
                }
                let body = match framing {
                    0 => Vec::new(),
                    1 => {
                        head.push_str(&format!("Content-Length: {}{eol}", body.len()));
                        body
                    }
                    _ => {
                        head.push_str(&format!("Transfer-Encoding: chunked{eol}"));
                        chunked
                    }
                };
                head.push_str(eol);
                let mut bytes = head.into_bytes();
                bytes.extend_from_slice(&body);
                bytes
            },
        )
}

/// A pipelined stream of requests.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(arb_request(), 1..6).prop_map(|requests| requests.concat())
}

/// Piece sizes for splitting a stream: mostly tiny (every boundary
/// lands mid-token), sometimes large.
fn arb_splits() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![1usize..4, 1usize..64, 1usize..1500], 1..24)
}

/// One byte-level edit of a valid stream.
#[derive(Debug, Clone)]
enum Mutation {
    Flip { at: usize, mask: u8 },
    Set { at: usize, byte: u8 },
    Insert { at: usize, bytes: Vec<u8> },
    Delete { at: usize, len: usize },
    Truncate { at: usize },
}

impl Mutation {
    fn apply(&self, stream: &mut Vec<u8>) {
        let pos = |at: usize, len: usize| if len == 0 { 0 } else { at % len };
        match self {
            Mutation::Flip { at, mask } if !stream.is_empty() => {
                let i = pos(*at, stream.len());
                stream[i] ^= mask;
            }
            Mutation::Set { at, byte } if !stream.is_empty() => {
                let i = pos(*at, stream.len());
                stream[i] = *byte;
            }
            Mutation::Insert { at, bytes } => {
                let i = pos(*at, stream.len() + 1);
                stream.splice(i..i, bytes.iter().copied());
            }
            Mutation::Delete { at, len } if !stream.is_empty() => {
                let i = pos(*at, stream.len());
                let end = (i + len).min(stream.len());
                stream.drain(i..end);
            }
            Mutation::Truncate { at } => {
                let i = pos(*at, stream.len() + 1);
                stream.truncate(i);
            }
            _ => {}
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..1 << 16, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        (
            0usize..1 << 16,
            prop::sample::select(b"\r\n:; %0fF-+\x00\xff".to_vec())
        )
            .prop_map(|(at, byte)| Mutation::Set { at, byte }),
        (0usize..1 << 16, prop::collection::vec(0u8..=255, 1..16))
            .prop_map(|(at, bytes)| Mutation::Insert { at, bytes }),
        (0usize..1 << 16, 1usize..32).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (0usize..1 << 16).prop_map(|at| Mutation::Truncate { at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any split of a pipelined stream yields the outcomes of the whole.
    #[test]
    fn split_feeding_matches_whole_feeding(stream in arb_stream(), splits in arb_splits()) {
        let whole = feed(&stream, &[]);
        prop_assert!(!whole.is_empty(), "a generated stream holds at least one request");
        prop_assert_eq!(feed(&stream, &splits), whole);
    }

    /// The chunked decoder alone: fed in any split, it consumes exactly
    /// the body and deframes the same bytes as a whole feed, leaving a
    /// pipelined successor untouched.
    #[test]
    fn chunked_decoder_is_split_invariant(body in arb_chunked_body(), splits in arb_splits()) {
        let mut stream = body.clone();
        stream.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");

        let mut whole = ChunkedDecoder::new();
        let mut whole_data = Vec::new();
        let whole_result = whole.feed(&stream, &mut whole_data).map_err(|bad| bad.reason);

        let mut split = ChunkedDecoder::new();
        let mut split_data = Vec::new();
        let mut consumed = 0;
        let mut split_result = Ok(0);
        let mut cycle = splits.iter().copied().cycle();
        while consumed < stream.len() && !split.is_done() {
            let take = cycle.next().unwrap_or(1).clamp(1, stream.len() - consumed);
            match split.feed(&stream[consumed..consumed + take], &mut split_data) {
                Ok(used) => {
                    consumed += used;
                    split_result = Ok(consumed);
                }
                Err(bad) => {
                    split_result = Err(bad.reason);
                    break;
                }
            }
        }

        prop_assert_eq!(&split_result, &whole_result);
        if let Ok(used) = whole_result {
            prop_assert!(whole.is_done() && split.is_done());
            prop_assert_eq!(used, body.len(), "the decoder stops at the end of the body");
            prop_assert_eq!(split_data, whole_data);
        }
    }

    /// Mutated streams, fed whole or split, end in typed outcomes: every
    /// refusal carries a 4xx status the server can answer with, and
    /// nothing panics.
    #[test]
    fn mutated_streams_never_panic(
        stream in arb_stream(),
        mutations in prop::collection::vec(arb_mutation(), 1..6),
        splits in arb_splits(),
    ) {
        let mut stream = stream;
        for mutation in &mutations {
            mutation.apply(&mut stream);
        }
        for outcomes in [feed(&stream, &[]), feed(&stream, &splits)] {
            for outcome in outcomes {
                match outcome {
                    Outcome::Bad { status, .. } => {
                        prop_assert!(matches!(status, 400 | 413 | 431), "status {status}");
                    }
                    Outcome::BodyError { status, .. } => prop_assert_eq!(status, 400),
                    Outcome::Request { used, .. } => prop_assert!(used > 0),
                    Outcome::Body(_) => {}
                }
            }
        }
    }

    /// Arbitrary bytes straight into the decoder: an error or a
    /// consumed count within the input, never a panic.
    #[test]
    fn chunked_decoder_survives_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        splits in arb_splits(),
    ) {
        let mut decoder = ChunkedDecoder::new();
        let mut data = Vec::new();
        let mut rest = bytes.as_slice();
        let mut cycle = splits.iter().copied().cycle();
        while !rest.is_empty() && !decoder.is_done() {
            let take = cycle.next().unwrap_or(1).clamp(1, rest.len());
            match decoder.feed(&rest[..take], &mut data) {
                Ok(used) => {
                    prop_assert!(used <= take);
                    rest = &rest[used..];
                    if used < take {
                        prop_assert!(decoder.is_done(), "only a finished body leaves bytes");
                    }
                }
                Err(bad) => {
                    prop_assert_eq!(bad.status, 400);
                    break;
                }
            }
        }
        prop_assert!(data.len() as u64 == decoder.decoded_bytes());
    }
}

proptest! {
    // Each case grows a header past 16 KiB and reparses it after every
    // piece, so fewer cases cover the same ground.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A header block with no blank line stays `Partial` up to
    /// `MAX_HEADER_BYTES` and is refused with a fatal 431 past it, at
    /// whatever size the bytes arrive in.
    #[test]
    fn endless_header_block_is_refused_past_the_cap(
        lines in prop::collection::vec(arb_header(), 1..8),
        eol in prop::sample::select(vec!["\r\n", "\n"]),
        splits in arb_splits(),
    ) {
        let mut head = format!("GET /v1/table/2 HTTP/1.1{eol}").into_bytes();
        let mut cycle = lines.iter().cycle();
        while head.len() <= MAX_HEADER_BYTES + 2048 {
            let line = cycle.next().expect("non-empty cycle");
            // Non-empty lines only: the block never terminates.
            head.extend_from_slice(format!("x{line}{eol}").as_bytes());
        }

        let mut wire = Wire::default();
        let mut fed = 0;
        let mut sizes = splits.iter().copied().cycle();
        while fed < head.len() && !wire.closed {
            let take = sizes.next().unwrap_or(1).clamp(1, head.len() - fed);
            wire.push(&head[fed..fed + take]);
            fed += take;
            if fed <= MAX_HEADER_BYTES {
                prop_assert!(wire.outcomes.is_empty(), "refused at {fed} bytes");
            }
        }
        prop_assert!(wire.closed, "the connection is refused");
        prop_assert!(fed > MAX_HEADER_BYTES);
        prop_assert!(
            fed <= MAX_HEADER_BYTES + 1500,
            "refused within one read of the cap, not at {fed} bytes"
        );
        prop_assert_eq!(
            wire.outcomes,
            vec![Outcome::Bad {
                status: 431,
                reason: "request headers too large".to_string(),
                recoverable: false,
            }]
        );
    }
}
