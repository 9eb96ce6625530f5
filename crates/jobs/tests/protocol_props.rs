//! Property checks for the worker protocol, the bytes a coordinator
//! reads from (and a worker reads from) a socket:
//!
//! - **Round trips.** Every frame encodes to a line that parses back to
//!   the same frame: `WorkerFrame`, `Assign`, `Hello` and
//!   `SessionHello`. Integers are JSON numbers, so the generated ones
//!   stay within the 2^53 an `f64` holds exactly; chunk ordinals and
//!   point indices never come near it.
//! - **No panics.** Arbitrary byte mutations of encoded frames end in
//!   a typed error or a frame, and a frame parsed from mutated bytes
//!   re-encodes to one that parses back to itself.
//! - **Split-invariance.** The coordinator's `FrameReader` decodes the
//!   same frames, and stops for the same reason, whatever sizes the
//!   stream's reads return — valid streams and mutated ones alike.
//!
//! Crafted streams after the properties pin the reader's bounds: a
//! chunk header announcing more rows than a chunk holds, or a line
//! that never ends, is refused before anything is allocated for it.

use std::io::{self, Read};

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_jobs::protocol::{
    rows_checksum, Assign, FrameReader, Hello, Inbound, SessionHello, WorkerFrame, MAX_LINE_BYTES,
};
use leakage_jobs::{JobSpec, PermilleAxis};
use leakage_workloads::{Scale, SUITE_NAMES};
use proptest::prelude::*;

/// Largest integer every frame field round-trips exactly.
const EXACT: u64 = 1 << 53;

/// Rows per chunk the reader accepts in these properties.
const MAX_POINTS: u64 = 8;

/// Text drawn from an alphabet that exercises JSON escaping: quotes,
/// backslashes, control characters and multi-byte UTF-8.
fn arb_text() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "≥", "{", "}", ":",
    ];
    prop::collection::vec(0..PIECES.len(), 0..24)
        .prop_map(|ids| ids.into_iter().map(|i| PIECES[i]).collect())
}

/// A row as a worker sends it: newline-free printable ASCII.
fn arb_row() -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7f, 0..60)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII"))
}

fn arb_frame() -> impl Strategy<Value = WorkerFrame> {
    prop_oneof![
        (0u32..u32::MAX).prop_map(WorkerFrame::Ready),
        (0u64..EXACT).prop_map(WorkerFrame::Heartbeat),
        (0u64..EXACT, 0u64..EXACT)
            .prop_map(|(chunk, points)| WorkerFrame::ChunkStart { chunk, points }),
        (0u64..EXACT, 0u64..u64::MAX)
            .prop_map(|(chunk, fnv1a)| WorkerFrame::ChunkEnd { chunk, fnv1a }),
        (0u64..EXACT, arb_text()).prop_map(|(chunk, error)| WorkerFrame::ChunkErr { chunk, error }),
    ]
}

fn arb_assign() -> impl Strategy<Value = Assign> {
    (0u64..EXACT, 0u64..EXACT, 0u64..EXACT).prop_map(|(chunk, start, end)| Assign {
        chunk,
        start,
        end,
    })
}

fn arb_session_hello() -> impl Strategy<Value = SessionHello> {
    (0u32..u32::MAX, 0u8..2, arb_text()).prop_map(|(pid, has_token, token)| SessionHello {
        pid,
        token: (has_token == 1).then_some(token),
    })
}

fn arb_hello() -> impl Strategy<Value = Hello> {
    (
        0u8..(1 << SUITE_NAMES.len()),
        1u8..4,
        1u8..16,
        (1u32..=2000, 0u32..500, 1u32..100),
        16u32..=4096,
    )
        .prop_map(
            |(bench_mask, side_mask, node_mask, (from, span, step), chunk_points)| {
                let benchmarks = SUITE_NAMES
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bench_mask & (1 << i) != 0)
                    .map(|(_, b)| b.to_string())
                    .collect();
                let sides = [Level1::Instruction, Level1::Data]
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| side_mask & (1 << i) != 0)
                    .map(|(_, s)| s)
                    .collect();
                let nodes = TechnologyNode::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| node_mask & (1 << i) != 0)
                    .map(|(_, n)| n)
                    .collect();
                let spec = JobSpec::build(
                    "props",
                    Scale::Test,
                    benchmarks,
                    sides,
                    nodes,
                    PermilleAxis {
                        from,
                        to: from + span,
                        step,
                    },
                    chunk_points,
                )
                .expect("generated spec is valid");
                Hello {
                    job_id: spec.id(),
                    spec,
                }
            },
        )
}

/// One byte-level edit of an encoded frame or stream.
#[derive(Debug, Clone)]
enum Mutation {
    Flip { at: usize, mask: u8 },
    Set { at: usize, byte: u8 },
    Insert { at: usize, bytes: Vec<u8> },
    Delete { at: usize, len: usize },
    Truncate { at: usize },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let pos = |at: usize, len: usize| if len == 0 { 0 } else { at % len };
        match self {
            Mutation::Flip { at, mask } if !bytes.is_empty() => {
                let i = pos(*at, bytes.len());
                bytes[i] ^= mask;
            }
            Mutation::Set { at, byte } if !bytes.is_empty() => {
                let i = pos(*at, bytes.len());
                bytes[i] = *byte;
            }
            Mutation::Insert { at, bytes: extra } => {
                let i = pos(*at, bytes.len() + 1);
                bytes.splice(i..i, extra.iter().copied());
            }
            Mutation::Delete { at, len } if !bytes.is_empty() => {
                let i = pos(*at, bytes.len());
                let end = (i + len).min(bytes.len());
                bytes.drain(i..end);
            }
            Mutation::Truncate { at } => {
                let i = pos(*at, bytes.len() + 1);
                bytes.truncate(i);
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
            prop::sample::select(b"\n{}[]:,\"\\-.0159eE \x00\xff".to_vec())
        )
            .prop_map(|(at, byte)| Mutation::Set { at, byte }),
        (0usize..1 << 16, prop::collection::vec(0u8..=255, 1..12))
            .prop_map(|(at, bytes)| Mutation::Insert { at, bytes }),
        (0usize..1 << 16, 1usize..16).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (0usize..1 << 16).prop_map(|at| Mutation::Truncate { at }),
    ]
}

/// One item of a worker's output stream.
#[derive(Debug, Clone)]
enum Item {
    Ready,
    Heartbeat,
    Chunk { chunk: u64, rows: Vec<String> },
    ChunkErr { chunk: u64, error: String },
}

impl Item {
    fn wire(&self) -> String {
        let line = |frame: WorkerFrame| frame.encode() + "\n";
        match self {
            Item::Ready => line(WorkerFrame::Ready(7)),
            Item::Heartbeat => line(WorkerFrame::Heartbeat(3)),
            Item::Chunk { chunk, rows } => {
                let mut text = line(WorkerFrame::ChunkStart {
                    chunk: *chunk,
                    points: rows.len() as u64,
                });
                for row in rows {
                    text.push_str(row);
                    text.push('\n');
                }
                text + &line(WorkerFrame::ChunkEnd {
                    chunk: *chunk,
                    fnv1a: rows_checksum(rows),
                })
            }
            Item::ChunkErr { chunk, error } => line(WorkerFrame::ChunkErr {
                chunk: *chunk,
                error: error.clone(),
            }),
        }
    }

    fn inbound(&self) -> Inbound {
        match self {
            Item::Ready => Inbound::Ready,
            Item::Heartbeat => Inbound::Heartbeat,
            Item::Chunk { chunk, rows } => Inbound::ChunkDone {
                chunk: *chunk,
                rows: rows.clone(),
            },
            Item::ChunkErr { chunk, error } => Inbound::ChunkErr {
                chunk: *chunk,
                error: error.clone(),
            },
        }
    }
}

fn arb_item() -> impl Strategy<Value = Item> {
    prop_oneof![
        Just(Item::Ready),
        Just(Item::Heartbeat),
        (
            0u64..64,
            prop::collection::vec(arb_row(), 0..=MAX_POINTS as usize)
        )
            .prop_map(|(chunk, rows)| Item::Chunk { chunk, rows }),
        (0u64..64, arb_text()).prop_map(|(chunk, error)| Item::ChunkErr { chunk, error }),
    ]
}

/// Read sizes: mostly tiny, so boundaries land inside lines and
/// inside multi-byte characters, sometimes large.
fn arb_splits() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(prop_oneof![1usize..4, 1usize..64, 1usize..4096], 1..16)
}

/// A reader whose reads return the given sizes in turn (cycled), never
/// more than is left.
struct ShortReads<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
    next: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Every frame a reader decodes, then why it stopped (`None`: a clean
/// end of stream).
fn decode(input: impl Read) -> (Vec<Inbound>, Option<String>) {
    let mut reader = FrameReader::new(input, MAX_POINTS);
    let mut frames = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, None),
            Err(reason) => return (frames, Some(reason)),
        }
    }
}

fn decode_split(stream: &[u8], sizes: Vec<usize>) -> (Vec<Inbound>, Option<String>) {
    decode(ShortReads {
        data: stream,
        sizes,
        next: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encode → parse is the identity for every frame type.
    #[test]
    fn frames_round_trip(
        frame in arb_frame(),
        assign in arb_assign(),
        session in arb_session_hello(),
        hello in arb_hello(),
    ) {
        prop_assert_eq!(WorkerFrame::parse(&frame.encode()).expect("frame parses"), frame);
        prop_assert_eq!(Assign::parse(&assign.encode()).expect("assign parses"), assign);
        prop_assert_eq!(
            SessionHello::parse(&session.encode()).expect("admission parses"),
            session
        );
        prop_assert_eq!(Hello::parse(&hello.encode()).expect("hello parses"), hello);
    }

    /// Mutated frames parse to a typed error or to a frame, never to a
    /// panic; and whatever frame comes out re-encodes stably.
    #[test]
    fn mutated_frames_never_panic(
        frame in arb_frame(),
        assign in arb_assign(),
        session in arb_session_hello(),
        hello in arb_hello(),
        pick in 0u8..4,
        mutations in prop::collection::vec(arb_mutation(), 1..5),
    ) {
        let mut bytes = match pick {
            0 => frame.encode(),
            1 => assign.encode(),
            2 => session.encode(),
            _ => hello.encode(),
        }
        .into_bytes();
        for mutation in &mutations {
            mutation.apply(&mut bytes);
        }
        let line = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = WorkerFrame::parse(&line) {
            prop_assert_eq!(WorkerFrame::parse(&parsed.encode()).expect("re-encoded"), parsed);
        }
        if let Ok(parsed) = Assign::parse(&line) {
            prop_assert_eq!(Assign::parse(&parsed.encode()).expect("re-encoded"), parsed);
        }
        if let Ok(parsed) = SessionHello::parse(&line) {
            prop_assert_eq!(SessionHello::parse(&parsed.encode()).expect("re-encoded"), parsed);
        }
        if let Ok(parsed) = Hello::parse(&line) {
            prop_assert_eq!(Hello::parse(&parsed.encode()).expect("re-encoded"), parsed);
        }
    }

    /// A valid stream decodes to exactly its items, in any split.
    #[test]
    fn reader_is_split_invariant(
        items in prop::collection::vec(arb_item(), 0..8),
        splits in arb_splits(),
    ) {
        let stream: String = items.iter().map(Item::wire).collect();
        let expected: Vec<Inbound> = items.iter().map(Item::inbound).collect();
        prop_assert_eq!(decode(stream.as_bytes()), (expected.clone(), None));
        prop_assert_eq!(decode_split(stream.as_bytes(), splits), (expected, None));
    }

    /// A mutated stream decodes the same frames and stops for the same
    /// reason whether it arrives whole or in pieces.
    #[test]
    fn mutated_streams_are_split_invariant(
        items in prop::collection::vec(arb_item(), 1..8),
        mutations in prop::collection::vec(arb_mutation(), 1..5),
        splits in arb_splits(),
    ) {
        let mut stream: Vec<u8> = items.iter().map(Item::wire).collect::<String>().into_bytes();
        for mutation in &mutations {
            mutation.apply(&mut stream);
        }
        prop_assert_eq!(decode_split(&stream, splits), decode(stream.as_slice()));
    }
}

#[test]
fn malformed_frames_are_rejected() {
    for line in [
        "",
        "not json",
        "{}",
        r#"{"chunk_end":1,"fnv1a":"xyz"}"#,
        r#"{"chunk":1}"#,
    ] {
        assert!(WorkerFrame::parse(line).is_err(), "{line:?}");
    }
    assert!(Assign::parse(r#"{"assign":{"chunk":1}}"#).is_err());
    assert!(SessionHello::parse(r#"{"token":"secret"}"#).is_err());
    assert!(Hello::parse(r#"{"id":"j1"}"#).is_err());
    assert!(Hello::parse(r#"{"job":{"name":"x","nodes":["5nm"]},"id":"j1"}"#).is_err());
}

#[test]
fn a_huge_row_count_is_refused_before_allocating() {
    // 10^15 rows would be an allocation of petabytes.
    let (frames, end) = decode(&b"{\"chunk\":0,\"points\":1e15}\n"[..]);
    assert!(frames.is_empty());
    assert!(end.expect("refused").contains("at most 8"));
    let (_, end) = decode(&b"{\"chunk\":0,\"points\":9}\n"[..]);
    assert!(end.expect("refused").contains("announces 9 rows"));
}

#[test]
fn an_endless_line_is_refused_at_the_cap() {
    /// An endless run of one byte that panics if read far past the
    /// line cap.
    struct Endless(usize);
    impl Read for Endless {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(
                self.0 < 4 * MAX_LINE_BYTES,
                "read {} bytes of one line",
                self.0
            );
            buf.fill(b'x');
            self.0 += buf.len();
            Ok(buf.len())
        }
    }
    let (_, end) = decode(Endless(0));
    assert!(end.expect("refused").contains("longer than"));

    // The same inside a chunk: a row line without end.
    let header = WorkerFrame::ChunkStart {
        chunk: 0,
        points: 1,
    }
    .encode()
        + "\n";
    let (_, end) = decode(header.as_bytes().chain(Endless(0)));
    assert!(end.expect("refused").contains("longer than"));
}

#[test]
fn broken_chunks_end_the_stream() {
    let rows = vec!["{\"a\":1}".to_string()];
    let header = WorkerFrame::ChunkStart {
        chunk: 2,
        points: 1,
    }
    .encode();
    let seal = |chunk, fnv1a| WorkerFrame::ChunkEnd { chunk, fnv1a }.encode();
    let good = rows_checksum(&rows);
    for (stream, why) in [
        (format!("{header}\n"), "stream ended mid-chunk 2"),
        (format!("{header}\n{}\n", rows[0]), "no chunk_end"),
        (
            format!("{header}\n{}\n{}\n", rows[0], seal(3, good)),
            "bad seal",
        ),
        (
            format!("{header}\n{}\n{}\n", rows[0], seal(2, good ^ 1)),
            "checksum mismatch",
        ),
        (format!("{}\n", seal(2, good)), "without chunk header"),
        ("{\"nonsense\":1}\n".to_string(), "unrecognized frame"),
    ] {
        let (frames, end) = decode(stream.as_bytes());
        assert!(frames.is_empty(), "{why}: {frames:?}");
        let end = end.expect("stream refused");
        assert!(end.contains(why), "{why}: {end}");
    }
    let crlf = format!("{header}\r\n{}\r\n{}\r\n", rows[0], seal(2, good));
    let (frames, end) = decode(crlf.as_bytes());
    assert_eq!(end, None, "CRLF line ends are accepted");
    assert_eq!(frames, vec![Inbound::ChunkDone { chunk: 2, rows }]);
}
