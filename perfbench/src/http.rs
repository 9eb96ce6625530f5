//! A minimal HTTP/1.1 client: one keep-alive connection, requests
//! written whole, `Content-Length` responses. The benchmark carries its
//! own client so that a change to the server crate's client cannot
//! change what the benchmark sends.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response.
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A client bound to one server address, reconnecting when the server
/// closes the connection.
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` (`HOST:PORT`); connects on first use.
    pub fn new(addr: &str) -> Self {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send(&format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"), &[])
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.send(&head, body.as_bytes())
    }

    /// `POST path` with an already chunk-framed body, plus `extra`
    /// header lines (each ending in `\r\n`).
    pub fn post_chunked(&mut self, path: &str, extra: &str, framed: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nTransfer-Encoding: chunked\r\n{extra}\r\n"
        );
        self.send(&head, framed)
    }

    /// Writes one request and reads its response. Any I/O failure drops
    /// the connection, so the next request starts on a fresh one.
    pub fn send(&mut self, head: &str, body: &[u8]) -> io::Result<Reply> {
        let result = self.exchange(head, body);
        if !matches!(result, Ok((_, true))) {
            self.conn = None;
        }
        result.map(|(reply, _)| reply)
    }

    fn exchange(&mut self, head: &str, body: &[u8]) -> io::Result<(Reply, bool)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.conn = Some(BufReader::with_capacity(64 * 1024, stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        read_reply(conn)
    }
}

/// Reads one response; the flag says whether the connection stays open.
fn read_reply(conn: &mut BufReader<TcpStream>) -> io::Result<(Reply, bool)> {
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed without a response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated header",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value
                .parse()
                .map_err(|_| io::Error::other(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let mut body = vec![0; length];
    conn.read_exact(&mut body)?;
    Ok((Reply { status, body }, keep_alive))
}

/// Frames `body` with `Transfer-Encoding: chunked` in `chunk`-byte
/// chunks, terminated by the zero-length chunk.
pub fn chunk_frame(body: &[u8], chunk: usize) -> Vec<u8> {
    let mut framed = Vec::with_capacity(body.len() + body.len() / chunk * 8 + 16);
    for piece in body.chunks(chunk) {
        framed.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
        framed.extend_from_slice(piece);
        framed.extend_from_slice(b"\r\n");
    }
    framed.extend_from_slice(b"0\r\n\r\n");
    framed
}

/// The string value of the first `"key": "..."` in a JSON body.
pub fn str_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{key}\""))? + key.len() + 2..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    rest.split('"').next()
}

/// Every whole number following `"key":` in a JSON body.
pub fn num_fields(body: &str, key: &str) -> Vec<u64> {
    let pattern = format!("\"{key}\":");
    body.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let rest = body[at + pattern.len()..].trim_start();
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}
