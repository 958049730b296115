//! Tiny std-only HTTP/1.1 layer.
//!
//! The container has no registry access, so there is no hyper/tokio —
//! and none is needed: the server speaks a small, well-defined subset
//! of HTTP/1.1 (one request per connection, `Content-Length` bodies,
//! `Connection: close` responses, and `Transfer-Encoding: chunked` for
//! the progress-event stream). Everything rides on `std::net::TcpStream`
//! and blocking reads behind per-connection threads.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Maximum accepted request-body size (a co-design request is a few
/// hundred bytes; anything larger is a client bug or abuse).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line or header line, line ending included.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// Why [`read_request`] refused a request whose request line or
/// headers pass [`MAX_LINE_BYTES`] or [`MAX_HEADERS`]: the server
/// answers `431 Request Header Fields Too Large`.
#[derive(Debug)]
pub struct HeadersTooLarge(&'static str);

impl HeadersTooLarge {
    /// Whether `err` is this refusal.
    pub fn is(err: &io::Error) -> bool {
        err.get_ref().is_some_and(|e| e.is::<HeadersTooLarge>())
    }
}

impl fmt::Display for HeadersTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for HeadersTooLarge {}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`: its
/// length, 0 at end of stream. A line cut at the cap is refused, so a
/// peer that never sends `\n` cannot make the reader buffer without
/// bound.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE_BYTES as u64).read_line(line)?;
    if n == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            HeadersTooLarge("request header line too long"),
        ));
    }
    Ok(n)
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns an error message for non-UTF-8 bodies.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }
}

/// Reads one request from the stream. Returns `Ok(None)` when the peer
/// closed the connection before sending a request line.
///
/// # Errors
///
/// Propagates socket errors; malformed requests surface as
/// `InvalidData`.
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if read_line_capped(&mut reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request line"))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for lines in 0.. {
        let mut header_line = String::new();
        if read_line_capped(&mut reader, &mut header_line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside headers",
            ));
        }
        let trimmed = header_line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if lines == MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                HeadersTooLarge("too many request headers"),
            ));
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
                if content_length > MAX_BODY_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "request body too large",
                    ));
                }
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Human phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Closes the write side, then reads and drops what the peer still
/// sends, for at most [`MAX_BODY_BYTES`] and about half a second:
/// closing with unread input would reset the connection, and the peer
/// could lose the response it has not read yet.
pub(crate) fn drain(stream: &mut TcpStream) {
    const LINGER: Duration = Duration::from_millis(500);
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let deadline = Instant::now() + LINGER;
    let (mut buf, mut left) = ([0u8; 4096], MAX_BODY_BYTES);
    while left > 0 && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// Writes a complete `Connection: close` response with a JSON body.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_json_response(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    write_json_response_with(stream, status, &[], body)
}

/// [`write_json_response`] with extra response headers (e.g.
/// `Retry-After` on 429/503). Each pair is written as `name: value`.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_json_response_with(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response writer: one
/// [`chunk`](ChunkedWriter::chunk) per progress event, then
/// [`finish`](ChunkedWriter::finish) for the terminating zero chunk.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Starts a chunked response by writing the response head.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn start(stream: &'a mut TcpStream, status: u16) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n",
            reason(status),
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Writes one chunk and flushes it so clients see events live.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (a disconnected client ends the
    /// stream).
    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        write!(self.stream, "{:x}\r\n{data}\r\n", data.len())?;
        self.stream.flush()
    }

    /// Writes the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Client-side helper: reads one full response from the stream,
/// decoding a chunked body transparently. Returns `(status, body)`.
///
/// # Errors
///
/// Propagates socket errors; malformed responses surface as
/// `InvalidData`.
pub fn read_response(stream: &mut TcpStream) -> io::Result<(u16, Vec<u8>)> {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside response headers",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            match name.trim().to_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().ok(),
                "transfer-encoding" if value.trim().eq_ignore_ascii_case("chunked") => {
                    chunked = true
                }
                _ => {}
            }
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            if size == 0 {
                let mut crlf = String::new();
                let _ = reader.read_line(&mut crlf);
                break;
            }
            let mut chunk = vec![0u8; size + 2]; // payload + CRLF
            reader.read_exact(&mut chunk)?;
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else if let Some(len) = content_length {
        body = vec![0u8; len];
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok((status, body))
}
