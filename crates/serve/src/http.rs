//! Just enough HTTP/1.1 over `std::net` for a JSON API.
//!
//! One request per connection (`Connection: close`), bounded body size,
//! and a matching blocking client used by the smoke subcommand and the
//! integration tests. Anything beyond the subset the service needs —
//! chunked encoding, keep-alive, continuations — is rejected rather
//! than half-implemented.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Reject request bodies larger than this (16 MiB): a label submission
/// for even a million-row batch fits comfortably.
pub(crate) const MAX_BODY: usize = 16 << 20;

/// Reject a request line or header line longer than this (8 KiB,
/// newline included), so a client that never sends `\n` cannot grow a
/// line without limit.
pub(crate) const MAX_LINE: usize = 8 << 10;

/// Reject requests with more header lines than this.
pub(crate) const MAX_HEADERS: usize = 100;

/// A parsed request: method, path (query string split off), body.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Uppercased HTTP method.
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Raw body bytes (UTF-8 JSON for every route this service has).
    pub body: Vec<u8>,
}

impl Request {
    /// Body as UTF-8, or an error string for invalid encodings.
    pub(crate) fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }
}

/// Read one request from the stream. Returns `None` for an immediately
/// closed connection (e.g. a health-probe connect), an error string for
/// malformed requests (the caller turns it into a 400).
pub(crate) fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if read_line_bounded(&mut reader, &mut line, "request line")? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(format!("malformed request line: {line:?}"));
    };
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut n_headers = 0;
    loop {
        let mut header = String::new();
        if read_line_bounded(&mut reader, &mut header, "header")? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                return Err(format!(
                    "Transfer-Encoding ({}) is not supported; send the body with Content-Length",
                    value.trim()
                ));
            }
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length: {value:?}"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds {MAX_BODY}"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
    }
    Ok(Some(Request { method, path, body }))
}

/// Read one line of at most [`MAX_LINE`] bytes into `line`, returning
/// its length (0 at end of stream).
fn read_line_bounded(
    reader: &mut impl BufRead,
    line: &mut String,
    what: &str,
) -> Result<usize, String> {
    let n = reader
        .take(MAX_LINE as u64)
        .read_line(line)
        .map_err(|e| format!("read {what}: {e}"))?;
    if n == MAX_LINE && !line.ends_with('\n') {
        return Err(format!("{what} exceeds {MAX_LINE} bytes"));
    }
    Ok(n)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response and flush. Connection is always closed by
/// the caller afterwards.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Blocking one-shot client: send `method path` with an optional JSON
/// body, return `(status, body)`. Used by the smoke subcommand, the CI
/// script and the integration tests — the service is exercised through
/// the same parser real clients would hit.
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(120)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line: {status_line:?}")))?;
    let mut content_length = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            body = String::from_utf8_lossy(&buf).into_owned();
        }
        None => {
            reader.read_to_string(&mut body)?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            let body = req.body_str().unwrap().to_string();
            write_response(&mut stream, 200, "application/json", &body).unwrap();
        });
        let (status, body) = http_request(addr, "POST", "/echo?q=1", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"x\":1}");
        server.join().unwrap();
    }

    #[test]
    fn empty_connection_reads_as_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream).unwrap().is_none());
        });
        drop(TcpStream::connect(addr).unwrap());
        server.join().unwrap();
    }
}
