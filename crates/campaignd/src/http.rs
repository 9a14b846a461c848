//! Minimal hand-rolled HTTP/1.1 plumbing over `std::net` (the workspace is
//! offline — no hyper), shared by the server and the client.
//!
//! Scope is deliberately small: one request per connection
//! (`Connection: close`), request line + headers + optional
//! `Content-Length` body, hard size limits, percent-decoded query strings.
//! That subset is enough for `curl`, the [`crate::client::Client`] and CI.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Longest a served connection may take to send its whole request, and to
/// block on one write: a client that sends nothing, or one byte at a time,
/// must not hold an HTTP thread for good.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest accepted request body (campaign specs are a few KB).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Decoded path without the query string (`/jobs/abc`).
    pub path: String,
    /// Percent-decoded query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The raw body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path split on `/` with empty segments dropped
    /// (`/jobs/abc/summary` → `["jobs", "abc", "summary"]`).
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// One HTTP response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text (JSONL) response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Reads off a connection against one deadline: before each read the
/// socket's timeout is set to the time left.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Read and parse one request off a connection, all of it, from the request
/// line to the last body byte, within `IO_TIMEOUT` (2 s) of the call.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let at = Instant::now() + IO_TIMEOUT;
    let mut reader = BufReader::new(Deadline { stream, at });
    let mut head = String::new();
    // Request line + headers, line by line, bounded.
    let request_line = read_line(&mut reader, &mut head)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| "request line has no target".to_string())?
        .to_string();
    let mut content_length = 0usize;
    loop {
        let line = read_line(&mut reader, &mut head)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "malformed Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds the limit"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("truncated body: {e}"))?;

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path: percent_decode(path),
        query,
        body,
    })
}

fn read_line(reader: &mut BufReader<Deadline<'_>>, head: &mut String) -> Result<String, String> {
    let mut line = String::new();
    // `read_line` alone buffers until it meets `\n`, however far away that
    // is: read at most what is left of the head budget, plus the one byte
    // that tells "at the limit" from "past it".
    let budget = (MAX_HEAD - head.len()) as u64 + 1;
    reader
        .by_ref()
        .take(budget)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read request: {e}"))?;
    head.push_str(&line);
    if head.len() > MAX_HEAD {
        return Err("request head exceeds the limit".to_string());
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

/// Serialize and send a response, closing the connection after.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Decode `%XX` escapes and `+`-for-space (query-string convention).
pub fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    core::str::from_utf8(pair)
                        .ok()
                        .and_then(|s| u8::from_str_radix(s, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
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
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode everything outside the URL-safe set.
pub fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for &b in text.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_coding_round_trips() {
        for original in ["plain", "a b+c", "K8/torus", "100%", "fp1,fp2", "café"] {
            assert_eq!(percent_decode(&percent_encode(original)), original);
        }
        assert_eq!(percent_decode("a%2Cb"), "a,b");
        assert_eq!(percent_decode("a+b"), "a b");
        // A stray % decodes as itself rather than erroring.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn requests_parse_over_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap();
            write_response(&mut stream, &Response::json(200, "{}")).unwrap();
            request
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(
                b"POST /jobs?facet=overhead&graph=K8%20big HTTP/1.1\r\n\
                  Host: x\r\nContent-Length: 4\r\n\r\nbody",
            )
            .unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        let request = join.join().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/jobs");
        assert_eq!(request.segments(), vec!["jobs"]);
        assert_eq!(request.query_param("facet"), Some("overhead"));
        assert_eq!(request.query_param("graph"), Some("K8 big"));
        assert_eq!(request.body, b"body");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got: {reply}");
        assert!(reply.contains("Connection: close"));
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream).map(|_| ())
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        assert!(join.join().unwrap().is_err());
    }

    #[test]
    fn a_request_line_without_a_newline_is_refused_at_the_head_limit() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = done.send(read_request(&mut stream).map(|_| ()));
        });
        let mut client = TcpStream::connect(addr).unwrap();
        // 1 MiB and no newline, with the connection held open: the server
        // must give up after the head budget, not wait for a line end.
        let _ = client.write_all(&vec![b'A'; 1 << 20]);
        let outcome = result
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the read is bounded by the head limit");
        assert_eq!(
            outcome.unwrap_err(),
            "request head exceeds the limit".to_string()
        );
    }
}
