//! Minimal HTTP/1.1 framing over any `Read`/`Write` pair.
//!
//! Exactly the subset the serving frontend needs: `GET`/`POST` request
//! parsing with `Content-Length` bodies, keep-alive negotiation, and
//! response writing. Every input dimension is hard-limited (request
//! line, header count and size, body size) so a hostile peer can spend
//! at most a bounded amount of server memory, and every read maps
//! socket timeouts to a typed error so the caller can count and drop
//! slow-loris connections.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use serde::Serialize;

/// Hard cap on the request line and on each header line, in bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Hard cap on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, e.g. `/v1/answer`.
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after this request
    /// (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (`200`, `503`, …).
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`/`Connection`.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response: serializes `body` through the in-tree
    /// serde/serde_json pair (finite floats round-trip bit-exactly).
    pub fn json<T: Serialize>(status: u16, body: &T) -> Self {
        let mut bytes = Vec::new();
        if serde_json::to_writer(&mut bytes, body).is_err() {
            bytes = b"{}".to_vec();
        }
        Self {
            status,
            headers: vec![("content-type".to_string(), "application/json".to_string())],
            body: bytes,
        }
    }

    /// A bare response with no body.
    pub fn empty(status: u16) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Adds a header and returns the response (builder style).
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }
}

/// A framing failure while reading one request.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection mid-request (a torn read); a
    /// close *between* requests is reported as `Ok(None)` instead.
    Closed,
    /// A socket read or write hit its timeout (slow-loris peer,
    /// stalled writer).
    TimedOut,
    /// A size limit was exceeded.
    TooLarge {
        /// Which dimension blew the limit.
        what: &'static str,
        /// The configured limit, in bytes or entries.
        limit: usize,
    },
    /// The bytes on the wire are not an HTTP request this server reads.
    Malformed(String),
    /// Any other transport error.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Closed => write!(f, "peer closed the connection mid-request"),
            Self::TimedOut => write!(f, "socket operation timed out"),
            Self::TooLarge { what, limit } => write!(f, "{what} exceeds the limit of {limit}"),
            Self::Malformed(msg) => write!(f, "malformed request: {msg}"),
            Self::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Self::TimedOut,
            io::ErrorKind::UnexpectedEof => Self::Closed,
            _ => Self::Io(e),
        }
    }
}

/// Result alias for request reading.
pub type HttpResult<T> = std::result::Result<T, HttpError>;

fn read_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> HttpResult<usize> {
    line.clear();
    let mut read = 0usize;
    loop {
        let n = Read::take(&mut *reader, (MAX_LINE_BYTES + 1 - line.len()) as u64)
            .read_until(b'\n', line)?;
        read += n;
        if n == 0 || line.last() == Some(&b'\n') {
            break;
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::TooLarge {
                what: "header line",
                limit: MAX_LINE_BYTES,
            });
        }
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(HttpError::TooLarge {
            what: "header line",
            limit: MAX_LINE_BYTES,
        });
    }
    while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
        line.pop();
    }
    Ok(read)
}

/// Reads one request. Returns `Ok(None)` when the peer closed the
/// connection cleanly before sending any byte (normal keep-alive end).
///
/// # Errors
///
/// [`HttpError`] for torn reads, timeouts, oversized input and
/// malformed framing.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> HttpResult<Option<Request>> {
    let mut line = Vec::with_capacity(256);
    if read_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let text = String::from_utf8_lossy(&line);
    let mut parts = text.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line `{text}`")));
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported version `{other}`"
            )))
        }
    };
    let request_line = (method.to_string(), path.to_string());

    let mut headers = Vec::new();
    loop {
        if read_line(reader, &mut line)? == 0 {
            return Err(HttpError::Closed);
        }
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge {
                what: "header count",
                limit: MAX_HEADERS,
            });
        }
        let text = String::from_utf8_lossy(&line);
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{text}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported".to_string(),
        ));
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            what: "request body",
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        read_exact(reader, &mut body)?;
    }
    Ok(Some(Request {
        method: request_line.0,
        path: request_line.1,
        http11,
        headers,
        body,
    }))
}

fn read_exact<R: BufRead>(reader: &mut R, buf: &mut [u8]) -> HttpResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return Err(HttpError::Closed);
        }
        filled += n;
    }
    Ok(())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes `response` to `writer` and flushes. `keep_alive` decides the
/// advertised `Connection` header; the body always carries an explicit
/// `Content-Length` so the peer never has to read until EOF.
///
/// # Errors
///
/// [`HttpError::TimedOut`] when the peer stalls past the socket write
/// timeout; other transport errors as [`HttpError::Io`].
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> HttpResult<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()?;
    Ok(())
}

/// A response read back by the client side.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs (names lowercased).
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header named `name` (ASCII case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response off `reader` (client side). `Ok(None)` when the
/// server closed before sending a status line.
///
/// # Errors
///
/// Same taxonomy as [`read_request`].
pub fn read_response<R: BufRead>(reader: &mut R) -> HttpResult<Option<ClientResponse>> {
    let mut line = Vec::with_capacity(256);
    if read_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let text = String::from_utf8_lossy(&line);
    let mut parts = text.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| HttpError::Malformed(format!("bad status line `{text}`")))?,
        _ => return Err(HttpError::Malformed(format!("bad status line `{text}`"))),
    };
    let mut headers = Vec::new();
    loop {
        if read_line(reader, &mut line)? == 0 {
            return Err(HttpError::Closed);
        }
        if line.is_empty() {
            break;
        }
        let text = String::from_utf8_lossy(&line);
        let Some((name, value)) = text.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{text}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        read_exact(reader, &mut body)?;
    }
    Ok(Some(ClientResponse {
        status,
        headers,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> HttpResult<Option<Request>> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let req = parse(b"POST /v1/answer HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/answer");
        assert!(req.http11);
        assert!(req.keep_alive());
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn connection_close_and_http10_default() {
        let req = parse(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET /health HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none_torn_request_is_closed() {
        assert!(parse(b"").unwrap().is_none());
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab"),
            Err(HttpError::Closed)
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost: x\r\n"),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn malformed_and_oversized_inputs_are_typed() {
        assert!(matches!(
            parse(b"NONSENSE\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nine\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Body over the limit is refused before it is read.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(HttpError::TooLarge {
                what: "request body",
                ..
            })
        ));
        // A single absurdly long line is refused.
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(
            parse(&raw),
            Err(HttpError::TooLarge {
                what: "header line",
                ..
            })
        ));
        // Too many headers are refused.
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 1) {
            raw.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse(&raw),
            Err(HttpError::TooLarge {
                what: "header count",
                ..
            })
        ));
    }

    #[test]
    fn response_round_trips_through_client_reader() {
        let resp = Response::json(200, &serde::Value::Str("ok".to_string()))
            .with_header("retry-after", "1".to_string());
        let mut wire = Vec::new();
        write_response(&mut wire, &resp, true).unwrap();
        let got = read_response(&mut BufReader::new(wire.as_slice()))
            .unwrap()
            .unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.header("retry-after"), Some("1"));
        assert_eq!(got.header("connection"), Some("keep-alive"));
        assert_eq!(got.body, b"\"ok\"");
    }
}
