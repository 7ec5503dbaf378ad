//! The HTTP/1.1 wire codec, both messages in both directions.
//!
//! Requests and responses are each written in one place
//! ([`HttpClient`](crate::client::HttpClient) writes requests,
//! [`Response::write_to`] and [`HttpResponse::relay_to`] write
//! responses) and read in one place ([`read_request`],
//! [`read_response`]). Both readers share one line reader, one set of
//! limits and one **framing rule**: `Content-Length` is the only body
//! framing; a message carrying `Transfer-Encoding`, or two
//! `Content-Length` headers that disagree, is refused rather than
//! guessed at, because unread body bytes left on a keep-alive connection
//! would be parsed as the next message. A request outside that envelope
//! is [`ParseError::Malformed`] (answered `400` + close); a response
//! outside it is `io::ErrorKind::InvalidData` (the connection is dropped,
//! never pooled). Hard caps on line length, header count and body size
//! bound what a malformed or hostile peer can make either reader
//! allocate.

use std::io::{BufRead, Read, Write};

/// Longest accepted request, status or header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;
/// Most accepted headers per message.
pub(crate) const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY: usize = 64 * 1024;
/// Largest accepted response body, bytes. A `/recommend` answer at the
/// largest `k` or a `/metrics` page is tens of KiB.
pub const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;
/// `Retry-After` on every deliberate shed, seconds, at both tiers.
pub const RETRY_AFTER_SECS: u32 = 1;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/recommend`).
    pub path: String,
    /// The original request target exactly as received (path plus query
    /// string, undecoded), so a reverse proxy can forward it verbatim.
    pub target: String,
    /// Decoded query parameters in order of appearance.
    pub(crate) query: Vec<(String, String)>,
    /// Header lines in arrival order and original case, without CRLF.
    pub headers: Vec<String>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Query parameter `name` as a non-negative integer, or the `400` to
    /// answer with when it is missing or does not parse — one wording
    /// for every tier.
    pub fn int_param<T: std::str::FromStr>(&self, name: &str) -> Result<T, Response> {
        match self.query_param(name).map(str::parse) {
            Some(Ok(v)) => Ok(v),
            Some(Err(_)) => Err(Response::error(
                400,
                &format!("{name} must be a non-negative integer"),
            )),
            None => Err(Response::error(
                400,
                &format!("missing query parameter: {name}"),
            )),
        }
    }

    /// First header named `name` (case-insensitive).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the peer asked to close the connection after this request.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Errors from request parsing.
#[derive(Debug)]
pub enum ParseError {
    /// The bytes are not a well-formed request within our limits; the
    /// connection gets a `400` and is closed.
    Malformed(String),
    /// The underlying socket failed (including read timeouts).
    Io(std::io::Error),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// A response-side parse failure is `InvalidData`: the caller drops the
/// connection instead of answering it.
impl From<ParseError> for std::io::Error {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::Malformed(msg) => invalid_data(msg),
            ParseError::Io(e) => e,
        }
    }
}

/// An `InvalidData` error: a reply that arrived but cannot be trusted.
pub fn invalid_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn malformed(msg: impl Into<String>) -> ParseError {
    ParseError::Malformed(msg.into())
}

/// Reads one line up to `MAX_LINE` bytes, without the trailing CRLF.
/// Returns `None` on clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, ParseError> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.is_empty() {
        return Ok(None);
    } else if line.len() > MAX_LINE {
        return Err(malformed("line too long"));
    } else {
        return Err(malformed("EOF mid-line"));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| malformed("non-UTF8 line"))
}

/// Reads a header block up to its blank line: the header lines as
/// received, plus the body length they declare under the framing rule
/// (see the module docs).
fn read_headers<R: BufRead>(reader: &mut R) -> Result<(Vec<String>, Option<usize>), ParseError> {
    let mut headers = Vec::new();
    let mut content_length = None;
    loop {
        let line = read_line(reader)?.ok_or_else(|| malformed("EOF inside headers"))?;
        if line.is_empty() {
            return Ok((headers, content_length));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(malformed("too many headers"));
        }
        let (name, value) =
            split_header(&line).ok_or_else(|| malformed(format!("bad header {line:?}")))?;
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(malformed("transfer-encoding framing not supported"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let len: usize = value
                .parse()
                .map_err(|_| malformed(format!("bad content-length {value:?}")))?;
            if content_length
                .replace(len)
                .is_some_and(|first| first != len)
            {
                return Err(malformed("conflicting content-length headers"));
            }
        }
        headers.push(line);
    }
}

/// Splits a header line into its trimmed name and value.
fn split_header(line: &str) -> Option<(&str, &str)> {
    line.split_once(':').map(|(k, v)| (k.trim(), v.trim()))
}

/// Value of the first of `headers` named `name` (case-insensitive).
fn find_header<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .filter_map(|line| split_header(line))
        .find_map(|(k, v)| k.eq_ignore_ascii_case(name).then_some(v))
}

/// Decodes `%XX` escapes and `+` as space in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let decoded = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok());
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a request target into path and decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(p), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// Reads one request from `reader`. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive shutdown).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ParseError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => return Err(malformed(format!("bad request line {request_line:?}"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(malformed(format!("bad version {version:?}")));
    }

    let (headers, content_length) = read_headers(reader)?;
    let len = content_length.unwrap_or(0);
    if len > MAX_BODY {
        return Err(malformed("body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;

    let (path, query) = parse_target(target);
    Ok(Some(Request {
        method: method.to_string(),
        path,
        target: target.to_string(),
        query,
        headers,
        body,
    }))
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// `Content-Type` value.
    pub(crate) content_type: &'static str,
    /// Extra headers (name, value).
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    /// A deliberate overload shed: [`Response::error`] plus
    /// `Retry-After: RETRY_AFTER_SECS`. The header is the marker: it says
    /// the server is alive and protecting itself, so the router keeps a
    /// replica's shed out of its circuit breaker.
    pub fn shed(status: u16, message: &str) -> Self {
        Self::error(status, message).with_header("Retry-After", &RETRY_AFTER_SECS.to_string())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response to `out`, advertising keep-alive or close.
    pub fn write_to<W: Write>(&self, mut out: W, keep_alive: bool) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.write_all(b"\r\n")?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// A parsed HTTP response, kept close enough to the wire that a proxy
/// can relay it byte-faithfully.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status line without CRLF, e.g. `HTTP/1.1 200 OK`.
    pub status_line: String,
    /// Parsed status code.
    pub status: u16,
    /// Header lines in arrival order and original case, without CRLF.
    pub headers: Vec<String>,
    /// Body (per `Content-Length`) as UTF-8: every response in this
    /// system is JSON or plain text.
    pub body: String,
}

impl HttpResponse {
    /// First header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Re-serializes this response for the next hop: status line,
    /// headers and body verbatim minus the hop-by-hop headers, plus the
    /// relaying hop's own `stamp` header line and `Connection`.
    pub fn relay_to<W: Write>(
        &self,
        mut out: W,
        stamp: std::fmt::Arguments<'_>,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        write!(out, "{}\r\n", self.status_line)?;
        for line in self.headers.iter().filter(|line| !is_hop_by_hop(line)) {
            write!(out, "{line}\r\n")?;
        }
        write!(
            out,
            "{stamp}\r\nConnection: {}\r\n\r\n",
            if keep_alive { "keep-alive" } else { "close" }
        )?;
        out.write_all(self.body.as_bytes())?;
        out.flush()
    }
}

/// Headers that describe one hop, never forwarded by a proxy.
fn is_hop_by_hop(header_line: &str) -> bool {
    let name = split_header(header_line).map_or("", |(k, _)| k);
    [
        "connection",
        "keep-alive",
        "proxy-authenticate",
        "proxy-authorization",
        "te",
        "trailer",
        "transfer-encoding",
        "upgrade",
    ]
    .iter()
    .any(|h| name.eq_ignore_ascii_case(h))
}

/// Reads one response under the framing rule (see the module docs). A
/// response without `Content-Length` is an error too — guessing a
/// zero-length or close-delimited body would leave its bytes to be read
/// as the next response on a pooled connection — except for the statuses
/// that never carry a body (1xx, 204, 304).
pub fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<HttpResponse> {
    let status_line =
        read_line(reader)?.ok_or_else(|| malformed("connection closed before response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed(format!("bad status line {status_line:?}")))?;
    let (headers, content_length) = read_headers(reader)?;
    let len = match content_length {
        Some(len) if len > MAX_RESPONSE_BODY => return Err(malformed("body too large").into()),
        Some(len) => len,
        None if status == 204 || status == 304 || (100..200).contains(&status) => 0,
        None => return Err(malformed("response without content-length").into()),
    };
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| malformed("non-UTF8 body"))?;
    Ok(HttpResponse {
        status_line,
        status,
        headers,
        body,
    })
}

/// Canonical reason phrase for the status codes this server emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders `s` as a JSON string literal with escaping.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse("GET /recommend?user=3&city=1&k=5 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/recommend");
        assert_eq!(req.target, "/recommend?user=3&city=1&k=5");
        assert_eq!(req.query_param("user"), Some("3"));
        assert_eq!(req.query_param("city"), Some("1"));
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_with_body_and_close() {
        let req = parse(
            "POST /admin/reload HTTP/1.1\r\nConnection: close\r\nContent-Length: 4\r\n\r\nwake",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"wake");
        assert!(req.wants_close());
    }

    #[test]
    fn percent_decoding_in_query() {
        let req = parse("GET /recommend?user=1&note=a%20b+c HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("note"), Some("a b c"));
    }

    #[test]
    fn clean_eof_yields_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for raw in [
            "NOT-HTTP\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x HTTP/9.9\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: huge\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ParseError::Malformed(_))),
                "{raw:?} should be malformed"
            );
        }
    }

    #[test]
    fn transfer_encoding_requests_are_rejected_not_read_as_bodiless() {
        // Parsed as bodiless, the chunk bytes would be read as the next
        // pipelined request on the same keep-alive connection.
        let chunked = "POST /admin/reload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                       1c\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
        match parse(chunked) {
            Err(ParseError::Malformed(msg)) => assert!(msg.contains("transfer-encoding"), "{msg}"),
            other => panic!("chunked request must be malformed, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // Taking the first length would leave "wake" on the wire.
        let conflicting =
            "POST /admin/reload HTTP/1.1\r\nContent-Length: 0\r\ncontent-length: 4\r\n\r\nwake";
        match parse(conflicting) {
            Err(ParseError::Malformed(msg)) => assert!(msg.contains("conflicting"), "{msg}"),
            other => panic!("conflicting lengths must be malformed, got {other:?}"),
        }
        // A repeated but identical length is unambiguous.
        let repeated =
            "POST /admin/reload HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nwake";
        assert_eq!(parse(repeated).unwrap().unwrap().body, b"wake");
    }

    #[test]
    fn unframeable_responses_are_rejected_not_guessed() {
        // Chunked framing would leave the chunk bytes unread in a pooled
        // connection; the reader must refuse it outright.
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n";
        let err = read_response(&mut &chunked[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("transfer-encoding"), "{err}");

        // Same for a close-delimited body (no Content-Length at all) ...
        let unframed = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello";
        let err = read_response(&mut &unframed[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("content-length"), "{err}");

        // ... two lengths that disagree, and one beyond the body cap
        // (which must be refused before anything is allocated for it).
        let conflicting = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}";
        assert!(read_response(&mut &conflicting[..]).is_err());
        let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n";
        let err = read_response(&mut &huge[..]).unwrap_err();
        assert!(err.to_string().contains("too large"), "{err}");

        // Bodiless statuses may legitimately omit the header.
        for wire in [
            &b"HTTP/1.1 204 No Content\r\n\r\n"[..],
            &b"HTTP/1.1 304 Not Modified\r\nETag: x\r\n\r\n"[..],
            &b"HTTP/1.1 100 Continue\r\n\r\n"[..],
        ] {
            let resp = read_response(&mut &wire[..]).unwrap();
            assert!(resp.body.is_empty(), "{}", resp.status_line);
        }
    }

    #[test]
    fn response_roundtrip_parsing_and_relay() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\nX-Cache: MISS\r\n\r\n{}";
        let resp = read_response(&mut &wire[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.status_line, "HTTP/1.1 200 OK");
        assert_eq!(resp.body, "{}");
        assert_eq!(resp.header("x-cache"), Some("MISS"));
        assert_eq!(resp.header("content-type"), Some("application/json"));

        let mut out = Vec::new();
        resp.relay_to(&mut out, format_args!("X-Router-Replica: 1"), true)
            .unwrap();
        // Order and casing survive; the backend's Connection header is
        // replaced by this hop's, after the stamp.
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             X-Cache: MISS\r\nX-Router-Replica: 1\r\nConnection: keep-alive\r\n\r\n{}"
        );
    }

    #[test]
    fn hop_by_hop_filter() {
        assert!(is_hop_by_hop("Connection: keep-alive"));
        assert!(is_hop_by_hop("transfer-encoding: chunked"));
        assert!(!is_hop_by_hop("Content-Type: application/json"));
        assert!(!is_hop_by_hop("X-Cache: HIT"));
    }

    #[test]
    fn written_responses_read_back() {
        let mut wire = Vec::new();
        Response::shed(503, "deadline-exceeded")
            .write_to(&mut wire, false)
            .unwrap();
        let resp = read_response(&mut &wire[..]).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body, "{\"error\":\"deadline-exceeded\"}");
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut buf = Vec::new();
        Response::json(200, "{}")
            .with_header("X-Cache", "HIT")
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Cache: HIT\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
