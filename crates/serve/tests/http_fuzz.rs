//! Byte-level fuzz of the two HTTP readers (ROADMAP 5c).
//!
//! Everything `read_request` and `read_response` see arrives from a
//! socket, so three promises are policed here:
//!
//! 1. **No byte pattern panics.** Arbitrary bytes, and truncations and
//!    bit flips of valid messages, come back as `Ok` or a clean error.
//! 2. **No byte pattern buys memory.** Whatever lengths a message
//!    declares, the reader never asks the allocator for more than its
//!    caps allow (`MAX_BODY` / `MAX_RESPONSE_BODY`, plus a line).
//! 3. **No desync.** Two valid messages back to back parse as exactly
//!    those two, with the reader left at the boundary — the property a
//!    pooled keep-alive connection lives by.

use proptest::prelude::*;
use st_serve::http::{
    read_request, read_response, HttpResponse, ParseError, Request, Response, MAX_BODY, MAX_LINE,
    MAX_RESPONSE_BODY,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single request the allocator has seen, process-wide. Every
/// test in this binary parses under the same caps, so they can share it.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping is one atomic max.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Feeds `bytes` to both readers; the result only has to exist.
fn parse_both(bytes: &[u8]) {
    let _ = read_request(&mut &bytes[..]);
    let _ = read_response(&mut &bytes[..]);
}

fn assert_allocations_capped() -> Result<(), TestCaseError> {
    // A line being collected may double its buffer once past the cap
    // before the length check sees it.
    let ceiling = MAX_RESPONSE_BODY.max(MAX_BODY) + 4 * MAX_LINE;
    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    prop_assert!(
        largest <= ceiling,
        "a reader asked the allocator for {largest} bytes (ceiling {ceiling})"
    );
    Ok(())
}

fn any_bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u16..256, len).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// A request as the wire carries it, plus what it must parse to.
#[derive(Debug, Clone)]
struct WireRequest {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl WireRequest {
    fn bytes(&self) -> Vec<u8> {
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method, self.target).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        if !self.body.is_empty() {
            out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    fn matches(&self, parsed: &Request) -> bool {
        let mut lines = header_lines(&self.headers);
        if !self.body.is_empty() {
            lines.push(format!("Content-Length: {}", self.body.len()));
        }
        parsed.method == self.method
            && parsed.target == self.target
            && parsed.body == self.body
            && parsed.headers == lines
    }
}

fn header_lines(headers: &[(String, String)]) -> Vec<String> {
    headers.iter().map(|(k, v)| format!("{k}: {v}")).collect()
}

fn headers() -> impl Strategy<Value = Vec<(String, String)>> {
    // Names that cannot collide with the framing headers.
    collection::vec(("X-[A-Za-z]{1,12}", "[a-z0-9/=;]{0,24}"), 0..6)
}

fn wire_request() -> impl Strategy<Value = WireRequest> {
    (
        "[A-Z]{3,7}",
        "/[a-z]{1,12}",
        "[a-z0-9=&%+]{0,40}",
        headers(),
        any_bytes(0..200),
    )
        .prop_map(|(method, path, query, headers, body)| WireRequest {
            method,
            target: if query.is_empty() {
                path
            } else {
                format!("{path}?{query}")
            },
            headers,
            body,
        })
}

fn wire_response() -> impl Strategy<Value = Response> {
    (
        100u16..600,
        headers(),
        "[ -~]{0,300}", // printable ASCII: bodies are text
    )
        .prop_map(|(status, headers, body)| {
            headers
                .iter()
                .fold(Response::text(status, body), |r, (k, v)| {
                    r.with_header(k, v)
                })
        })
}

fn response_bytes(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    response
        .write_to(&mut out, keep_alive)
        .expect("write to memory");
    out
}

fn same_response(parsed: &HttpResponse, sent: &Response) -> bool {
    // `write_to` leads with Content-Type, Content-Length and Connection.
    parsed.status == sent.status
        && parsed.body.as_bytes() == sent.body
        && parsed.headers.len() >= 3
        && parsed.headers[3..] == header_lines(&sent.extra_headers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Noise, and noise behind a plausible first line, never panics.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in any_bytes(0..600),
        prefix in 0usize..4,
    ) {
        let starts: [&[u8]; 4] = [
            b"",
            b"GET /recommend?user=1 HTTP/1.1\r\n",
            b"HTTP/1.1 200 OK\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: ",
        ];
        let mut bytes = starts[prefix].to_vec();
        bytes.extend_from_slice(&noise);
        parse_both(&bytes);
        assert_allocations_capped()?;
    }

    /// Every truncation and a run of bit flips of valid messages parse
    /// or fail cleanly.
    #[test]
    fn mangled_messages_never_panic(
        request in wire_request(),
        response in wire_response(),
        cut in 0.0f64..1.0,
        flips in collection::vec((0.0f64..1.0, 0u8..8), 1..6),
    ) {
        for valid in [request.bytes(), response_bytes(&response, true)] {
            let cut_at = (cut * valid.len() as f64) as usize;
            parse_both(&valid[..cut_at]);
            let mut flipped = valid.clone();
            for (at, bit) in &flips {
                let i = (at * flipped.len() as f64) as usize;
                flipped[i] ^= 1 << bit;
            }
            parse_both(&flipped);
        }
        assert_allocations_capped()?;
    }

    /// A declared length buys at most the cap, however large it is and
    /// however little body follows it.
    #[test]
    fn declared_lengths_never_exceed_the_caps(
        declared in 0u64..u64::MAX,
        sent in any_bytes(0..64),
        digits in "[0-9]{1,30}",
    ) {
        for length in [declared.to_string(), digits] {
            let mut request = format!("POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes();
            request.extend_from_slice(&sent);
            match read_request(&mut &request[..]) {
                Ok(Some(parsed)) => prop_assert!(parsed.body.len() <= MAX_BODY),
                Ok(None) => prop_assert!(false, "a request line was sent"),
                Err(_) => {}
            }
            let mut response = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n").into_bytes();
            response.extend_from_slice(&sent);
            if let Ok(parsed) = read_response(&mut &response[..]) {
                prop_assert!(parsed.body.len() <= MAX_RESPONSE_BODY);
            }
        }
        assert_allocations_capped()?;
    }

    /// Two requests back to back are exactly those two, then clean EOF.
    #[test]
    fn back_to_back_requests_do_not_desync(a in wire_request(), b in wire_request()) {
        let wire = [a.bytes(), b.bytes()].concat();
        let mut reader = &wire[..];
        for sent in [&a, &b] {
            match read_request(&mut reader) {
                Ok(Some(parsed)) => prop_assert!(sent.matches(&parsed), "{sent:?} read as {parsed:?}"),
                other => prop_assert!(false, "{sent:?} read as {other:?}"),
            }
        }
        prop_assert!(reader.is_empty(), "{} bytes left over", reader.len());
        prop_assert!(matches!(read_request(&mut reader), Ok(None)));
    }

    /// Two responses back to back are exactly those two, and the reader
    /// stops at the boundary — including after a bodiless status.
    #[test]
    fn back_to_back_responses_do_not_desync(
        a in wire_response(),
        b in wire_response(),
        bodiless in 0usize..4,
    ) {
        let between: &[u8] = [
            &b""[..],
            b"HTTP/1.1 204 No Content\r\n\r\n",
            b"HTTP/1.1 304 Not Modified\r\n\r\n",
            b"HTTP/1.1 100 Continue\r\n\r\n",
        ][bodiless];
        let wire = [&response_bytes(&a, true)[..], between, &response_bytes(&b, false)[..]].concat();
        let mut reader = &wire[..];
        let first = read_response(&mut reader);
        prop_assert!(matches!(&first, Ok(parsed) if same_response(parsed, &a)), "{a:?} read as {first:?}");
        if !between.is_empty() {
            let middle = read_response(&mut reader);
            prop_assert!(matches!(&middle, Ok(parsed) if parsed.body.is_empty()), "{middle:?}");
        }
        let second = read_response(&mut reader);
        prop_assert!(matches!(&second, Ok(parsed) if same_response(parsed, &b)), "{b:?} read as {second:?}");
        prop_assert!(reader.is_empty(), "{} bytes left over", reader.len());
        prop_assert!(read_response(&mut reader).is_err(), "EOF is not a response");
    }

    /// A relayed response reads back as the original, minus the hop's
    /// own two headers.
    #[test]
    fn relayed_responses_read_back_unchanged(sent in wire_response(), replica in 0u16..64) {
        let direct = read_response(&mut &response_bytes(&sent, true)[..]).expect("valid response");
        let mut relayed = Vec::new();
        direct
            .relay_to(&mut relayed, format_args!("X-Router-Replica: {replica}"), false)
            .expect("write to memory");
        let via = read_response(&mut &relayed[..]).expect("relay is a valid response");
        prop_assert_eq!(&via.status_line, &direct.status_line);
        prop_assert_eq!(&via.body, &direct.body);
        let stamp = replica.to_string();
        prop_assert_eq!(via.header("x-router-replica"), Some(stamp.as_str()));
        prop_assert_eq!(via.header("connection"), Some("close"));
        // Everything but the hop's own two headers, in the same order.
        let kept = |r: &HttpResponse| -> Vec<String> {
            r.headers
                .iter()
                .filter(|line| {
                    let name = line.split(':').next().unwrap_or("").to_ascii_lowercase();
                    name != "connection" && name != "x-router-replica"
                })
                .cloned()
                .collect()
        };
        prop_assert_eq!(kept(&via), kept(&direct));
    }
}

#[test]
fn malformed_is_an_error_kind_not_a_panic() {
    // The two error channels stay distinct: bad bytes are Malformed /
    // InvalidData, a short read is the socket's own error.
    assert!(matches!(
        read_request(&mut &b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"[..]),
        Err(ParseError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
    ));
    let err =
        read_response(&mut &b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let long = [b"GET /".to_vec(), vec![b'a'; MAX_LINE + 1]].concat();
    assert!(matches!(
        read_request(&mut &long[..]),
        Err(ParseError::Malformed(m)) if m.contains("too long")
    ));
}
