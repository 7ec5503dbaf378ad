//! The shared HTTP layer on real sockets, without an engine behind it:
//! the server loop's shutdown (the force-close registry), its answer to
//! unframeable requests, and the client's refusal of unframeable
//! responses.

use st_serve::http::{read_response, Request, Response};
use st_serve::{Handler, HttpClient, HttpServer, StatusTally};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers every request with its own path.
#[derive(Default)]
struct Echo {
    responses: StatusTally,
}

impl Handler for Echo {
    type Worker = ();

    fn handle<W: Write>(
        &self,
        req: &Request,
        _worker: &mut (),
        out: &mut W,
        keep_alive: bool,
    ) -> std::io::Result<()> {
        self.responses.record(200);
        Response::text(200, req.path.clone()).write_to(out, keep_alive)
    }

    fn responses(&self) -> &StatusTally {
        &self.responses
    }
}

fn echo_server(workers: usize) -> HttpServer<Echo> {
    HttpServer::start(
        "test-echo",
        Arc::new(Echo::default()),
        "127.0.0.1:0",
        workers,
        Duration::from_secs(60),
    )
    .expect("start echo server")
}

/// A raw client connection that fails a test instead of hanging it.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

fn get(stream: &mut TcpStream, path: &str) -> String {
    write!(stream, "GET {path} HTTP/1.1\r\n\r\n").expect("write request");
    read_response(&mut BufReader::new(&*stream))
        .expect("read reply")
        .body
}

#[test]
fn shutdown_closes_parked_and_queued_connections_promptly() {
    let server = echo_server(1);
    let addr = server.local_addr();

    // The only worker answers `parked` and then blocks reading its next
    // request, with a 60 s idle timeout.
    let mut parked = raw_conn(addr);
    assert_eq!(get(&mut parked, "/first"), "/first");
    // `queued` is accepted but never picked up: the worker is busy. The
    // round trip on `parked` gives the accept thread time to register
    // it; were it still in the listen backlog at shutdown, the accept
    // loop would drop it there, and the assertions below hold the same.
    let mut queued = raw_conn(addr);
    assert_eq!(get(&mut parked, "/second"), "/second");

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} on idle keep-alive connections"
    );
    for (name, conn) in [("parked", &mut parked), ("queued", &mut queued)] {
        let mut rest = Vec::new();
        let read = conn.read_to_end(&mut rest);
        assert!(
            matches!(read, Ok(0)),
            "{name} peer must see EOF, got {read:?} {rest:?}"
        );
    }
}

#[test]
fn tickers_run_at_once_and_stop_with_the_server() {
    let mut server = echo_server(1);
    let (tx, rx) = std::sync::mpsc::channel();
    server.every("test-ticker", Duration::from_secs(10), move || {
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("first tick runs without waiting out the interval");
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} behind a 10 s ticker"
    );
    assert!(rx.try_recv().is_err(), "no second tick within the interval");
}

#[test]
fn unframeable_request_gets_400_and_close_not_a_second_answer() {
    let server = echo_server(2);
    // Read as bodiless, the chunk would be answered as a second,
    // smuggled request on the same connection.
    let mut conn = raw_conn(server.local_addr());
    conn.write_all(
        b"POST /admin/reload HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          1c\r\nGET /smuggled HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
    )
    .expect("write");
    let mut reply = String::new();
    let _ = conn.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");
    assert!(reply.contains("Connection: close\r\n"), "got: {reply}");
    assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "got: {reply}");
    assert!(!reply.contains("/smuggled"), "got: {reply}");

    // Same for two lengths that disagree.
    let mut conn = raw_conn(server.local_addr());
    conn.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 22\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n")
        .expect("write");
    let mut reply = String::new();
    let _ = conn.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");
    assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "got: {reply}");

    // The loop keeps serving everyone else.
    assert_eq!(get(&mut raw_conn(server.local_addr()), "/after"), "/after");
    server.shutdown();
}

/// A one-connection fake server that answers the i-th request it reads
/// with `replies[i]`, verbatim, then closes.
fn scripted_server(replies: &'static [&'static [u8]]) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut seen = Vec::new();
        for reply in replies {
            while !seen.ends_with(b"\r\n\r\n") {
                let mut byte = [0u8; 1];
                if stream.read(&mut byte).unwrap_or(0) == 0 {
                    return;
                }
                seen.push(byte[0]);
            }
            seen.clear();
            let _ = stream.write_all(reply);
        }
    });
    addr
}

#[test]
fn client_rejects_unframeable_replies_instead_of_guessing_an_empty_body() {
    // No Content-Length: the lax reader returned 200 with an empty body
    // and left "hello" on the wire for the next reply.
    let addr = scripted_server(&[b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nhello"]);
    let err = HttpClient::connect(addr)
        .expect("connect")
        .get("/x")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("content-length"), "{err}");

    let addr = scripted_server(&[
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    ]);
    let err = HttpClient::connect(addr)
        .expect("connect")
        .get("/x")
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("transfer-encoding"), "{err}");
}

#[test]
fn client_accepts_bodiless_statuses_and_stays_in_step() {
    let addr = scripted_server(&[
        b"HTTP/1.1 204 No Content\r\n\r\n",
        b"HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
    ]);
    let mut client = HttpClient::connect(addr).expect("connect");
    let no_content = client.get("/a").expect("204");
    assert_eq!((no_content.status, no_content.body.as_str()), (204, ""));
    let not_modified = client.get("/b").expect("304");
    assert_eq!(not_modified.status, 304);
    assert_eq!(not_modified.header("etag"), Some("\"v1\""));
    let ok = client.get("/c").expect("200 on the same connection");
    assert_eq!((ok.status, ok.body.as_str()), (200, "ok"));
}
