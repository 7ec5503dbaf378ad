//! The one blocking HTTP/1.1 client of the fleet, over `TcpStream`.
//!
//! Every hop that talks to an `st-serve` replica goes through
//! [`HttpClient`]: the router's per-worker backend pool, its health
//! probe and rollout RPCs, the online publisher, and the tests and load
//! generators. It reuses one keep-alive connection across requests (the
//! access pattern the server optimizes for) and reads replies with the
//! strict [`read_response`] — a reply whose framing it cannot trust is an
//! `InvalidData` error, after which the caller must drop the connection.

use crate::http::read_response;
pub use crate::http::HttpResponse;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connect and read timeout of [`HttpClient::connect`]: generous, since
/// an overloaded replica answers through its own deadline machinery and
/// a reload deserializes a whole checkpoint.
const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A keep-alive connection to a server.
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr` with a generous request timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with(addr, DEFAULT_TIMEOUT, DEFAULT_TIMEOUT)
    }

    /// Connects to `addr` within `connect_timeout`; every later reply
    /// must arrive within `read_timeout`.
    pub fn connect_with(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Issues one request on the shared connection and reads the reply.
    pub fn request(&mut self, method: &str, path: &str) -> std::io::Result<HttpResponse> {
        // One write, so the request leaves as one segment (the socket is
        // TCP_NODELAY) and a peer never sees it torn.
        let request = format!("{method} {path} HTTP/1.1\r\nHost: st-serve\r\n\r\n");
        self.writer.write_all(request.as_bytes())?;
        read_response(&mut self.reader)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("GET", path)
    }

    /// `POST path` with an empty body.
    pub fn post(&mut self, path: &str) -> std::io::Result<HttpResponse> {
        self.request("POST", path)
    }
}

/// One-shot convenience: connect, GET, disconnect.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    HttpClient::connect(addr)?.get(path)
}
