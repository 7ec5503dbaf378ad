//! The one HTTP server loop of the fleet.
//!
//! [`HttpServer`] binds a listener and runs an accept thread that feeds a
//! fixed pool of worker threads over a channel; each worker speaks
//! keep-alive HTTP/1.1 on one connection at a time and hands every parsed
//! [`Request`] to the tier's [`Handler`] — `st-serve`'s engine or
//! `st-router`'s proxy. A request that does not parse is answered `400`
//! and its connection closed, whatever the tier.
//!
//! Shutdown order: set the stop flag; wake the accept loop with a
//! throwaway self-connection and join it (which drops the channel's
//! sender); force-close every registered connection, so a worker parked
//! in a keep-alive read — or about to pick a queued connection up — sees
//! EOF now instead of at its idle timeout; join the workers, then the
//! [`HttpServer::every`] tickers, whose waits are sliced so they notice
//! the flag within 25 ms.

use crate::http::{read_request, ParseError, Request, Response};
use crate::metrics::StatusTally;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest a ticker sleeps before re-checking the stop flag.
const TICK_SLICE: Duration = Duration::from_millis(25);
/// How long a keep-alive connection may sit idle before it is closed,
/// in every tier. It holds its worker that long.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// What a tier plugs into the server loop.
pub trait Handler: Send + Sync + 'static {
    /// State each worker thread owns for its whole life and lends to
    /// every call (the engine's retrieval scratch, the router's backend
    /// connection pool).
    type Worker: Default;

    /// Routes one request and writes its reply to `out`, advertising
    /// `keep_alive`. An `Err` (the reply could not be written) closes
    /// the connection.
    fn handle<W: Write>(
        &self,
        req: &Request,
        worker: &mut Self::Worker,
        out: &mut W,
        keep_alive: bool,
    ) -> std::io::Result<()>;

    /// The tier's response tally; the loop adds the `400`s it answers
    /// itself.
    fn responses(&self) -> &StatusTally;
}

/// Live client connections keyed by accept order, so shutdown can
/// force-close a blocked keep-alive read instead of waiting out its
/// idle timeout.
type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

// Never poisoned: the registry is only inserted into, removed from and
// drained under the lock, none of which panics.
fn registry(conns: &ConnRegistry) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    conns.lock().expect("conn registry poisoned")
}

/// A running server; dropping it (or calling [`HttpServer::shutdown`])
/// stops the listener, the workers and the tickers.
pub struct HttpServer<H: Handler> {
    addr: SocketAddr,
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
    conns: ConnRegistry,
    accept_handle: Option<JoinHandle<()>>,
    /// Workers, then tickers: the order shutdown joins them in.
    handles: Vec<JoinHandle<()>>,
}

impl<H: Handler> HttpServer<H> {
    /// Binds `addr` and serves `handler` on `workers` threads named
    /// after `name`, dropping keep-alive connections idle for
    /// `IDLE_TIMEOUT`, the one of every tier.
    pub fn start(name: &str, handler: Arc<H>, addr: &str, workers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        // Fixed worker pool fed by an accept thread over a channel.
        let (conn_tx, conn_rx) = mpsc::channel::<(u64, TcpStream)>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx = conn_rx.clone();
                let handler = handler.clone();
                let conns = conns.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || {
                        let mut worker = H::Worker::default();
                        loop {
                            // Never poisoned: the lock is held only across `recv`.
                            let conn = rx.lock().expect("conn rx poisoned").recv();
                            let Ok((conn_id, stream)) = conn else {
                                return; // accept thread gone: shutdown
                            };
                            handle_connection(&*handler, &mut worker, stream);
                            registry(&conns).remove(&conn_id);
                        }
                    })
            })
            .collect::<std::io::Result<_>>()?;

        let accept_stop = stop.clone();
        let accept_conns = conns.clone();
        let accept_handle = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || {
                let mut next_id = 0u64;
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break; // the shutdown self-connection lands here
                    }
                    let Ok(stream) = stream else { continue };
                    let conn_id = next_id;
                    next_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        registry(&accept_conns).insert(conn_id, clone);
                    }
                    if conn_tx.send((conn_id, stream)).is_err() {
                        break;
                    }
                }
                // Dropping conn_tx unblocks every worker.
            })?;

        Ok(Self {
            addr,
            handler,
            stop,
            conns,
            accept_handle: Some(accept_handle),
            handles,
        })
    }

    /// Runs `tick` on a thread of its own (named `name`) now and then
    /// once per `interval` until the server stops. Fails only when the
    /// thread cannot be spawned.
    pub fn every(
        &mut self,
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> std::io::Result<()> {
        let stop = self.stop.clone();
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    tick();
                    let mut waited = Duration::ZERO;
                    while waited < interval && !stop.load(Ordering::Acquire) {
                        let slice = TICK_SLICE.min(interval - waited);
                        std::thread::sleep(slice);
                        waited += slice;
                    }
                }
            })?;
        self.handles.push(handle);
        Ok(())
    }

    /// The bound address (use this to learn an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler behind this server.
    pub fn handler(&self) -> &Arc<H> {
        &self.handler
    }

    /// Blocks the calling thread until the server stops.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, closes every connection, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Force-close live keep-alive connections so blocked worker
        // reads fail now rather than at their idle timeout.
        for (_, stream) in registry(&self.conns).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<H: Handler> Drop for HttpServer<H> {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Serves one connection: keep-alive request loop with an idle timeout.
fn handle_connection<H: Handler>(handler: &H, worker: &mut H::Worker, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        match read_request(&mut reader) {
            Ok(None) => return, // clean close between requests
            Ok(Some(req)) => {
                let keep_alive = !req.wants_close();
                let written = handler.handle(&req, worker, &mut writer, keep_alive);
                if written.is_err() || !keep_alive {
                    return;
                }
            }
            Err(ParseError::Malformed(msg)) => {
                handler.responses().record(400);
                let _ = Response::error(400, &msg).write_to(&mut writer, false);
                return;
            }
            Err(ParseError::Io(_)) => return, // timeout or peer reset
        }
    }
}
