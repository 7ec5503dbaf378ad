//! Gated snapshot publishing against a running `st-serve` instance.
//!
//! A publish is two steps, each individually safe:
//!
//! 1. **Atomic checkpoint write** — [`st_tensor::save_params_atomic_as`]
//!    puts the candidate's bytes in a same-directory temp file and
//!    renames it over the serving checkpoint. A crash at any instant
//!    leaves either the old checkpoint or the new one, never a torn mix.
//!    The publisher picks the v2 container encoding
//!    ([`Publisher::with_format`]): f32 by default, or f16/int8 to
//!    shrink the serving footprint — the server maps whatever encoding
//!    arrives and dequantizes on gather.
//! 2. **Reload RPC** — `POST /admin/reload` makes the server load the
//!    checkpoint into a fresh frozen snapshot (with retrieval index) and
//!    atomically swap it in, bumping the serving epoch.
//!
//! The publisher also reads the server's `/metrics` exposition to verify
//! what is actually serving (epoch + last-reload timestamp) rather than
//! trusting its own bookkeeping.

use st_serve::client::HttpClient;
use st_serve::http::invalid_data;
use st_serve::metrics::scrape_gauge;
use st_serve::ReloadOutcome;
use st_tensor::StorageEncoding;
use st_transrec_core::STTransRec;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Publishes candidate snapshots to one server + checkpoint path.
pub struct Publisher {
    addr: SocketAddr,
    ckpt: PathBuf,
    format: StorageEncoding,
}

/// A confirmed publish.
#[derive(Debug, Clone, Copy)]
pub struct PublishOutcome {
    /// Serving epoch after the swap, as reported by the reload response.
    pub epoch: u64,
    /// Wall time from checkpoint write to confirmed swap.
    pub latency: Duration,
}

impl Publisher {
    /// A publisher for the server at `addr` reloading from `ckpt`,
    /// writing f32 v2 containers.
    pub fn new(addr: SocketAddr, ckpt: &Path) -> Self {
        Self {
            addr,
            ckpt: ckpt.to_path_buf(),
            format: StorageEncoding::F32,
        }
    }

    /// Sets the container encoding for every subsequent publish. Lossy
    /// encodings (f16/int8) apply to the embedding tables only; tower
    /// weights always stay f32.
    pub fn with_format(mut self, format: StorageEncoding) -> Self {
        self.format = format;
        self
    }

    /// The checkpoint path this publisher writes.
    pub fn checkpoint(&self) -> &Path {
        &self.ckpt
    }

    /// The container encoding this publisher writes.
    pub fn format(&self) -> StorageEncoding {
        self.format
    }

    /// Atomically writes `model` to the checkpoint and swaps it into the
    /// server, returning the confirmed new epoch.
    pub fn publish(&self, model: &STTransRec) -> std::io::Result<PublishOutcome> {
        let start = Instant::now();
        st_tensor::save_params_atomic_as(model.params(), &self.ckpt, self.format)?;
        let mut client = HttpClient::connect(self.addr)?;
        let resp = client.post("/admin/reload")?;
        if resp.status != 200 {
            return Err(std::io::Error::other(format!(
                "reload rejected with {}: {}",
                resp.status, resp.body
            )));
        }
        let outcome = ReloadOutcome::parse(&resp.body)
            .ok_or_else(|| invalid_data(format!("unreadable reload response: {}", resp.body)))?;
        Ok(PublishOutcome {
            epoch: outcome.epoch,
            latency: start.elapsed(),
        })
    }

    /// Simulates the publisher dying mid-write: roughly half of the
    /// candidate's serialized bytes land in a `.crash-` temp file beside
    /// the checkpoint, no rename happens, no reload is issued. Returns
    /// the torn file's path so tests can assert it is quarantined.
    pub fn crash_mid_publish(&self, model: &STTransRec) -> std::io::Result<PathBuf> {
        let mut bytes = Vec::new();
        model.save(&mut bytes)?;
        bytes.truncate(bytes.len() / 2);
        let dir = self.ckpt.parent().unwrap_or_else(|| Path::new("."));
        let torn = dir.join(format!(
            ".{}.crash-{}",
            self.ckpt
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "model".into()),
            std::process::id()
        ));
        std::fs::write(&torn, &bytes)?;
        Ok(torn)
    }

    /// The epoch the server is actually serving, per `/metrics`.
    pub fn served_epoch(&self) -> std::io::Result<u64> {
        self.scrape("st_serve_model_epoch")
    }

    /// Unix seconds of the server's last successful (re)load.
    pub fn last_reload_unix(&self) -> std::io::Result<u64> {
        self.scrape("st_serve_last_reload_timestamp_seconds")
    }

    fn scrape(&self, gauge: &str) -> std::io::Result<u64> {
        let page = st_serve::client::get(self.addr, "/metrics")?.body;
        scrape_gauge(&page, gauge)
            .ok_or_else(|| invalid_data(format!("gauge {gauge:?} missing from /metrics")))
    }
}
