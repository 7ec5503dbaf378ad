//! Gated snapshot publishing against a running `st-serve` instance.
//!
//! A publish is two steps, each individually safe:
//!
//! 1. **Atomic checkpoint write** — [`st_tensor::save_params_atomic`]
//!    puts the candidate's f32 bytes in a same-directory temp file and
//!    renames it over the serving checkpoint. A crash at any instant
//!    leaves either the old checkpoint or the new one, never a torn mix.
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
use st_transrec_core::STTransRec;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Publishes candidate snapshots to one server + checkpoint path.
pub struct Publisher {
    addr: SocketAddr,
    ckpt: PathBuf,
}

/// A confirmed publish.
#[derive(Debug, Clone, Copy)]
pub struct PublishOutcome {
    /// Wall time from checkpoint write to confirmed swap.
    pub(crate) latency: Duration,
}

impl Publisher {
    /// A publisher for the server at `addr` reloading from `ckpt`.
    pub fn new(addr: SocketAddr, ckpt: &Path) -> Self {
        Self {
            addr,
            ckpt: ckpt.to_path_buf(),
        }
    }

    /// Atomically writes `model` to the checkpoint and swaps it into the
    /// server, returning once the reload response confirms the swap.
    pub fn publish(&self, model: &STTransRec) -> std::io::Result<PublishOutcome> {
        let start = Instant::now();
        st_tensor::save_params_atomic(model.params(), &self.ckpt)?;
        let mut client = HttpClient::connect(self.addr)?;
        let resp = client.post("/admin/reload")?;
        if resp.status != 200 {
            return Err(std::io::Error::other(format!(
                "reload rejected with {}: {}",
                resp.status, resp.body
            )));
        }
        // A 200 whose body is not a reload outcome did not confirm a swap.
        ReloadOutcome::parse(&resp.body)
            .ok_or_else(|| invalid_data(format!("unreadable reload response: {}", resp.body)))?;
        Ok(PublishOutcome {
            latency: start.elapsed(),
        })
    }

    /// Simulates the publisher dying mid-write: roughly half of the
    /// candidate's serialized bytes land in a `.crash-` temp file beside
    /// the checkpoint, no rename happens, no reload is issued. Each crash
    /// gets its own file (pid and sequence number, like a real publish's
    /// temp file). Returns the torn file's path.
    pub(crate) fn crash_mid_publish(&self, model: &STTransRec) -> std::io::Result<PathBuf> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let mut bytes = Vec::new();
        model.save(&mut bytes)?;
        bytes.truncate(bytes.len() / 2);
        let dir = self.ckpt.parent().unwrap_or_else(|| Path::new("."));
        let torn = dir.join(format!(
            ".{}.crash-{}-{}",
            self.ckpt
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "model".into()),
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&torn, &bytes)?;
        Ok(torn)
    }

    /// The epoch the server is actually serving, per `/metrics`.
    pub fn served_epoch(&self) -> std::io::Result<u64> {
        let page = st_serve::client::get(self.addr, "/metrics")?.body;
        scrape_gauge(&page, "st_serve_model_epoch")
            .ok_or_else(|| invalid_data("gauge \"st_serve_model_epoch\" missing from /metrics"))
    }
}

#[cfg(test)]
mod tests {
    //! `Publisher` against a reference publisher, over an in-process
    //! st-serve. Random sequences of publishes, crashes mid-publish and
    //! gate rejections (the loop drops the candidate and calls nothing)
    //! run against a fresh server. After every operation the served epoch
    //! is 1 + publishes, so it never regresses; the checkpoint loads and
    //! holds the last published bytes, so no torn file sits at its path;
    //! and each crash has left its own torn file beside it, which does
    //! not load.

    use super::*;
    use proptest::prelude::*;
    use st_data::synth::{generate, SynthConfig};
    use st_data::{CityId, CrossingCitySplit};
    use st_serve::server::{Engine, ServeConfig, Server};
    use st_serve::snapshot::Reloader;
    use st_transrec_core::ModelConfig;
    use std::sync::Arc;

    /// A scratch directory, removed on drop (also when a case fails).
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn checkpoint_bytes(model: &STTransRec) -> Vec<u8> {
        let mut bytes = Vec::new();
        model.save(&mut bytes).expect("serialize");
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn publisher_matches_the_reference_publisher(ops in collection::vec(0u8..3, 1..12)) {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let (dataset, _) = generate(&SynthConfig::tiny());
            let dataset = Arc::new(dataset);
            let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
            let candidate = |seed| {
                let config = ModelConfig { seed, ..ModelConfig::test_small() };
                STTransRec::new(&dataset, &split, config)
            };
            let dir = Scratch(std::env::temp_dir().join(format!(
                "st-online-publisher-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            )));
            std::fs::create_dir_all(&dir.0).expect("create scratch dir");
            let ckpt = dir.0.join("model.bin");
            let mut published = checkpoint_bytes(&candidate(0));
            std::fs::write(&ckpt, &published).expect("write generation 1");
            let reloader = Reloader::new(dataset.clone(), split.clone(), ModelConfig::test_small(), &ckpt);
            let (frozen, bytes) = reloader.load_frozen().expect("load generation 1");
            let config = ServeConfig::default();
            let engine = Engine::new_frozen(dataset.clone(), frozen, bytes, Some(reloader), &config);
            let server = Server::start(engine, &config).expect("start server");
            let publisher = Publisher::new(server.local_addr(), &ckpt);

            let (mut publishes, mut crashes) = (0, 0);
            for (i, &op) in ops.iter().enumerate() {
                let model = candidate(1 + i as u64);
                match op {
                    0 => {
                        publisher.publish(&model).expect("publish");
                        published = checkpoint_bytes(&model);
                        publishes += 1;
                    }
                    1 => {
                        publisher.crash_mid_publish(&model).expect("crash");
                        crashes += 1;
                    }
                    _ => {}
                }
                let epoch = publisher.served_epoch().expect("served epoch");
                prop_assert_eq!(epoch, 1 + publishes, "op {}; ops {:?}", i, ops);
                let held = std::fs::read(&ckpt).expect("checkpoint");
                prop_assert!(held == published, "op {}: the checkpoint is not the last publish; ops {:?}", i, ops);
                prop_assert!(st_tensor::load_params(held.as_slice()).is_ok());
                let torn: Vec<PathBuf> = std::fs::read_dir(&dir.0)
                    .expect("list scratch dir")
                    .map(|e| e.expect("entry").path())
                    .filter(|p| p.to_string_lossy().contains(".crash-"))
                    .collect();
                prop_assert_eq!(torn.len(), crashes, "op {}: {:?}; ops {:?}", i, torn, ops);
                for path in &torn {
                    let bytes = std::fs::read(path).expect("torn file");
                    prop_assert!(st_tensor::load_params(bytes.as_slice()).is_err(), "{:?} loads", path);
                }
            }
            server.shutdown();
        }
    }
}
