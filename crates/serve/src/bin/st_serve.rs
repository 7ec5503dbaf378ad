//! `st-serve` — the online recommendation server.
//!
//! ```text
//! # serve a trained checkpoint over a dataset
//! st-serve --data checkins.tsv --checkpoint model.bin --addr 127.0.0.1:8080
//!
//! # generate a self-contained demo (tiny synthetic dataset + trained
//! # checkpoint) to try the server without real data
//! st-serve --gen-demo demo/
//! st-serve --data demo/checkins.tsv --checkpoint demo/model.bin
//! curl 'http://127.0.0.1:8080/recommend?user=0&city=1&k=5'
//! ```
//!
//! The checkpoint is the frozen container a trainer or `st-online`
//! publishes (`st_tensor::save_params_atomic_as`): it is memory-mapped
//! and carries every shape the server needs, so no architecture flag is
//! given — only the dataset it was trained on. Replace it by rename,
//! never in place: the running server maps the file.

use st_data::{synth, CityId, CrossingCitySplit, Dataset};
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::BatchConfig;
use st_tensor::StorageEncoding;
use st_transrec_core::{ModelConfig, RetrievalConfig, STTransRec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    data: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    gen_demo: Option<PathBuf>,
    addr: String,
    target_city: u16,
    workers: usize,
    max_batch: usize,
    queue_capacity: usize,
    deadline_ms: u64,
    degrade_watermark: usize,
    cache_capacity: usize,
    demo_epochs: usize,
    snapshot_format: StorageEncoding,
    max_candidates: usize,
    nprobe: usize,
    grid_rings: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            data: None,
            checkpoint: None,
            gen_demo: None,
            addr: "127.0.0.1:8080".into(),
            target_city: 1,
            workers: 4,
            max_batch: 64,
            queue_capacity: 4096,
            deadline_ms: 0,
            degrade_watermark: 0,
            cache_capacity: 4096,
            demo_epochs: 1,
            snapshot_format: StorageEncoding::F32,
            max_candidates: RetrievalConfig::default().max_candidates,
            nprobe: RetrievalConfig::default().nprobe,
            grid_rings: RetrievalConfig::default().grid_rings,
        }
    }
}

const USAGE: &str = "st-serve: online crossing-city POI recommendation server

USAGE:
  st-serve --data FILE --checkpoint FILE [OPTIONS]
  st-serve --gen-demo DIR [--demo-epochs N]

OPTIONS:
  --data FILE             dataset in the st-data text format
  --checkpoint FILE       model checkpoint container, served memory-
                          mapped (replace it by rename, never in place)
  --addr HOST:PORT        bind address      [default: 127.0.0.1:8080]
  --target-city ID        held-out target city id          [default: 1]
  --workers N             HTTP worker threads              [default: 4]
  --max-batch N           most queued requests one scorer takes at once;
                          a miss is scored on arrival, never held for
                          companions                      [default: 64]
  --queue-capacity N      batcher queue bound, at least 1; overflow
                          sheds with 429                [default: 4096]
  --deadline-ms MS        queued-request deadline; expired jobs get 503
                          (0 = off)                        [default: 0]
  --degrade-watermark N   queue depth above which requests fall back to
                          stale cached results (0 = off)   [default: 0]
  --cache-capacity N      LRU result-cache entries      [default: 4096]
  --max-candidates N      two-stage retrieval candidate budget; queries
                          re-rank at most N candidates instead of the
                          full city catalog (0 = always exact scan)
                                                        [default: 4096]
  --nprobe N              IVF inverted lists probed per query
                                                           [default: 8]
  --grid-rings N          geo-grid ring radius around the query anchor
                                                           [default: 2]
  --gen-demo DIR          write DIR/checkins.tsv + DIR/model.bin and exit
  --demo-epochs N         training epochs for --gen-demo   [default: 1]
  --snapshot-format F     demo checkpoint encoding: f32 | f16 | int8
                                                         [default: f32]
  --help                  print this help
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match flag.as_str() {
            "--data" => args.data = Some(PathBuf::from(value("--data"))),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint"))),
            "--gen-demo" => args.gen_demo = Some(PathBuf::from(value("--gen-demo"))),
            "--addr" => args.addr = value("--addr"),
            "--target-city" => {
                args.target_city = value("--target-city")
                    .parse()
                    .unwrap_or_else(|_| fail("--target-city must be an integer"))
            }
            "--workers" => {
                args.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers must be an integer"))
            }
            "--max-batch" => {
                args.max_batch = value("--max-batch")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-batch must be an integer"))
            }
            "--queue-capacity" => {
                args.queue_capacity = value("--queue-capacity")
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--queue-capacity must be an integer >= 1"))
            }
            "--deadline-ms" => {
                args.deadline_ms = value("--deadline-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--deadline-ms must be an integer"))
            }
            "--degrade-watermark" => {
                args.degrade_watermark = value("--degrade-watermark")
                    .parse()
                    .unwrap_or_else(|_| fail("--degrade-watermark must be an integer"))
            }
            "--cache-capacity" => {
                args.cache_capacity = value("--cache-capacity")
                    .parse()
                    .unwrap_or_else(|_| fail("--cache-capacity must be an integer"))
            }
            "--max-candidates" => {
                args.max_candidates = value("--max-candidates")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-candidates must be an integer"))
            }
            "--nprobe" => {
                args.nprobe = value("--nprobe")
                    .parse()
                    .unwrap_or_else(|_| fail("--nprobe must be an integer"))
            }
            "--grid-rings" => {
                args.grid_rings = value("--grid-rings")
                    .parse()
                    .unwrap_or_else(|_| fail("--grid-rings must be an integer"))
            }
            "--demo-epochs" => {
                args.demo_epochs = value("--demo-epochs")
                    .parse()
                    .unwrap_or_else(|_| fail("--demo-epochs must be an integer"))
            }
            "--snapshot-format" => {
                args.snapshot_format = value("--snapshot-format")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    args
}

/// Writes a runnable demo: tiny synthetic dataset + trained checkpoint.
fn gen_demo(dir: &PathBuf, epochs: usize, format: StorageEncoding) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let synth_config = synth::SynthConfig::tiny();
    let (dataset, _) = synth::generate(&synth_config);
    let data_path = dir.join("checkins.tsv");
    st_data::write_dataset(&dataset, std::fs::File::create(&data_path)?)?;
    // Train on the dataset as `--data` will reload it: the text format
    // rebuilds the vocabulary from what it stores, so model shapes must
    // come from the round-tripped dataset, not the in-memory one.
    let dataset = st_data::read_dataset(std::io::BufReader::new(std::fs::File::open(&data_path)?))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;

    let split = CrossingCitySplit::build(&dataset, CityId(synth_config.target_city as u16));
    let mut model = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    eprintln!("training demo model ({epochs} epochs)...");
    for _ in 0..epochs {
        model.train_epoch(&dataset);
    }
    let ckpt_path = dir.join("model.bin");
    st_tensor::save_params_atomic_as(model.params(), &ckpt_path, format)?;

    eprintln!(
        "wrote {} and {}\nserve it with:\n  st-serve --data {} --checkpoint {} --target-city {}",
        data_path.display(),
        ckpt_path.display(),
        data_path.display(),
        ckpt_path.display(),
        synth_config.target_city,
    );
    Ok(())
}

fn load_dataset(path: &PathBuf) -> Dataset {
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| fail(&format!("cannot open {}: {e}", path.display())));
    st_data::read_dataset(std::io::BufReader::new(file))
        .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", path.display())))
}

fn main() {
    let args = parse_args();

    if let Some(dir) = &args.gen_demo {
        gen_demo(dir, args.demo_epochs.max(1), args.snapshot_format)
            .unwrap_or_else(|e| fail(&format!("demo generation failed: {e}")));
        return;
    }

    let Some(data_path) = &args.data else {
        fail("--data is required (or use --gen-demo)");
    };
    let Some(ckpt_path) = &args.checkpoint else {
        fail("--checkpoint is required (or use --gen-demo)");
    };

    let dataset = Arc::new(load_dataset(data_path));
    let target = CityId(args.target_city);
    if (target.0 as usize) >= dataset.cities().len() {
        fail(&format!(
            "--target-city {} out of range: dataset has {} cities",
            target.0,
            dataset.cities().len()
        ));
    }
    if dataset.cities().len() < 2 {
        fail("dataset needs at least two cities (one source, one target)");
    }
    // `Reloader::new` reads neither the split nor the model config
    // (ROADMAP 7(d)); the container carries its own shapes.
    let split = Arc::new(CrossingCitySplit::build(&dataset, target));
    let reloader = Reloader::new(dataset.clone(), split, ModelConfig::test_small(), ckpt_path);
    eprintln!("loading checkpoint {}...", ckpt_path.display());
    let (frozen, snapshot_bytes) = reloader
        .load_frozen()
        .unwrap_or_else(|e| fail(&format!("cannot load checkpoint: {e}")));
    let snapshot_format = frozen.encoding();
    let snapshot_mapped = frozen.is_mapped();

    let serve_config = ServeConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        batch: BatchConfig {
            max_batch: args.max_batch.max(1),
            queue_capacity: args.queue_capacity,
            deadline: Duration::from_millis(args.deadline_ms),
        },
        cache_capacity: args.cache_capacity,
        degrade_watermark: args.degrade_watermark,
        retrieval: (args.max_candidates > 0).then(|| RetrievalConfig {
            max_candidates: args.max_candidates,
            nprobe: args.nprobe.max(1),
            grid_rings: args.grid_rings,
            ..RetrievalConfig::default()
        }),
        ..ServeConfig::default()
    };
    let engine = Engine::new_frozen(
        dataset.clone(),
        frozen,
        snapshot_bytes,
        Some(reloader),
        &serve_config,
    );
    let server = Server::start(engine, &serve_config)
        .unwrap_or_else(|e| fail(&format!("cannot bind {}: {e}", args.addr)));

    eprintln!(
        "st-serve listening on http://{} ({} users, {} POIs, {} cities, target city {}, \
         {} scorer threads: one per CPU this process may run on)",
        server.local_addr(),
        dataset.num_users(),
        dataset.num_pois(),
        dataset.cities().len(),
        target.0,
        server
            .engine()
            .metrics()
            .batcher_scorers
            .load(std::sync::atomic::Ordering::Relaxed),
    );
    eprintln!(
        "snapshot: {snapshot_format} encoding, {snapshot_bytes} bytes{}",
        if snapshot_mapped {
            ", memory-mapped"
        } else {
            ", in-memory"
        },
    );
    eprintln!(
        "routes: GET /recommend?user=U&city=C&k=K | GET /healthz | GET /metrics | POST /admin/reload"
    );
    server.wait();
}
