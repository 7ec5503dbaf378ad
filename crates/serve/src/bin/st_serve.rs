//! `st-serve` — the online recommendation server.
//!
//! ```text
//! st-serve --gen-demo demo/     # a tiny synthetic dataset + trained checkpoint
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
use st_serve::cli;
use st_serve::server::{Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_tensor::StorageEncoding;
use st_transrec_core::{ModelConfig, STTransRec};
use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One run: serve `checkpoint` over `data`, or write a demo.
struct Args {
    data: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    gen_demo: Option<PathBuf>,
    target_city: u16,
    demo_epochs: usize,
    snapshot_format: StorageEncoding,
    serve: ServeConfig,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            data: None,
            checkpoint: None,
            gen_demo: None,
            target_city: 1,
            demo_epochs: 1,
            snapshot_format: StorageEncoding::F32,
            serve: ServeConfig {
                addr: "127.0.0.1:8080".into(),
                ..ServeConfig::default()
            },
        }
    }
}

fn usage() -> String {
    let d = Args::default();
    let (serve, retrieval) = (&d.serve, d.serve.retrieval.clone().unwrap_or_default());
    format!(
        "st-serve: online crossing-city POI recommendation server

USAGE:
  st-serve --data FILE --checkpoint FILE [OPTIONS]
  st-serve --gen-demo DIR [--demo-epochs N] [--snapshot-format F]

OPTIONS:
  --data FILE             dataset in the st-data text format
  --checkpoint FILE       model container, served mapped: replace it by rename
  --addr HOST:PORT        bind address [default: {addr}]
  --target-city ID        held-out target city id [default: {target}]
  --workers N             HTTP worker threads, more than st-router's [default: {workers}]
  --max-batch N           most queued requests one scorer takes [default: {max_batch}]
  --queue-capacity N      queue bound, at least 1; overflow gets 429 [default: {queue_capacity}]
  --deadline-ms MS        queued-request deadline, 0 = off; expired gets 503 [default: {deadline_ms}]
  --degrade-watermark N   queue depth that serves stale cached results, 0 = off [default: {watermark}]
  --cache-capacity N      LRU result-cache entries [default: {cache}]
  --max-candidates N      retrieval candidate budget, 0 = exact scan [default: {candidates}]
  --nprobe N              IVF lists probed per query [default: {nprobe}]
  --grid-rings N          geo-grid rings around the query anchor [default: {rings}]
  --gen-demo DIR          write DIR/checkins.tsv + DIR/model.bin and exit
  --demo-epochs N         training epochs for --gen-demo [default: {epochs}]
  --snapshot-format F     demo checkpoint encoding: f32 | f16 | int8 [default: {format}]
  -h, --help              print this help
",
        addr = serve.addr,
        target = d.target_city,
        epochs = d.demo_epochs,
        format = d.snapshot_format,
        workers = serve.workers,
        max_batch = serve.batch.max_batch,
        queue_capacity = serve.batch.queue_capacity,
        deadline_ms = serve.batch.deadline.as_millis(),
        watermark = serve.degrade_watermark,
        cache = serve.cache_capacity,
        candidates = retrieval.max_candidates,
        nprobe = retrieval.nprobe,
        rings = retrieval.grid_rings,
    )
}

/// Reads st-serve's flags; `None` after `--help`.
fn parse(args: &[String]) -> Result<Option<Args>, String> {
    cli::parse(args, Args::default(), |a, flag, f| {
        // Zero `max_candidates` turns retrieval off: every query scans.
        let r = a.serve.retrieval.get_or_insert_with(Default::default);
        match flag {
            "--data" => a.data = Some(f.value()?),
            "--checkpoint" => a.checkpoint = Some(f.value()?),
            "--gen-demo" => a.gen_demo = Some(f.value()?),
            "--addr" => a.serve.addr = f.value()?,
            "--target-city" => a.target_city = f.value()?,
            "--workers" => a.serve.workers = f.value()?,
            "--max-batch" => a.serve.batch.max_batch = f.value::<usize>()?.max(1),
            "--queue-capacity" => match f.value()? {
                0 => return Err(format!("{flag}: must be at least 1, got 0")),
                n => a.serve.batch.queue_capacity = n,
            },
            "--deadline-ms" => a.serve.batch.deadline = Duration::from_millis(f.value()?),
            "--degrade-watermark" => a.serve.degrade_watermark = f.value()?,
            "--cache-capacity" => a.serve.cache_capacity = f.value()?,
            "--max-candidates" => r.max_candidates = f.value()?,
            "--nprobe" => r.nprobe = f.value::<usize>()?.max(1),
            "--grid-rings" => r.grid_rings = f.value()?,
            "--demo-epochs" => a.demo_epochs = f.value::<usize>()?.max(1),
            "--snapshot-format" => a.snapshot_format = f.value()?,
            _ => return Ok(false),
        }
        Ok(true)
    })
}

/// Refuses the run after the flags are read, as a refused flag is.
fn fail(why: String) -> ! {
    match cli::or_exit::<Infallible>(&usage(), Err(why)) {}
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

    let (data, ckpt) = (data_path.display(), ckpt_path.display());
    let target = synth_config.target_city;
    eprintln!("wrote {data} and {ckpt}\nserve it with:");
    eprintln!("  st-serve --data {data} --checkpoint {ckpt} --target-city {target}");
    Ok(())
}

fn load_dataset(path: &PathBuf) -> Dataset {
    let file = std::fs::File::open(path)
        .unwrap_or_else(|e| fail(format!("--data: cannot open {}: {e}", path.display())));
    st_data::read_dataset(std::io::BufReader::new(file))
        .unwrap_or_else(|e| fail(format!("--data: cannot parse {}: {e}", path.display())))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::or_exit(&usage(), parse(&args));

    if let Some(dir) = &args.gen_demo {
        gen_demo(dir, args.demo_epochs, args.snapshot_format)
            .unwrap_or_else(|e| fail(format!("--gen-demo: demo generation failed: {e}")));
        return;
    }

    let (Some(data_path), Some(ckpt_path)) = (&args.data, &args.checkpoint) else {
        fail("--data, --checkpoint: both required (or use --gen-demo)".into());
    };
    let dataset = Arc::new(load_dataset(data_path));
    let (target, cities) = (CityId(args.target_city), dataset.cities().len());
    if cities < 2 || target.idx() >= cities {
        let (t, why) = (target.0, "out of range or no source city beside it");
        fail(format!("--target-city: {t}: {why} in {cities} cities"));
    }
    // `Reloader::new` reads neither the split nor the model config
    // (ROADMAP 7(d)); the container carries its own shapes.
    let split = Arc::new(CrossingCitySplit::build(&dataset, target));
    let reloader = Reloader::new(dataset.clone(), split, ModelConfig::test_small(), ckpt_path);
    eprintln!("loading checkpoint {}...", ckpt_path.display());
    let (frozen, snapshot_bytes) = reloader
        .load_frozen()
        .unwrap_or_else(|e| fail(format!("--checkpoint: cannot load: {e}")));
    let (encoding, mapped) = (frozen.encoding(), frozen.is_mapped());
    let engine = Engine::new_frozen(
        dataset.clone(),
        frozen,
        snapshot_bytes,
        Some(reloader),
        &args.serve,
    );
    let server = Server::start(engine, &args.serve)
        .unwrap_or_else(|e| fail(format!("--addr: cannot bind {}: {e}", args.serve.addr)));
    let scorers = &server.engine().metrics().batcher_scorers;
    eprintln!(
        "st-serve listening on http://{} ({} users, {} POIs, {cities} cities, target city {}, \
         {} scorer threads: one per CPU this process may run on)",
        server.local_addr(),
        dataset.num_users(),
        dataset.num_pois(),
        target.0,
        scorers.load(Ordering::Relaxed),
    );
    eprintln!("snapshot: {encoding} encoding, {snapshot_bytes} bytes, memory-mapped: {mapped}");
    eprintln!(
        "routes: GET /recommend?user=U&city=C&k=K | GET /healthz | GET /metrics | POST /admin/reload"
    );
    server.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Option<Args>, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn refused(line: &str) -> String {
        parse_line(line).err().unwrap_or_default()
    }

    #[test]
    fn usage_shows_each_default_as_the_structs_hold_it() {
        let (d, usage) = (ServeConfig::default(), usage());
        let r = d.retrieval.clone().expect("retrieval is on by default");
        for (flag, held) in [
            ("--workers", d.workers.to_string()),
            ("--max-batch", d.batch.max_batch.to_string()),
            ("--queue-capacity", d.batch.queue_capacity.to_string()),
            ("--deadline-ms", d.batch.deadline.as_millis().to_string()),
            ("--degrade-watermark", d.degrade_watermark.to_string()),
            ("--cache-capacity", d.cache_capacity.to_string()),
            ("--max-candidates", r.max_candidates.to_string()),
            ("--nprobe", r.nprobe.to_string()),
            ("--grid-rings", r.grid_rings.to_string()),
        ] {
            let entry = usage.lines().find(|l| l.starts_with(&format!("  {flag} ")));
            let shown = format!("[default: {held}]");
            assert!(entry.unwrap().ends_with(&shown), "{flag}");
        }
    }

    #[test]
    fn flags_land_in_the_config_structs() {
        let a = parse_line("--workers 3 --deadline-ms 250 --max-batch 0 --nprobe 0");
        let a = a.unwrap().unwrap().serve;
        assert_eq!((a.workers, a.batch.max_batch), (3, 1));
        assert_eq!(a.batch.deadline, Duration::from_millis(250));
        assert_eq!(a.retrieval.map(|r| r.nprobe), Some(1));
        // `-h` stops the walk wherever it stands.
        assert!(matches!(parse_line("--workers 3 -h --bogus"), Ok(None)));
    }

    /// Retired flags stay refused and unlisted, and no queue is unbounded.
    #[test]
    fn retired_and_bad_flags_are_refused_by_name() {
        let usage = usage();
        for gone in ["--config", "--batch-window-us", "--watch-interval-ms"] {
            let refusal = refused(&format!("{gone} 1"));
            assert_eq!(refusal, format!("{gone}: unknown flag"));
            assert!(!usage.contains(gone), "the usage lists {gone}");
        }
        assert!(!usage.contains("unbounded"));
        let at_least_one = "--queue-capacity: must be at least 1, got 0";
        assert_eq!(refused("--queue-capacity 0"), at_least_one);
        assert_eq!(refused("--workers"), "--workers: needs a value");
        let not_a_number = "--workers: cannot parse \"-h\": invalid digit found in string";
        assert_eq!(refused("--workers -h"), not_a_number);
    }
}
