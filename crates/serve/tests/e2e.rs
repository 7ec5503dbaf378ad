//! End-to-end tests: a real server on an ephemeral port, exercised over
//! loopback TCP with concurrent clients, an in-flight hot-reload, and a
//! battery of malformed requests.
//!
//! The correctness oracle is [`st_transrec_core::recommend_top_k`]: for
//! any `(user, city, k)` the served JSON body must be byte-identical to
//! rendering that function's output through the same
//! [`st_serve::render_recommend_body`] template. The batched serving
//! path therefore has zero tolerance for score drift.

use st_data::{synth, CityId, CrossingCitySplit, Dataset, UserId};
use st_serve::client::HttpClient;
use st_serve::server::{render_recommend_body, Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::BatchConfig;
use st_transrec_core::{recommend_top_k, ModelConfig, Recommendation, RetrievalConfig, STTransRec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fresh scratch directory per test (std-only: no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "st-serve-e2e-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Fixture {
    dataset: Arc<Dataset>,
    split: Arc<CrossingCitySplit>,
    ckpt: PathBuf,
    /// Oracle model, restored from the same checkpoint the server loads.
    oracle: STTransRec,
}

/// Trains a tiny model for `epochs`, saves it, and keeps an oracle copy.
fn fixture(tag: &str, epochs: usize) -> Fixture {
    let (dataset, _) = synth::generate(&synth::SynthConfig::tiny());
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
    let mut oracle = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    for _ in 0..epochs {
        oracle.train_epoch(&dataset);
    }
    let ckpt = scratch_dir(tag).join("model.bin");
    st_tensor::save_params_atomic(oracle.params(), &ckpt).expect("save ckpt");
    Fixture {
        dataset,
        split,
        ckpt,
        oracle,
    }
}

fn start_server(fx: &Fixture, config: &ServeConfig) -> Server {
    let reloader = Reloader::new(
        fx.dataset.clone(),
        fx.split.clone(),
        ModelConfig::test_small(),
        &fx.ckpt,
    );
    let (frozen, bytes) = reloader.load_frozen().expect("load ckpt");
    let engine = Engine::new_frozen(fx.dataset.clone(), frozen, bytes, Some(reloader), config);
    Server::start(engine, config).expect("start server")
}

fn expected_recs(fx: &Fixture, user: u32, city: u16, k: usize) -> Vec<Recommendation> {
    recommend_top_k(&fx.oracle, &fx.dataset, UserId(user), CityId(city), k, &[])
}

fn expected_body(fx: &Fixture, user: u32, city: u16, k: usize, epoch: u64) -> String {
    render_recommend_body(
        UserId(user),
        CityId(city),
        k,
        epoch,
        &expected_recs(fx, user, city, k),
    )
}

#[test]
fn served_json_matches_recommend_top_k() {
    let fx = fixture("oracle", 1);
    let server = start_server(&fx, &ServeConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    for (user, city, k) in [(0u32, 1u16, 5usize), (3, 1, 10), (7, 0, 3), (0, 1, 1)] {
        let path = format!("/recommend?user={user}&city={city}&k={k}");
        let miss = client.get(&path).expect("request");
        assert_eq!(miss.status, 200, "body: {}", miss.body);
        assert_eq!(miss.header("x-cache"), Some("MISS"));
        assert_eq!(miss.header("x-model-epoch"), Some("1"));
        assert_eq!(miss.body, expected_body(&fx, user, city, k, 1));

        // The identical question again must be answered from the cache
        // with the identical body.
        let hit = client.get(&path).expect("request");
        assert_eq!(hit.status, 200);
        assert_eq!(hit.header("x-cache"), Some("HIT"));
        assert_eq!(hit.body, miss.body);
    }

    // k larger than the city's catalog clamps; k=0 is empty, not a panic.
    let big = client
        .get("/recommend?user=0&city=1&k=900")
        .expect("request");
    assert_eq!(big.status, 200);
    assert_eq!(big.body, expected_body(&fx, 0, 1, 900, 1));
    let zero = client.get("/recommend?user=0&city=1&k=0").expect("request");
    assert_eq!(zero.status, 200);
    assert!(
        zero.body.contains("\"recommendations\":[]"),
        "{}",
        zero.body
    );

    server.shutdown();
}

#[test]
fn concurrent_clients_with_inflight_reload() {
    let fx = fixture("reload", 1);

    // A second model generation: train the oracle one epoch further and
    // remember both generations' expected rankings.
    let users: Vec<u32> = (0..12).collect();
    let gen1: Vec<String> = users
        .iter()
        .map(|&u| expected_body(&fx, u, 1, 5, 1))
        .collect();
    let mut fx = fx;
    fx.oracle.train_epoch(&fx.dataset);
    let gen2: Vec<String> = users
        .iter()
        .map(|&u| expected_body(&fx, u, 1, 5, 2))
        .collect();

    // Serve generation 1 (the checkpoint on disk predates the extra
    // epoch), with a small batching window so requests coalesce.
    let config = ServeConfig {
        batch: BatchConfig {
            window: Duration::from_micros(300),
            max_batch: 16,
            ..BatchConfig::default()
        },
        workers: 4,
        ..ServeConfig::default()
    };
    let server = start_server(&fx, &config);
    let addr = server.local_addr();

    // Overwrite the checkpoint with generation 2 bytes, then hammer the
    // server from several threads while one of them triggers the reload.
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");

    let gen1 = Arc::new(gen1);
    let gen2 = Arc::new(gen2);
    let users = Arc::new(users);
    let mut handles = Vec::new();
    for t in 0..4 {
        let (gen1, gen2, users) = (gen1.clone(), gen2.clone(), users.clone());
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            for round in 0..6 {
                if t == 0 && round == 2 {
                    let reload = client.post("/admin/reload").expect("reload");
                    assert_eq!(reload.status, 200, "body: {}", reload.body);
                    assert!(reload.body.contains("\"model_epoch\":2"), "{}", reload.body);
                }
                for (i, &u) in users.iter().enumerate() {
                    let resp = client
                        .get(&format!("/recommend?user={u}&city=1&k=5"))
                        .expect("request");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    // Every response must be exactly one model
                    // generation — never a blend, never torn.
                    assert!(
                        resp.body == gen1[i] || resp.body == gen2[i],
                        "user {u} got a body matching neither generation: {}",
                        resp.body
                    );
                    match resp.header("x-model-epoch") {
                        Some("1") => assert_eq!(resp.body, gen1[i]),
                        Some("2") => assert_eq!(resp.body, gen2[i]),
                        other => panic!("unexpected X-Model-Epoch: {other:?}"),
                    }
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread");
    }

    // After the dust settles the server answers from generation 2.
    let mut client = HttpClient::connect(addr).expect("connect");
    let resp = client.get("/recommend?user=0&city=1&k=5").expect("request");
    assert_eq!(resp.body, gen2[0]);
    let health = client.get("/healthz").expect("healthz");
    assert!(health.body.contains("\"model_epoch\":2"), "{}", health.body);
    // The reload left its duration on the metrics page.
    let page = client.get("/metrics").expect("metrics").body;
    let took = page
        .lines()
        .find_map(|l| l.strip_prefix("st_serve_last_reload_duration_seconds "))
        .and_then(|v| v.parse::<f64>().ok());
    assert!(took.is_some_and(|s| s > 0.0), "reload duration: {took:?}");

    server.shutdown();
}

#[test]
fn rejected_reloads_leave_the_mapped_generation_serving() {
    let fx = fixture("rejected", 1);
    let server = start_server(&fx, &ServeConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let first = client.get("/recommend?user=0&city=1&k=5").expect("request");
    assert_eq!(first.body, expected_body(&fx, 0, 1, 5, 1));

    // Bad bytes arrive the way a publish does — temp file, then rename:
    // generation 1 maps the checkpoint, and a write in place would
    // truncate the inode under it.
    let good = std::fs::read(&fx.ckpt).expect("read ckpt");
    let truncated = good[..good.len() / 2].to_vec();
    let mut flipped = good.clone();
    flipped[32 + 2] ^= 0xff; // inside the index, under its checksum
    for (n, bad) in [truncated, flipped].iter().enumerate() {
        let tmp = fx.ckpt.with_extension("tmp");
        std::fs::write(&tmp, bad).expect("write bad ckpt");
        std::fs::rename(&tmp, &fx.ckpt).expect("rename bad ckpt");
        let reload = client.post("/admin/reload").expect("reload");
        assert_eq!(reload.status, 500, "bad checkpoint {n}: {}", reload.body);
    }
    let page = client.get("/metrics").expect("metrics").body;
    for line in [
        "st_serve_reloads_failed_total 2",
        "st_serve_model_epoch 1",
        "st_serve_snapshot_mapped 1",
    ] {
        assert!(page.lines().any(|l| l == line), "no {line:?} in:\n{page}");
    }
    // A question not asked before is scored now, out of the file that no
    // longer has a name: byte-identical to the oracle, still epoch 1.
    let fresh = client.get("/recommend?user=3&city=1&k=7").expect("request");
    assert_eq!(fresh.header("x-cache"), Some("MISS"));
    assert_eq!(fresh.header("x-model-epoch"), Some("1"));
    assert_eq!(fresh.body, expected_body(&fx, 3, 1, 7, 1));

    // A good container — int8 this time — goes live on the next reload.
    st_tensor::save_params_atomic_as(fx.oracle.params(), &fx.ckpt, st_tensor::StorageEncoding::I8)
        .expect("save int8 ckpt");
    let reload = client.post("/admin/reload").expect("reload");
    assert_eq!(reload.status, 200, "body: {}", reload.body);
    assert!(reload.body.contains("\"model_epoch\":2"), "{}", reload.body);
    assert!(
        reload.body.contains("\"snapshot_format\":\"int8\""),
        "{}",
        reload.body
    );
    let after = client.get("/recommend?user=3&city=1&k=7").expect("request");
    assert_eq!(after.header("x-model-epoch"), Some("2"));

    server.shutdown();
}

#[test]
fn retrieval_with_full_budget_serves_the_exact_ranking() {
    let fx = fixture("retrieval", 1);
    // Force the tiny demo catalog through the two-stage path: index every
    // city (min_catalog 1) with a candidate budget covering the whole
    // catalog, so the retrieved ranking must be byte-identical to the
    // exact-scan oracle.
    let config = ServeConfig {
        retrieval: Some(RetrievalConfig {
            min_catalog: 1,
            max_candidates: fx.dataset.num_pois(),
            nprobe: usize::MAX,
            ..RetrievalConfig::default()
        }),
        ..ServeConfig::default()
    };
    let server = start_server(&fx, &config);
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    for (user, city, k) in [(0u32, 1u16, 5usize), (3, 1, 10), (7, 0, 3)] {
        let resp = client
            .get(&format!("/recommend?user={user}&city={city}&k={k}"))
            .expect("request");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(resp.body, expected_body(&fx, user, city, k, 1));
    }

    // The candidate-set histogram saw traffic and nothing fell back.
    let metrics = client.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("st_serve_candidate_set_size_count"));
    assert!(metrics.body.contains("st_serve_retrieval_fallback_total 0"));

    server.shutdown();
}

#[test]
fn malformed_and_invalid_requests() {
    let fx = fixture("malformed", 1);
    let server = start_server(&fx, &ServeConfig::default());
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");

    let cases_400 = [
        "/recommend",                      // missing user
        "/recommend?user=0",               // missing city
        "/recommend?user=abc&city=1&k=5",  // non-numeric user
        "/recommend?user=0&city=-1&k=5",   // negative city
        "/recommend?user=0&city=1&k=nope", // non-numeric k
        "/recommend?user=0&city=1&k=9999", // k over max_k
    ];
    for path in cases_400 {
        let resp = client.get(path).expect("request");
        assert_eq!(resp.status, 400, "{path} -> {}", resp.body);
    }

    // Unknown entities are 404, not 500 — and never a panic.
    for path in [
        "/recommend?user=999999&city=1&k=5",
        "/recommend?user=0&city=9&k=5",
        "/no/such/route",
    ] {
        let resp = client.get(path).expect("request");
        assert_eq!(resp.status, 404, "{path} -> {}", resp.body);
    }

    // Wrong method on a known route.
    let resp = client.post("/recommend?user=0&city=1&k=5").expect("post");
    assert_eq!(resp.status, 405);
    let resp = client.get("/admin/reload").expect("get reload");
    assert_eq!(resp.status, 405);

    // Raw garbage on the wire gets 400 and a closed connection, and the
    // server keeps serving other clients afterwards.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").expect("write");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply}");

    let resp = client.get("/healthz").expect("healthz after garbage");
    assert_eq!(resp.status, 200);

    // /metrics reflects the traffic above.
    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .body
        .contains("st_serve_requests_total{route=\"recommend\"}"));
    assert!(metrics
        .body
        .contains("st_serve_responses_total{class=\"4xx\"}"));
    assert!(metrics.body.contains("st_serve_request_latency_us_count"));

    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_out_the_watch_interval() {
    let fx = fixture("watcher", 0);
    let config = ServeConfig {
        watch_interval: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    };
    let server = start_server(&fx, &config);
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);

    let started = std::time::Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown waited {took:?} behind the checkpoint watcher's sleep"
    );
}
