//! Chaos end-to-end tests: a real server on loopback TCP driven through
//! seeded fault-injection scenarios — burst over capacity, deadline
//! expiry, hot-reload mid-burst, degraded serving, and a forced scorer
//! failure.
//!
//! Every scenario asserts the **conservation invariant**: each submitted
//! request reaches exactly one terminal outcome (served, shed `429`,
//! expired `503`, degraded `200`, or failed `500`) — no request is lost,
//! no client hangs, and the outcome counts add up to the submissions.
//!
//! Determinism comes from the [`FaultInjector`] freeze gate, not from
//! racing timers: the gate holds the batcher off the queue, the driver
//! waits for exact queue depths via metrics, and only then injects the
//! next event. The same script therefore yields the same outcome counts
//! on every run, loaded machine or not.

use st_data::{synth, CityId, CrossingCitySplit, Dataset, UserId};
use st_serve::client::HttpClient;
use st_serve::server::{render_recommend_body, Engine, ServeConfig, Server};
use st_serve::snapshot::Reloader;
use st_serve::{BatchConfig, FaultInjector};
use st_transrec_core::{recommend_top_k, ModelConfig, STTransRec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fresh scratch directory per test (std-only: no tempfile crate).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "st-serve-chaos-{}-{tag}-{}",
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
    oracle: STTransRec,
}

fn fixture(tag: &str) -> Fixture {
    let (dataset, _) = synth::generate(&synth::SynthConfig::tiny());
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
    let mut oracle = STTransRec::new(&dataset, &split, ModelConfig::test_small());
    oracle.train_epoch(&dataset);
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

fn expected_body(fx: &Fixture, user: u32, k: usize, epoch: u64) -> String {
    let recs = recommend_top_k(&fx.oracle, &fx.dataset, UserId(user), CityId(1), k, &[]);
    render_recommend_body(UserId(user), CityId(1), k, epoch, &recs)
}

/// Overload-tuned config: enough HTTP workers that every parked client
/// holds a worker without starving the driver's own connections.
fn chaos_config(injector: &Arc<FaultInjector>, queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: queue_capacity + 8,
        batch: BatchConfig {
            queue_capacity,
            ..BatchConfig::default()
        },
        fault: Some(injector.clone()),
        ..ServeConfig::default()
    }
}

/// Blocks until the batcher queue holds exactly `depth` jobs. With the
/// freeze gate closed the depth can only grow toward `depth`, so this is
/// a deterministic rendezvous, not a race.
fn wait_for_depth(server: &Server, depth: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = server
            .engine()
            .metrics()
            .queue_depth
            .load(Ordering::Relaxed);
        if now == depth {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "queue depth stuck at {now}, wanted {depth}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Parks `combos` requests in the (frozen) queue from background
/// threads, waits for all of them to enqueue, runs `mid` while they are
/// parked, and returns every parked request's `(status, body)`.
fn with_parked_requests(
    server: &Server,
    combos: &[(u32, usize)],
    mid: impl FnOnce(),
) -> Vec<(u16, String)> {
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let handles: Vec<_> = combos
            .iter()
            .map(|&(user, k)| {
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let resp = client
                        .get(&format!("/recommend?user={user}&city=1&k={k}"))
                        .expect("parked request resolves");
                    (resp.status, resp.body)
                })
            })
            .collect();
        wait_for_depth(server, combos.len() as u64);
        mid();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn burst_over_capacity_sheds_with_429() {
    let fx = fixture("burst");
    let injector = Arc::new(FaultInjector::new(42));
    let server = start_server(&fx, &chaos_config(&injector, 4));
    let addr = server.local_addr();

    let parked: Vec<(u32, usize)> = (0..4u32).map(|u| (u, 3)).collect();
    let excess = 3u32;
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Queue is exactly full and frozen: every extra request must be
        // shed synchronously with 429 + Retry-After, never queued.
        let mut client = HttpClient::connect(addr).expect("connect");
        for i in 0..excess {
            let user = 10 + i;
            let resp = client
                .get(&format!("/recommend?user={user}&city=1&k=3"))
                .expect("shed request resolves");
            assert_eq!(resp.status, 429, "body: {}", resp.body);
            assert_eq!(resp.header("retry-after"), Some("1"));
            assert!(resp.body.contains("queue full"), "{}", resp.body);
        }
        injector.thaw();
    });

    // Thawed: every parked request is served exactly, nothing lost.
    let mut served = 0;
    for (i, (status, body)) in outcomes.iter().enumerate() {
        assert_eq!(*status, 200, "parked request {i}: {body}");
        assert_eq!(*body, expected_body(&fx, i as u32, 3, 1));
        served += 1;
    }

    // Conservation: submitted == served + shed, and metrics agree.
    let metrics = server.engine().metrics();
    assert_eq!(served + excess as usize, parked.len() + excess as usize);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), excess as u64);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);

    // The shed counter is on /metrics for operators.
    let mut client = HttpClient::connect(addr).expect("connect");
    let scrape = client.get("/metrics").expect("metrics");
    assert!(
        scrape.body.contains("st_serve_shed_total 3"),
        "{}",
        scrape.body
    );
    assert!(
        scrape.body.contains("st_serve_queue_depth 0"),
        "{}",
        scrape.body
    );

    server.shutdown();
}

#[test]
fn deadline_expiry_returns_503() {
    let fx = fixture("deadline");
    let injector = Arc::new(FaultInjector::new(7));
    let mut config = chaos_config(&injector, 8);
    config.batch.deadline = Duration::from_millis(100);
    let server = start_server(&fx, &config);

    let parked: Vec<(u32, usize)> = (0..3u32).map(|u| (u, 4)).collect();
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Hold the freeze well past the deadline; only then may the
        // batcher see (and expire) the queued jobs.
        std::thread::sleep(Duration::from_millis(400));
        injector.thaw();
    });

    for (status, body) in &outcomes {
        assert_eq!(*status, 503, "body: {body}");
        assert!(body.contains("deadline-exceeded"), "{body}");
    }

    let metrics = server.engine().metrics();
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 3);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);

    // The storm is over: a fresh request scores normally.
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let resp = client.get("/recommend?user=0&city=1&k=4").expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, expected_body(&fx, 0, 4, 1));

    server.shutdown();
}

#[test]
fn hot_reload_mid_burst_loses_zero_requests() {
    let mut fx = fixture("reload-burst");
    // Generation 2 = one more training epoch, saved over the checkpoint
    // so /admin/reload picks it up mid-burst.
    let gen1: Vec<String> = (0..5u32).map(|u| expected_body(&fx, u, 5, 1)).collect();
    fx.oracle.train_epoch(&fx.dataset);
    let gen2: Vec<String> = (0..5u32).map(|u| expected_body(&fx, u, 5, 2)).collect();

    let injector = Arc::new(FaultInjector::new(9));
    let server = start_server(&fx, &chaos_config(&injector, 8));
    let addr = server.local_addr();
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");

    let parked: Vec<(u32, usize)> = (0..5u32).map(|u| (u, 5)).collect();
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Swap the model while five requests sit in the queue.
        let mut client = HttpClient::connect(addr).expect("connect");
        let reload = client.post("/admin/reload").expect("reload");
        assert_eq!(reload.status, 200, "body: {}", reload.body);
        assert!(reload.body.contains("\"model_epoch\":2"), "{}", reload.body);
        injector.thaw();
    });

    // Zero loss: every parked request is served by exactly one model
    // generation — whichever epoch scored its batch — never torn.
    for (i, (status, body)) in outcomes.iter().enumerate() {
        assert_eq!(*status, 200, "parked request {i}: {body}");
        assert!(
            *body == gen1[i] || *body == gen2[i],
            "user {i} got a body matching neither generation: {body}"
        );
    }
    let metrics = server.engine().metrics();
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);

    server.shutdown();
}

#[test]
fn repeated_publishes_mid_burst_lose_zero_requests() {
    // The online publisher's steady state: every few seconds a freshly
    // trained checkpoint is written atomically and /admin/reload is
    // posted while scoring traffic is in flight. Three consecutive
    // publish cycles, each with five requests parked in the queue during
    // the swap — every request must be served by exactly one generation.
    let mut fx = fixture("repeat-publish");
    let injector = Arc::new(FaultInjector::new(17));
    let server = start_server(&fx, &chaos_config(&injector, 8));
    let addr = server.local_addr();

    for cycle in 1..=3u64 {
        // Fresh users each cycle so the result cache cannot answer the
        // burst before it reaches the queue (tiny has 60 users).
        let users: Vec<(u32, usize)> = (0..5u32).map(|u| (cycle as u32 * 10 + u, 5)).collect();
        let old_gen: Vec<String> = users
            .iter()
            .map(|&(u, k)| expected_body(&fx, u, k, cycle))
            .collect();

        // Next generation: one more epoch, published through the same
        // atomic temp-file + rename path the online loop uses.
        fx.oracle.train_epoch(&fx.dataset);
        st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("atomic publish");
        let new_gen: Vec<String> = users
            .iter()
            .map(|&(u, k)| expected_body(&fx, u, k, cycle + 1))
            .collect();

        injector.freeze();
        let outcomes = with_parked_requests(&server, &users, || {
            let mut client = HttpClient::connect(addr).expect("connect");
            let reload = client.post("/admin/reload").expect("reload");
            assert_eq!(reload.status, 200, "cycle {cycle}: {}", reload.body);
            assert!(
                reload
                    .body
                    .contains(&format!("\"model_epoch\":{}", cycle + 1)),
                "cycle {cycle}: {}",
                reload.body
            );
            injector.thaw();
        });

        for (i, (status, body)) in outcomes.iter().enumerate() {
            assert_eq!(*status, 200, "cycle {cycle} request {i}: {body}");
            assert!(
                *body == old_gen[i] || *body == new_gen[i],
                "cycle {cycle} request {i}: body matches neither generation: {body}"
            );
        }
    }

    // Conservation across all three publishes, and the publish trail is
    // visible to operators: epoch 4 serving, three clean reloads, a
    // last-reload timestamp an external staleness alert can key on.
    let metrics = server.engine().metrics();
    assert_eq!(metrics.reloads_ok.load(Ordering::Relaxed), 3);
    assert_eq!(metrics.reloads_failed.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);

    let mut client = HttpClient::connect(addr).expect("connect");
    let scrape = client.get("/metrics").expect("metrics").body;
    assert!(scrape.contains("st_serve_model_epoch 4"), "{scrape}");
    let stamp: u64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("st_serve_last_reload_timestamp_seconds "))
        .expect("timestamp gauge exported")
        .trim()
        .parse()
        .expect("timestamp is an integer");
    assert!(stamp > 0, "last-reload timestamp never stamped");

    server.shutdown();
}

#[test]
fn degraded_mode_serves_cached_results_under_overload() {
    let fx = fixture("degraded");
    let injector = Arc::new(FaultInjector::new(11));
    let mut config = chaos_config(&injector, 8);
    config.degrade_watermark = 2;
    let server = start_server(&fx, &config);
    let addr = server.local_addr();

    // Warm the caches for two keys at epoch 1.
    let mut client = HttpClient::connect(addr).expect("connect");
    for user in [0u32, 1] {
        let resp = client
            .get(&format!("/recommend?user={user}&city=1&k=5"))
            .expect("warm request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected_body(&fx, user, 5, 1));
    }

    // Hot-reload from the same checkpoint: the epoch bumps to 2, so the
    // warmed keys' entries are no longer hits — only a degraded answer
    // from those stale entries can answer them now.
    let reload = client.post("/admin/reload").expect("reload");
    assert_eq!(reload.status, 200, "body: {}", reload.body);

    // Overload: freeze and fill the queue to the watermark with keys
    // nothing has cached.
    let parked: Vec<(u32, usize)> = [(10u32, 3usize), (11, 3)].to_vec();
    injector.freeze();
    let outcomes = with_parked_requests(&server, &parked, || {
        // Above the watermark, warmed keys are answered from the stale
        // cache immediately — degraded, stale epoch, but served.
        for user in [0u32, 1] {
            let resp = client
                .get(&format!("/recommend?user={user}&city=1&k=5"))
                .expect("degraded request");
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            assert_eq!(resp.header("x-cache"), Some("STALE"));
            assert_eq!(resp.header("x-degraded"), Some("true"));
            assert_eq!(resp.header("x-model-epoch"), Some("1"));
            let expected = format!(
                "{{\"degraded\":true,{}",
                &expected_body(&fx, user, 5, 1)[1..]
            );
            assert_eq!(resp.body, expected);
        }
        // A key with no stale entry cannot degrade; at depth == capacity
        // it would queue, so keep it out of this frozen phase.
        injector.thaw();
    });

    // The parked cold-key requests were served fresh after the thaw.
    for (i, (status, body)) in outcomes.iter().enumerate() {
        assert_eq!(*status, 200, "parked request {i}: {body}");
        assert_eq!(*body, expected_body(&fx, 10 + i as u32, 3, 2));
    }

    // Conservation: 2 warm + 2 degraded + 2 fresh == 6 submissions, and
    // the degraded counter saw exactly the stale serves.
    let metrics = server.engine().metrics();
    assert_eq!(metrics.degraded_total.load(Ordering::Relaxed), 2);
    assert_eq!(metrics.shed_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.expired_total.load(Ordering::Relaxed), 0);
    assert_eq!(metrics.recommend_requests.load(Ordering::Relaxed), 6);

    // Below the watermark again, the same warmed key is served fresh —
    // scored at epoch 2, no degraded marker.
    let resp = client.get("/recommend?user=0&city=1&k=5").expect("request");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-degraded"), None);
    assert_eq!(resp.body, expected_body(&fx, 0, 5, 2));

    server.shutdown();
}

#[test]
fn injected_scorer_failure_fails_the_batch_cleanly() {
    let fx = fixture("scorer-failure");
    let injector = Arc::new(FaultInjector::new(13));
    let server = start_server(&fx, &chaos_config(&injector, 8));

    let parked: Vec<(u32, usize)> = (0..2u32).map(|u| (u, 3)).collect();
    injector.freeze();
    injector.fail_next_batches(1);
    let outcomes = with_parked_requests(&server, &parked, || injector.thaw());

    for (status, body) in &outcomes {
        assert_eq!(*status, 500, "body: {body}");
        assert!(body.contains("scorer failed"), "{body}");
    }
    let metrics = server.engine().metrics();
    assert_eq!(metrics.injected_failures_total.load(Ordering::Relaxed), 2);

    // The failure budget is spent; the server recovers on its own.
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let resp = client.get("/recommend?user=0&city=1&k=3").expect("request");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.body, expected_body(&fx, 0, 3, 1));

    server.shutdown();
}
