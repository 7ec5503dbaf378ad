//! End-to-end router tests: a real fleet of `st-serve` replicas on
//! ephemeral loopback ports behind a real `st-router`, exercised over
//! TCP.
//!
//! The central invariant is **transparency**: a response through the
//! router must be byte-identical to the same request answered directly
//! by the replica that served it — status, body, and headers modulo
//! hop-by-hop (`Connection`) and the router's own `X-Router-Replica`
//! stamp. That must hold for fresh (MISS), cached (HIT), degraded
//! (STALE), and error responses alike.

mod common;

use common::{FleetFixture, BREAKER_THRESHOLD};
use st_router::{BreakerState, ReplicaId};
use st_serve::client::{HttpClient, HttpResponse};
use st_serve::server::ServeConfig;
use st_serve::BatchConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The header lines of `resp` — as received: arrival order, original
/// case — minus the two that legitimately differ between a direct
/// response and its relayed twin: the per-hop `Connection` and the
/// router's stamp.
fn comparable_headers(resp: &HttpResponse) -> Vec<&str> {
    resp.headers
        .iter()
        .map(String::as_str)
        .filter(|line| {
            let name = line.split(':').next().unwrap_or("");
            !name.eq_ignore_ascii_case("connection")
                && !name.eq_ignore_ascii_case("x-router-replica")
        })
        .collect()
}

/// Asserts `via_router` is the byte-faithful relay of `direct`.
fn assert_transparent(via_router: &HttpResponse, direct: &HttpResponse, context: &str) {
    assert_eq!(
        via_router.status_line, direct.status_line,
        "{context}: status line"
    );
    assert_eq!(via_router.body, direct.body, "{context}: body");
    assert_eq!(
        comparable_headers(via_router),
        comparable_headers(direct),
        "{context}: headers, in order and case (modulo hop-by-hop)"
    );
    assert!(
        via_router.header("x-router-replica").is_some(),
        "{context}: relay must stamp the shard"
    );
}

#[test]
fn responses_through_router_are_byte_identical_to_direct() {
    let fx = FleetFixture::start("transparent", 2, ServeConfig::default());
    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");

    for shard in 0..2 {
        let user = fx.user_owned_by(shard);
        let path = format!("/recommend?user={user}&city=1&k=5");

        // First pass through the router misses and fills the cache.
        let miss = router.get(&path).expect("router miss");
        assert_eq!(miss.status, 200, "body: {}", miss.body);
        assert_eq!(miss.header("x-cache"), Some("MISS"));
        assert_eq!(
            miss.header("x-router-replica"),
            Some(shard.to_string().as_str()),
            "request must land on its static owner"
        );

        // Cached pass via the router vs the same cached answer direct
        // from the owning replica: full transparency, including the
        // X-Cache and X-Model-Epoch headers.
        let hit = router.get(&path).expect("router hit");
        assert_eq!(hit.header("x-cache"), Some("HIT"));
        assert_eq!(hit.body, miss.body);
        let mut direct = HttpClient::connect(fx.replica_addr(shard)).expect("connect replica");
        let direct_hit = direct.get(&path).expect("direct hit");
        assert_eq!(direct_hit.header("x-cache"), Some("HIT"));
        assert_transparent(&hit, &direct_hit, &format!("HIT shard {shard}"));
    }

    // Backend errors relay transparently too: an unknown user is the
    // backend's 404, not the router's.
    let owner = fx
        .fleet
        .static_owner(st_router::RouteKey::User(999_999))
        .unwrap();
    let nf_path = "/recommend?user=999999&city=1&k=5";
    let via = router.get(nf_path).expect("router 404");
    let mut direct =
        HttpClient::connect(fx.replica_addr(owner.0 as usize)).expect("connect replica");
    let direct_404 = direct.get(nf_path).expect("direct 404");
    assert_eq!(via.status, 404);
    assert_transparent(&via, &direct_404, "relayed 404");

    // An unparsable routing key is answered by the router itself, with
    // the same wording the backend would use.
    let bad = router
        .get("/recommend?user=abc&city=1&k=5")
        .expect("router 400");
    let direct_400 = direct
        .get("/recommend?user=abc&city=1&k=5")
        .expect("direct 400");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.body, direct_400.body);

    fx.shutdown();
}

#[test]
fn degraded_responses_relay_byte_identically() {
    // Small queue with a low degrade watermark and a real deadline, so
    // a frozen batcher pushes the replica into stale-cache serving.
    let config = ServeConfig {
        degrade_watermark: 2,
        batch: BatchConfig {
            queue_capacity: 6,
            deadline: Duration::from_millis(300),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let fx = FleetFixture::start("degraded", 2, config);
    let victim = 0usize;
    let users = fx.users_owned_by(victim, 3);
    let (warm, park_a, park_b) = (users[0], users[1], users[2]);
    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");

    // Warm the stale cache through the router, then hot-reload the
    // victim directly: the epoch bump strands the fresh epoch-keyed
    // cache, so the warmed combo can only come back from the
    // epoch-agnostic stale cache once the replica is overloaded.
    let warm_path = format!("/recommend?user={warm}&city=1&k=5");
    assert_eq!(router.get(&warm_path).expect("warm").status, 200);
    let replica_addr = fx.replica_addr(victim);
    let mut admin = HttpClient::connect(replica_addr).expect("connect replica admin");
    assert_eq!(admin.post("/admin/reload").expect("reload").status, 200);

    // Freeze the victim's batcher and park two fresh requests so the
    // queue sits at the degrade watermark.
    fx.replicas[victim].injector.freeze();
    let handles: Vec<_> = [park_a, park_b]
        .into_iter()
        .map(|user| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(replica_addr).expect("connect");
                c.get(&format!("/recommend?user={user}&city=1&k=7"))
                    .expect("parked request resolves")
                    .status
            })
        })
        .collect();
    fx.wait_for_depth(victim, 2);

    // Above the watermark the warmed combo degrades to the stale cache —
    // via the router and direct. Capture both now, but keep every
    // assertion until after the thaw: an unwound test with a frozen
    // batcher would deadlock the server's drop.
    let stale_via = router.get(&warm_path).expect("router stale");
    let mut direct = HttpClient::connect(replica_addr).expect("connect replica");
    let stale_direct = direct.get(&warm_path).expect("direct stale");

    // Let the parked requests age past their deadline, then thaw.
    std::thread::sleep(Duration::from_millis(650));
    fx.replicas[victim].injector.thaw();
    let parked: Vec<u16> = handles
        .into_iter()
        .map(|h| h.join().expect("parked thread"))
        .collect();

    assert_eq!(stale_via.header("x-cache"), Some("STALE"));
    assert_eq!(stale_via.header("x-degraded"), Some("true"));
    assert!(stale_via.body.starts_with("{\"degraded\":true,"));
    assert_transparent(&stale_via, &stale_direct, "degraded STALE");
    for status in parked {
        assert_eq!(status, 503, "parked requests die of deadline expiry");
    }

    fx.shutdown();
}

#[test]
fn routing_is_stable_and_spread_across_shards() {
    let fx = FleetFixture::start("stability", 3, ServeConfig::default());
    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");

    let users: Vec<u32> = (0..fx.dataset.num_users() as u32).collect();
    let mut shard_counts = vec![0usize; 3];
    for &user in &users {
        let path = format!("/recommend?user={user}&city=1&k=3");
        let first = router.get(&path).expect("request");
        assert_eq!(first.status, 200, "body: {}", first.body);
        let shard = first
            .header("x-router-replica")
            .expect("stamped")
            .to_string();
        // Same user, same shard — on repeat and against the ring oracle.
        let again = router.get(&path).expect("request");
        assert_eq!(again.header("x-router-replica"), Some(shard.as_str()));
        let expected = fx
            .fleet
            .static_owner(st_router::RouteKey::User(user))
            .unwrap();
        assert_eq!(shard, expected.to_string());
        shard_counts[shard.parse::<usize>().unwrap()] += 1;
    }
    for (shard, &count) in shard_counts.iter().enumerate() {
        assert!(
            count > 0,
            "shard {shard} received no users: {shard_counts:?}"
        );
    }

    // Nothing was remapped and nothing shed.
    let metrics = router.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("st_router_remapped_total 0"));
    assert!(metrics.body.contains("st_router_dark_shard_503_total 0"));
    assert!(metrics.body.contains("st_router_forward_errors_total 0"));

    fx.shutdown();
}

#[test]
fn replica_death_trips_breaker_then_probes_remap_then_rejoin_restores() {
    let mut fx = FleetFixture::start("breaker", 2, ServeConfig::default());
    let victim = 1usize;
    let user = fx.user_owned_by(victim);
    let path = format!("/recommend?user={user}&city=1&k=5");
    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");

    // Sanity: the shard answers before the kill.
    assert_eq!(router.get(&path).expect("pre-kill").status, 200);

    fx.kill_replica(victim);

    // Fresh-connect failures count against the breaker until it opens;
    // every shed carries Retry-After and nothing fails over (the shard
    // is dark, not reassigned).
    for i in 0..BREAKER_THRESHOLD {
        let resp = router.get(&path).expect("dark window");
        assert_eq!(resp.status, 503, "request {i}: {}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.body.contains("unreachable"), "{}", resp.body);
    }
    assert_eq!(
        fx.fleet.replica(ReplicaId(victim as u16)).breaker.state(),
        BreakerState::Open
    );
    let fast = router.get(&path).expect("breaker-open reject");
    assert_eq!(fast.status, 503);
    assert!(fast.body.contains("dark"), "{}", fast.body);

    // Health probes notice the corpse; the shard's keys remap to the
    // ring successor and serve again.
    fx.probe_down();
    assert!(!fx.fleet.replica(ReplicaId(victim as u16)).healthy());
    let remapped = router.get(&path).expect("remapped");
    assert_eq!(remapped.status, 200, "body: {}", remapped.body);
    assert_eq!(remapped.header("x-router-replica"), Some("0"));

    // Rejoin on a fresh port: probe marks it healthy, resets the
    // breaker, and the user's traffic returns to its home shard.
    fx.rejoin_replica(victim);
    assert_eq!(
        fx.fleet.replica(ReplicaId(victim as u16)).breaker.state(),
        BreakerState::Closed
    );
    let back = router.get(&path).expect("back home");
    assert_eq!(back.status, 200, "body: {}", back.body);
    assert_eq!(back.header("x-router-replica"), Some("1"));

    // The router's ledger saw all of it.
    let metrics = router.get("/metrics").expect("metrics");
    assert!(metrics.body.contains(&format!(
        "st_router_forward_errors_total {BREAKER_THRESHOLD}"
    )));
    assert!(metrics.body.contains("st_router_dark_shard_503_total 1"));
    assert!(metrics.body.contains("st_router_breaker_opened_total 1"));

    fx.shutdown();
}

#[test]
fn backend_deadline_sheds_relay_without_tripping_the_breaker() {
    // A frozen batcher ages queued jobs past their deadline: st-serve
    // answers 503 deadline-exceeded + Retry-After for each. Those are
    // the backend protecting itself — the router must relay them (like
    // its 429s) without counting them toward the shard's breaker, or a
    // transient overload would become a cooldown-long dark window.
    let config = ServeConfig {
        batch: BatchConfig {
            queue_capacity: 8,
            deadline: Duration::from_millis(100),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    };
    let fx = FleetFixture::start("shed-breaker", 2, config);
    let victim = 0usize;
    let users = fx.users_owned_by(victim, BREAKER_THRESHOLD as usize);
    let router_addr = fx.router_addr();

    fx.replicas[victim].injector.freeze();
    let handles: Vec<_> = users
        .iter()
        .map(|&user| {
            std::thread::spawn(move || {
                let mut c = HttpClient::connect(router_addr).expect("connect router");
                c.get(&format!("/recommend?user={user}&city=1&k=6"))
                    .expect("shed request resolves")
            })
        })
        .collect();
    fx.wait_for_depth(victim, BREAKER_THRESHOLD as usize);

    // Let every parked job age out, then thaw: breaker-threshold-many
    // consecutive 503 sheds come back through the router.
    std::thread::sleep(Duration::from_millis(250));
    fx.replicas[victim].injector.thaw();
    for handle in handles {
        let resp = handle.join().expect("shed thread");
        assert_eq!(resp.status, 503, "body: {}", resp.body);
        assert!(resp.body.contains("deadline-exceeded"), "{}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.header("x-router-replica").is_some(), "relayed");
    }

    // The shard is alive and must stay routable: no breaker trip, no
    // dark-shard shedding, and the next request is served normally.
    assert_eq!(
        fx.fleet.replica(ReplicaId(victim as u16)).breaker.state(),
        BreakerState::Closed,
        "deliberate sheds must not darken the shard"
    );
    let mut router = HttpClient::connect(router_addr).expect("connect router");
    let ok = router
        .get(&format!("/recommend?user={}&city=1&k=6", users[0]))
        .expect("post-thaw request");
    assert_eq!(ok.status, 200, "body: {}", ok.body);
    let metrics = router.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("st_router_dark_shard_503_total 0"));

    fx.shutdown();
}

#[test]
fn admin_reload_rolls_the_whole_fleet_with_verification() {
    let mut fx = FleetFixture::start("rollout", 2, ServeConfig::default());
    // Publish a second generation (one more training epoch).
    fx.oracle.train_epoch(&fx.dataset.clone());
    st_tensor::save_params_atomic(fx.oracle.params(), &fx.ckpt).expect("resave ckpt");

    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");
    let resp = router
        .post("/admin/reload?format=f32")
        .expect("rollout rpc");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains("\"completed\":true"), "{}", resp.body);
    assert_eq!(
        resp.body.matches("\"model_epoch\":2").count(),
        2,
        "both replicas verified at epoch 2: {}",
        resp.body
    );

    // A pinned wrong format is refused and pauses the rollout.
    let wrong = router
        .post("/admin/reload?format=int8")
        .expect("rollout rpc");
    assert_eq!(wrong.status, 503, "body: {}", wrong.body);
    assert!(wrong.body.contains("format mismatch"), "{}", wrong.body);

    // Traffic after the (first) rollout serves the new epoch everywhere.
    for shard in 0..2 {
        let user = fx.user_owned_by(shard);
        let resp = router
            .get(&format!("/recommend?user={user}&city=1&k=5"))
            .expect("request");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(resp.header("x-model-epoch"), Some("2"));
    }

    let metrics = router.get("/metrics").expect("metrics");
    assert!(metrics
        .body
        .contains("st_router_rollouts_completed_total 1"));
    assert!(metrics.body.contains("st_router_rollouts_paused_total 1"));

    fx.shutdown();
}

#[test]
fn unframeable_request_closes_the_connection_instead_of_desyncing_it() {
    let fx = FleetFixture::start("framing", 2, ServeConfig::default());
    let user = fx.user_owned_by(0);

    // Read as bodiless, this POST's chunk — a complete `/recommend` —
    // would be proxied as a second request on the same connection.
    let mut raw = TcpStream::connect(fx.router_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let smuggled = format!("GET /recommend?user={user}&city=1&k=5 HTTP/1.1\r\n\r\n");
    write!(
        raw,
        "POST /admin/probe HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    )
    .expect("write");
    let mut reply = String::new();
    let _ = raw.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 400 "), "got: {reply}");
    assert!(reply.contains("Connection: close\r\n"), "got: {reply}");
    assert_eq!(
        reply.matches("HTTP/1.1 ").count(),
        1,
        "one answer, then EOF: {reply}"
    );

    // Nothing reached a replica, and the router keeps serving.
    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");
    let metrics = router.get("/metrics").expect("metrics").body;
    assert!(metrics.contains("st_router_forwarded_total 0"), "{metrics}");
    assert!(
        metrics.contains("st_router_responses_total{class=\"4xx\"} 1"),
        "{metrics}"
    );
    let ok = router
        .get(&format!("/recommend?user={user}&city=1&k=5"))
        .expect("request after the rejected one");
    assert_eq!(ok.status, 200, "body: {}", ok.body);

    fx.shutdown();
}

#[test]
fn probe_surfaces_a_replica_it_cannot_frame() {
    // A "replica" whose /metrics reply carries no Content-Length. The
    // lax reader took that for an empty 200 page and reported the epoch
    // gauge missing; the strict one names the real fault.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = Vec::new();
            while !request.ends_with(b"\r\n\r\n") {
                let mut byte = [0u8; 1];
                if stream.read(&mut byte).unwrap_or(0) == 0 {
                    break;
                }
                request.push(byte[0]);
            }
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n\r\nst_serve_model_epoch 4\n");
        }
    });

    let err = st_router::fleet::probe_metrics(addr, Duration::from_secs(2))
        .err()
        .expect("an unframeable reply is an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("content-length"), "{err}");

    let fleet = st_router::Fleet::new(&[addr], st_router::FleetConfig::default());
    assert!(!fleet.probe(ReplicaId(0)), "such a probe counts as failed");
    fake.join().expect("fake replica");
}
