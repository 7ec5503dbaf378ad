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
//!
//! Routing, failover, deadline sheds and `/admin/reload` run as named
//! plans of the fleet fault executor (`common/fleet_plan.rs`), which
//! holds every answer to the fleet invariants and the router's ledger.

mod common;

use common::fleet_plan::{run_named, FleetChaosPhase::*, FleetCounts};
use common::FleetFixture;
use st_router::{ReplicaId, RouterConfig};
use st_serve::client::{HttpClient, HttpResponse};
use st_serve::server::ServeConfig;
use st_serve::BatchConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

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
        let user = fx.users_owned_by(shard)[0];
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

/// The binaries' defaults: every router worker that forwards to a
/// replica pools a keep-alive connection there, which holds one of the
/// replica's workers until the replica's idle timeout. A replica with
/// fewer workers than the router would leave a request waiting that
/// long.
#[test]
fn default_replicas_answer_every_default_router_worker_at_once() {
    let workers = RouterConfig::default().workers;
    let fx = FleetFixture::start_behind(
        "workers",
        2,
        ServeConfig::default(),
        RouterConfig::default(),
    );
    let path = format!("/recommend?user={}&city=1&k=5", fx.users_owned_by(0)[0]);
    // Each held connection keeps one router worker, and with it that
    // worker's own connection to replica 0.
    let mut clients: Vec<HttpClient> = (0..workers)
        .map(|_| HttpClient::connect(fx.router_addr()).expect("connect router"))
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        let sent = Instant::now();
        let reply = client.get(&path).expect("an answer");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        let waited = sent.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "connection {i} waited {waited:?}"
        );
    }
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
    let users = fx.users_owned_by(victim);
    let (warm, park_a, park_b) = (users[0], users[1], users[2]);
    let mut router = HttpClient::connect(fx.router_addr()).expect("connect router");

    // Warm the cache through the router, then hot-reload the victim
    // directly: after the epoch bump the warmed entry is no longer a
    // hit, so it can only come back as a stale answer once the replica
    // is overloaded.
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

    // Above the watermark the warmed combo degrades to the stale entry —
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
    // Every user of the fixture, in both cities, on three replicas: each
    // is served by their ring owner, and nothing is remapped or shed.
    #[rustfmt::skip]
    let want = FleetCounts { submitted: 120, served: 120, ..FleetCounts::default() };
    assert_eq!(run_named(3, &[Sweep(usize::MAX)]), want);
}

#[test]
fn replica_death_trips_breaker_then_probes_remap_then_rejoin_restores() {
    // Threshold-many fresh-connect 503s open the breaker; the next
    // request is a fast dark reject, not a failover; once probed down
    // the shard's user is served by the successor, and after rejoin at
    // home again.
    #[rustfmt::skip]
    let (phases, want) = (
        [Normal { per_shard: 1 },
         ReplicaOutage { victim: 1, while_dark: 4, remapped: 1, after: 1 }],
        FleetCounts { submitted: 8, served: 3, served_remapped: 1, unreachable_503: 3,
                      dark_503: 1, breaker_opened: 1, breaker_closed: 1, ..FleetCounts::default() },
    );
    assert_eq!(run_named(2, &phases), want);
}

#[test]
fn backend_deadline_sheds_relay_without_tripping_the_breaker() {
    // Threshold-many relayed deadline sheds leave the shard lit: the
    // next requests are served at home.
    #[rustfmt::skip]
    let (phases, want) = (
        [Hang { victim: 0, hung: 3 }, Normal { per_shard: 1 }],
        FleetCounts { submitted: 5, served: 2, expired_503: 3, ..FleetCounts::default() },
    );
    assert_eq!(run_named(2, &phases), want);
}

#[test]
fn admin_reload_rolls_the_whole_fleet_with_verification() {
    // Both replicas verify at epoch 2. A pinned wrong format then
    // reloads shard 0 (to epoch 3), fails verification and pauses the
    // rollout there; shard 0's user is diverted to replica 1 at epoch 2.
    let mismatch = "snapshot format mismatch: reloaded f32, expected int8";
    #[rustfmt::skip]
    let (phases, want) = (
        [Publish, AdminReload { format: Some("f32"), upgraded: &[0, 1], paused: None },
         AdminReload { format: Some("int8"), upgraded: &[], paused: Some((0, mismatch)) },
         Sweep(1)],
        FleetCounts { submitted: 4, served: 2, served_remapped: 2, rollouts_completed: 1,
                      ..FleetCounts::default() },
    );
    assert_eq!(run_named(2, &phases), want);
}

#[test]
fn unframeable_request_closes_the_connection_instead_of_desyncing_it() {
    let fx = FleetFixture::start("framing", 2, ServeConfig::default());
    let user = fx.users_owned_by(0)[0];

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

/// The process's answer to its flags, the same in every server binary:
/// a refused flag exits 2 with `error: <flag>: <why>` and the usage on
/// stderr, and `--help` prints the usage to stdout and exits 0.
#[test]
fn a_refused_flag_exits_2_and_help_exits_0() {
    let run = |arg: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_st-router"))
            .arg(arg)
            .output()
            .expect("run st-router");
        let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
        (out.status.code(), text(out.stdout), text(out.stderr))
    };
    let (code, usage, _) = run("--help");
    assert_eq!(code, Some(0));
    assert!(usage.contains("-h, --help"), "{usage}");
    let (code, out, err) = run("--bogus");
    assert_eq!((code, out), (Some(2), String::new()));
    assert_eq!(err, format!("error: --bogus: unknown flag\n\n{usage}\n"));
}
