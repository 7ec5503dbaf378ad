//! The four serving workloads: in-process servers, closed-loop clients
//! over loopback, `/metrics` scrapes, and the output checks.

use crate::affinity;
use crate::fixture::{start_router, Fixture, FixtureKind, ScratchDir};
use crate::layers;
use crate::procfs;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, Key, Workload};
use crate::Opts;
use st_data::UserId;
use st_router::RouterServer;
use st_serve::client::{HttpClient, HttpResponse};
use st_serve::server::{render_recommend_body, Server};
use st_transrec_core::{recommend_top_k_retrieved, retrieval_recall_at_k};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests whose bodies are compared byte for byte with the in-process
/// result.
const BODY_CHECKS: usize = 64;
/// Users over which recall@10 of the served index is measured.
const RECALL_USERS: u32 = 32;
/// `recall_at_10` below this fails the run. The fixture model has seen 40
/// training steps, so its recall (0.90 at the seed commit) is below what
/// the repo's retrieval tests gate on a trained model.
const RECALL_FLOOR: f64 = 0.85;

/// The servers one workload talks to.
pub struct Stack {
    /// `st-serve` replicas (one, or two behind the router).
    pub replicas: Vec<Server>,
    /// `st-router`, on `fleet_hot` only.
    pub router: Option<RouterServer>,
}

impl Stack {
    /// Where clients connect: the router when there is one.
    pub fn front(&self) -> SocketAddr {
        self.router
            .as_ref()
            .map_or_else(|| self.replicas[0].local_addr(), RouterServer::local_addr)
    }

    fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.replicas {
            server.shutdown();
        }
    }
}

/// One `/metrics` page as `name{labels} -> value`.
pub type Scrape = BTreeMap<String, f64>;

/// Fetches and parses `/metrics` on a fresh connection.
pub fn scrape(addr: SocketAddr) -> Scrape {
    let page = st_serve::client::get(addr, "/metrics").expect("scrape /metrics");
    page.body
        .lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Sums `name` over several scrapes.
fn total(scrapes: &[Scrape], name: &str) -> f64 {
    scrapes.iter().filter_map(|s| s.get(name)).sum()
}

fn scrape_all(stack: &Stack) -> Vec<Scrape> {
    stack
        .replicas
        .iter()
        .map(|s| scrape(s.local_addr()))
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one closed-loop reader saw.
struct ReaderOut {
    timed: Vec<stats::Timed>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    last_epoch: u64,
    tracer: Option<Tracer>,
}

/// Checks one `/recommend` reply without scoring anything: status, the
/// echoed request, the epoch (header and body agree, never goes back)
/// and the list length.
fn reply_problem(resp: &HttpResponse, key: Key, city: u16, last_epoch: &mut u64) -> Option<String> {
    if resp.status != 200 {
        return Some(format!("status {} for user {}", resp.status, key.user));
    }
    let Some(epoch) = resp
        .header("x-model-epoch")
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return Some("no X-Model-Epoch header".into());
    };
    if epoch < *last_epoch {
        return Some(format!("epoch went back from {last_epoch} to {epoch}"));
    }
    *last_epoch = epoch;
    let prefix = format!(
        "{{\"user\":{},\"city\":{city},\"k\":{},\"model_epoch\":{epoch},",
        key.user, key.k
    );
    if !resp.body.starts_with(&prefix) {
        return Some(format!("body does not echo the request: {:.80}", resp.body));
    }
    let listed = resp.body.matches("{\"poi\":").count();
    (listed != key.k as usize).then(|| format!("{listed} recommendations for k={}", key.k))
}

/// Sends `keys` one after another on one keep-alive connection, each
/// request waiting for its reply, until the window that began at `start`
/// is over or the keys run out.
fn reader(
    addr: SocketAddr,
    keys: impl Iterator<Item = Key>,
    city: u16,
    start: Instant,
    window: Duration,
    mut tracer: Option<Tracer>,
) -> ReaderOut {
    let mut client = HttpClient::connect(addr).expect("connect reader");
    let mut out = ReaderOut {
        timed: Vec::with_capacity(1 << 16),
        attempted: 0,
        failed: 0,
        first_failure: None,
        last_epoch: 0,
        tracer: None,
    };
    for (i, key) in keys.enumerate() {
        if start.elapsed() >= window {
            break;
        }
        let path = workload::recommend_path(key, city);
        let span = tracer
            .as_mut()
            .map(|t| t.begin("client.recommend", i as u32, None));
        let sent = Instant::now();
        let reply = client.get(&path);
        let micros = sent.elapsed().as_secs_f64() * 1e6;
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        out.attempted += 1;
        let problem = match &reply {
            Ok(resp) => reply_problem(resp, key, city, &mut out.last_epoch),
            Err(e) => Some(format!("transport: {e}")),
        };
        match problem {
            None => out.timed.push((start.elapsed().as_secs_f64(), micros)),
            Some(why) => {
                out.failed += 1;
                out.first_failure.get_or_insert(why);
                if reply.is_err() {
                    client = HttpClient::connect(addr).expect("reconnect reader");
                }
            }
        }
    }
    out.tracer = tracer;
    out
}

/// What the operator thread saw.
#[derive(Default)]
struct OperatorOut {
    reload_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    tracer: Option<Tracer>,
}

/// Issues one `POST /admin/reload` per entry of `schedule`, each timed
/// from the moment it was due, and verifies epoch and format in the reply.
fn operator(
    addr: SocketAddr,
    schedule: &[Duration],
    start: Instant,
    expect_format: &str,
    mut tracer: Option<Tracer>,
) -> OperatorOut {
    let mut client = HttpClient::connect(addr).expect("connect operator");
    let mut out = OperatorOut::default();
    let mut epoch = 1u64;
    for (i, due) in schedule.iter().enumerate() {
        let due_at = start + *due;
        std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
        out.late_ms.push(
            Instant::now()
                .saturating_duration_since(due_at)
                .as_secs_f64()
                * 1e3,
        );
        let span = tracer
            .as_mut()
            .map(|t| t.begin("client.reload", i as u32, None));
        let reply = client.post("/admin/reload");
        let millis = due_at.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        out.attempted += 1;
        let problem = match &reply {
            Err(e) => Some(format!("transport: {e}")),
            Ok(resp) if resp.status != 200 => {
                Some(format!("status {}: {}", resp.status, resp.body))
            }
            Ok(resp) => {
                let want = [
                    "\"reloaded\":true".to_string(),
                    format!("\"model_epoch\":{},", epoch + 1),
                    format!("\"snapshot_format\":\"{expect_format}\""),
                    "\"snapshot_mapped\":true".to_string(),
                ];
                want.iter()
                    .find(|w| !resp.body.contains(w.as_str()))
                    .map(|w| format!("reload reply lacks {w}: {}", resp.body))
            }
        };
        match problem {
            None => {
                epoch += 1;
                out.reload_ms.push(millis);
            }
            Some(why) => {
                out.failed += 1;
                out.first_failure.get_or_insert(why);
                if reply.is_err() {
                    client = HttpClient::connect(addr).expect("reconnect operator");
                }
            }
        }
    }
    out.tracer = tracer;
    out
}

/// Runs one serving workload end to end.
pub fn run(workload: Workload, opts: &Opts) -> Report {
    let setup_started = Instant::now();
    let mut report = Report::new(workload, opts.seed, opts.seconds, opts.traced);
    let scratch = ScratchDir::create(&opts.out_dir, workload.name()).expect("create scratch dir");

    // ---- set-up: fixture, servers, request stream, warm-up ----------------
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = if workload == Workload::ServeCold {
        2.min(nproc)
    } else {
        1
    };
    // One client and nothing beside it: the work is a serial chain (see
    // `affinity`). Pinned before any server thread exists, so all inherit it.
    let serial = clients == 1 && workload != Workload::ReloadMixed;
    let pinned = serial.then(affinity::pin_to_one_cpu).flatten();
    report.note(
        "pinned_cpu",
        pinned
            .as_ref()
            .map_or("none".to_string(), |p| p.cpu.to_string()),
    );
    let kind = match workload {
        Workload::ServeCold | Workload::ReloadMixed => FixtureKind::L,
        _ => FixtureKind::S,
    };
    let fixture = Fixture::build(kind, opts.smoke, scratch.path());
    let n_replicas = if workload == Workload::FleetHot { 2 } else { 1 };
    let replicas: Vec<Server> = (0..n_replicas).map(|_| fixture.start_server()).collect();
    let router = (workload == Workload::FleetHot).then(|| start_router(&replicas));
    let stack = Stack { replicas, router };
    let front = stack.front();
    let city = fixture.target_city().0;
    let users = fixture.dataset.num_users() as u32;
    let mut keys = workload::request_keys(workload, opts.seed, users);

    // Cold streams warm up on keys taken off the end of the stream, so a
    // warm-up answer can never be served from the cache later. Hot streams
    // warm up on their own first requests: a server's users meet a cache
    // that has been filling for hours, and a window that began on a cold
    // one would read differently by how far the host let the cache fill.
    let mut warm = HttpClient::connect(front).expect("connect warm-up");
    for i in 0..opts.sizes.warmup_requests {
        let resp = if kind == FixtureKind::L {
            let key = keys.pop().expect("stream longer than the warm-up");
            warm.get(&workload::recommend_path(key, city))
        } else {
            let addr = stack.replicas[i % stack.replicas.len()].local_addr();
            st_serve::client::get(addr, "/healthz").and_then(|_| warm.get("/healthz"))
        };
        assert_eq!(resp.expect("warm-up request").status, 200, "warm-up failed");
    }
    let mut warm_recommends = opts.sizes.warmup_requests as u64;
    if kind == FixtureKind::S {
        warm_recommends = opts.sizes.hot_warmup_requests as u64;
        for key in keys.drain(..opts.sizes.hot_warmup_requests) {
            let resp = warm.get(&workload::recommend_path(key, city));
            assert_eq!(resp.expect("warm-up request").status, 200, "warm-up failed");
        }
    }
    drop(warm);

    let window = Duration::from_secs_f64(opts.seconds);
    let schedule = if workload == Workload::ReloadMixed {
        workload::reload_schedule(window)
    } else {
        Vec::new()
    };
    let mut tracer = opts.traced.then(Tracer::new);
    let before = scrape_all(&stack);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let cpu_before = procfs::cpu_seconds();

    // ---- timed phase -------------------------------------------------------
    let start = Instant::now();
    let format = fixture.encoding.to_string();
    let (readers, operated) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let share = keys.iter().copied().skip(c).step_by(clients);
                let fork = tracer.as_ref().map(Tracer::fork);
                s.spawn(move || reader(front, share, city, start, window, fork))
            })
            .collect();
        let fork = tracer.as_ref().map(Tracer::fork);
        let (schedule, format) = (&schedule, &format);
        let op = (!schedule.is_empty())
            .then(|| s.spawn(move || operator(front, schedule, start, format, fork)));
        let readers: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (readers, op.map(|h| h.join().expect("operator thread")))
    });
    report.set_cpu(cpu_before, procfs::cpu_seconds());
    let after = scrape_all(&stack);
    let router_after = stack.router.as_ref().map(|r| scrape(r.local_addr()));

    // ---- end-to-end numbers --------------------------------------------------
    let mut timed: Vec<stats::Timed> = Vec::new();
    let mut reads_attempted = 0u64;
    let mut reads_failed = 0u64;
    let mut sent_per_client = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for mut r in readers {
        timed.append(&mut r.timed);
        reads_attempted += r.attempted;
        reads_failed += r.failed;
        sent_per_client.push(r.attempted as usize);
        failures.extend(r.first_failure);
        if let (Some(t), Some(part)) = (tracer.as_mut(), r.tracer) {
            t.absorb(part);
        }
    }
    let operated = operated.unwrap_or_default();
    report.attempted = reads_attempted + operated.attempted;
    report.failed = reads_failed + operated.failed;
    failures.extend(operated.first_failure.clone());
    report.set("setup_s", setup_s);
    // `reload_mixed` repeats itself with every reload: its slices are cut
    // from the whole reload periods and compared by their place in one.
    if workload == Workload::ReloadMixed {
        let periods = schedule.len();
        let reloading_s = workload::reload_period(window).as_secs_f64() * periods as f64;
        let cycle = workload.slices() / periods;
        report.set_operations(&timed, reloading_s, cycle * periods, cycle);
    } else {
        report.set_operations(&timed, opts.seconds, workload.slices(), 1);
    }
    report.note("clients", clients);
    report.note("reads_attempted", reads_attempted);
    report.note("fixture", format!("{kind:?}"));
    report.note("fixture_users", users);
    report.note("fixture_pois", fixture.dataset.num_pois());
    report.note(
        "target_catalog",
        fixture.dataset.pois_in_city(fixture.target_city()).len(),
    );
    report.note("snapshot_format", &format);
    report.note("stream_len", keys.len());
    report.note("warmup_recommends", warm_recommends);
    report.check(
        "no_failed_operations",
        report.failed == 0,
        failures.first().cloned().unwrap_or_default(),
    );

    server_counters(&mut report, &before, &after, kind, opts.smoke);
    let recommends_sent = warm_recommends + reads_attempted;
    check_totals(&mut report, &after, recommends_sent, &operated);
    if let Some(router) = &router_after {
        router_counters(&mut report, router, recommends_sent, stack.replicas.len());
    }
    if workload == Workload::ReloadMixed {
        report.note("reloads_due", schedule.len());
        reload_numbers(&mut report, &after, &operated);
    }

    // Positions of the checked bodies are drawn among the requests client 0
    // actually sent.
    let sent: Vec<Key> = keys
        .iter()
        .copied()
        .step_by(clients)
        .take(sent_per_client[0])
        .collect();
    check_outputs(&mut report, workload, &stack, &fixture, &sent, opts.seed);

    // ---- per-layer numbers (traced runs only) ------------------------------------
    if let Some(tracer) = tracer.as_mut() {
        if let Some(part) = operated.tracer {
            tracer.absorb(part);
        }
        report.set("tensor.checkpoint.save_ms", fixture.save_ms);
        layers::serving(&mut report, tracer, workload, &fixture, &stack, &sent, opts);
        let before_chain = report.get("serve.http.floor_us") + report.get("router.hop_us");
        crate::finish_trace(&mut report, tracer, before_chain, &opts.out_dir);
    }

    stack.shutdown();
    drop(pinned);
    report
}

/// What the replicas counted over the timed phase, and whether the
/// workload exercised and bypassed the layers it claims to.
fn server_counters(
    report: &mut Report,
    before: &[Scrape],
    after: &[Scrape],
    kind: FixtureKind,
    smoke: bool,
) {
    let delta = |name: &str| total(after, name) - total(before, name);
    let hits = delta("st_serve_cache_hits_total");
    let misses = delta("st_serve_cache_misses_total");
    let hit_rate = ratio(hits, hits + misses);
    let fallback_share = ratio(delta("st_serve_retrieval_fallback_total"), misses);
    report.set("serve.cache_hit_rate", hit_rate);
    report.set("serve.fallback_share", fallback_share);
    report.set(
        "serve.candidate_set_mean",
        ratio(
            delta("st_serve_candidate_set_size_sum"),
            delta("st_serve_candidate_set_size_count"),
        ),
    );
    report.set(
        "serve.batcher.mean_batch_size",
        ratio(
            delta("st_serve_batched_requests_total"),
            delta("st_serve_batches_total"),
        ),
    );
    report.set("serve.shed_total", delta("st_serve_shed_total"));
    report.set(
        "serve.server_mean_us",
        ratio(
            delta("st_serve_request_latency_us_sum"),
            delta("st_serve_request_latency_us_count"),
        ),
    );
    let exercised = match kind {
        FixtureKind::L => hit_rate == 0.0 && fallback_share == 0.0,
        FixtureKind::S => {
            // A smoke window is too short for the cache to warm up.
            let floor = if smoke { 0.05 } else { 0.5 };
            fallback_share == 1.0 && (floor..=0.99).contains(&hit_rate)
        }
    };
    report.check(
        "layers_exercised",
        exercised,
        format!("cache_hit_rate {hit_rate:.4} fallback_share {fallback_share:.4}"),
    );
}

/// Every request sent must have been counted by exactly one replica, and
/// every reload by the one server.
fn check_totals(
    report: &mut Report,
    after: &[Scrape],
    recommends_sent: u64,
    operated: &OperatorOut,
) {
    let recommends = total(after, "st_serve_requests_total{route=\"recommend\"}");
    let reloads = total(after, "st_serve_requests_total{route=\"reload\"}");
    let reloads_ok = total(after, "st_serve_reloads_ok_total");
    report.check(
        "metrics_totals",
        recommends == recommends_sent as f64
            && reloads == operated.attempted as f64
            && reloads_ok == reloads,
        format!(
            "replicas counted {recommends} of {recommends_sent} recommends, \
             {reloads} of {} reloads ({reloads_ok} ok)",
            operated.attempted
        ),
    );
}

/// What the router counted since it started: it must have seen and
/// forwarded every `/recommend` sent, warm-up included.
fn router_counters(report: &mut Report, router: &Scrape, reads: u64, replicas: usize) {
    let through = router["st_router_recommend_requests_total"];
    let forwarded = router["st_router_forwarded_total"];
    report.check(
        "router_totals",
        through == reads as f64 && forwarded == through,
        format!("router counted {through} of {reads} sent, forwarded {forwarded}"),
    );
    for (metric, name) in [
        ("router.conn_retries_total", "st_router_conn_retries_total"),
        (
            "router.forward_errors_total",
            "st_router_forward_errors_total",
        ),
        ("router.remapped_total", "st_router_remapped_total"),
    ] {
        report.set(metric, router[name]);
    }
    let per_replica: Vec<f64> = (0..replicas)
        .map(|i| router[&format!("st_router_replica_forwarded_total{{replica=\"{i}\"}}")])
        .collect();
    let most = per_replica.iter().copied().fold(0.0, f64::max);
    let least = per_replica.iter().copied().fold(f64::INFINITY, f64::min);
    report.set("router.replica_balance", ratio(most, least));
}

/// The reloads as the operator saw them, and the epoch they left behind.
fn reload_numbers(report: &mut Report, after: &[Scrape], operated: &OperatorOut) {
    let verified = operated.reload_ms.len();
    let final_epoch = total(after, "st_serve_model_epoch");
    report.check(
        "reload_epochs",
        final_epoch == (1 + verified) as f64 && verified > 0,
        format!("final epoch {final_epoch} after {verified} verified reloads"),
    );
    let max = |samples: &[f64]| samples.iter().copied().fold(0.0, f64::max);
    report.set("client.reload_n", verified as f64);
    report.set("client.reload_p50_ms", stats::median(&operated.reload_ms));
    report.set("client.reload_max_ms", max(&operated.reload_ms));
    report.set("client.reload_late_ms", max(&operated.late_ms));
}

/// Checks what was served against the in-process result on the served
/// generation: 64 seeded bodies byte for byte, and on `serve_cold` the
/// recall of the served index against the exact scan.
fn check_outputs(
    report: &mut Report,
    workload: Workload,
    stack: &Stack,
    fixture: &Fixture,
    sent: &[Key],
    seed: u64,
) {
    let generation = stack.replicas[0].engine().cell().current();
    let index = generation
        .retrieval
        .as_deref()
        .expect("the default ServeConfig builds an index");
    let target = fixture.target_city();
    let mut checker = HttpClient::connect(stack.front()).expect("connect checker");
    let mut mismatch = None;
    let positions = workload::check_positions(seed, sent.len(), BODY_CHECKS);
    for &pos in &positions {
        let key = sent[pos];
        let resp = checker
            .get(&workload::recommend_path(key, target.0))
            .expect("check request");
        let epoch = resp
            .header("x-model-epoch")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        // Falls back to the exact `recommend_top_k` where the index does
        // not cover the city (fixture S), as the engine does.
        let (recs, _) = recommend_top_k_retrieved(
            &generation.frozen,
            index,
            &fixture.dataset,
            UserId(key.user),
            target,
            key.k as usize,
            &[],
        );
        let want = render_recommend_body(UserId(key.user), target, key.k as usize, epoch, &recs);
        if resp.status != 200 || resp.body != want {
            mismatch.get_or_insert(format!(
                "user {} k {}: got {:.120} want {:.120}",
                key.user, key.k, resp.body, want
            ));
        }
    }
    report.check(
        "bodies_byte_identical",
        mismatch.is_none() && !positions.is_empty(),
        mismatch.unwrap_or_else(|| format!("{} requests", positions.len())),
    );

    if workload == Workload::ServeCold {
        let users = RECALL_USERS.min(fixture.dataset.num_users() as u32);
        let probe: Vec<UserId> = (0..users).map(UserId).collect();
        let recall = retrieval_recall_at_k(
            &generation.frozen,
            index,
            &fixture.dataset,
            &probe,
            target,
            10,
        );
        report.set("core.retrieval.recall_at_10", recall);
        report.check(
            "recall_at_10",
            recall >= RECALL_FLOOR,
            format!("{recall:.4} over {users} users, floor {RECALL_FLOOR}"),
        );
    }
}
