//! Per-layer numbers for the serving workloads, taken from outside: one
//! span around each call into a public function, replaying the run's own
//! requests through the stage chain that mirrors
//! `Engine::recommend_response` and `Reloader::reload_into`. A layer's
//! number is the median self time of its spans.

use crate::fixture::Fixture;
use crate::report::Report;
use crate::serving::Stack;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{self, Key, Workload};
use crate::Opts;
use st_data::{PoiId, UserId};
use st_router::{FleetConfig, HashRing, RouteKey};
use st_serve::batcher::rank_top_k;
use st_serve::client::HttpClient;
use st_serve::http::{read_request, Response};
use st_serve::server::{render_recommend_body, ServeConfig};
use st_serve::{BatchConfig, BatchRequest, LruCache, Metrics, MicroBatcher};
use st_tensor::{kernels, InferCtx, StorageEncoding};
use st_transrec_core::{recommend_top_k, ModelSnapshot, RetrievalConfig, RetrievalIndex};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls folded into one span for operations too short to time singly.
const BATCH: usize = 1_000;
/// Repetitions of each sub-millisecond layer timing.
const REPS: usize = 50;
/// Router/direct request pairs behind `router.hop_us`.
const HOP_PAIRS: usize = 200;

/// All per-layer timings of one serving workload. `sent` is what client 0
/// sent during the timed phase, in order.
pub fn serving(
    report: &mut Report,
    tracer: &mut Tracer,
    workload: Workload,
    fixture: &Fixture,
    stack: &Stack,
    sent: &[Key],
    opts: &Opts,
) {
    let replica = &stack.replicas[0];
    floor(tracer, replica.local_addr());
    let candidates = chain(report, tracer, fixture, stack, sent, opts);
    http_codec(tracer, sent, fixture.target_city().0, opts);
    tensor(
        report,
        tracer,
        &replica.engine().cell().current().frozen,
        &candidates,
    );
    snapshot_load(tracer, fixture, opts.sizes.slow_reps);
    if workload == Workload::ReloadMixed {
        for i in 0..opts.sizes.slow_reps {
            tracer.span("serve.reload.reload_into", i as u32, None, || {
                replica.engine().reload().expect("in-process reload");
            });
        }
    }
    if workload == Workload::FleetHot {
        router(report, tracer, stack, sent, fixture.target_city().0);
    }

    let by_name = stats::median_self_us(tracer.spans());
    let us = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    report.set("serve.http.floor_us", us("serve.http.floor"));
    report.set("serve.http.parse_us", us("serve.http.parse"));
    report.set("serve.http.write_us", us("serve.http.write"));
    report.set("serve.lru.get_us", us("serve.lru.get_batch") / BATCH as f64);
    report.set("serve.render_us", us("serve.render"));
    report.set("serve.rank_us", us("serve.rank"));
    report.set("serve.batcher.submit_us", us("serve.batcher.submit"));
    report.set(
        "serve.batcher.overhead_us",
        us("serve.batcher.submit") - us("core.snapshot.score") - us("serve.rank"),
    );
    report.set(
        "core.retrieval.candidates_us",
        us("core.retrieval.candidates"),
    );
    report.set("core.snapshot.score_us", us("core.snapshot.score"));
    report.set("core.recommend.exact_us", us("core.recommend.exact"));
    report.set("tensor.checkpoint.map_us", us("tensor.checkpoint.map"));
    report.set(
        "core.snapshot.from_mapped_us",
        us("core.snapshot.from_mapped"),
    );
    report.set("core.retrieval.build_ms", us("core.retrieval.build") / 1e3);
    report.set(
        "serve.reload.reload_into_ms",
        us("serve.reload.reload_into") / 1e3,
    );
    report.set(
        "router.ring.assign_ns",
        us("router.ring.assign_batch") * 1e3 / BATCH as f64,
    );
    report.set(
        "router.fleet.route_us",
        us("router.fleet.route_batch") / BATCH as f64,
    );
}

/// `GET /healthz` round trips: everything a request pays before any
/// recommending starts (socket wake-ups, HTTP parse and write).
fn floor(tracer: &mut Tracer, addr: std::net::SocketAddr) {
    let mut client = HttpClient::connect(addr).expect("connect for floor");
    for i in 0..4 * REPS {
        let resp = tracer.span("serve.http.floor", i as u32, None, || {
            client.get("/healthz")
        });
        assert_eq!(resp.expect("healthz").status, 200);
    }
}

/// Replays the tail of `sent` through the stages of
/// `Engine::recommend_response`, against a private LRU brought to the
/// state the server's own cache is in (by walking everything sent before)
/// and a private batcher on the served model. Returns the POI rows of the
/// last candidate set, for the gather timings.
fn chain(
    report: &mut Report,
    tracer: &mut Tracer,
    fixture: &Fixture,
    stack: &Stack,
    sent: &[Key],
    opts: &Opts,
) -> Vec<usize> {
    let engine = stack.replicas[0].engine();
    let generation = engine.cell().current();
    let (dataset, city) = (&fixture.dataset, fixture.target_city());
    let batcher = MicroBatcher::start(
        engine.cell().clone(),
        Arc::new(Metrics::new()),
        BatchConfig::default(),
    );
    let mut lru: LruCache<Key, Arc<str>> = LruCache::new(ServeConfig::default().cache_capacity);
    let replay_from = sent.len().saturating_sub(opts.sizes.chain_requests);
    for key in &sent[..replay_from] {
        if lru.get(key).is_none() {
            lru.insert(*key, "".into());
        }
    }

    let indexed = generation
        .retrieval
        .as_deref()
        .is_some_and(|index| index.covers(city));
    let mut score_ctx = InferCtx::new();
    let mut chain_us = Vec::new();
    let (mut n_sets, mut n_candidates, mut grid_share) = (0usize, 0usize, 0.0f64);
    let mut last_candidates: Vec<PoiId> = dataset.pois_in_city(city).to_vec();
    let mut grows_before = None;
    let mut exact_done = 0;
    for (i, key) in sent[replay_from..].iter().enumerate() {
        let (req, user, k) = (i as u32, UserId(key.user), key.k as usize);
        let root = tracer.begin("chain.recommend", req, None);
        let hit = tracer.span("serve.lru.get", req, Some(root), || lru.get(key).is_some());
        if hit {
            tracer.end(root);
            chain_us.push(tracer.duration_us(root));
            continue;
        }
        let candidates = tracer.span("core.retrieval.candidates", req, Some(root), || {
            let retrieved = generation.retrieval.as_deref().and_then(|index| {
                let mut ctx = InferCtx::new();
                index.candidates(&generation.frozen, &mut ctx, dataset, user, city)
            });
            match retrieved {
                Some(c) => {
                    grid_share += c.from_grid as f64 / c.pois.len().max(1) as f64;
                    Arc::new(c.pois)
                }
                None => Arc::new(dataset.pois_in_city(city).to_vec()),
            }
        });
        n_sets += 1;
        n_candidates += candidates.len();
        let reply = tracer.span("serve.batcher.submit", req, Some(root), || {
            batcher.submit(BatchRequest {
                user,
                candidates: candidates.clone(),
                k,
            })
        });
        let reply = reply.expect("private batcher scores");
        let body: Arc<str> = tracer
            .span("serve.render", req, Some(root), || {
                render_recommend_body(user, city, k, reply.epoch, &reply.recs)
            })
            .into();
        tracer.span("serve.lru.insert", req, Some(root), || {
            lru.insert(*key, body)
        });
        tracer.end(root);
        chain_us.push(tracer.duration_us(root));

        // What the batcher thread did inside `submit`, timed on its own:
        // one scoring pass over this request's pairs on a long-lived
        // scratch context, then the top-k.
        let users = vec![user; candidates.len()];
        let scores = tracer.span("core.snapshot.score", req, None, || {
            generation
                .frozen
                .try_score_pairs_with(&mut score_ctx, &users, &candidates)
                .expect("candidates are scorable")
        });
        grows_before.get_or_insert(score_ctx.grow_events());
        let ranked = tracer.span("serve.rank", req, None, || {
            rank_top_k(&candidates, &scores, k)
        });
        assert_eq!(ranked, reply.recs, "batcher and direct scoring disagree");
        if !indexed && exact_done < REPS {
            exact_done += 1;
            tracer.span("core.recommend.exact", req, None, || {
                black_box(recommend_top_k(
                    &generation.frozen,
                    dataset,
                    user,
                    city,
                    k,
                    &[],
                ))
            });
        }
        last_candidates = candidates.to_vec();
    }
    let grown = score_ctx.grow_events() - grows_before.unwrap_or(0);
    report.set("core.snapshot.grow_events", grown as f64);
    report.set("trace.chain_p50_us", stats::median(&chain_us));
    report.set(
        "core.retrieval.candidates_n",
        n_candidates as f64 / n_sets.max(1) as f64,
    );
    report.set(
        "core.retrieval.grid_share",
        grid_share / n_sets.max(1) as f64,
    );
    report.note("chain_requests", sent.len() - replay_from);
    report.note("chain_misses", n_sets);

    // `LruCache::get` on the cache as the run left it, hits and misses in
    // the stream's own mix.
    if !sent.is_empty() {
        for rep in 0..REPS {
            tracer.span("serve.lru.get_batch", rep as u32, None, || {
                for j in 0..BATCH {
                    black_box(lru.get(&sent[(rep * BATCH + j) % sent.len()]).is_some());
                }
            });
        }
    }
    last_candidates.into_iter().map(PoiId::idx).collect()
}

/// `http::read_request` on the bytes `HttpClient` writes, and
/// `Response::write_to` of a reply shaped like a cache hit.
fn http_codec(tracer: &mut Tracer, sent: &[Key], city: u16, opts: &Opts) {
    let body = render_recommend_body(UserId(0), st_data::CityId(city), 10, 1, &[]);
    let mut wire = Vec::with_capacity(1024);
    for (i, key) in sent
        .iter()
        .rev()
        .take(opts.sizes.chain_requests)
        .enumerate()
    {
        let raw = format!(
            "GET {} HTTP/1.1\r\nHost: st-serve\r\n\r\n",
            workload::recommend_path(*key, city)
        );
        let parsed = tracer.span("serve.http.parse", i as u32, None, || {
            read_request(&mut raw.as_bytes())
        });
        assert!(matches!(parsed, Ok(Some(_))), "client bytes must parse");
        let response = Response::json(200, body.as_bytes().to_vec())
            .with_header("X-Cache", "HIT")
            .with_header("X-Model-Epoch", "1");
        wire.clear();
        tracer
            .span("serve.http.write", i as u32, None, || {
                response.write_to(&mut wire, true)
            })
            .expect("write to memory");
    }
}

/// One blocked matmul of the tower's first-layer shape.
pub fn matmul(report: &mut Report, tracer: &mut Tracer) {
    let (m, k, n) = (256usize, 128usize, 64usize);
    let a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    let mut c = vec![0.0f32; m * n];
    let mut timed_us = Vec::with_capacity(REPS);
    for i in 0..REPS {
        let id = tracer.begin("tensor.kernels.matmul", i as u32, None);
        kernels::matmul_blocked(black_box(&a), black_box(&b), &mut c, m, k, n);
        black_box(&mut c);
        tracer.end(id);
        timed_us.push(tracer.duration_us(id));
    }
    let matmul_us = stats::median(&timed_us);
    report.set(
        "tensor.kernels.matmul_gflops",
        (2 * m * k * n) as f64 / (matmul_us * 1e3).max(1.0),
    );
}

/// The kernels under the tower: the matmul, and the fused gather over one
/// request's candidate rows with the served table re-encoded each way.
fn tensor(report: &mut Report, tracer: &mut Tracer, frozen: &ModelSnapshot, rows: &[usize]) {
    matmul(report, tracer);

    let mut ctx = InferCtx::new();
    for (encoding, span, metric) in [
        (
            StorageEncoding::F32,
            "tensor.gather.f32",
            "tensor.gather.f32_mrows_s",
        ),
        (
            StorageEncoding::F16,
            "tensor.gather.f16",
            "tensor.gather.f16_mrows_s",
        ),
        (
            StorageEncoding::I8,
            "tensor.gather.i8",
            "tensor.gather.i8_mrows_s",
        ),
    ] {
        let encoded = frozen.quantized(encoding);
        let table = encoded.poi_table();
        let mut timed_us = Vec::with_capacity(REPS);
        for i in 0..REPS {
            let id = tracer.begin(span, i as u32, None);
            ctx.gather_concat2(table, rows, table, rows);
            black_box(ctx.value());
            tracer.end(id);
            timed_us.push(tracer.duration_us(id));
        }
        // Two tables per call, as in the snapshot bench this replaces.
        let mrows = (2 * rows.len()) as f64 / stats::median(&timed_us).max(1e-3);
        report.set(metric, mrows);
    }
    report.note("gather_rows", rows.len());
}

/// The parts of `Reloader::load_frozen` and `ModelCell::swap_frozen`,
/// each timed on its own.
fn snapshot_load(tracer: &mut Tracer, fixture: &Fixture, slow_reps: usize) {
    for i in 0..REPS {
        let mapped = tracer.span("tensor.checkpoint.map", i as u32, None, || {
            st_tensor::map_params(&fixture.snapshot).expect("map fixture snapshot")
        });
        let frozen = tracer.span("core.snapshot.from_mapped", i as u32, None, || {
            ModelSnapshot::from_mapped(&mapped).expect("frozen model from the mapping")
        });
        if i < slow_reps {
            tracer.span("core.retrieval.build", i as u32, None, || {
                black_box(RetrievalIndex::build(
                    &frozen,
                    &fixture.dataset,
                    RetrievalConfig::default(),
                ))
            });
        }
    }
}

/// What the router adds: ring lookup, routing decision, and the hop
/// itself as the difference between the same cache-hit request sent
/// through the router and straight to the replica that owns it.
fn router(report: &mut Report, tracer: &mut Tracer, stack: &Stack, sent: &[Key], city: u16) {
    let server = stack.router.as_ref().expect("fleet_hot has a router");
    let fleet = &server.router().fleet;
    let ring = HashRing::with_members(stack.replicas.len() as u16, FleetConfig::default().vnodes);
    for rep in 0..REPS {
        tracer.span("router.ring.assign_batch", rep as u32, None, || {
            for j in 0..BATCH {
                black_box(ring.assign(RouteKey::User((rep * BATCH + j) as u32).hash()));
            }
        });
        tracer.span("router.fleet.route_batch", rep as u32, None, || {
            let now = Instant::now();
            for j in 0..BATCH {
                let key = RouteKey::User((rep * BATCH + j) as u32);
                black_box(fleet.route(key, now).is_ok());
            }
        });
    }

    let mut via_router = HttpClient::connect(server.local_addr()).expect("connect router");
    let mut direct: Vec<HttpClient> = stack
        .replicas
        .iter()
        .map(|r| HttpClient::connect(r.local_addr()).expect("connect replica"))
        .collect();
    let mut hops = Vec::new();
    for (i, key) in sent.iter().rev().take(HOP_PAIRS).enumerate() {
        let path = workload::recommend_path(*key, city);
        let root = tracer.begin("router.hop_pair", i as u32, None);
        let a = tracer.begin("client.via_router", i as u32, Some(root));
        let routed = via_router.get(&path).expect("request via router");
        tracer.end(a);
        let owner: usize = routed
            .header("x-router-replica")
            .and_then(|v| v.parse().ok())
            .expect("router names the replica");
        let b = tracer.begin("client.direct", i as u32, Some(root));
        let straight = direct[owner].get(&path).expect("request to the owner");
        tracer.end(b);
        tracer.end(root);
        let both_hit = [&routed, &straight]
            .iter()
            .all(|r| r.status == 200 && r.header("x-cache") == Some("HIT"));
        if both_hit {
            hops.push(tracer.duration_us(a) - tracer.duration_us(b));
        }
    }
    report.set("router.hop_us", stats::median(&hops));
    report.note("hop_pairs", hops.len());
}
