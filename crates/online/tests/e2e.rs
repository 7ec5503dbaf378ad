//! End-to-end chaos tests for the online loop: a real embedded server,
//! a seeded event stream, injected publish-path faults — and the three
//! guarantees DESIGN.md §14 promises:
//!
//! 1. a metric-regressing candidate is rejected by the shadow gate and
//!    never serves a single request;
//! 2. a crash mid-publish leaves the serving tier on its previous
//!    generation with an intact, loadable checkpoint;
//! 3. two runs under the same seed produce identical
//!    publish/reject/crash sequences, epochs, and shadow metrics.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_online::{run_embedded, CycleOutcome, FaultPlan, OnlineLoopConfig, PublishFault};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "st-online-e2e-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny() -> (Arc<Dataset>, Arc<CrossingCitySplit>) {
    let (dataset, _) = generate(&SynthConfig::tiny());
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
    (dataset, split)
}

#[test]
fn regressing_candidate_is_rejected_and_never_served() {
    let (dataset, split) = tiny();
    let scratch = scratch_dir("regress");
    let mut config = OnlineLoopConfig::smoke(42);
    // Pin the schedule: clean publish, then a regressing impostor, then
    // a clean publish to prove the loop recovers.
    config.faults = FaultPlan::explicit(vec![
        PublishFault::Clean,
        PublishFault::Regress,
        PublishFault::Clean,
    ]);

    let report = run_embedded(&dataset, &split, &scratch, &config).expect("loop runs");

    let regress = &report.cycles[1];
    assert_eq!(regress.fault, PublishFault::Regress);
    assert_eq!(
        regress.outcome,
        CycleOutcome::Rejected,
        "untrained impostor must lose the shadow gate: candidate {} vs baseline {}",
        regress.candidate_hit_rate,
        regress.baseline_hit_rate
    );
    assert!(
        regress.candidate_hit_rate < regress.baseline_hit_rate,
        "impostor should measurably regress"
    );
    // Never served: the epoch after the regress cycle equals the epoch
    // after the first publish — no reload happened for the impostor.
    assert_eq!(regress.served_epoch, report.cycles[0].served_epoch);

    // The loop recovers: both clean cycles published, and the serving
    // tier saw exactly those two reloads, none failed.
    assert_eq!(report.cycles[0].outcome, CycleOutcome::Published);
    assert_eq!(report.cycles[2].outcome, CycleOutcome::Published);
    assert_eq!(report.count(CycleOutcome::Published), 2);
    assert_eq!(report.count(CycleOutcome::Rejected), 1);
    assert_eq!(report.reloads_ok, 2);
    assert_eq!(report.reloads_failed, 0);
    assert_eq!(
        report.final_served_epoch, 3,
        "start epoch 1 + two publishes"
    );
}

#[test]
fn crash_mid_publish_leaves_serving_tier_intact() {
    let (dataset, split) = tiny();
    let scratch = scratch_dir("crash");
    let mut config = OnlineLoopConfig::smoke(43);
    config.faults = FaultPlan::explicit(vec![
        PublishFault::Clean,
        PublishFault::Crash,
        PublishFault::Clean,
    ]);

    let report = run_embedded(&dataset, &split, &scratch, &config).expect("loop runs");

    let crash = &report.cycles[1];
    assert_eq!(crash.outcome, CycleOutcome::Crashed);
    // The crash happened *after* the gate accepted — the dangerous case:
    // a good candidate died halfway through its write.
    assert_eq!(
        crash.served_epoch, report.cycles[0].served_epoch,
        "crash must not move the serving epoch"
    );

    // The torn temp file exists and is NOT the checkpoint: the atomic
    // path never exposes partial bytes under the checkpoint name.
    let torn: Vec<_> = std::fs::read_dir(&scratch)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".crash-"))
        .collect();
    assert_eq!(torn.len(), 1, "exactly one torn publish artifact");

    // The checkpoint still loads cleanly — it is the *previous*
    // generation's bytes, untouched by the crashed publish.
    let store = st_tensor::load_params(std::fs::File::open(scratch.join("model.bin")).unwrap())
        .expect("checkpoint survives the crash");
    assert!(!store.is_empty());
    // And the torn bytes would have been rejected had they ever been
    // renamed into place (truncated stream -> load error).
    let torn_bytes = std::fs::read(torn[0].path()).unwrap();
    assert!(st_tensor::load_params(torn_bytes.as_slice()).is_err());

    // Cycle 2 recovers with a clean publish on top of the old generation.
    assert_eq!(report.cycles[2].outcome, CycleOutcome::Published);
    assert_eq!(report.final_served_epoch, 3);
    assert_eq!(report.reloads_failed, 0);
}

#[test]
fn same_seed_runs_reproduce_identical_publish_sequences() {
    let (dataset, split) = tiny();
    let config = OnlineLoopConfig::smoke(44);
    // The seeded smoke plan carries at least one regression and one
    // crash; both runs must walk the exact same path through them.
    assert!(config.faults.count(PublishFault::Regress) >= 1);
    assert_eq!(config.faults.count(PublishFault::Crash), 1);

    let a = run_embedded(&dataset, &split, &scratch_dir("repro-a"), &config).expect("run a");
    let b = run_embedded(&dataset, &split, &scratch_dir("repro-b"), &config).expect("run b");

    assert_eq!(
        a.signature(),
        b.signature(),
        "same seed must replay the same outcomes, epochs, and metrics"
    );
    assert_eq!(a.events_ingested, b.events_ingested);
    assert_eq!(a.final_served_epoch, b.final_served_epoch);

    // And a different seed takes a different path (stream, faults, and
    // gate seeds all derive from it).
    let other = OnlineLoopConfig::smoke(45);
    let c = run_embedded(&dataset, &split, &scratch_dir("repro-c"), &other).expect("run c");
    assert_ne!(
        a.signature(),
        c.signature(),
        "distinct seeds should not collide on the full signature"
    );
}

#[test]
fn smoke_suite_passes_every_gate() {
    // The seed-42 smoke run twice. The seeded plan injects one
    // regression and one crash into four cycles; every regression must
    // be rejected, no rejected or crashed cycle may move the serving
    // epoch, both checkpoints must load, and the runs must match.
    let (dataset, split) = tiny();
    let config = OnlineLoopConfig::smoke(42);
    let (dir_a, dir_b) = (scratch_dir("smoke-a"), scratch_dir("smoke-b"));
    let a = run_embedded(&dataset, &split, &dir_a, &config).expect("run a");
    let b = run_embedded(&dataset, &split, &dir_b, &config).expect("run b");

    let outcomes = [
        CycleOutcome::Published,
        CycleOutcome::Rejected,
        CycleOutcome::Crashed,
    ];
    assert_eq!(outcomes.map(|o| a.count(o)), [2, 1, 1]);
    for (i, c) in a.cycles.iter().enumerate() {
        if c.fault == PublishFault::Regress {
            assert_eq!(c.outcome, CycleOutcome::Rejected, "cycle {i}");
        }
        if c.outcome != CycleOutcome::Published {
            // Epoch 1 serves before the first cycle.
            let before = i.checked_sub(1).map_or(1, |p| a.cycles[p].served_epoch);
            assert_eq!(c.served_epoch, before, "cycle {i} moved the epoch");
        }
    }
    for dir in [&dir_a, &dir_b] {
        let file = std::fs::File::open(dir.join("model.bin")).expect("checkpoint exists");
        st_tensor::load_params(file).expect("checkpoint loads");
    }
    assert_eq!((a.reloads_failed, b.reloads_failed), (0, 0));
    assert_eq!(a.signature(), b.signature());
}

#[test]
fn publisher_surfaces_a_reply_it_cannot_frame() {
    // A "server" whose replies carry no Content-Length. The lax reader
    // took them for empty 200 bodies and reported "no model_epoch" /
    // "gauge missing"; the strict one names the real fault.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        use std::io::{Read, Write};
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
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\n\r\n{\"reloaded\":true,\"model_epoch\":2}st_serve_model_epoch 2\n",
            );
        }
    });

    let (dataset, split) = tiny();
    let ckpt = scratch_dir("unframed").join("model.bin");
    let model = st_transrec_core::STTransRec::new(
        &dataset,
        &split,
        st_transrec_core::ModelConfig::test_small(),
    );
    let publisher = st_online::Publisher::new(addr, &ckpt);
    for err in [
        publisher.publish(&model).map(|_| ()).unwrap_err(),
        publisher.served_epoch().map(|_| ()).unwrap_err(),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("content-length"), "{err}");
    }
    fake.join().expect("fake server");
}
