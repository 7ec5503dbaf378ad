//! End-to-end chaos tests for the online loop: a real embedded server,
//! a seeded event stream, seeded publish-path faults — and the three
//! guarantees DESIGN.md §14 promises:
//!
//! 1. a metric-regressing candidate is rejected by the shadow gate and
//!    never serves a single request;
//! 2. a crash mid-publish leaves the serving tier on its previous
//!    generation with an intact, loadable checkpoint;
//! 3. two runs under the same seed produce identical
//!    publish/reject/crash sequences, epochs, and shadow metrics.
//!
//! Every run is held to the first two by `assert_defended`; the
//! publisher's own model (`publisher::tests`) holds any sequence of
//! publishes, crashes and rejections to them as well.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit, Dataset};
use st_online::{run_embedded, CycleOutcome, OnlineLoopConfig, OnlineReport, PublishFault};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use CycleOutcome::{Crashed, Published, Rejected};
use PublishFault::Regress;

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

/// `SynthConfig::tiny` with 120 POIs a city: more than the gate's 50
/// negatives + 1, so each cycle's seed decides which negatives it draws
/// and the pinned signature sees the sampler.
fn fixture() -> (Arc<Dataset>, Arc<CrossingCitySplit>) {
    let (dataset, _) = generate(&SynthConfig {
        pois: 240,
        ..SynthConfig::tiny()
    });
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, CityId(1)));
    (dataset, split)
}

/// Runs the smoke loop for `seed` in a fresh directory, checks that the
/// run kept every defence, and removes the directory.
fn run(seed: u64) -> OnlineReport {
    let (dataset, split) = fixture();
    let dir = scratch_dir("run");
    let config = OnlineLoopConfig::smoke(seed);
    let report = run_embedded(&dataset, &split, &dir, &config).expect("loop runs");
    assert_defended(&report, &dir);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    report
}

/// The seed-42 smoke run, twice, each in its own directory.
fn smoke_pair() -> &'static [OnlineReport; 2] {
    static PAIR: OnceLock<[OnlineReport; 2]> = OnceLock::new();
    PAIR.get_or_init(|| [run(42), run(42)])
}

/// The seed-42 smoke run's `OnlineReport::signature()`: cycle, fault,
/// outcome, served epoch, and the bits of the candidate's and the
/// baseline's hit rates.
#[rustfmt::skip]
const SEED_42: [(usize, &str, &str, u64, u64, u64); 4] = [
    (0, "clean", "published", 2, 4602960294149357568, 4602819556661002240),
    (1, "crash", "crashed", 2, 4602889925405179904, 4602960294149357568),
    (2, "clean", "published", 3, 4603452875358601216, 4603382506614423552),
    (3, "regress", "rejected", 3, 4598315957033631744, 4602960294149357568),
];

fn outcomes(report: &OnlineReport) -> Vec<CycleOutcome> {
    report.cycles.iter().map(|c| c.outcome).collect()
}

/// What a defended run keeps, whatever its faults: each crash leaves
/// one torn `.crash-` artifact that fails to load beside a checkpoint
/// that loads; each regression is rejected, measurably worse than the
/// baseline; no cycle that did not publish moves the serving epoch; and
/// the serving tier took exactly one clean reload per publish.
fn assert_defended(report: &OnlineReport, dir: &Path) {
    let torn: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains(".crash-"))
        .collect();
    assert_eq!(torn.len(), report.count(Crashed), "{torn:?}");
    for path in &torn {
        let torn = st_tensor::load_params(std::fs::read(path).unwrap().as_slice());
        assert!(torn.is_err(), "{path:?}");
    }
    let file = std::fs::File::open(dir.join("model.bin")).expect("checkpoint exists");
    let store = st_tensor::load_params(file).expect("checkpoint loads");
    assert!(!store.is_empty());

    for (i, c) in report.cycles.iter().enumerate() {
        if c.fault == Regress {
            assert_eq!(c.outcome, Rejected, "cycle {i}");
            assert!(
                c.candidate_hit_rate < c.baseline_hit_rate,
                "cycle {i}: impostor {} vs baseline {}",
                c.candidate_hit_rate,
                c.baseline_hit_rate
            );
        }
        if c.outcome != Published {
            // Epoch 1 serves before the first cycle.
            let before = i
                .checked_sub(1)
                .map_or(1, |p| report.cycles[p].served_epoch);
            assert_eq!(c.served_epoch, before, "cycle {i} moved the epoch");
        }
    }
    let published = report.count(Published) as u64;
    assert_eq!(report.final_served_epoch, 1 + published);
    assert_eq!((report.reloads_ok, report.reloads_failed), (published, 0));
}

#[test]
fn regressing_candidate_is_rejected_and_never_served() {
    // Seed 43 plans clean, regress, crash, clean: `run` checks that the
    // impostor scored lower and left the epoch; the loop publishes again.
    let got = outcomes(&run(43));
    assert_eq!(got, [Published, Rejected, Crashed, Published]);
}

#[test]
fn crash_mid_publish_leaves_serving_tier_intact() {
    // Seed 42 crashes an accepted candidate mid-write, then publishes on
    // the old generation; `run` checks the torn file and the epoch.
    let got = outcomes(&smoke_pair()[0]);
    assert_eq!(got[..3], [Published, Crashed, Published]);
}

#[test]
fn same_seed_runs_reproduce_identical_publish_sequences() {
    let [a, b] = smoke_pair();
    assert_eq!(
        a.signature(),
        b.signature(),
        "same seed must replay the same outcomes, epochs, and metrics"
    );
    assert_eq!(a.events_ingested, b.events_ingested);
    assert_eq!(a.final_served_epoch, b.final_served_epoch);

    // And a different seed takes a different path (stream, faults, and
    // gate seeds all derive from it).
    let c = run(45);
    assert_ne!(
        a.signature(),
        c.signature(),
        "distinct seeds should not collide on the full signature"
    );
}

#[test]
fn smoke_suite_passes_every_gate() {
    // The seeded plan injects one regression and one crash into four
    // cycles; both runs kept every defence (`run`), and the gate's
    // verdicts and hit rates are pinned to the bit.
    let [a, _] = smoke_pair();
    assert_eq!(
        [Published, Rejected, Crashed].map(|o| a.count(o)),
        [2, 1, 1]
    );
    assert_eq!(a.signature(), SEED_42);
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

    let (dataset, split) = fixture();
    let dir = scratch_dir("unframed");
    let ckpt = dir.join("model.bin");
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
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// The process's answer to its flags, the same in every server binary:
/// a refused flag exits 2 with `error: <flag>: <why>` and the usage on
/// stderr, and `--help` prints the usage to stdout and exits 0.
#[test]
fn a_refused_flag_exits_2_and_help_exits_0() {
    let run = |arg: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_st-online"))
            .arg(arg)
            .output()
            .expect("run st-online");
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
