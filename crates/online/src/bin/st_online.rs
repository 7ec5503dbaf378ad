//! `st-online` — run the streaming train→serve loop against an embedded
//! server and print the per-cycle audit trail.
//!
//! ```text
//! st-online [--seed N] [--cycles N] [--scale F] [--no-faults]
//! ```
//!
//! The checkpoint lives in a scratch directory under the system's temp
//! directory for the length of the run and is removed when it ends.

use st_data::synth::{generate, SynthConfig};
use st_data::{CityId, CrossingCitySplit};
use st_online::{run_embedded, FaultPlan, OnlineLoopConfig};
use std::sync::Arc;

const USAGE: &str = "usage: st-online [--seed N] [--cycles N] [--scale F] [--no-faults]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Parses `flag`'s value, or exits naming the flag and the value.
fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let value = value.unwrap_or_else(|| fail(&format!("{flag} needs a value")));
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: cannot parse {value:?}")))
}

fn main() -> std::io::Result<()> {
    let (mut seed, mut cycles, mut scale, mut no_faults) = (42u64, 4usize, 0.05f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => seed = parsed(&flag, args.next()),
            "--cycles" => cycles = parsed(&flag, args.next()),
            "--scale" => scale = parsed(&flag, args.next()),
            "--no-faults" => no_faults = true,
            _ => fail(&format!("unknown flag {flag:?}")),
        }
    }
    if !(scale > 0.0 && scale <= 1.0) {
        fail(&format!("--scale must be in (0, 1], got {scale}"));
    }

    eprintln!("generating synthetic dataset (scale {scale})...");
    let synth_config = SynthConfig::foursquare_like().with_scale(scale);
    let target = CityId(synth_config.target_city as u16);
    let (dataset, _) = generate(&synth_config);
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, target));

    let mut config = OnlineLoopConfig::smoke(seed);
    config.faults = if no_faults {
        FaultPlan::none(cycles)
    } else {
        FaultPlan::seeded(cycles.max(3), seed)
    };

    let scratch = std::env::temp_dir().join(format!("st-online-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    eprintln!(
        "warming up {} epochs, then {} publish cycles (ckpt in {})...",
        config.warmup_epochs,
        config.faults.len(),
        scratch.display()
    );
    let report = run_embedded(&dataset, &split, &scratch, &config);
    std::fs::remove_dir_all(&scratch)?;
    let report = report?;

    println!("cycle  fault    outcome    trained  loss    cand-hit  base-hit  epoch  publish-us");
    for c in &report.cycles {
        println!(
            "{:>5}  {:<7}  {:<9}  {:>7}  {:<6.4}  {:<8.4}  {:<8.4}  {:>5}  {}",
            c.cycle,
            c.fault.label(),
            c.outcome.label(),
            c.events_trained,
            c.loss,
            c.candidate_hit_rate,
            c.baseline_hit_rate,
            c.served_epoch,
            c.publish_latency_us
                .map(|us| us.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "ingested {} events at {:.0} events/s; served epoch {}; reloads ok={} failed={}",
        report.events_ingested,
        report.events_per_sec,
        report.final_served_epoch,
        report.reloads_ok,
        report.reloads_failed
    );
    Ok(())
}
