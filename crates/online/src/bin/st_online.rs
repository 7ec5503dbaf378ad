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
use st_serve::cli;
use std::sync::Arc;

/// The seed of a run that names none.
const SEED: u64 = 42;

/// One run of the loop.
struct Args {
    seed: u64,
    cycles: usize,
    scale: f64,
    no_faults: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            seed: SEED,
            cycles: OnlineLoopConfig::smoke(SEED).faults.len(),
            scale: 0.05,
            no_faults: false,
        }
    }
}

fn usage() -> String {
    let d = Args::default();
    format!(
        "st-online: the streaming train-publish-serve loop over a synthetic stream

USAGE: st-online [OPTIONS]

  --seed N       seed of the stream, the trainer and the fault plan [default: {}]
  --cycles N     publish cycles, at least 3 with faults [default: {}]
  --scale F      dataset scale, in (0, 1] [default: {}]
  --no-faults    inject no publish fault
  -h, --help     print this help
",
        d.seed, d.cycles, d.scale
    )
}

/// Reads st-online's flags; `None` after `--help`.
fn parse(args: &[String]) -> Result<Option<Args>, String> {
    cli::parse(args, Args::default(), |a, flag, f| {
        match flag {
            "--seed" => a.seed = f.value()?,
            "--cycles" => a.cycles = f.value()?,
            "--scale" => match f.value()? {
                scale if scale > 0.0 && scale <= 1.0 => a.scale = scale,
                scale => return Err(format!("{flag}: must be in (0, 1], got {scale}")),
            },
            "--no-faults" => a.no_faults = true,
            _ => return Ok(false),
        }
        Ok(true)
    })
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = cli::or_exit(&usage(), parse(&args));

    eprintln!("generating synthetic dataset (scale {})...", a.scale);
    let synth_config = SynthConfig::foursquare_like().with_scale(a.scale);
    let target = CityId(synth_config.target_city as u16);
    let (dataset, _) = generate(&synth_config);
    let dataset = Arc::new(dataset);
    let split = Arc::new(CrossingCitySplit::build(&dataset, target));

    let mut config = OnlineLoopConfig::smoke(a.seed);
    config.faults = match a.no_faults {
        true => FaultPlan::none(a.cycles),
        false => FaultPlan::seeded(a.cycles.max(3), a.seed),
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
            c.publish_latency_us.map_or("-".into(), |us| us.to_string()),
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
    fn usage_shows_the_smoke_plans_cycles() {
        let held = OnlineLoopConfig::smoke(SEED).faults.len();
        assert!(usage().contains(&format!("at least 3 with faults [default: {held}]")));
        let a = parse_line("--seed 7 --cycles 6 --scale 0.5 --no-faults");
        let a = a.unwrap().unwrap();
        assert_eq!((a.seed, a.cycles, a.scale, a.no_faults), (7, 6, 0.5, true));
    }

    #[test]
    fn bad_flags_are_refused_by_name() {
        assert_eq!(refused("--bogus"), "--bogus: unknown flag");
        let not_a_number = "cannot parse \"abc\": invalid digit found in string";
        assert_eq!(refused("--cycles abc"), format!("--cycles: {not_a_number}"));
        let out_of_range = "--scale: must be in (0, 1], got 1.5";
        assert_eq!(refused("--scale 1.5"), out_of_range);
    }
}
