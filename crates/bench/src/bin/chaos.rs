//! Seeded chaos replays, each run twice and gated on conservation,
//! metrics agreement and bit-identical counts:
//!
//! - `chaos serve` — [`st_bench::chaos`]: one server under the seeded
//!   [`st_bench::chaos::FaultPlan`].
//! - `chaos fleet` — [`st_bench::fleet`]: a rolling rollout under load
//!   over replicas behind an `st-router`, and the seeded fleet plan.
//! - `chaos online` — [`st_bench::online_loop`]: the ingest → train →
//!   shadow-eval → gated publish loop. `--smoke` is the 4-cycle CI size;
//!   the full run (6 cycles, scaled Foursquare-like data) is where
//!   ingest throughput and publish latency are measured.
//!
//! The report is one JSON line on stdout, the summary goes to stderr;
//! exit 1 unless every gate held, 2 on a usage error. Build with
//! `--release`: a debug-build forward pass drowns out everything the
//! batcher does.

use st_bench::json::ToJson;
use st_bench::online_loop::{run_online_suite, OnlineLoopOptions};
use st_bench::{chaos, fleet};
use std::process::ExitCode;

const USAGE: &str = "usage: chaos serve  [--seed N] [--extra-phases N]
       chaos fleet  [--seed N] [--extra-phases N]
       chaos online [--seed N] [--smoke]";

#[derive(Debug, PartialEq, Eq)]
enum Command {
    Serve { seed: u64, extra_phases: usize },
    Fleet { seed: u64, extra_phases: usize },
    Online { seed: u64, smoke: bool },
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    fn value<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        let text = args.next().ok_or(format!("{flag} needs a value"))?;
        text.parse()
            .map_err(|_| format!("{flag} must be a non-negative integer, got {text:?}"))
    }
    let target = args.next().ok_or("missing subcommand")?;
    if !["serve", "fleet", "online"].contains(&target.as_str()) {
        return Err(format!("unknown subcommand {target:?}"));
    }
    let (mut seed, mut extra_phases, mut smoke) = (42u64, None, false);
    while let Some(flag) = args.next() {
        match (target.as_str(), flag.as_str()) {
            (_, "--seed") => seed = value(&mut args, "--seed")?,
            ("serve" | "fleet", "--extra-phases") => {
                extra_phases = Some(value(&mut args, "--extra-phases")?)
            }
            ("online", "--smoke") => smoke = true,
            _ => return Err(format!("unknown argument {flag:?} for `chaos {target}`")),
        }
    }
    Ok(match target.as_str() {
        "serve" => Command::Serve {
            seed,
            extra_phases: extra_phases.unwrap_or(3),
        },
        "fleet" => Command::Fleet {
            seed,
            extra_phases: extra_phases.unwrap_or(2),
        },
        _ => Command::Online { seed, smoke },
    })
}

/// Replays the single-server plan; returns the report and whether every
/// invariant held.
fn serve(seed: u64, extra_phases: usize) -> (String, bool) {
    eprintln!("replaying chaos plan for seed {seed} (twice, {extra_phases} extra phases)...");
    let report = chaos::run_chaos_twice(seed, extra_phases);
    let c = &report.counts;
    eprintln!(
        "  {} phases: submitted {} = served {} + shed {} + expired {} + degraded {} + failed {}",
        report.phases, c.submitted, c.served, c.shed, c.expired, c.degraded, c.failed
    );
    eprintln!(
        "  conservation {} | metrics consistent {} | outcomes expected {} | reproducible {} | shed p99 {} us",
        report.conservation_ok,
        report.metrics_consistent,
        report.all_outcomes_expected,
        report.reproducible,
        report.shed_p99_us
    );
    (report.to_json().to_string(), report.ok())
}

fn fleet(seed: u64, extra_phases: usize) -> (String, bool) {
    eprintln!("running fleet suite (chaos seed {seed} + {extra_phases} extra phases)...");
    let report = fleet::run_fleet_suite(seed, extra_phases);
    let r = &report.rollout;
    eprintln!(
        "  rollout N={}: {} requests, {} ok / {} lost, completed {}, ledger {}",
        r.replicas, r.requests, r.ok_200, r.non_200, r.rollout_completed, r.ledger_consistent
    );
    let c = &report.chaos.counts;
    eprintln!(
        "  chaos {} phases: submitted {} = served {} + remapped {} + unreachable {} + dark {} + \
         expired {} + failed {}",
        report.chaos.phases,
        c.submitted,
        c.served,
        c.served_remapped,
        c.unreachable_503,
        c.dark_503,
        c.expired_503,
        c.failed_500
    );
    let a = &report.acceptance;
    eprintln!(
        "acceptance: zero-loss rollout {}, chaos ok {}",
        a.zero_loss_rollout, a.chaos_ok
    );
    (report.to_json().to_string(), a.all_gates)
}

fn online(seed: u64, smoke: bool) -> (String, bool) {
    let opts = if smoke {
        OnlineLoopOptions::smoke(seed)
    } else {
        OnlineLoopOptions::full(seed)
    };
    eprintln!(
        "running online-loop suite ({} mode, seed {seed}, {} cycles)...",
        if smoke { "smoke" } else { "full" },
        opts.cycles
    );
    let report = run_online_suite(&opts);
    let a = &report.acceptance;
    eprintln!(
        "acceptance: {} published / {} rejected / {} crashed; reproducible={}; \
         rejection_defended={}; crash_defended={}; {:.0} events/s ingested; \
         publish latency {:.0}us mean; staleness max {}us",
        a.published,
        a.rejected,
        a.crashed,
        a.reproducible,
        a.rejection_defended,
        a.crash_defended,
        a.events_per_sec,
        a.publish_latency_us_mean,
        a.staleness_us_max
    );
    // The same gates in both sizes: the loop must publish, must reject
    // what it injected, must contain the crash, and must replay
    // bit-identically.
    let ok = a.published >= 1
        && a.rejected >= 1
        && a.crashed >= 1
        && a.reproducible
        && a.rejection_defended
        && a.crash_defended;
    (report.to_json().to_string(), ok)
}

fn main() -> ExitCode {
    let command = match parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(problem) => {
            eprintln!("error: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (report, ok) = match command {
        Command::Serve { seed, extra_phases } => serve(seed, extra_phases),
        Command::Fleet { seed, extra_phases } => fleet(seed, extra_phases),
        Command::Online { seed, smoke } => online(seed, smoke),
    };
    println!("{report}");
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("CHAOS GATES NOT MET (see the report above)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn defaults_are_what_ci_replays_and_flags_come_in_any_order() {
        for (line, want) in [
            ("serve", "Serve { seed: 42, extra_phases: 3 }"),
            ("fleet", "Fleet { seed: 42, extra_phases: 2 }"),
            ("online", "Online { seed: 42, smoke: false }"),
            (
                "fleet --extra-phases 0 --seed 7",
                "Fleet { seed: 7, extra_phases: 0 }",
            ),
            ("online --smoke --seed 9", "Online { seed: 9, smoke: true }"),
        ] {
            assert_eq!(format!("{:?}", parse_line(line).unwrap()), want);
        }
    }

    #[test]
    fn anything_unrecognised_is_a_usage_error() {
        for line in [
            "",
            "server",
            "--seed 42",
            "serve --sead 42",
            "serve --seed",
            "serve --seed x",
            "serve --seed -1",
            "serve --smoke",
            "fleet --smoke",
            "online --extra-phases 2",
            "serve extra",
        ] {
            assert!(parse_line(line).is_err(), "{line:?} was accepted");
        }
    }
}
