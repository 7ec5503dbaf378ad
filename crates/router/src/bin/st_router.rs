//! `st-router` — front a fleet of `st-serve` replicas.
//!
//! ```text
//! st-router --replica 127.0.0.1:8080 --replica 127.0.0.1:8081 \
//!           --addr 127.0.0.1:8070
//! ```

use st_router::{Fleet, FleetConfig, Router, RouterConfig, RouterServer, DOWN_AFTER};
use st_serve::cli;
use st_serve::http::RETRY_AFTER_SECS;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The fleet to front and how.
struct Args {
    replicas: Vec<SocketAddr>,
    fleet: FleetConfig,
    router: RouterConfig,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            replicas: Vec::new(),
            fleet: FleetConfig::default(),
            router: RouterConfig {
                addr: "127.0.0.1:8070".into(),
                probe_interval: Some(Duration::from_secs(1)),
                ..RouterConfig::default()
            },
        }
    }
}

fn usage() -> String {
    let Args { fleet, router, .. } = Args::default();
    format!(
        "st-router: consistent-hash reverse proxy over st-serve replicas

USAGE:
    st-router --replica ADDR [--replica ADDR ...] [OPTIONS]

Routes each /recommend by its user parameter. A replica is down after
{DOWN_AFTER} failed probes; every shed answer carries Retry-After: {RETRY_AFTER_SECS}.

OPTIONS:
    --replica ADDR          backend replica address (repeatable, required)
    --addr ADDR             bind address [default: {addr}]
    --vnodes N              virtual nodes per replica [default: {vnodes}]
    --workers N             HTTP worker threads [default: {workers}]
    --breaker-threshold N   consecutive failures to open a breaker [default: {threshold}]
    --breaker-cooldown-ms N open-breaker cooldown [default: {cooldown_ms}]
    --probe-interval-ms N   health-probe period, 0 disables [default: {probe_ms}]
    -h, --help              print this help
",
        addr = router.addr,
        vnodes = fleet.vnodes,
        workers = router.workers,
        threshold = fleet.breaker.failure_threshold,
        cooldown_ms = fleet.breaker.cooldown.as_millis(),
        probe_ms = router.probe_interval.map_or(0, |d| d.as_millis()),
    )
}

/// Reads st-router's flags; `None` after `--help`.
fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let parsed = cli::parse(args, Args::default(), |a, flag, f| {
        let breaker = &mut a.fleet.breaker;
        match flag {
            "--replica" => a.replicas.push(f.value()?),
            "--addr" => a.router.addr = f.value()?,
            "--vnodes" => a.fleet.vnodes = f.value()?,
            "--workers" => a.router.workers = f.value()?,
            "--breaker-threshold" => breaker.failure_threshold = f.value()?,
            "--breaker-cooldown-ms" => breaker.cooldown = Duration::from_millis(f.value()?),
            "--probe-interval-ms" => {
                let every = Duration::from_millis(f.value()?);
                a.router.probe_interval = (!every.is_zero()).then_some(every);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    match parsed {
        Some(a) if a.replicas.is_empty() => Err("--replica: at least one is required".into()),
        parsed => Ok(parsed),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = cli::or_exit(&usage(), parse(&args));
    let router = Router::new(Arc::new(Fleet::new(&a.replicas, a.fleet)), a.router);
    let server = match RouterServer::start(router) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: failed to start router: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "st-router on http://{} fronting {} replica(s)",
        server.local_addr(),
        a.replicas.len()
    );
    server.wait();
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
    fn usage_shows_each_default_as_the_structs_hold_it() {
        let (fleet, usage) = (FleetConfig::default(), usage());
        let breaker = fleet.breaker;
        for (flag, held) in [
            ("--vnodes", fleet.vnodes.to_string()),
            ("--workers", RouterConfig::default().workers.to_string()),
            ("--breaker-threshold", breaker.failure_threshold.to_string()),
            (
                "--breaker-cooldown-ms",
                breaker.cooldown.as_millis().to_string(),
            ),
        ] {
            let entry = usage.lines().find(|l| l.contains(&format!(" {flag} ")));
            let shown = format!("[default: {held}]");
            assert!(entry.unwrap().ends_with(&shown), "{flag}");
        }
    }

    /// Every router worker pools one keep-alive connection per replica,
    /// and each holds a replica worker until the replica's idle timeout.
    #[test]
    fn replicas_by_default_outnumber_the_routers_workers() {
        let replica = st_serve::server::ServeConfig::default();
        assert!(replica.workers > RouterConfig::default().workers);
    }

    #[test]
    fn flags_land_in_the_config_structs() {
        let a = parse_line("--replica 127.0.0.1:1 --breaker-cooldown-ms 50 --probe-interval-ms 0");
        let a = a.unwrap().unwrap();
        assert_eq!(a.replicas, ["127.0.0.1:1".parse().unwrap()]);
        assert_eq!(a.fleet.breaker.cooldown, Duration::from_millis(50));
        assert_eq!(a.router.probe_interval, None);
    }

    /// Routing is by user only, and probe-down count and Retry-After are
    /// constants: their retired flags stay refused and unlisted.
    #[test]
    fn retired_and_bad_flags_are_refused_by_name() {
        for gone in ["--partition", "--down-after", "--retry-after"] {
            let refusal = refused(&format!("{gone} 1"));
            assert_eq!(refusal, format!("{gone}: unknown flag"));
            assert!(!usage().contains(gone), "the usage lists {gone}");
        }
        let bad_addr = "--replica: cannot parse \"1.2.3.4\": invalid socket address syntax";
        assert_eq!(refused("--replica 1.2.3.4"), bad_addr);
        let no_replica = "--replica: at least one is required";
        assert_eq!(refused("--workers 4"), no_replica);
    }
}
