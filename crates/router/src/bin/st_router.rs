//! `st-router` — front a fleet of `st-serve` replicas.
//!
//! ```text
//! st-router --replica 127.0.0.1:8080 --replica 127.0.0.1:8081 \
//!           --addr 127.0.0.1:8070
//! ```

use st_router::{BreakerConfig, Fleet, FleetConfig, Router, RouterConfig, RouterServer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
st-router: consistent-hash reverse proxy over st-serve replicas

USAGE:
    st-router --replica ADDR [--replica ADDR ...] [OPTIONS]

Routes each /recommend by its user parameter. A replica is down after 2
failed probes; every shed answer carries Retry-After: 1.

OPTIONS:
    --replica ADDR          backend replica address (repeatable, required)
    --addr ADDR             bind address [default: 127.0.0.1:8070]
    --vnodes N              virtual nodes per replica [default: 128]
    --workers N             HTTP worker threads [default: 8]
    --breaker-threshold N   consecutive failures to open a breaker [default: 3]
    --breaker-cooldown-ms N open-breaker cooldown [default: 2000]
    --probe-interval-ms N   health-probe period, 0 disables [default: 1000]
    -h, --help              print this help
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut replicas: Vec<SocketAddr> = Vec::new();
    let mut addr = "127.0.0.1:8070".to_string();
    let mut vnodes: u32 = 128;
    let mut workers: usize = 8;
    let mut breaker_threshold: u32 = 3;
    let mut breaker_cooldown_ms: u64 = 2_000;
    let mut probe_interval_ms: u64 = 1_000;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut value = |name: &str| -> String {
            i += 1;
            args.get(i)
                .cloned()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg {
            "--replica" => {
                let v = value("--replica");
                match v.parse() {
                    Ok(a) => replicas.push(a),
                    Err(_) => fail(&format!("bad replica address {v:?}")),
                }
            }
            "--addr" => addr = value("--addr"),
            "--vnodes" => match value("--vnodes").parse() {
                Ok(n) => vnodes = n,
                Err(_) => fail("--vnodes must be an integer"),
            },
            "--workers" => match value("--workers").parse() {
                Ok(n) => workers = n,
                Err(_) => fail("--workers must be an integer"),
            },
            "--breaker-threshold" => match value("--breaker-threshold").parse() {
                Ok(n) => breaker_threshold = n,
                Err(_) => fail("--breaker-threshold must be an integer"),
            },
            "--breaker-cooldown-ms" => match value("--breaker-cooldown-ms").parse() {
                Ok(n) => breaker_cooldown_ms = n,
                Err(_) => fail("--breaker-cooldown-ms must be an integer"),
            },
            "--probe-interval-ms" => match value("--probe-interval-ms").parse() {
                Ok(n) => probe_interval_ms = n,
                Err(_) => fail("--probe-interval-ms must be an integer"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if replicas.is_empty() {
        fail("at least one --replica is required");
    }

    let fleet = Arc::new(Fleet::new(
        &replicas,
        FleetConfig {
            vnodes,
            breaker: BreakerConfig {
                failure_threshold: breaker_threshold,
                cooldown: Duration::from_millis(breaker_cooldown_ms),
            },
        },
    ));
    let router = Router::new(
        fleet,
        RouterConfig {
            addr,
            workers,
            probe_interval: (probe_interval_ms > 0)
                .then(|| Duration::from_millis(probe_interval_ms)),
        },
    );
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
        replicas.len()
    );
    server.wait();
}
