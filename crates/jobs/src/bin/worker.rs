//! `leakage-job-worker`: one sweep-fabric worker process.
//!
//! Two ways in, one session (`leakage_jobs::transport`):
//!
//! * **local** (no arguments): stdin is one end of a Unix socket pair
//!   the coordinator created when it spawned this process. The worker
//!   reads the job hello and assignments from it and writes frames back
//!   on it, heartbeating meanwhile, and exits 0 when the coordinator
//!   closes its end.
//! * **remote** (`--connect ADDR`): dials a coordinator's
//!   `--job-listen` socket, admits itself with `--token`, heartbeats
//!   every `--hb-ms`, and redials with jittered backoff when the link
//!   drops. Run this on other machines to lend them to the fabric.
//!
//! All real logic lives in the library; this binary parses flags and
//! maps a failed session to a non-zero exit.

use std::time::Duration;

use leakage_jobs::{run_local_worker, run_remote_worker, RemoteWorkerConfig};

const USAGE: &str = "usage: leakage-job-worker [--connect ADDR [--token T] [--hb-ms N] [--max-dials N]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let served = if args.is_empty() {
        run_local_worker()
    } else {
        match parse_remote(&args) {
            Ok(config) => run_remote_worker(config),
            Err(err) => {
                eprintln!("leakage-job-worker: {err}\n{USAGE}");
                std::process::exit(2);
            }
        }
    };
    if let Err(err) = served {
        eprintln!("leakage-job-worker: {err}");
        std::process::exit(1);
    }
}

fn parse_remote(args: &[String]) -> Result<RemoteWorkerConfig, String> {
    let mut addr = None;
    let mut token = None;
    let mut hb_ms = None;
    let mut max_dials = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--connect" => addr = Some(value("--connect")?),
            "--token" => token = Some(value("--token")?),
            "--hb-ms" => {
                hb_ms = Some(
                    value("--hb-ms")?
                        .parse::<u64>()
                        .map_err(|_| "--hb-ms must be an integer".to_string())?,
                );
            }
            "--max-dials" => {
                max_dials = Some(
                    value("--max-dials")?
                        .parse::<u64>()
                        .map_err(|_| "--max-dials must be an integer".to_string())?,
                );
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let addr = addr.ok_or_else(|| "--connect is required in remote mode".to_string())?;
    let mut config = RemoteWorkerConfig::dial(&addr);
    config.token = token;
    if let Some(ms) = hb_ms {
        config.heartbeat_every = Duration::from_millis(ms.max(1));
    }
    if max_dials.is_some() {
        config.max_dials = max_dials;
    }
    Ok(config)
}
