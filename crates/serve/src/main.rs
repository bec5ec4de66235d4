//! `rock-serve` — serve fitted ROCK model snapshots over HTTP.
//!
//! ```text
//! rock-cluster --input data.csv --k 8 --theta 0.7 --save-model m.rockmodel
//! rock-serve --model m.rockmodel --addr 127.0.0.1:7700
//! curl -s http://127.0.0.1:7700/label -d '{"record":["a","b","c"]}'
//! ```
//!
//! `--model` is repeatable and takes `NAME=PATH` (a bare `PATH` mounts
//! as `default`), so one process can serve many models:
//!
//! ```text
//! rock-serve --model votes.rockmodel --model mushroom=m2.rockmodel
//! curl -s http://127.0.0.1:7700/models/mushroom/label -d '{"items":[0,3]}'
//! ```
//!
//! More models can be uploaded (or hot-swapped, atomically) at runtime
//! through `POST /admin/models/{name}` with the `rock-model/v1` text as
//! the request body.
//!
//! The server runs until **stdin closes** (ctrl-D, or the supervisor
//! closing the pipe) — the dependency-free stand-in for a SIGTERM
//! handler, which would require `unsafe` signal code the workspace
//! forbids. On shutdown it drains in-flight requests and flushes the
//! final `rock-serve-metrics/v1` document to `--metrics` (or stderr).
//!
//! Exit codes match `rock-cluster`: 0 ok, 2 usage, 3 I/O, 4 malformed
//! snapshot, 5 invalid configuration.

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rock_core::snapshot::ModelSnapshot;
use rock_serve::registry::{Registry, DEFAULT_MODEL};
use rock_serve::server::{flush_metrics, ServeConfig, Server};

/// Parsed command line.
#[derive(Debug)]
struct Options {
    /// `(registry name, snapshot path)` mounts, in flag order.
    models: Vec<(String, PathBuf)>,
    metrics: Option<PathBuf>,
    config: ServeConfig,
}

const USAGE: &str = "\
usage: rock-serve --model [NAME=]<path> [options]

  --model [NAME=]<path> rock-model/v1 snapshot to serve (repeatable;
                        bare paths mount as \"default\"; required)
  --addr <host:port>    bind address            [default 127.0.0.1:7700]
  --threads <n>         worker threads, 0 = one per CPU  [default 4]
  --queue <n>           accept-queue capacity   [default 64]
  --deadline-ms <n>     per-request deadline    [default 1000]
  --max-body <bytes>    request body limit      [default 1048576]
  --admin-max-body <bytes>
                        /admin/ body limit (snapshot uploads)
                        [default 67108864]
  --metrics <path>      write final metrics JSON here (default: stderr)
  --trace <path>        write a rock-trace/v1 NDJSON event stream here
                        (serve.request/serve.batch/serve.swap spans;
                        analyze with rock-trace)
  --slow-ms <n>         flag requests slower than this in the trace
                        [default 100]

The server shuts down gracefully when stdin reaches EOF.";

/// Splits a `--model` value into `(name, path)`; bare paths mount as
/// the default model. The name is validated here so a typo fails at
/// startup, not at first request.
fn parse_model_mount(value: &str) -> Result<(String, PathBuf), String> {
    let (name, path) = match value.split_once('=') {
        Some((name, path)) => (name.to_owned(), path),
        None => (DEFAULT_MODEL.to_owned(), value),
    };
    if !Registry::valid_name(&name) {
        return Err(format!(
            "invalid model name {name:?} in --model (1-64 chars of [A-Za-z0-9._-])\n{USAGE}"
        ));
    }
    if path.is_empty() {
        return Err(format!("--model {value:?} has an empty path\n{USAGE}"));
    }
    Ok((name, PathBuf::from(path)))
}

fn parse_args<I: Iterator<Item = String>>(mut args: I) -> Result<Options, String> {
    let mut models: Vec<(String, PathBuf)> = Vec::new();
    let mut metrics: Option<PathBuf> = None;
    let mut config = ServeConfig {
        addr: "127.0.0.1:7700".into(),
        ..ServeConfig::default()
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--model" => {
                let mount = parse_model_mount(&value("--model")?)?;
                if models.iter().any(|(name, _)| *name == mount.0) {
                    return Err(format!("duplicate --model name {:?}\n{USAGE}", mount.0));
                }
                models.push(mount);
            }
            "--addr" => config.addr = value("--addr")?,
            "--threads" => {
                config.threads = value("--threads")?
                    .parse()
                    .map_err(|_| format!("--threads expects an integer\n{USAGE}"))?;
            }
            "--queue" => {
                config.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|_| format!("--queue expects an integer\n{USAGE}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| format!("--deadline-ms expects an integer\n{USAGE}"))?;
                config.deadline = Duration::from_millis(ms);
            }
            "--max-body" => {
                config.max_body = value("--max-body")?
                    .parse()
                    .map_err(|_| format!("--max-body expects an integer\n{USAGE}"))?;
            }
            "--admin-max-body" => {
                config.admin_max_body = value("--admin-max-body")?
                    .parse()
                    .map_err(|_| format!("--admin-max-body expects an integer\n{USAGE}"))?;
            }
            "--metrics" => metrics = Some(PathBuf::from(value("--metrics")?)),
            "--trace" => config.trace = Some(PathBuf::from(value("--trace")?)),
            "--slow-ms" => {
                let ms: u64 = value("--slow-ms")?
                    .parse()
                    .map_err(|_| format!("--slow-ms expects an integer\n{USAGE}"))?;
                config.slow_request = Duration::from_millis(ms);
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if models.is_empty() {
        return Err(format!("--model is required\n{USAGE}"));
    }
    Ok(Options {
        models,
        metrics,
        config,
    })
}

fn run(opts: &Options) -> rock_core::Result<()> {
    let registry = Arc::new(Registry::new());
    for (name, path) in &opts.models {
        let snapshot = ModelSnapshot::load(path)?;
        eprintln!(
            "rock-serve: mounted {name} from {} ({} clusters, {} representatives, theta {})",
            path.display(),
            snapshot.num_clusters(),
            snapshot.representatives().total(),
            snapshot.theta(),
        );
        registry.install(name, snapshot)?;
    }
    let handle = Server::start_with_registry(registry, opts.config.clone())?;
    eprintln!("rock-serve: listening on {}", handle.addr());
    eprintln!("rock-serve: close stdin (ctrl-D) to shut down");

    // Block until stdin closes; every read is discarded. This is the
    // shutdown signal — see the module docs.
    let mut sink = [0u8; 4096];
    let mut stdin = std::io::stdin().lock();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }

    eprintln!("rock-serve: stdin closed, draining");
    let final_metrics = handle.shutdown();
    flush_metrics(&final_metrics, opts.metrics.as_deref())?;
    eprintln!("rock-serve: bye");
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn requires_model() {
        assert!(parse(&[]).unwrap_err().contains("--model is required"));
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--model",
            "m.rockmodel",
            "--model",
            "votes=v.rockmodel",
            "--addr",
            "0.0.0.0:9000",
            "--threads",
            "8",
            "--queue",
            "128",
            "--deadline-ms",
            "250",
            "--max-body",
            "4096",
            "--admin-max-body",
            "8192",
            "--metrics",
            "serve.json",
            "--trace",
            "serve.trace",
            "--slow-ms",
            "40",
        ])
        .unwrap();
        assert_eq!(
            o.models,
            vec![
                (DEFAULT_MODEL.to_owned(), PathBuf::from("m.rockmodel")),
                ("votes".to_owned(), PathBuf::from("v.rockmodel")),
            ]
        );
        assert_eq!(o.config.addr, "0.0.0.0:9000");
        assert_eq!(o.config.threads, 8);
        assert_eq!(o.config.queue_capacity, 128);
        assert_eq!(o.config.deadline, Duration::from_millis(250));
        assert_eq!(o.config.max_body, 4096);
        assert_eq!(o.config.admin_max_body, 8192);
        assert_eq!(o.metrics, Some(PathBuf::from("serve.json")));
        assert_eq!(o.config.trace, Some(PathBuf::from("serve.trace")));
        assert_eq!(o.config.slow_request, Duration::from_millis(40));
    }

    #[test]
    fn model_mounts_validate_names_and_reject_duplicates() {
        assert!(parse(&["--model", "bad name=m.rockmodel"])
            .unwrap_err()
            .contains("invalid model name"));
        assert!(parse(&["--model", "votes="])
            .unwrap_err()
            .contains("empty path"));
        assert!(parse(&["--model", "a.rockmodel", "--model", "b.rockmodel"])
            .unwrap_err()
            .contains("duplicate --model name"));
        // NAME=PATH with '=' inside the path splits on the first '='.
        let o = parse(&["--model", "m=a=b.rockmodel"]).unwrap();
        assert_eq!(
            o.models,
            vec![("m".to_owned(), PathBuf::from("a=b.rockmodel"))]
        );
    }

    #[test]
    fn rejects_unknown_and_unparsable_flags() {
        assert!(parse(&["--model", "m", "--wat"]).is_err());
        for flag in ["--batch-max", "--batch-wait-us", "--accept-shards"] {
            let err = parse(&["--model", "m", flag, "8"]).unwrap_err();
            assert!(err.contains("unknown flag"), "{flag}: {err}");
        }
        assert!(parse(&["--model", "m", "--threads", "many"]).is_err());
        assert!(parse(&["--model"]).is_err());
    }

    #[test]
    fn missing_snapshot_maps_to_io_error() {
        let opts = parse(&["--model", "/nonexistent/void.rockmodel"]).unwrap();
        let err = run(&opts).unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }
}
