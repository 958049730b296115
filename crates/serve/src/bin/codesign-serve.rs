//! The `codesign-serve` binary: a long-running co-design job server.
//!
//! ```text
//! codesign-serve [--addr HOST:PORT] [--max-queue N] [--executors N]
//!                [--max-finished N] [--store PATH]
//! ```
//!
//! Each job runs the in-process co-design flow — the shared
//! `codesign_core::pipeline` recipe — on one executor thread, streaming
//! its progress events to the client. `--store PATH` points at a
//! persistent estimate log: the server warm-starts its estimate cache
//! from it and appends new estimates after every completed job, so a
//! restart keeps every design point the server has ever priced. The
//! other flags mirror [`ServeConfig`]; defaults match
//! `ServeConfig::default()` with `--addr 127.0.0.1:8080`.

use codesign_serve::{ServeConfig, Server, ShutdownPolicy};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: codesign-serve [--addr HOST:PORT] [--max-queue N] \
                     [--executors N] [--max-finished N] [--store PATH]";

struct Options {
    addr: String,
    config: ServeConfig,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:8080".to_string(),
        config: ServeConfig::default(),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects {what}"))
        };
        match flag.as_str() {
            "--addr" => options.addr = value("a HOST:PORT")?,
            "--max-queue" => {
                options.config.max_queue = parse_count(&value("a job count")?, flag)?;
            }
            "--executors" => {
                options.config.executors = parse_count(&value("a thread count")?, flag)?;
            }
            "--max-finished" => {
                options.config.max_finished = parse_count(&value("a job count")?, flag)?;
            }
            "--store" => options.config.store = Some(PathBuf::from(value("a file path")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(options)
}

fn parse_count(text: &str, flag: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {text:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let store = options.config.store.clone();
    let mut server = match Server::bind(&options.addr, options.config) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("codesign-serve: cannot start on {}: {err}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("codesign-serve: listening on http://{}", server.addr());
    if let Some(path) = store {
        println!("codesign-serve: estimate store at {}", path.display());
    }
    // The accept loop and executors run on their own threads; block the
    // main thread until a client POSTs /admin/shutdown, then finish the
    // graceful shutdown: drain or cancel per the requested policy,
    // persist the estimate store, and join every thread.
    let policy = server.wait_shutdown_requested();
    let verb = match policy {
        ShutdownPolicy::Drain => "draining",
        ShutdownPolicy::Cancel => "cancelling",
    };
    println!("codesign-serve: shutdown requested, {verb} jobs");
    server.shutdown_with(policy);
    println!("codesign-serve: bye");
    ExitCode::SUCCESS
}
