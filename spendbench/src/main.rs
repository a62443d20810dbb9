//! The spend-path benchmark: three seeded workloads that drive the
//! repository's crates through their public functions and time every
//! call into a layer.
//!
//! ```text
//! spendbench --workload spend|serve|catchup|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the result object carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, and the spans are
//! written to `.spendbench-out/`. See `README.md` beside this package.

mod catchup;
mod common;
mod report;
mod serve;
mod spend;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let mut tracer = Tracer::new(Instant::now());
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let run = match name {
        "spend" => spend::run(seed, secs, trace, &mut tracer),
        "serve" => serve::run(seed, secs, trace, &mut tracer),
        "catchup" => catchup::run(seed, secs, trace, &mut tracer),
        other => return Err(format!("unknown workload {other}")),
    };
    if trace {
        let dir = std::path::Path::new(".spendbench-out");
        let path = dir.join(format!("{name}-seed{seed}.spans.tsv"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_tsv(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    }
    run.print(seed, trace, &tracer);
    Ok(run.correct())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spendbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["spend", "serve", "catchup"],
        w => vec![w],
    };
    let mut correct = true;
    for w in workloads {
        match run_workload(w, &args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("spendbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
