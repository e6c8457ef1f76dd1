//! One end-to-end benchmark for DataSpread.
//!
//! ```text
//! perfbench --workload <interactive|recalc> --seed <n> --seconds <s> --trace <0|1>
//!           [--work <dir>] [--rustc <version>] [--git-rev <rev>]
//! ```
//!
//! `--trace 0` drives the workload closed-loop through the user-facing
//! surface and prints every end-to-end metric. `--trace 1` does the same
//! and then replays the workload's tape at successively lower entry
//! points (`RemoteSession`, durable `Session`, in-memory `Session`,
//! `SheetEngine`, `HybridSheet`) to peel off per-layer numbers. Either way
//! the last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the exit code is non-zero if a correctness
//! gate failed.

mod layers;
mod report;
mod stats;
mod tape;
mod target;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, SETUPS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    rustc: String,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".perfbench_work"),
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--work" => args.work = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--git-rev" => args.git_rev = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: args
            .work
            .join(format!("{}-{}", args.workload, std::process::id())),
    };
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    report::host(
        args.workload.as_str(),
        args.seed,
        args.seconds,
        args.trace,
        &args.rustc,
        &args.git_rev,
    );
    // A traced run sets up once: its set-up figure is not reported.
    let setups = if args.trace { 1 } else { SETUPS };
    let outcome = workloads::run(&args.workload, &ctx, setups);
    let result = outcome.and_then(|(outcome, data)| {
        let e2e = report::end_to_end(&args.workload, &outcome);
        if !args.trace {
            return Ok(report::finish(&outcome, &e2e, None));
        }
        let layers = layers::peel(&args.workload, &ctx, &data, &outcome)?;
        Ok(report::finish(&outcome, &e2e, Some(&layers)))
    });
    std::fs::remove_dir_all(&ctx.work).ok();
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
