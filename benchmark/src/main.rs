//! The busprobe benchmark. See `README.md`.
//!
//! With `--workload NAME --trace 0|1` this is one run, as the driver
//! calls it: the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Without `--trace` it
//! runs every (or the named) workload, each run in a child process of
//! its own — telemetry is a process global and allocator state must not
//! leak between workloads — prints every metric as
//! `workload metric value unit`, writes `benchmark/out/results.json`,
//! and exits non-zero if any correctness check failed.

mod alloc;
mod boxspeed;
mod loadgen;
mod report;
mod run;
mod span;
mod stats;
mod sut;
mod trace;
mod workload;

use serde_json::{json, Value};
use std::process::ExitCode;
use workload::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub aa: bool,
    pub manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: None,
        aa: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload::find(name).is_none() {
            let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; one of {names:?}"));
        }
    }
    Ok(args)
}

/// One run in this process. Prints the digests, the per-rep samples and,
/// last, the result line.
fn single_run(name: &str, seed: u64, seconds: f64, traced: bool) -> std::io::Result<bool> {
    let workload = workload::find(name).expect("validated by parse_args");
    let scratch = run::Scratch::new()?;
    let (outcome, metrics): (run::Outcome, &[Metric]) = if traced {
        (
            trace::traced(workload, seed, seconds, &scratch)?,
            &PER_LAYER,
        )
    } else {
        (
            run::end_to_end(workload, seed, seconds, &scratch)?,
            &END_TO_END,
        )
    };
    drop(scratch);

    println!("input_digest {:016x}", outcome.input_digest);
    println!("outcome_digest {:016x}", outcome.outcome_digest);
    if let Some(speed) = outcome.box_speed {
        println!("box_speed {speed}");
    }
    for violation in &outcome.violations {
        println!("violation {violation}");
    }
    let samples: Vec<(String, Value)> = outcome
        .samples
        .iter()
        .map(|(name, values)| (name.to_string(), json!(values)))
        .collect();
    println!("{}", json!({ "samples": Value::Object(samples) }));

    let values: Vec<(String, Value)> = metrics
        .iter()
        .map(|m| {
            let value = outcome.value(m).unwrap_or(f64::NAN);
            (
                m.name.to_string(),
                json!({ "value": value, "unit": m.unit }),
            )
        })
        .collect();
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": outcome.attempted.max(1),
            "failed": outcome.failed,
            "metrics": Value::Object(values)
        })
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        println!(
            "{}",
            serde_json::to_string_pretty(&workload::manifest()).expect("manifest serializes")
        );
        return ExitCode::SUCCESS;
    }
    let ok = match (&args.workload, args.trace) {
        (Some(name), Some(traced)) => single_run(name, args.seed, args.seconds, traced),
        (None, Some(_)) => Err(std::io::Error::other("--trace needs --workload")),
        _ => report::run_all(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
