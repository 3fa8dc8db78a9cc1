//! Every workload in one command: child processes, the metric table,
//! `out/results.json`, and the A/A comparison.

use crate::workload::{self, Metric, Workload, END_TO_END, PER_LAYER};
use crate::{stats, Args};
use serde_json::{json, Value};
use std::io;
use std::process::Command;

/// One child run, parsed.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    input_digest: String,
    outcome_digest: String,
    violations: Vec<String>,
    /// The box's speed during an end-to-end run (1.0 = the reference box).
    box_speed: Option<f64>,
    /// Reported value per metric (median over the run's own reps).
    values: Value,
    /// The rep samples behind each value.
    samples: Value,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Runs one workload in a process of its own and parses what it prints.
fn child(workload: &Workload, args: &Args, traced: bool) -> io::Result<Run> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = Run {
        correct: false,
        attempted: 0,
        failed: 0,
        input_digest: String::new(),
        outcome_digest: String::new(),
        violations: Vec::new(),
        box_speed: None,
        values: Value::Null,
        samples: Value::Null,
    };
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("input_digest ") {
            run.input_digest = d.to_string();
        } else if let Some(d) = line.strip_prefix("outcome_digest ") {
            run.outcome_digest = d.to_string();
        } else if let Some(s) = line.strip_prefix("box_speed ") {
            run.box_speed = s.parse().ok();
        } else if let Some(v) = line.strip_prefix("violation ") {
            run.violations.push(v.to_string());
        } else if line.starts_with('{') {
            let value: Value = serde_json::from_str(line)
                .map_err(|e| invalid(format!("{}: bad result line: {e}", workload.name)))?;
            if let Some(samples) = value.get("samples") {
                run.samples = samples.clone();
            } else {
                run.correct = value.get("correct") == Some(&Value::Bool(true));
                run.attempted = value.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                run.failed = value.get("failed").and_then(Value::as_u64).unwrap_or(0);
                run.values = value.get("metrics").cloned().unwrap_or(Value::Null);
            }
        }
    }
    if run.values == Value::Null {
        return Err(invalid(format!(
            "{} (trace {}) exited with {} and no result line",
            workload.name,
            u8::from(traced),
            output.status
        )));
    }
    Ok(run)
}

fn value_of(run: &Run, metric: &Metric) -> f64 {
    run.values
        .get(metric.name)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

fn samples_of(run: &Run, metric: &Metric) -> Vec<f64> {
    run.samples
        .get(metric.name)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// `workload metric value unit` lines plus the JSON record of one run's
/// metrics: median over reps, min, quartiles, rep count.
fn tabulate(workload: &Workload, run: &Run, metrics: &[Metric]) -> Value {
    let mut record = Vec::new();
    for metric in metrics {
        let value = value_of(run, metric);
        let invalid = if run.correct { "" } else { "  INVALID" };
        println!(
            "{} {} {} {}{invalid}",
            workload.name, metric.name, value, metric.unit
        );
        let samples = samples_of(run, metric);
        let (q1, q3) = stats::quartiles(&samples).unwrap_or((value, value));
        record.push((
            metric.name.to_string(),
            json!({
                "value": value,
                "unit": metric.unit,
                "valid": run.correct,
                "reps": samples.len(),
                "min": stats::min(&samples),
                "q1": q1,
                "q3": q3
            }),
        ));
    }
    Value::Object(record)
}

/// What the numbers were measured on.
fn machine() -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let meminfo = read("/proc/meminfo");
    let mem_kb = meminfo
        .lines()
        .find(|l| l.starts_with("MemTotal"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .unwrap_or(0);
    json!({
        "cpu": cpu,
        "cores": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "memory_mb": mem_kb / 1024,
        "kernel": read("/proc/sys/kernel/osrelease").trim(),
        "parallel_workers": crate::run::parallel_workers()
    })
}

/// Whether `b` is worse than `a` by more than the metric's bound, and
/// the relative gap (positive = worse).
fn regression(metric: &Metric, a: f64, b: f64) -> (f64, bool) {
    let gap = if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    (gap, gap.is_nan() || gap > metric.bound)
}

pub fn run_all(args: &Args) -> io::Result<bool> {
    let selected: Vec<&Workload> = workload::WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    let mut ok = true;
    let mut records = Vec::new();
    for workload in selected {
        eprintln!("# {}: end to end (tracing off)", workload.name);
        let first = child(workload, args, false)?;
        println!("{} input_digest {}", workload.name, first.input_digest);
        println!("{} outcome_digest {}", workload.name, first.outcome_digest);
        if let Some(speed) = first.box_speed {
            println!("{} box_speed {speed}", workload.name);
        }
        let mut record = vec![
            ("why".to_string(), json!(workload.why)),
            ("input_digest".to_string(), json!(first.input_digest)),
            ("outcome_digest".to_string(), json!(first.outcome_digest)),
            ("box_speed".to_string(), json!(first.box_speed)),
            ("attempted".to_string(), json!(first.attempted)),
            ("failed".to_string(), json!(first.failed)),
            (
                "end_to_end".to_string(),
                tabulate(workload, &first, &END_TO_END),
            ),
        ];
        let mut violations = first.violations.clone();
        ok &= first.correct && first.failed == 0;

        if args.aa {
            eprintln!("# {}: end to end again (A/A)", workload.name);
            let second = child(workload, args, false)?;
            ok &= second.correct && second.failed == 0;
            violations.extend(second.violations.iter().cloned());
            let same_inputs = first.input_digest == second.input_digest
                && first.outcome_digest == second.outcome_digest;
            if !same_inputs {
                violations.push("A/A runs disagree on the input or outcome digest".into());
            }
            let mut rows = Vec::new();
            for metric in &END_TO_END {
                let (a, b) = (value_of(&first, metric), value_of(&second, metric));
                let (gap, worse) = regression(metric, a, b);
                let (_, worse_back) = regression(metric, b, a);
                let pass = !(worse || worse_back);
                println!(
                    "{} {} A/A {a} vs {b} {}: gap {:+.2} % of bound {:.0} % -> {}",
                    workload.name,
                    metric.name,
                    metric.unit,
                    gap * 100.0,
                    metric.bound * 100.0,
                    if pass { "pass" } else { "FAIL" }
                );
                ok &= pass;
                rows.push((
                    metric.name.to_string(),
                    json!({ "a": a, "b": b, "gap": gap, "bound": metric.bound, "pass": pass }),
                ));
            }
            ok &= same_inputs;
            record.push(("aa".to_string(), Value::Object(rows)));
        } else {
            eprintln!("# {}: per layer (tracing on)", workload.name);
            let traced = child(workload, args, true)?;
            ok &= traced.correct && traced.failed == 0;
            violations.extend(traced.violations.iter().cloned());
            if traced.input_digest != first.input_digest
                || traced.outcome_digest != first.outcome_digest
            {
                violations.push("traced and untraced runs disagree on a digest".into());
                ok = false;
            }
            record.push((
                "per_layer".to_string(),
                tabulate(workload, &traced, &PER_LAYER),
            ));
        }
        for violation in &violations {
            println!("{} VIOLATION {violation}", workload.name);
        }
        record.push(("violations".to_string(), json!(violations)));
        records.push((workload.name.to_string(), Value::Object(record)));
    }
    let results = json!({
        "machine": machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": Value::Object(records)
    });
    std::fs::create_dir_all("benchmark/out")?;
    let text = serde_json::to_string_pretty(&results).map_err(|e| invalid(e.to_string()))?;
    std::fs::write("benchmark/out/results.json", text + "\n")?;
    eprintln!(
        "# wrote benchmark/out/results.json; {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}
