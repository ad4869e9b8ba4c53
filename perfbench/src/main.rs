//! One benchmark for the proteus store: four workloads, end-to-end metrics
//! from untraced runs, per-layer metrics from a traced run. See README.md.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|smoke] [--steady <runs>]
//! ```

mod engine;
mod ingest;
mod measure;
mod oracle;
mod replay;
mod report;
mod settled;
mod store;
mod workloads;

use report::{Metric, Outcome};
use settled::Ctx;
use std::process::ExitCode;
use workloads::Size;

const USAGE: &str = "usage: perfbench --workload <seek-empty|scan-recent|ingest-mixed|all> \
--seed <n> --seconds <s> --trace <0|1> [--size full|smoke] [--steady <runs>]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    steady: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        steady: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {val:?}: {what}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad("not a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--size" => {
                a.size = match val.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("must be full or smoke")),
                }
            }
            "--steady" => {
                a.steady = val.parse().map_err(|_| bad("not a whole number"))?;
                if !(2..=50).contains(&a.steady) {
                    return Err(bad("must be 2..=50 runs"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.workload == "all" && a.steady > 0 {
        return Err("--steady takes one workload".into());
    }
    Ok(a)
}

fn run_workload(name: &str, args: &Args, ctx: &Ctx) -> Outcome {
    let (seed, size) = (args.seed, args.size);
    match name {
        "seek-empty" => settled::run(&workloads::seek_empty(seed, size), ctx),
        "scan-recent" => settled::run(&workloads::scan_recent(seed, size), ctx),
        "ingest-mixed" => ingest::run(&workloads::ingest_mixed(seed, size), ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Run one workload and print its result; returns whether every answer
/// was right.
fn run_one(name: &str, args: &Args, root: &std::path::Path) -> bool {
    let ctx = Ctx {
        root: root.join(name),
        seconds: args.seconds,
        trace: args.trace,
        setups: if args.size == Size::Full { 3 } else { 1 },
    };
    let mut out = run_workload(name, args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.root);
    let (e2e, lat) = report::end_to_end(&out);
    let mut total = std::mem::take(&mut out.phase);
    total.absorb(std::mem::take(&mut out.extra));
    println!(
        "workload {name}: seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "attempted {} failed {} wrong {} (measured phase: {} ops)",
        total.attempted, total.failed, total.wrong, lat.samples
    );
    if let Some(p) = &total.first_problem {
        println!("first problem: {p}");
    }
    if let Some((p, v)) = lat.tail {
        println!("tail: p{p} = {v:.2} us over {} samples", lat.samples);
    }
    let metrics: Vec<Metric> = if args.trace {
        for m in &out.layers {
            if m.name.starts_with("trace.") {
                println!("tracing overhead: {} = {:.3} {}", m.name, m.value, m.unit);
            }
        }
        out.layers
    } else {
        e2e
    };
    let correct = total.wrong == 0;
    report::print(total.attempted, total.failed, correct, &metrics);
    correct
}

/// Steadiness mode: run one workload `runs` times, each in its own process
/// with its own seed, and print each metric's median, quartiles and
/// quartile spread over the median.
fn steady(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_share = Vec::new();
    for i in 0..args.steady {
        let seed = args.seed + i as u64;
        let size = if args.size == Size::Full { "full" } else { "smoke" };
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .args(["--size", size])
            .output()
            .expect("run the benchmark");
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            eprintln!(
                "run {i} (seed {seed}) failed:\n{text}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            return ExitCode::FAILURE;
        }
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["METRIC", name, value, unit] => {
                    let v: f64 = value.parse().unwrap_or(f64::NAN);
                    match values.iter_mut().find(|(n, _, _)| n == name) {
                        Some((_, _, vs)) => vs.push(v),
                        None => values.push((name.to_string(), unit.to_string(), vec![v])),
                    }
                }
                ["attempted", a, "failed", f, ..] => {
                    let (a, f): (f64, f64) = (a.parse().unwrap_or(1.0), f.parse().unwrap_or(0.0));
                    failed_share.push(f / a);
                }
                _ => {}
            }
        }
        eprintln!("run {}/{} (seed {seed}) done", i + 1, args.steady);
    }
    println!(
        "steadiness of {} over {} runs (seeds {}..{}):",
        args.workload,
        args.steady,
        args.seed,
        args.seed + args.steady as u64 - 1
    );
    println!("{:<34} {:>12} {:>12} {:>12} {:>8}  unit", "metric", "median", "q1", "q3", "spread");
    for (name, unit, v) in &values {
        let (q1, q3) = measure::quartiles(v);
        println!(
            "{name:<34} {:>12.4} {q1:>12.4} {q3:>12.4} {:>8.4}  {unit}",
            measure::median(v),
            measure::spread(v)
        );
    }
    println!("failed share per run: {failed_share:?}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.steady > 0 {
        return steady(&args);
    }
    // Everything the store writes stays inside the working directory.
    let root = std::env::current_dir()
        .expect("a working directory")
        .join(".perfbench-data")
        .join(std::process::id().to_string());
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        correct &= run_one(name, &args, &root);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(root.parent().expect("the data root has a parent"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn flags_are_strict() {
        let a = args("--workload seek-empty --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.size), (7, 10.0, true, Size::Full));
        assert!(args("--workload seek-empty --sed 7").is_err(), "typo'd flag");
        assert!(args("--workload nope").is_err());
        assert!(args("--workload seek-empty --trace 2").is_err());
        assert!(args("--workload seek-empty --seconds").is_err());
        assert!(args("--workload all --steady 5").is_err());
    }
}
