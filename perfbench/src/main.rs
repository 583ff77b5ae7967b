//! Runs one benchmark workload and prints its result as the last line
//! of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cold --seed 1 --seconds 10 --trace 0
//! ```

use bhive_perfbench::{build_id, repeat_counts, run, RunSpec, Workload};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: bhive-perfbench --workload corpus-cold|corpus-warm|serve-mix|calibrate --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a duration in (0, 3600] seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Caches, sockets and spans live under the directory the benchmark
    // runs from; the run's own scratch is removed when it ends.
    let base = PathBuf::from(".bench_work");
    let work = base.join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).expect("scratch directory is creatable");
    let spec = RunSpec {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        work: work.clone(),
    };
    let mut report = run(&spec);
    let key = format!(
        "{}-seed{seed}-trace{}-{:016x}",
        workload.name(),
        u8::from(trace),
        build_id()
    );
    repeat_counts(&mut report, &base.join("counts"), &key);
    let _ = std::fs::remove_dir_all(&work);

    for line in &report.notes {
        println!("# {line}");
    }
    for (name, value) in &report.counts {
        println!("# count {name}={value}");
    }
    for problem in &report.problems {
        println!("# FAILED CHECK: {problem}");
    }
    println!("{}", report.result_json(trace));
}
