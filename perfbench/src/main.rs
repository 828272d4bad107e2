//! Benchmark command:
//!
//! ```text
//! perfbench --workload <rerank|serve|graph-road> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of the metrics, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits with 1 when
//! a correctness check failed and 2 on a usage error.

use std::process::ExitCode;

use perfbench::{run_workload, RunConfig, WORKLOADS};

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|s| cfg.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| cfg.seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => {
                    cfg.trace = false;
                    true
                }
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(outcome) = run_workload(&workload, cfg) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    for failure in &outcome.check_failures {
        eprintln!("check failed: {failure}");
    }
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
