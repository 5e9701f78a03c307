//! The repository benchmark: seeded DRTP workloads driven through the
//! public APIs of drt-net, drt-sim, drt-core and drt-proto by one caller
//! thread in a closed loop. See `README.md` beside this crate.
//!
//! ```text
//! drt-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! The last line of standard output is the result as one JSON object.

mod bench;
mod churn;
mod host;
mod metrics;
mod ops;
mod paper;
mod signalling;
mod stats;
mod trace;

use bench::Report;
use std::process::ExitCode;

/// The paper's master seed (`ExperimentConfig::paper`).
const DEFAULT_SEED: u64 = 2001;

const WORKLOADS: &[&str] = &["paper-replay", "failure-churn", "signalling"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .order
        .iter()
        .map(|name| {
            let v = &r.metrics[name];
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.value, v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let (report, tracer) = match args.workload.as_str() {
        "paper-replay" => bench::run(|tr| paper::setup(seed, tr), secs, trace),
        "failure-churn" => bench::run(|tr| churn::setup(seed, tr), secs, trace),
        "signalling" => bench::run(|tr| signalling::setup(seed, tr), secs, trace),
        _ => unreachable!("validated by parse"),
    };

    if let (true, Some(path)) = (trace, &args.trace_out) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            tracer.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
        println!("# spans written to {path}");
    }
    println!(
        "# workload {} seed {seed} seconds {secs} trace {}",
        args.workload, trace as u8
    );
    for line in &report.info {
        println!("# {line}");
    }
    for p in &report.problems {
        println!("# INCORRECT: {p}");
    }
    for name in &report.order {
        let v = &report.metrics[name];
        let better = metrics::better(name).map_or("", |b| b.as_str());
        println!(
            "{name:<44} {:>16.6} {:<6} {better:<6} {}",
            v.value, v.unit, v.note
        );
    }
    println!("{}", json_line(&report));
    // Incorrect outputs are a result, carried by `correct`; a non-zero
    // exit means the benchmark could not run.
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload signalling --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("signalling", 7, 3.0, true)
        );
        let a = args("--workload paper-replay").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 10.0, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload signalling --trace 2").is_err());
        assert!(args("--workload signalling --seconds 0").is_err());
        assert!(args("--workload signalling --seed").is_err());
    }
}
