//! `perfbench --workload <read-small|mixed-durable> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints a provenance line, a human summary, and as its last line the
//! JSON result. Exits 1 if any answer disagreed with the oracle, 2 on bad
//! arguments.

use perfbench::{run, Workload, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = val.parse().map_err(bad)?,
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .map_err(|_| format!("bad value `{val}` for --seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{val}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec();
    let report = run(args.workload, &spec, args.seed, args.seconds, args.trace);
    println!("{{\"provenance\": {}}}", report.provenance);
    let t = &report.tally;
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    let mut summary = format!(
        "{} seed {}: {} ops, {} failed (error_rate {error_rate}), {} wrong",
        args.workload.name(),
        args.seed,
        t.attempted,
        t.failed,
        t.wrong
    );
    for m in &report.metrics {
        summary.push_str(&format!("\n  {:<28} {:>14.3} {}", m.name, m.value, m.unit));
    }
    println!("{summary}");
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} answers disagreed with the oracle", t.wrong);
        ExitCode::from(1)
    }
}
