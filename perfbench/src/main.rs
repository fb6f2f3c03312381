//! `jumpslice-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its report and, as the last line, the result
//! JSON. Exits 1 when any answer is wrong, 2 on bad arguments.

use jumpslice_perfbench::{report, run, Config, WORKLOADS};

const USAGE: &str =
    "usage: jumpslice-perfbench --workload <cold-audit|batch-criteria|serve-mixed> \
[--seed N] [--seconds S] [--trace 0|1]";

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config::new(DEFAULT_SEED, 10.0, false);
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value(i)?.clone()),
            "--seed" => cfg.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cfg.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok((workload, cfg))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&workload, &cfg);
    if !report::print(&out, &cfg) {
        std::process::exit(1);
    }
}
