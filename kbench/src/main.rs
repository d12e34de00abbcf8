//! `kbench`: see the library docs and `kbench/README.md`.

use koios_kbench::spec::{self, Workload};
use koios_kbench::{compare, run, serve};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  kbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  kbench compare --parent <records> --change <records> [--bench BENCHMARK.json] [--trace 0|1]
  kbench capacity [--seed N] [--seconds S]
workloads: opendata-verify, twitter-serve-mixed";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(run::OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
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
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn run_one(workload: Workload, a: &Args) -> ExitCode {
    let report = run::run(workload, a.seed, a.seconds, a.trace, &a.out);
    print!("{}", report.human());
    if let Err(e) = report.append_record(&a.out.join("results")) {
        eprintln!("kbench: cannot write the result record: {e}");
        return ExitCode::FAILURE;
    }
    match report.result_json() {
        Ok(json) => {
            println!("{}", json.encode());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("kbench: {} correctness check(s) failed", report.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("kbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: each workload in its own process, so each reports
/// its own peak memory.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("kbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--workload" {
                it.next();
                child_args.extend(["--workload".to_string(), w.name().to_string()]);
            } else {
                child_args.push(arg.clone());
            }
        }
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("kbench: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("capacity") => {
            return match parse_run_args(&args[1..]) {
                Ok(a) => serve::capacity(a.seed, a.seconds),
                Err(e) => {
                    eprintln!("kbench: {e}\n{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {}
    }
    let a = match parse_run_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match a.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(name) => match Workload::parse(name) {
            Some(w) => run_one(w, &a),
            None => {
                eprintln!("kbench: unknown workload {name:?}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("kbench: --workload is required\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
