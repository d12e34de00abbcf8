//! One benchmark run: workload dispatch and the result it prints.

use crate::report::Report;
use crate::spec::{self, Workload};
use crate::trace::Recorder;
use std::path::Path;

/// Where runs leave result records, span files and snapshots (relative to
/// the working directory, which is the repository checkout).
pub const OUT_DIR: &str = ".bench_out";

/// The set-up timings of a run: `first` (the set-up that built the served
/// system, before the window), then `setup()` again — after the window, so
/// the repeats' garbage never counts in `rss_peak_mb` — until the
/// repeat bounds in [`crate::spec`] are met. `setup` returns seconds.
pub fn setup_times(first: f64, mut setup: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = vec![first];
    while times.len() < spec::SETUP_MAX_REPEATS
        && (times.len() < spec::SETUP_MIN_REPEATS
            || times.iter().sum::<f64>() < spec::SETUP_MIN_SECONDS)
    {
        times.push(setup());
    }
    times
}

/// Runs `workload` and returns its report. Traced runs also write their
/// spans to `<out>/trace/<workload>-s<seed>.jsonl`.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, out: &Path) -> Report {
    let mut report = Report::new(workload, seed, trace);
    let mut rec = Recorder::new(trace);
    match workload {
        Workload::OpendataVerify => crate::closed::run(seed, seconds, &mut report, &mut rec),
        Workload::TwitterServeMixed => crate::serve::run(seed, seconds, &mut report, &mut rec, out),
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.set_n("error_rate", error_rate, report.attempted as usize);
    if trace {
        for (name, t) in rec.totals() {
            report.lines.push(format!(
                "span {name:<28} n={:<6} total={:>10.3} ms  self={:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let path = out
            .join("trace")
            .join(format!("{}-s{seed}.jsonl", workload.name()));
        match rec.write_jsonl(&path) {
            Ok(()) => report
                .lines
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.check(false, || format!("writing spans: {e}")),
        }
    }
    report
}
