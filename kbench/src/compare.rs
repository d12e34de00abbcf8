//! `kbench compare`: parent against change, per workload and metric.
//!
//! Input is two groups of result records (the `<workload>.jsonl` files
//! runs append to `.bench_out/results/`, or directories of them). For each
//! workload and metric the report prints each side's median and quartiles,
//! the share of pairs the change wins (ties count for neither), the change
//! of the median as a share of the parent's median, and a verdict by the
//! bounds in `BENCHMARK.json`:
//!
//! * `improved`: the change wins at least 9 of 10 pairs and the medians
//!   differ by more than the parent's own quartile spread;
//! * `worse`: the change's median is worse than the parent's by more than
//!   the bound;
//! * `unresolved`: either side's quartile spread exceeds the bound, and
//!   not every change run beats every parent run;
//! * `unchanged`: otherwise.
//!
//! Per-layer metrics have no bound: they are `improved`, `worse` (the
//! mirror of improved) or `unresolved`.

use crate::stats::{median, quartiles};
use koios_common::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricRule {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: Option<f64>,
}

/// One run: its seed and metric values.
#[derive(Debug, Clone)]
pub struct Run {
    pub seed: u64,
    pub values: BTreeMap<String, f64>,
}

/// Reads the metric rules of one list (`end_to_end` or `per_layer`).
pub fn rules(bench: &Json, list: &str) -> Result<Vec<MetricRule>, String> {
    let items = bench
        .get(list)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {list:?} list"))?;
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(MetricRule {
                name: s("name").ok_or("metric without a name")?,
                unit: s("unit").ok_or("metric without a unit")?,
                lower_is_better: match s("better").as_deref() {
                    Some("lower") => true,
                    Some("higher") => false,
                    other => return Err(format!("bad \"better\": {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn record_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        files.sort();
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

/// Loads the records under `path` with the given trace flag, grouped by
/// workload, in file order.
pub fn load(path: &Path, trace: bool) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for file in record_files(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let rec =
                Json::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), i + 1))?;
            if rec.get("trace").and_then(Json::as_bool) != Some(trace) {
                continue;
            }
            let workload = rec
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}:{}: no workload", file.display(), i + 1))?;
            let metrics = rec
                .get("result")
                .and_then(|r| r.get("metrics"))
                .ok_or_else(|| format!("{}:{}: no result metrics", file.display(), i + 1))?;
            let Json::Obj(fields) = metrics else {
                return Err(format!(
                    "{}:{}: metrics is not an object",
                    file.display(),
                    i + 1
                ));
            };
            let values = fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            out.entry(workload.to_string()).or_default().push(Run {
                seed: rec.get("seed").and_then(Json::as_u64).unwrap_or(0),
                values,
            });
        }
    }
    Ok(out)
}

/// Pairs parent and change runs: runs of the same seed first (in order),
/// then the rest by position.
fn pairs(parent: &[f64], p_seeds: &[u64], change: &[f64], c_seeds: &[u64]) -> Vec<(f64, f64)> {
    let mut used_c = vec![false; change.len()];
    let mut used_p = vec![false; parent.len()];
    let mut out = Vec::new();
    for (i, ps) in p_seeds.iter().enumerate() {
        if let Some(j) = (0..change.len()).find(|&j| !used_c[j] && c_seeds[j] == *ps) {
            used_c[j] = true;
            used_p[i] = true;
            out.push((parent[i], change[j]));
        }
    }
    let rest_p = (0..parent.len()).filter(|&i| !used_p[i]);
    let rest_c = (0..change.len()).filter(|&j| !used_c[j]);
    out.extend(rest_p.zip(rest_c).map(|(i, j)| (parent[i], change[j])));
    out
}

/// The verdict for one metric (see the module docs).
pub fn verdict(
    rule: &MetricRule,
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
) -> &'static str {
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return "unresolved";
    };
    let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let spread = |xs: &[f64], m: f64| match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => f64::INFINITY,
    };
    let parent_iqr = quartiles(parent).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    let losses = pairs.iter().filter(|(p, c)| better(*p, *c)).count();
    let n = pairs.len().max(1) as f64;
    if wins as f64 >= 0.9 * n && (cm - pm).abs() > parent_iqr && better(cm, pm) {
        return "improved";
    }
    let Some(bound) = rule.bound else {
        if losses as f64 >= 0.9 * n && (cm - pm).abs() > parent_iqr && better(pm, cm) {
            return "worse";
        }
        return "unresolved";
    };
    let worse_by = if rule.lower_is_better {
        cm - pm
    } else {
        pm - cm
    };
    if worse_by > bound * pm.abs() {
        return "worse";
    }
    let all_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    if (spread(parent, pm) > bound || spread(change, cm) > bound) && !all_better {
        return "unresolved";
    }
    "unchanged"
}

fn fmt_side(xs: &[f64]) -> String {
    match (median(xs), quartiles(xs)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", xs.len()),
        (Some(m), None) => format!("{m:.6} n={}", xs.len()),
        _ => "no runs".to_string(),
    }
}

/// Compares two groups of runs; returns the report and whether any bounded
/// metric got worse.
pub fn compare(
    rules: &[MetricRule],
    parent: &BTreeMap<String, Vec<Run>>,
    change: &BTreeMap<String, Vec<Run>>,
) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for (workload, p_runs) in parent {
        let Some(c_runs) = change.get(workload) else {
            out.push_str(&format!("{workload}: no change runs\n"));
            continue;
        };
        out.push_str(&format!("{workload}\n"));
        for rule in rules {
            let side = |runs: &[Run]| -> (Vec<f64>, Vec<u64>) {
                runs.iter()
                    .filter_map(|r| r.values.get(&rule.name).map(|v| (*v, r.seed)))
                    .unzip()
            };
            let (pv, ps) = side(p_runs);
            let (cv, cs) = side(c_runs);
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let pr = pairs(&pv, &ps, &cv, &cs);
            let v = verdict(rule, &pv, &cv, &pr);
            any_worse |= v == "worse" && rule.bound.is_some();
            let better = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
            let wins = pr.iter().filter(|(p, c)| better(*c, *p)).count();
            let (pm, cm) = (median(&pv).unwrap_or(0.0), median(&cv).unwrap_or(0.0));
            let delta = if pm != 0.0 {
                format!(
                    "{:+.2}% of parent median {pm:.6}",
                    (cm - pm) / pm.abs() * 100.0
                )
            } else {
                "parent median is 0".to_string()
            };
            out.push_str(&format!(
                "  {:<36} {:<6} parent {} | change {} | {delta} | change wins {wins}/{} pairs | bound {} | {v}\n",
                rule.name,
                rule.unit,
                fmt_side(&pv),
                fmt_side(&cv),
                pr.len(),
                rule.bound.map_or("none".to_string(), |b| format!("{b}")),
            ));
        }
    }
    (out, any_worse)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut parent = None;
    let mut change = None;
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("kbench compare: {flag} needs a value");
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--bench" => bench = PathBuf::from(value),
            "--trace" => trace = value == "1",
            other => {
                eprintln!("kbench compare: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(parent), Some(change)) = (parent, change) else {
        eprintln!("kbench compare: --parent and --change are required");
        return ExitCode::from(2);
    };
    let result = (|| {
        let text =
            std::fs::read_to_string(&bench).map_err(|e| format!("{}: {e}", bench.display()))?;
        let bench = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let rules = rules(&bench, if trace { "per_layer" } else { "end_to_end" })?;
        Ok::<_, String>(compare(
            &rules,
            &load(&parent, trace)?,
            &load(&change, trace)?,
        ))
    })();
    match result {
        Ok((report, any_worse)) => {
            print!("{report}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("kbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(bound: Option<f64>) -> MetricRule {
        MetricRule {
            name: "latency_p50_ms".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn zip(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let r = rule(Some(0.1));
        assert_eq!(
            verdict(&r, &parent, &faster, &zip(&parent, &faster)),
            "improved"
        );
        assert_eq!(
            verdict(&r, &parent, &slower, &zip(&parent, &slower)),
            "worse"
        );
        assert_eq!(
            verdict(&r, &parent, &same, &zip(&parent, &same)),
            "unchanged"
        );
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            verdict(&r, &noisy, &same, &zip(&noisy, &same)),
            "unresolved"
        );
        let unbounded = rule(None);
        assert_eq!(
            verdict(&unbounded, &parent, &same, &zip(&parent, &same)),
            "unresolved"
        );
        assert_eq!(
            verdict(&unbounded, &parent, &slower, &zip(&parent, &slower)),
            "worse"
        );
    }

    #[test]
    fn pairs_match_seeds_first() {
        let p = pairs(&[1.0, 2.0, 3.0], &[5, 6, 7], &[30.0, 10.0], &[7, 5]);
        assert_eq!(p, vec![(1.0, 10.0), (3.0, 30.0)]);
    }
}
