//! Run results: the human report, the one-line JSON result, and the
//! result record that compare mode reads.

use crate::spec::{self, Workload};
use koios_common::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Everything one run measured.
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Operations whose replies were checked, plus audit and rebuild
    /// checks.
    pub attempted: u64,
    /// Checked operations that failed: non-200, rejected, timed out, or a
    /// wrong result.
    pub failed: u64,
    /// Human-readable descriptions of the first failures.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, usize>,
    notes: BTreeMap<&'static str, String>,
    /// Free-form lines printed with the report (tail percentile chosen,
    /// span totals, and so on).
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Self {
        Report {
            workload,
            seed,
            trace,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
            notes: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::unit_of(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Records a metric value with the number of samples behind it.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    /// Marks a metric as not applicable to this workload: it reads 0 and
    /// the report says why.
    pub fn absent(&mut self, name: &'static str, why: &str) {
        self.set(name, 0.0);
        self.notes.insert(name, why.to_string());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one checked operation, failing it with `why` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(why());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the JSON line carries: every end-to-end metric in an
    /// untraced run, every per-layer metric in a traced one.
    fn json_metrics(&self) -> Result<Json, String> {
        let list = if self.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            fields.push((
                name,
                Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj(fields))
    }

    /// The one-line result: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Result<Json, String> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", self.json_metrics()?),
        ]))
    }

    /// The report lines: every measured metric by name with its unit and
    /// sample count, then the notes and free-form lines.
    pub fn human(&self) -> String {
        let mut out = format!(
            "kbench {} seed={} trace={}\n",
            self.workload.name(),
            self.seed,
            self.trace as u8
        );
        let lists: [&[spec::MetricSpec]; 3] =
            [spec::END_TO_END, spec::REPORTED_ONLY, spec::PER_LAYER];
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in lists.iter().flat_map(|l| l.iter()) {
            let Some(v) = self.get(name) else { continue };
            if !seen.insert(name) {
                continue;
            }
            let mut line = format!("  {name:<36} {v:>14.6} {unit}");
            if let Some(n) = self.samples.get(name) {
                line.push_str(&format!("  (n={n})"));
            }
            if let Some(why) = self.notes.get(name) {
                line.push_str(&format!("  [absent: {why}]"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!(
            "  checks: attempted={} failed={}\n",
            self.attempted, self.failed
        ));
        for f in &self.failures {
            out.push_str(&format!("  FAILED: {f}\n"));
        }
        for l in &self.lines {
            out.push_str(&format!("  {l}\n"));
        }
        out
    }

    /// Appends this run's record (workload, seed, trace flag, the JSON
    /// result and every measured value) to `<dir>/<workload>.jsonl`.
    pub fn append_record(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let all = Json::obj(self.values.iter().map(|(k, v)| (*k, Json::num(*v))));
        let result = self
            .result_json()
            .unwrap_or_else(|e| Json::obj([("error", Json::str(e))]));
        let record = Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("result", result),
            ("values", all),
        ]);
        let path = dir.join(format!("{}.jsonl", self.workload.name()));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", record.encode())
    }
}
