//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics the benchmark produces.

use koios_common::Json;
use koios_kbench::spec::{self, Workload};

fn bench() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses")
}

fn names_units(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[spec::MetricSpec]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metrics_and_workloads_match_the_program() {
    let b = bench();
    assert_eq!(names_units(&b, "end_to_end"), owned(spec::END_TO_END));
    assert_eq!(names_units(&b, "per_layer"), owned(spec::PER_LAYER));
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
