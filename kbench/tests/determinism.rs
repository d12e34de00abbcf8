//! The funnel counts a later change may cite must repeat exactly at one
//! seed, and a different seed must change the inputs.

use koios_kbench::inputs::{self, Seeds};
use koios_kbench::run::run;
use koios_kbench::spec::Workload;
use std::path::PathBuf;

/// The per-layer metrics that are counts of engine work.
const COUNTS: &[&str] = &[
    "core.candidates_per_query",
    "core.em_per_hit",
    "core.no_em_share",
    "core.matrix_cells_per_hit",
    "core.support_cells_per_hit",
    "index.stream_tuples_per_query",
    "index.posting_entries_per_query",
];

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn funnel_counts_repeat_exactly_at_one_seed() {
    let first = run(Workload::OpendataVerify, 3, 0.5, true, &out_dir("det-a"));
    let second = run(Workload::OpendataVerify, 3, 6.0, true, &out_dir("det-b"));
    assert!(first.correct() && second.correct(), "{}", first.human());
    for name in COUNTS {
        let (a, b) = (first.get(name), second.get(name));
        assert!(a.is_some_and(|v| v > 0.0), "{name} was not measured");
        assert_eq!(a, b, "{name} differs between two runs at one seed");
    }
}

#[test]
fn a_different_seed_changes_the_corpus() {
    let a = inputs::twitter_corpus(Seeds::new(1));
    let b = inputs::twitter_corpus(Seeds::new(2));
    let sets = |c: &koios_datagen::corpus::Corpus| {
        c.repository
            .iter_sets()
            .map(|(_, s)| s.to_vec())
            .collect::<Vec<_>>()
    };
    assert_ne!(sets(&a), sets(&b));
    assert_eq!(sets(&a), sets(&inputs::twitter_corpus(Seeds::new(1))));
}
