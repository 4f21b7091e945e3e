//! The benchmark's own tests, against an in-process server: generators
//! are deterministic, answers are checked for real, and a traced run's
//! counts repeat exactly with the same seed and one client.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml` runs them; the
//! `cold_large` count test is slow and ignored by default
//! (`-- --ignored` runs it).

use crate::gen::{Cycle, Inputs, Workload};
use crate::net::ServerKind;
use crate::oracle::{Observed, Oracle};
use crate::run::{self, Options};
use std::collections::BTreeMap;

fn options(seconds: f64) -> Options {
    Options {
        seconds,
        threads: 2,
        server: ServerKind::InProcess,
        out_dir: None,
    }
}

#[test]
fn generators_are_deterministic_and_follow_the_seed() {
    for w in Workload::ALL {
        let (a, b) = (Inputs::generate(w, 7), Inputs::generate(w, 7));
        assert_eq!(a.upload, b.upload, "{w:?}");
        assert_eq!(a.items, b.items, "{w:?}");
        assert_eq!(a.reads, b.reads, "{w:?}");
        assert_eq!(a.deltas, b.deltas, "{w:?}");
        assert_eq!(a.templates, b.templates, "{w:?}");
        assert_eq!(a.cache_budget, b.cache_budget, "{w:?}");
        let c = Inputs::generate(w, 8);
        assert_ne!(
            a.upload.body, c.upload.body,
            "{w:?}: the seed must change the graph"
        );
        let stream = |i: &Inputs| -> Vec<_> {
            i.reads
                .iter()
                .map(|r| (i.items[r.item].query.clone(), r.boolean))
                .collect()
        };
        assert_ne!(
            stream(&a),
            stream(&c),
            "{w:?}: the seed must change the reads"
        );
    }
}

#[test]
fn cold_reads_never_repeat() {
    let inputs = Inputs::generate(Workload::ColdLarge, 3);
    let mut seen = std::collections::HashSet::new();
    for r in &inputs.reads {
        assert!(seen.insert(&inputs.items[r.item].query), "read repeats");
    }
}

#[test]
fn cold_cycles_ask_the_same_shapes() {
    let inputs = Inputs::generate(Workload::ColdLarge, 3);
    let Cycle::Reads(n) = inputs.cycle else {
        panic!("cold_large cycles are counted in reads");
    };
    let cycles: Vec<Vec<_>> = inputs
        .reads
        .chunks_exact(n)
        .map(|c| {
            c.iter()
                .map(|r| (inputs.items[r.item].class, r.boolean))
                .collect()
        })
        .collect();
    assert!(cycles.len() > 10, "a run has room for its cycles");
    assert!(
        cycles.windows(2).all(|w| w[0] == w[1]),
        "every cycle asks the same mix"
    );
}

#[test]
fn every_response_of_a_short_run_matches_the_oracle() {
    let inputs = Inputs::generate(Workload::HotWire, 2);
    let (e2e, outcome) = run::untraced(&inputs, &options(0.5));
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.notes);
    assert!(e2e.reads > 0 && !e2e.fresh_ms.is_empty());
    let verdict = Oracle::new(&inputs).verify(&inputs, &outcome.observed);
    assert_eq!(verdict.mismatches, 0, "{:?}", verdict.notes);
    assert_eq!(verdict.checked, outcome.observed.len());
}

#[test]
fn a_wrong_answer_is_a_mismatch() {
    let inputs = Inputs::generate(Workload::HotWire, 2);
    let (_, outcome) = run::untraced(&inputs, &options(0.2));
    let mut observed = outcome.observed;
    let last = observed.last_mut().expect("the run answered something");
    *last = Observed::new(last.key, b"{\"pairs\":[[0,0]]}");
    let verdict = Oracle::new(&inputs).verify(&inputs, &observed);
    assert_eq!(verdict.mismatches, 1);
}

/// The counts a traced run must repeat exactly.
const COUNTS: [&str; 8] = [
    "prep.solution_nodes",
    "prep.source_answer_pairs",
    "algebra.answer_pairs",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.patched_deltas",
    "serve.invalidating_deltas",
    "request.template_hits",
];

fn traced_counts(w: Workload) -> BTreeMap<&'static str, f64> {
    let inputs = Inputs::generate(w, 5);
    // zero seconds: exactly one untraced and one traced pass
    let (m, outcome, _) = run::traced(&inputs, &options(0.0));
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.notes);
    COUNTS
        .iter()
        .map(|k| (*k, m.get(*k).unwrap_or_else(|| panic!("{k} missing")).0))
        .collect()
}

#[test]
fn traced_counts_repeat_on_hot_wire() {
    let first = traced_counts(Workload::HotWire);
    assert!(first["request.template_hits"] > 0.0);
    assert_eq!(first, traced_counts(Workload::HotWire));
}

#[test]
fn traced_counts_repeat_on_churn_rw() {
    let first = traced_counts(Workload::ChurnRw);
    assert!(first["serve.cache_hits"] > 0.0 && first["serve.patched_deltas"] > 0.0);
    assert_eq!(first, traced_counts(Workload::ChurnRw));
}

#[test]
#[ignore = "slow: a cold_large pass takes tens of seconds"]
fn traced_counts_repeat_on_cold_large() {
    assert_eq!(
        traced_counts(Workload::ColdLarge),
        traced_counts(Workload::ColdLarge)
    );
}
