//! Guards the committed criterion-shim baselines
//! (`crates/bench/BENCH_baseline.json`): the file must parse, cover
//! the headline serving-path benches, and hold internally-consistent
//! timings — so perf PRs always have a reference to compare against.

use serde::json::Value;

fn baseline() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("BENCH_baseline.json is committed");
    serde::json::parse(&text).expect("BENCH_baseline.json parses")
}

#[test]
fn baseline_covers_the_headline_benches() {
    let root = baseline();
    let benches = root.get("benches").expect("benches object");
    for name in [
        "nn/embed_paper_model",
        "nn/embed_batch/8",
        "nn/embed_batch/64",
        "core/knn_query/10000",
        "core/ivf_query/10000",
    ] {
        let entry = benches
            .get(name)
            .unwrap_or_else(|| panic!("baseline missing {name}"));
        let min: f64 = match entry.get("min_ns") {
            Some(Value::Int(v)) => *v as f64,
            Some(Value::Float(v)) => *v,
            other => panic!("{name}: bad min_ns {other:?}"),
        };
        let mean: f64 = match entry.get("mean_ns") {
            Some(Value::Int(v)) => *v as f64,
            Some(Value::Float(v)) => *v,
            other => panic!("{name}: bad mean_ns {other:?}"),
        };
        let max: f64 = match entry.get("max_ns") {
            Some(Value::Int(v)) => *v as f64,
            Some(Value::Float(v)) => *v,
            other => panic!("{name}: bad max_ns {other:?}"),
        };
        assert!(min > 0.0, "{name}: non-positive min");
        assert!(
            min <= mean && mean <= max,
            "{name}: min/mean/max disordered"
        );
    }
    // The pinned machine profile is recorded alongside the numbers.
    let profile = root.get("profile").expect("profile object");
    assert!(profile.get("cpu").is_some());
    assert!(profile.get("command").is_some());
}

#[test]
fn baseline_batched_embedding_amortizes() {
    // The committed numbers must tell the story the refactor shipped:
    // per-trace cost at batch 64 sits well below the single-trace
    // embed bench (the batch entry times the *whole* batch).
    let root = baseline();
    let benches = root.get("benches").expect("benches object");
    let mean = |name: &str| -> f64 {
        match benches.get(name).and_then(|e| e.get("mean_ns")) {
            Some(Value::Int(v)) => *v as f64,
            Some(Value::Float(v)) => *v,
            other => panic!("{name}: bad mean_ns {other:?}"),
        }
    };
    let single = mean("nn/embed_paper_model");
    let batch64 = mean("nn/embed_batch/64") / 64.0;
    assert!(
        batch64 < 0.75 * single,
        "batched per-trace cost {batch64:.0}ns does not amortize vs single {single:.0}ns"
    );
}
