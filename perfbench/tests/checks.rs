//! Runs every workload at a small size and asserts that the oracle and the
//! property checks pass, under a seed used while tuning the workloads and
//! under one that never was. No figure of today's output is pinned.

use geckoftl_perfbench::workload::{Scale, Workload};
use geckoftl_perfbench::{run, Options, Outcome};

/// A seed the workloads were tuned with.
const TUNING_SEED: u64 = 1;
/// A seed never used while tuning the workloads.
const HELD_OUT_SEED: u64 = 0x00C0_FFEE_D00D;

fn small(workload: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::small(),
        setups: 1,
    })
}

/// The metric names one section of `BENCHMARK.json` lists.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let end = body.find(']').expect("the section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("a quoted name")].to_string())
        .collect()
}

fn assert_clean(out: &Outcome, what: &str) {
    assert_eq!(out.failed, 0, "{what}: {:?}", out.failures);
    assert!(out.attempted > 0, "{what}: nothing attempted");
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_passes_its_checks_under_both_seeds() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for w in Workload::ALL {
        for seed in [TUNING_SEED, HELD_OUT_SEED] {
            for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
                let what = format!("{} seed {seed} trace {trace}", w.name());
                let out = small(w, seed, trace);
                assert_clean(&out, &what);
                let emitted: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(
                    &emitted, names,
                    "{what}: metrics differ from BENCHMARK.json"
                );
            }
        }
    }
}

#[test]
fn simulated_metrics_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let (a, b) = (
            small(w, HELD_OUT_SEED, false),
            small(w, HELD_OUT_SEED, false),
        );
        for name in [
            "sim_ops_per_s",
            "sim_write_mean_us",
            "sim_write_tail_us",
            "sim_read_mean_us",
            "sim_read_tail_us",
            "wa",
            "ram_kib",
            "recovery_sim_ms",
        ] {
            let (x, y) = (a.get(name).expect(name), b.get(name).expect(name));
            assert_eq!(x.to_bits(), y.to_bits(), "{} {name}: {x} vs {y}", w.name());
        }
    }
}
