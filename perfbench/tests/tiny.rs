//! A tiny campaign of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names is emitted with its unit, no layer's self time
//! exceeds the traced campaign's wall clock, and nothing is left in the
//! scratch directory.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use dpl_obs::Json;
use dpl_perfbench::{keyrec, library, run, tvla, RunOptions, RunResult, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Array(entries)) = json.field(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    let text_of = |entry: &Json, key: &str| -> String {
        entry
            .field(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{section} entry without a {key}"))
            .to_string()
    };
    entries
        .iter()
        .map(|entry| (text_of(entry, "name"), text_of(entry, "unit")))
        .collect()
}

/// Runs are serialised: each checks that it leaves no scratch directory.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_tiny(workload: Workload, trace: bool) -> RunResult {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let result = run(&RunOptions {
        workload,
        seed: 20_051_017,
        seconds: 0.0,
        trace,
    })
    .expect("run completes");
    assert!(
        result.correct(),
        "{} failed checks: {:?}",
        workload.name(),
        result.checks.failures
    );
    assert!(result.checks.attempted > 0);
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    let emitted: BTreeMap<String, String> = result
        .metrics
        .iter()
        .map(|(name, m)| (name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        emitted,
        expected,
        "{} metrics differ from BENCHMARK.json",
        workload.name()
    );
    for (name, m) in &result.metrics {
        assert!(m.value.is_finite(), "{name} = {}", m.value);
    }
    if trace {
        let wall = result.metrics["trace.wall_s"].value;
        for (name, m) in &result.metrics {
            if m.unit == "s" && name.ends_with("_s") {
                assert!(
                    m.value <= wall,
                    "{name} = {} s exceeds wall_s = {wall} s",
                    m.value
                );
            }
        }
        let coverage = result.metrics["trace.coverage"].value;
        // Layer times add up to at most the wall clock (up to rounding).
        assert!(
            coverage > 0.0 && coverage <= 1.0 + 1e-9,
            "coverage {coverage}"
        );
        let file = result
            .trace_file
            .as_ref()
            .expect("a traced run writes spans");
        std::fs::remove_file(file).expect("span file exists");
    } else {
        for name in [
            "wall_s",
            "setup_s",
            "capture_traces_per_s",
            "assess_traces_per_s",
        ] {
            assert!(result.metrics[name].value > 0.0, "{name} is not positive");
        }
    }
    // The run's scratch directory is gone: runs are serialised, so no
    // directory of this process may remain.
    let own = format!("run-{}-", std::process::id());
    let leftovers: Vec<_> = std::fs::read_dir(dpl_perfbench::host::SCRATCH_ROOT)
        .map(|dir| {
            dir.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with(&own))
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    result
}

const KEYREC: Workload = Workload::KeyrecOocF64(keyrec::Size {
    traces: 1 << 16,
    warmup: 1 << 13,
});

const TVLA: Workload = Workload::TvlaCompactShards(tvla::Size {
    traces: 1 << 17,
    warmup: 1 << 14,
});

const LIBRARY: Workload = Workload::LibraryToMtd(library::Size {
    kinds: 2,
    circuits: 2,
    mtd_grid: &[25, 50, 100, 200, 400, 800, 1600, 3200],
});

#[test]
fn keyrec_ooc_f64_emits_every_metric() {
    run_tiny(KEYREC, false);
    let traced = run_tiny(KEYREC, true);
    let m = &traced.metrics;
    assert!(m["store.bytes_written"].value > 0.0);
    assert!(m["store.bytes_read"].value > m["store.bytes_written"].value);
    assert!(m["power.dpa_fold_s"].value > 0.0 && m["power.cpa_fold_s"].value > 0.0);
    assert_eq!(m["sim.events"].value, 0.0);
}

#[test]
fn tvla_compact_shards_emits_every_metric() {
    run_tiny(TVLA, false);
    let traced = run_tiny(TVLA, true);
    let m = &traced.metrics;
    assert!(m["store.encode_s"].value > 0.0);
    assert!(m["eval.tvla1_fold_s"].value > 0.0 && m["eval.tvla2_fold_s"].value > 0.0);
    assert!(m["store.shard_skew"].value >= 1.0);
}

#[test]
fn library_to_mtd_emits_every_metric() {
    run_tiny(LIBRARY, false);
    let traced = run_tiny(LIBRARY, true);
    let m = &traced.metrics;
    assert!(m["sim.events"].value > 0.0);
    assert_eq!(m["core.fc_cells"].value, 4.0, "2 cells x {{fc, enhanced}}");
    assert!(m["verify.bdd_nodes"].value > 0.0);
    assert_eq!(m["store.bytes_written"].value, 0.0);
}
