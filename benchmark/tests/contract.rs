//! The benchmark against its own contract: `BENCHMARK.json` matches the
//! spec tables, a smoke run of every workload emits exactly the listed
//! metrics, single-client runs repeat bit for bit, and the noise gate
//! produces its table.

use std::path::PathBuf;
use std::process::Command;

use laqy_benchmark::json::{self, Json};
use laqy_benchmark::run::{run, RunArgs};
use laqy_benchmark::spec::{benchmark_json, Scale, Workload};

const BIN: &str = env!("CARGO_BIN_EXE_laqy-benchmark");

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

fn committed_contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(contract: &Json, list: &str) -> Vec<String> {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{list}`"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("named entry")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_spec_output() {
    assert_eq!(committed_contract(), benchmark_json());
    let spec = Command::new(BIN).arg("spec").output().expect("spec runs");
    assert!(spec.status.success());
    assert_eq!(
        json::parse(&String::from_utf8_lossy(&spec.stdout)).expect("spec prints JSON"),
        benchmark_json()
    );
}

/// `--smoke` (SF 0.01, at most 10 s per run, in practice 0.1–3 s) emits exactly
/// the metric and workload names `BENCHMARK.json` lists, no more and no
/// fewer, as the last line of standard output.
#[test]
fn smoke_runs_emit_exactly_the_listed_metrics() {
    let contract = committed_contract();
    let workloads = names(&contract, "workloads");
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()),
        "the binary knows exactly the listed workloads"
    );
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let started = std::time::Instant::now();
            let output = Command::new(BIN)
                .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--smoke", "--out"])
                .arg(out_dir("smoke"))
                .output()
                .expect("benchmark runs");
            assert!(
                started.elapsed().as_secs() <= 10,
                "{workload} trace {trace} smoke run took {:?}",
                started.elapsed()
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            let keys: Vec<&str> = result
                .as_obj()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, names(&contract, list), "{workload} trace {trace}");
            for ((name, value), entry) in metrics
                .iter()
                .zip(contract.get(list).and_then(Json::as_arr).unwrap())
            {
                assert_eq!(value.get("unit"), entry.get("unit"), "{name} unit");
                assert!(
                    value.get("value").and_then(Json::as_f64).is_some(),
                    "{name} value"
                );
            }
        }
        assert!(
            out_dir("smoke")
                .join(format!("trace_{workload}.json"))
                .is_file(),
            "the traced run writes its spans"
        );
    }
}

/// Two single-client runs at one seed repeat exactly: the reuse mix
/// (`service.*_share`, from counts), the audited error and coverage and
/// the op counts are functions of the seed alone.
#[test]
fn single_client_runs_repeat_bit_for_bit() {
    for workload in [Workload::ExploreQ1, Workload::ExploreQ2] {
        let once = |trace: bool, tag: &str| {
            run(&RunArgs {
                workload,
                seed: 11,
                scale: Scale::smoke(),
                trace,
                out_dir: out_dir(tag),
            })
            .expect("smoke run completes")
        };
        let (a, b) = (once(true, "repeat-a"), once(true, "repeat-b"));
        for name in [
            "service.full_hit_share",
            "service.partial_share",
            "service.online_share",
            "service.degraded_share",
            "oracle.rel_err_p50",
        ] {
            let (x, y) = (a.metrics.get(name).unwrap(), b.metrics.get(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{name} on {}", workload.name());
        }
        assert_eq!(a.attempted, b.attempted);
        let (a, b) = (once(false, "repeat-a"), once(false, "repeat-b"));
        for name in ["ci_cover_share", "ok_share"] {
            let (x, y) = (a.metrics.get(name).unwrap(), b.metrics.get(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{name} on {}", workload.name());
        }
        let counts = |r: &laqy_benchmark::report::Report| {
            r.notes
                .iter()
                .find(|n| n.starts_with("service counts"))
                .cloned()
        };
        assert!(counts(&a).is_some());
        assert_eq!(counts(&a), counts(&b));
    }
}

#[test]
fn bad_arguments_exit_with_code_2_and_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "serve_hot", "--trace", "7"],
        &["--workload", "serve_hot", "--bogus"],
    ] {
        let output = Command::new(BIN).args(args).output().expect("runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// The noise gate runs both sets and prints one row per workload and
/// end-to-end metric. Smoke sizes are too small to promise agreement,
/// so the verdict is not asserted — only that it is one of the two.
#[test]
fn agree_prints_a_row_per_workload_and_metric() {
    let output = Command::new(BIN)
        .args(["agree", "--runs", "2", "--smoke", "--out"])
        .arg(out_dir("agree"))
        .output()
        .expect("agree runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        matches!(output.status.code(), Some(0 | 1)),
        "agree could not run:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let contract = committed_contract();
    let rows = stdout.lines().filter(|l| l.starts_with("| ")).count();
    let expected = names(&contract, "workloads").len() * names(&contract, "end_to_end").len();
    assert_eq!(
        rows,
        expected + 1,
        "header plus one row per pair:\n{stdout}"
    );
    assert!(stdout.contains("agree: PASS") || stdout.contains("agree: FAIL"));
}
