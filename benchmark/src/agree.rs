//! The noise gate: two sets of runs of the same binary must agree.
//!
//! `agree` runs every workload `runs` times per set, alternating
//! workloads so drift hits all of them alike, each run with its own
//! seed and set B on seeds set A never saw. Per end-to-end metric it
//! prints both medians, both inter-quartile ranges (as Python's
//! `statistics.quantiles(values, n=4)` defines them, which is what the
//! driver uses) and the bound, and fails when a pair of medians differs
//! by more than the bound. Its output is committed as `BASELINE.md`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::{self, Json};
use crate::spec::{Workload, END_TO_END};
use crate::stats::{median, quartiles};

/// Arguments of the `agree` sub-command.
#[derive(Debug, Clone)]
pub struct AgreeArgs {
    /// Runs per workload per set (the issue asks for at least 5).
    pub runs: usize,
    /// `--seconds` handed to every run.
    pub seconds: u64,
    /// Run at smoke size (for testing the gate itself).
    pub smoke: bool,
    /// `--out` handed to every run.
    pub out_dir: std::path::PathBuf,
}

/// `values[workload][metric][set]` → samples.
type Samples = BTreeMap<(usize, usize, usize), Vec<f64>>;

fn one_run(exe: &Path, args: &AgreeArgs, workload: Workload, seed: u64) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name(), "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run failed ({}) or reported incorrect: {last}",
            workload.name(),
            output.status
        ));
    }
    Ok(result)
}

/// Run both sets and print the agreement table as markdown. Returns
/// whether every pair of medians agrees within its bound.
pub fn agree(args: &AgreeArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut samples = Samples::new();
    for set in 0..2 {
        for run in 0..args.runs {
            let seed = (set * args.runs + run + 1) as u64;
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                eprintln!(
                    "agree: set {} run {} {}",
                    ["A", "B"][set],
                    run + 1,
                    workload.name()
                );
                let result = one_run(&exe, args, workload, seed)?;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = result
                        .get("metrics")
                        .and_then(|ms| ms.get(metric.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("result lacks metric {}", metric.name))?;
                    samples.entry((w, m, set)).or_default().push(value);
                }
            }
        }
    }

    println!(
        "Two sets of {} runs per workload (`--seconds {}`{}), workloads alternating; set A on \
         seeds 1..={}, set B on seeds {}..={}. `spread` is the inter-quartile range over the \
         median; `diff` is |median B - median A| over median A. A metric passes when `diff` is \
         within its bound.\n",
        args.runs,
        args.seconds,
        if args.smoke { ", smoke size" } else { "" },
        args.runs,
        args.runs + 1,
        2 * args.runs,
    );
    println!(
        "| workload | metric | unit | median A | spread A | median B | spread B | diff | bound | |"
    );
    println!("|---|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut all_agree = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let stat = |set: usize| {
                let v = &samples[&(w, m, set)];
                let (q1, q3) = quartiles(v);
                let med = median(v);
                (med, (q3 - q1) / med.abs().max(f64::MIN_POSITIVE))
            };
            let ((med_a, spread_a), (med_b, spread_b)) = (stat(0), stat(1));
            let diff = (med_b - med_a).abs() / med_a.abs().max(f64::MIN_POSITIVE);
            let agrees = diff <= metric.bound;
            all_agree &= agrees;
            let verdict = match (agrees, spread_a.max(spread_b) * 3.0 <= metric.bound) {
                (false, _) => "FAIL",
                (true, true) => "ok",
                (true, false) => "ok (spread above a third of the bound)",
            };
            println!(
                "| {} | {} | {} | {:.6} | {:.2} % | {:.6} | {:.2} % | {:.2} % | {:.2} % | {} |",
                workload.name(),
                metric.name,
                metric.unit,
                med_a,
                spread_a * 100.0,
                med_b,
                spread_b * 100.0,
                diff * 100.0,
                metric.bound * 100.0,
                verdict,
            );
        }
    }
    println!(
        "\n{}",
        if all_agree {
            "agree: PASS — every pair of medians is within its bound."
        } else {
            "agree: FAIL — at least one pair of medians differs by more than its bound."
        }
    );
    Ok(all_agree)
}
