//! Command line of the benchmark.
//!
//! ```text
//! laqy-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! laqy-benchmark agree [--runs <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! laqy-benchmark spec
//! ```
//!
//! Exit code 0: the run completed and every check passed. 1: it
//! completed and printed `"correct": false`, or `agree` failed. 2: it
//! could not be carried out (bad arguments, set-up failure); no result
//! line is printed.

use std::path::PathBuf;
use std::process::ExitCode;

use laqy_benchmark::agree::{agree, AgreeArgs};
use laqy_benchmark::run::{run, RunArgs};
use laqy_benchmark::spec::{benchmark_json, Scale, Workload, RUN_SECONDS};

const USAGE: &str =
    "usage: laqy-benchmark --workload <explore_q1|explore_q2|serve_hot|serve_ingest> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
       laqy-benchmark agree [--runs <n>] [--seconds <s>] [--smoke] [--out <dir>]
       laqy-benchmark spec";

/// `--key value` pairs and bare `--flags`, in any order.
struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name}: `{v}` is not a valid number"))
            })
            .transpose()
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn main_inner() -> Result<bool, String> {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.0.first().is_some_and(|a| a == "spec") {
        print!("{}", benchmark_json().encode_pretty());
        return Ok(true);
    }
    let sub_agree = args.0.first().is_some_and(|a| a == "agree");
    if sub_agree {
        args.0.remove(0);
    }
    let smoke = args.flag("--smoke");
    let seconds = args.number::<u64>("--seconds")?.unwrap_or(RUN_SECONDS);
    let out_dir = PathBuf::from(
        args.value("--out")?
            .unwrap_or_else(|| "benchmark/out".to_string()),
    );
    if sub_agree {
        let runs = args.number::<usize>("--runs")?.unwrap_or(5);
        args.finish()?;
        if runs < 2 {
            return Err("--runs must be at least 2 (quartiles need two samples)".to_string());
        }
        return agree(&AgreeArgs {
            runs,
            seconds,
            smoke,
            out_dir,
        });
    }
    let workload = args
        .value("--workload")?
        .ok_or_else(|| "--workload is required".to_string())?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = args.number::<u64>("--seed")?.unwrap_or(1);
    let trace = match args.number::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    args.finish()?;
    let report = run(&RunArgs {
        workload,
        seed,
        scale: if smoke {
            Scale::smoke()
        } else {
            Scale::committed(seconds)
        },
        trace,
        out_dir,
    })?;
    report.print(trace);
    Ok(report.correct())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("laqy-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
