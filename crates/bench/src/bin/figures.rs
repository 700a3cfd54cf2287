//! Regenerate the paper's tables and figures as text series.
//!
//! ```text
//! figures [--sf 0.05] [--k 32] [--threads N] [--seed S] [--csv DIR] [all | table1 fig3 ... headline]
//! ```
//!
//! An unknown experiment name is an error: the binary exits with status 2
//! before generating any data.

use laqy_bench::{run_experiment, BenchConfig, ALL};

fn main() {
    let mut cfg = BenchConfig::default();
    let mut names: Vec<String> = Vec::new();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => {
                csv_dir = Some(
                    args.next()
                        .expect("--csv expects a directory argument")
                        .into(),
                )
            }
            "--sf" => cfg.sf = expect_num(&mut args, "--sf"),
            "--k" => cfg.k = expect_num::<f64>(&mut args, "--k") as usize,
            "--k-micro" => cfg.k_micro = expect_num::<f64>(&mut args, "--k-micro") as usize,
            "--threads" => cfg.threads = expect_num::<f64>(&mut args, "--threads") as usize,
            "--seed" => cfg.seed = expect_num::<f64>(&mut args, "--seed") as u64,
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = ALL.iter().map(|s| s.to_string()).collect();
    }
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| !ALL.contains(n))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s) {} (known: {})",
            unknown.join(", "),
            ALL.join(", ")
        );
        std::process::exit(2);
    }

    eprintln!(
        "# LAQy figure harness: sf={} (~{} fact rows), k={}, k_micro={}, threads={}, seed={}",
        cfg.sf,
        (6_000_000.0 * cfg.sf) as u64,
        cfg.k,
        cfg.k_micro,
        cfg.threads,
        cfg.seed
    );
    eprintln!("# generating SSB data...");
    let catalog = cfg.catalog();
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create --csv directory");
    }
    for name in &names {
        let fig = run_experiment(name, &cfg, &catalog).expect("names checked against ALL");
        println!("{}", fig.render());
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{}.csv", fig.id));
            std::fs::write(&path, fig.to_csv()).expect("write csv");
            eprintln!("# wrote {}", path.display());
        }
    }
}

fn expect_num<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} expects a numeric argument"))
}

fn print_help() {
    let d = BenchConfig::default();
    println!(
        "figures — regenerate the LAQy paper's tables and figures\n\n\
         usage: figures [options] [experiment ...]\n\n\
         options:\n  --sf F        SSB scale factor (default {})\n  \
         --k N         sequence reservoir capacity (default {})\n  \
         --k-micro N   microbenchmark reservoir capacity (default {})\n  \
         --threads N   worker threads (default: all cores)\n  \
         --seed S      RNG seed\n  \
         --csv DIR     also write each figure as DIR/<id>.csv\n\n\
         experiments: {} or `all` (default)",
        d.sf,
        d.k,
        d.k_micro,
        ALL.join(", ")
    );
}
