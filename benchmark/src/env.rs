//! The environment header printed before every result, so two records
//! are comparable or visibly not.

use std::path::Path;

use crate::json::Json;
use crate::spec::{Scale, Workload, CLIENTS, ENGINE_THREADS};

/// Everything about a run that is not a measurement.
#[derive(Debug, Clone)]
pub struct Header {
    /// `(key, value)` lines in print order.
    pub fields: Vec<(String, String)>,
}

impl Header {
    /// Collect the header for one run. `op_counts` is the per-class op
    /// count of the fixed list (`queries=…, ingests=…`).
    pub fn collect(
        workload: Workload,
        seed: u64,
        trace: bool,
        scale: &Scale,
        op_counts: &str,
        out_dir: &Path,
    ) -> Header {
        let clients = match workload {
            Workload::ExploreQ1 | Workload::ExploreQ2 => "1 in-process driver thread".to_string(),
            Workload::ServeHot | Workload::ServeIngest => {
                format!("{CLIENTS} closed-loop TCP connections, 1 tenant")
            }
        };
        let fields = [
            ("workload", workload.name().to_string()),
            ("seed", seed.to_string()),
            ("trace", u8::from(trace).to_string()),
            ("commit", git_commit()),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or_else(|_| "unknown".to_string(), |n| n.to_string()),
            ),
            ("sf", scale.sf.to_string()),
            ("k", scale.k.to_string()),
            ("engine_threads", ENGINE_THREADS.to_string()),
            ("clients", clients),
            ("ops", op_counts.to_string()),
            ("scale", format!("{scale:?}")),
            ("data_dir", out_dir.display().to_string()),
            ("data_dir_fs", filesystem_of(out_dir)),
            (
                "flush_policy",
                "shipped: WAL append + fsync before the ingest ack".to_string(),
            ),
        ];
        Header {
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Print as `# key: value` lines.
    pub fn print(&self) {
        for (k, v) in &self.fields {
            println!("# {k}: {v}");
        }
    }

    /// The header as a JSON object (for the trace file).
    pub fn json(&self) -> Json {
        Json::obj(
            self.fields
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone()))),
        )
    }
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `unknown` outside a git checkout (the driver's checkouts are not).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    for root in [".", ".."] {
        let Some(head) = read(&format!("{root}/.git/HEAD")) else {
            continue;
        };
        return match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!("{root}/.git/{reference}")).unwrap_or(head),
            None => head,
        };
    }
    "unknown".to_string()
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = std::fs::canonicalize(dir) else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
