//! REPL state machine: parses dot-commands and SQL, executes against a
//! [`LaqyService`], and renders results as text tables. Kept free of I/O
//! so the whole command surface is unit-testable.

use std::fmt::Write as _;
use std::time::Duration;

use laqy::{
    approx_query, run_bounded, save_to_file, ErrorTarget, LaqyService, QueryBudget, ReuseMode,
    SessionConfig,
};
use laqy_engine::{load_csv_file, Catalog, DataType, Value};
use laqy_workload::{generate, lineorder_batch, SsbConfig};

/// How SQL statements are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// LAQy lazy sampling (default).
    Lazy,
    /// All-or-none sample caching.
    Strict,
    /// Workload-oblivious online sampling.
    Online,
    /// Exact execution.
    Exact,
}

/// The interactive shell state.
pub struct Repl {
    service: Option<LaqyService>,
    mode: ExecMode,
    k: usize,
    error_target: Option<f64>,
    budget_ms: Option<u64>,
    seed: u64,
    /// Scale factor of the loaded SSB catalog, if any — `.ingest`
    /// generates append batches against these dimension cardinalities.
    ssb_sf: Option<f64>,
    /// A running multi-tenant server started by `.serve`, if any. All
    /// socket handling lives behind the `laqy-server` API; the shell
    /// only holds the handle.
    server: Option<laqy_server::Server>,
}

impl Default for Repl {
    fn default() -> Self {
        Self::new()
    }
}

impl Repl {
    /// Fresh shell with no data loaded.
    pub fn new() -> Self {
        Self {
            service: None,
            mode: ExecMode::Lazy,
            k: 128,
            error_target: None,
            budget_ms: None,
            seed: 0xC11,
            ssb_sf: None,
            server: None,
        }
    }

    /// Handle one input line; returns the text to print. `Ok(None)` means
    /// quit.
    pub fn handle(&mut self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return Some(String::new());
        }
        if let Some(cmd) = line.strip_prefix('.') {
            return self.command(cmd);
        }
        Some(self.run_sql(line))
    }

    fn command(&mut self, cmd: &str) -> Option<String> {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        match parts.first().copied() {
            Some("quit") | Some("exit") => None,
            Some("help") => Some(HELP.to_string()),
            Some("load") => Some(self.load(&parts[1..])),
            Some("tables") => Some(self.tables()),
            Some("k") => Some(match parts.get(1).and_then(|v| v.parse::<usize>().ok()) {
                Some(k) if k > 0 => {
                    self.k = k;
                    format!("reservoir capacity k = {k}")
                }
                _ => "usage: .k <positive integer>".to_string(),
            }),
            Some("mode") => Some(match parts.get(1).copied() {
                Some("lazy") => {
                    self.mode = ExecMode::Lazy;
                    self.rebuild_service();
                    "mode = lazy (LAQy partial reuse)".into()
                }
                Some("strict") => {
                    self.mode = ExecMode::Strict;
                    self.rebuild_service();
                    "mode = strict (full-match-only caching)".into()
                }
                Some("online") => {
                    self.mode = ExecMode::Online;
                    "mode = online (workload-oblivious)".into()
                }
                Some("exact") => {
                    self.mode = ExecMode::Exact;
                    "mode = exact".into()
                }
                _ => "usage: .mode lazy|strict|online|exact".into(),
            }),
            Some("error") => Some(match parts.get(1) {
                Some(&"off") => {
                    self.error_target = None;
                    "error target off".into()
                }
                Some(v) => match v.parse::<f64>() {
                    Ok(e) if e > 0.0 => {
                        self.error_target = Some(e);
                        format!("error target = {e} (relative 95% CI half-width)")
                    }
                    _ => "usage: .error <positive float>|off".into(),
                },
                None => "usage: .error <positive float>|off".into(),
            }),
            Some("budget") => Some(match parts.get(1) {
                Some(&"off") => {
                    self.budget_ms = None;
                    "query budget off".into()
                }
                Some(v) => match v.parse::<u64>() {
                    Ok(ms) if ms > 0 => {
                        self.budget_ms = Some(ms);
                        format!("query budget = {ms} ms (degraded answers past the deadline)")
                    }
                    _ => "usage: .budget <positive ms>|off".into(),
                },
                None => "usage: .budget <positive ms>|off".into(),
            }),
            Some("faults") => Some(self.faults()),
            Some("ingest") => Some(self.ingest(parts.get(1).copied())),
            Some("stats") => Some(self.stats()),
            Some("samples") => Some(self.samples()),
            Some("concurrent") => {
                Some(self.concurrent(cmd.strip_prefix("concurrent").unwrap_or("").trim()))
            }
            Some("save") => Some(self.save(parts.get(1).copied())),
            Some("restore") => Some(self.restore(parts.get(1).copied())),
            Some("serve") => Some(self.serve(parts.get(1).copied())),
            Some("drain") => Some(self.drain()),
            Some(other) => Some(format!("unknown command `.{other}` (try .help)")),
            None => Some(HELP.to_string()),
        }
    }

    fn rebuild_service(&mut self) {
        if let Some(old) = self.service.take() {
            let catalog = old.catalog().clone();
            self.service = Some(self.make_service(catalog));
        }
    }

    fn make_service(&self, catalog: Catalog) -> LaqyService {
        LaqyService::with_config(
            catalog,
            SessionConfig {
                seed: self.seed,
                reuse_mode: if self.mode == ExecMode::Strict {
                    ReuseMode::FullMatchOnly
                } else {
                    ReuseMode::Lazy
                },
                ..Default::default()
            },
        )
    }

    fn load(&mut self, args: &[&str]) -> String {
        match args.first().copied() {
            Some("ssb") => {
                let sf: f64 = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(0.01);
                let catalog = generate(&SsbConfig {
                    scale_factor: sf,
                    seed: self.seed,
                });
                let rows = catalog
                    .table("lineorder")
                    .map(|t| t.num_rows())
                    .unwrap_or(0);
                self.service = Some(self.make_service(catalog));
                self.ssb_sf = Some(sf);
                format!("loaded SSB at SF {sf}: lineorder has {rows} rows")
            }
            Some("csv") => {
                let (Some(name), Some(path), Some(schema_str)) =
                    (args.get(1), args.get(2), args.get(3))
                else {
                    return "usage: .load csv <table> <path> <col:type,...> \
                            (types: i32|i64|f64|str)"
                        .into();
                };
                let schema = match parse_schema(schema_str) {
                    Ok(s) => s,
                    Err(e) => return e,
                };
                match load_csv_file(*name, path, &schema) {
                    Ok(table) => {
                        let rows = table.num_rows();
                        match &self.service {
                            Some(s) => s.register_table(table),
                            None => {
                                let mut catalog = Catalog::new();
                                catalog.register(table);
                                self.service = Some(self.make_service(catalog));
                                self.ssb_sf = None;
                            }
                        }
                        format!("loaded `{name}`: {rows} rows")
                    }
                    Err(e) => format!("load failed: {e}"),
                }
            }
            _ => "usage: .load ssb [sf] | .load csv <table> <path> <schema>".into(),
        }
    }

    fn tables(&self) -> String {
        match &self.service {
            None => "no data loaded (try `.load ssb 0.01`)".into(),
            Some(s) => {
                let mut out = String::new();
                let catalog = s.catalog();
                for name in catalog.table_names() {
                    let t = catalog.table(name).expect("listed table");
                    let _ = writeln!(
                        out,
                        "{name}: {} rows, {} columns ({})",
                        t.num_rows(),
                        t.num_columns(),
                        t.schema()
                            .iter()
                            .map(|(n, dt)| format!("{n}:{}", dt.name()))
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
                out
            }
        }
    }

    /// `.faults`: report fault-injection status. Injection is compiled
    /// in only under `--cfg laqy_faults`; release binaries report it as
    /// absent, with zero overhead on the hot paths.
    fn faults(&self) -> String {
        #[cfg(laqy_faults)]
        {
            format!(
                "fault injection compiled in (laqy_faults); {} fault(s) injected so far",
                laqy_faults::injected_count()
            )
        }
        #[cfg(not(laqy_faults))]
        {
            "fault injection compiled out (build with RUSTFLAGS=\"--cfg laqy_faults\")".into()
        }
    }

    /// `.ingest <rows>`: append freshly generated `lineorder` rows to
    /// the loaded SSB catalog. The batch continues the key space from
    /// the current watermark, so the grown table keeps `lo_intkey` /
    /// `lo_orderkey` unique; stored samples absorb the appended rows
    /// incrementally instead of being invalidated.
    fn ingest(&mut self, arg: Option<&str>) -> String {
        let Some(rows) = arg.and_then(|v| v.parse::<usize>().ok()).filter(|&r| r > 0) else {
            return "usage: .ingest <positive row count>".into();
        };
        let Some(sf) = self.ssb_sf else {
            return "`.ingest` extends a generated SSB catalog (try `.load ssb 0.01` first)".into();
        };
        let Some(service) = &self.service else {
            return "no data loaded (try `.load ssb 0.01`)".into();
        };
        let start = service
            .catalog()
            .table("lineorder")
            .map(|t| t.num_rows())
            .unwrap_or(0);
        let batch = lineorder_batch(
            &SsbConfig {
                scale_factor: sf,
                seed: self.seed ^ start as u64,
            },
            start,
            rows,
        );
        match service.ingest("lineorder", batch) {
            Ok(watermark) => format!(
                "appended {rows} rows to lineorder; row watermark now {watermark} \
                 (stored samples absorbed the batch in place)"
            ),
            Err(e) => format!("ingest failed: {e}"),
        }
    }

    fn stats(&self) -> String {
        match &self.service {
            None => "no data loaded (try `.load ssb 0.01`)".into(),
            Some(s) => {
                let svc = s.stats();
                let morsels = svc.morsels_skipped + svc.morsels_fast_pathed + svc.morsels_scanned;
                format!(
                    "sample store: {} samples, {:.2} MiB; mode {:?}, k {}{}{}\n\
                     scan pruning: {} morsels skipped, {} fast-pathed, {} scanned ({} total)\n\
                     coverage: {} stored fragments merged, {} residual fragments Δ-scanned\n\
                     full hits: {} answered from stored samples as they rest\n\
                     robustness: {} degraded answers, {} faults injected, {} snapshot recoveries\n\
                     streaming: {} append batches ({} rows) ingested, {} samples absorbed \
                     {} rows, {} WAL appends",
                    s.store().len(),
                    s.store().total_bytes() as f64 / (1024.0 * 1024.0),
                    self.mode,
                    self.k,
                    self.error_target
                        .map(|e| format!(", error target {e}"))
                        .unwrap_or_default(),
                    self.budget_ms
                        .map(|ms| format!(", budget {ms} ms"))
                        .unwrap_or_default(),
                    svc.morsels_skipped,
                    svc.morsels_fast_pathed,
                    svc.morsels_scanned,
                    morsels,
                    svc.fragments_reused,
                    svc.fragments_scanned,
                    svc.full_hits,
                    svc.degraded_answers,
                    svc.faults_injected,
                    svc.snapshots_recovered,
                    svc.ingest_batches,
                    svc.ingest_rows,
                    svc.absorbed_samples,
                    svc.absorbed_rows,
                    svc.wal_appends,
                )
            }
        }
    }

    /// `.samples`: list stored samples grouped by descriptor family
    /// (query input + QCS + QVS + k), showing each family's coverage
    /// fragments, and report the store's fragmentation ratio — the share
    /// of stored samples that are extra fragments of an already-covered
    /// family. 0.00 means one sample per family; values near 1.00 mean
    /// the store has shattered into many small fragments that coverage
    /// plans must stitch back together.
    fn samples(&self) -> String {
        let Some(s) = &self.service else {
            return "no data loaded (try `.load ssb 0.01`)".into();
        };
        let store = s.store();
        if store.is_empty() {
            return "sample store is empty".into();
        }
        // Group by descriptor family, preserving first-seen order.
        let mut families: Vec<(String, Vec<String>)> = Vec::new();
        for (id, stored) in store.iter() {
            let fp = stored.descriptor.fingerprint();
            let coverage = stored
                .descriptor
                .predicates
                .columns()
                .map(|c| {
                    let set = stored.descriptor.predicates.get(c).expect("listed column");
                    let parts = set
                        .intervals()
                        .iter()
                        .map(|iv| format!("[{}, {}]", iv.lo, iv.hi))
                        .collect::<Vec<_>>()
                        .join(" ∪ ");
                    format!("{c} ∈ {parts}")
                })
                .collect::<Vec<_>>()
                .join(", ");
            let line = format!(
                "  sample {:?}: {} ({} strata, {} bytes)",
                id,
                if coverage.is_empty() {
                    "unconstrained".to_string()
                } else {
                    coverage
                },
                stored.sample.num_strata(),
                stored.bytes(),
            );
            match families.iter_mut().find(|(f, _)| *f == fp) {
                Some((_, lines)) => lines.push(line),
                None => families.push((fp, vec![line])),
            }
        }
        let total = store.len();
        let fragmentation = (total - families.len()) as f64 / total as f64;
        let mut out = String::new();
        for (fp, lines) in &families {
            let _ = writeln!(out, "{fp} — {} fragment(s)", lines.len());
            for line in lines {
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = writeln!(
            out,
            "{total} sample(s) in {} family(ies), fragmentation ratio {fragmentation:.2}",
            families.len(),
        );
        out
    }

    /// `.concurrent <threads> <sql>`: run the same approximate query from
    /// N client threads sharing the loaded service's sample store, then report
    /// per-client reuse outcomes and the service's dedup counters.
    fn concurrent(&mut self, args: &str) -> String {
        const USAGE: &str = ".concurrent <threads 1..=64> <sql>";
        let Some(service) = &self.service else {
            return "no data loaded (try `.load ssb 0.01`)".into();
        };
        let mut split = args.splitn(2, char::is_whitespace);
        let clients = match split.next().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if (1..=64).contains(&n) => n,
            _ => return format!("usage: {USAGE}"),
        };
        let sql = split.next().unwrap_or("").trim();
        if sql.is_empty() {
            return format!("usage: {USAGE}");
        }
        let query = match approx_query(&service.catalog(), sql, self.k) {
            Ok(q) => q,
            Err(e) => return format!("error: {e}"),
        };
        let before = service.stats();
        let t = std::time::Instant::now();
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let service = service.clone();
                    let query = &query;
                    scope.spawn(move || service.run(query).map(|r| r.stats.reuse))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t.elapsed();
        if let Some(Err(e)) = outcomes.iter().find(|o| o.is_err()) {
            return format!("error: {e}");
        }
        let count = |class| {
            outcomes
                .iter()
                .filter(|o| matches!(o, Ok(Some(c)) if *c == class))
                .count()
        };
        let after = service.stats();
        format!(
            "{clients} clients in {wall:?}: {} full, {} partial, {} online\n\
             scans performed {} (Δ {}, online {}), deduped {}, merge retries {}\n\
             store: {} samples, {} bytes",
            count(laqy::ReuseClass::Full),
            count(laqy::ReuseClass::Partial),
            count(laqy::ReuseClass::Online),
            after.scans_performed() - before.scans_performed(),
            after.delta_scans - before.delta_scans,
            after.online_scans - before.online_scans,
            after.scans_deduped() - before.scans_deduped(),
            after.merge_retries - before.merge_retries,
            service.store().len(),
            service.store().total_bytes(),
        )
    }

    fn save(&self, path: Option<&str>) -> String {
        let Some(path) = path else {
            return "usage: .save <path>".into();
        };
        match &self.service {
            None => "no data loaded (try `.load ssb 0.01`)".into(),
            Some(s) => {
                // Crash-safe write: tmp file + fsync + rename via the
                // persistence layer, never an in-place overwrite.
                let store = s.store();
                match save_to_file(&store, path) {
                    Ok(()) => format!("saved {} samples to {path} (atomic)", store.len()),
                    Err(e) => format!("save failed: {e}"),
                }
            }
        }
    }

    fn restore(&mut self, path: Option<&str>) -> String {
        let Some(path) = path else {
            return "usage: .restore <path>".into();
        };
        let Some(service) = &self.service else {
            return "load data first, then restore samples".into();
        };
        match std::fs::read(path) {
            Err(e) => format!("read failed: {e}"),
            Ok(bytes) => match service.import_samples(&bytes) {
                Ok(()) => format!("restored {} samples", service.store().len()),
                Err(e) => format!("restore failed: {e}"),
            },
        }
    }

    /// `.serve [addr]`: expose the loaded catalog as a multi-tenant TCP
    /// service (default `127.0.0.1:0` — an OS-assigned port, printed).
    /// Each tenant gets its own namespaced sample store seeded from the
    /// shell's catalog; admission control sheds overload with typed
    /// `Overloaded` responses. `.drain` stops it gracefully.
    fn serve(&mut self, addr: Option<&str>) -> String {
        if self.server.is_some() {
            return "a server is already running (`.drain` to stop it)".into();
        }
        let Some(service) = &self.service else {
            return "no data loaded (try `.load ssb 0.01`)".into();
        };
        let config = laqy_server::ServerConfig {
            addr: addr.unwrap_or("127.0.0.1:0").to_string(),
            seed: self.seed,
            ..Default::default()
        };
        match laqy_server::Server::start(service.catalog().clone(), config) {
            Ok(server) => {
                let bound = server.addr();
                self.server = Some(server);
                format!("serving on {bound} (multi-tenant; `.drain` for graceful shutdown)")
            }
            Err(e) => format!("serve failed: {e}"),
        }
    }

    /// `.drain`: graceful shutdown of the `.serve` server — stop
    /// admissions, wait out in-flight queries, snapshot WAL-backed
    /// tenants, and report per-tenant outcomes.
    fn drain(&mut self) -> String {
        let Some(server) = self.server.take() else {
            return "no server running (`.serve` starts one)".into();
        };
        let report = server.shutdown();
        let mut out = format!(
            "drained {} tenant(s); in-flight work {}",
            report.tenants,
            if report.idle { "finished" } else { "timed out" },
        );
        for (tenant, outcome) in &report.snapshots {
            let _ = write!(
                out,
                "\n  {tenant}: {}",
                match outcome {
                    Ok(gen) => format!("snapshot generation {gen}"),
                    Err(e) => format!("snapshot failed: {e}"),
                }
            );
        }
        out
    }

    fn run_sql(&mut self, sql: &str) -> String {
        let Some(service) = &self.service else {
            return "no data loaded (try `.load ssb 0.01`)".into();
        };
        if self.mode == ExecMode::Exact {
            // Exact path accepts SQL without a BETWEEN range.
            let plan = match laqy_engine::sql::plan(&service.catalog(), sql) {
                Ok(p) => p,
                Err(e) => return format!("error: {e}"),
            };
            let t = std::time::Instant::now();
            return match laqy_engine::execute_exact(&service.catalog(), &plan, 1) {
                Ok((result, _)) => {
                    let mut out = render_exact(&result);
                    let _ = writeln!(
                        out,
                        "({} rows, exact, {:?})",
                        result.rows.len(),
                        t.elapsed()
                    );
                    out
                }
                Err(e) => format!("error: {e}"),
            };
        }

        let query = match approx_query(&service.catalog(), sql, self.k) {
            Ok(q) => q,
            Err(e) => return format!("error: {e}"),
        };
        let outcome = match (self.mode, self.error_target) {
            (ExecMode::Online, _) => service.run_online_oblivious(&query),
            (_, Some(target)) => {
                return match run_bounded(service, &query, &ErrorTarget::relative(target)) {
                    Ok(b) => {
                        let mut out = render_approx(service, &query, &b.result);
                        let _ = writeln!(
                            out,
                            "({} groups, reuse {}, k {} after {} attempt(s), worst rel err {:.4}{}, {:?})",
                            b.result.groups.len(),
                            b.result.stats.reuse.map(|r| r.label()).unwrap_or("?"),
                            b.k_used,
                            b.attempts,
                            b.worst_relative_error,
                            if b.met { "" } else { " — TARGET NOT MET" },
                            b.result.stats.total
                        );
                        out
                    }
                    Err(e) => format!("error: {e}"),
                };
            }
            _ => match self.budget_ms {
                Some(ms) => service.run_with_budget(
                    &query,
                    QueryBudget::with_deadline(Duration::from_millis(ms)),
                ),
                None => service.run(&query),
            },
        };
        match outcome {
            Ok(result) => {
                let mut out = render_approx(service, &query, &result);
                let _ = writeln!(
                    out,
                    "({} groups, reuse {}, {:?})",
                    result.groups.len(),
                    result.stats.reuse.map(|r| r.label()).unwrap_or("?"),
                    result.stats.total
                );
                if let Some(deg) = &result.stats.degraded {
                    let _ = writeln!(
                        out,
                        "DEGRADED ({}): coverage {:.2}, CIs widened ×{:.2}",
                        deg.reason.label(),
                        deg.coverage,
                        deg.ci_inflation
                    );
                }
                out
            }
            Err(e) => format!("error: {e}"),
        }
    }
}

fn parse_schema(spec: &str) -> Result<laqy_engine::CsvSchema, String> {
    spec.split(',')
        .map(|part| {
            let (name, ty) = part
                .split_once(':')
                .ok_or_else(|| format!("bad schema entry `{part}` (want name:type)"))?;
            let dt = match ty {
                "i32" => DataType::Int32,
                "i64" => DataType::Int64,
                "f64" => DataType::Float64,
                "str" => DataType::Dict,
                other => return Err(format!("unknown type `{other}` (i32|i64|f64|str)")),
            };
            Ok((name.to_string(), dt))
        })
        .collect()
}

const MAX_ROWS: usize = 20;

fn render_approx(
    service: &LaqyService,
    query: &laqy::ApproxQuery,
    result: &laqy::ApproxResult,
) -> String {
    let keys = service.decode_keys(query, result).unwrap_or_else(|_| {
        result
            .groups
            .iter()
            .map(|g| g.key.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    });
    let mut header: Vec<String> = query
        .plan
        .group_by
        .iter()
        .map(|c| c.column.clone())
        .collect();
    for (i, a) in query.plan.aggs.iter().enumerate() {
        header.push(format!("{:?}#{i} ±95%", a.kind).to_lowercase());
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (g, key) in result.groups.iter().zip(keys.iter()).take(MAX_ROWS) {
        let mut row: Vec<String> = key.iter().map(|v| v.to_string()).collect();
        for est in &g.values {
            if est.ci_half_width.is_nan() {
                row.push(format!("{:.2}", est.value));
            } else {
                row.push(format!("{:.2} ± {:.2}", est.value, est.ci_half_width));
            }
        }
        rows.push(row);
    }
    let mut out = render_table(&header, &rows);
    if result.groups.len() > MAX_ROWS {
        let _ = writeln!(out, "... ({} more groups)", result.groups.len() - MAX_ROWS);
    }
    out
}

fn render_exact(result: &laqy_engine::QueryResult) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .take(MAX_ROWS)
        .map(|r| {
            r.key
                .iter()
                .map(|v| v.to_string())
                .chain(r.values.iter().map(|v| format!("{v:.2}")))
                .collect()
        })
        .collect();
    let width = rows.first().map(|r| r.len()).unwrap_or(0);
    let header: Vec<String> = (0..width).map(|i| format!("col{i}")).collect();
    let mut out = render_table(&header, &rows);
    if result.rows.len() > MAX_ROWS {
        let _ = writeln!(out, "... ({} more rows)", result.rows.len() - MAX_ROWS);
    }
    out
}

/// Render an aligned text table.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let _ = writeln!(out, "{}", fmt_row(header, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1))
    );
    for r in rows {
        let _ = writeln!(out, "{}", fmt_row(r, &widths));
    }
    out
}

const HELP: &str = "\
laqy-cli — approximate SQL shell
  .load ssb [sf]                     generate Star Schema Benchmark data
  .load csv <table> <path> <schema>  import a CSV (schema: name:i64,name:str,...)
  .tables                            list tables
  .k <n>                             reservoir capacity per stratum (default 128)
  .mode lazy|strict|online|exact     execution mode
  .error <rel>|off                   bounded-error execution (escalates k)
  .budget <ms>|off                   deadline per query (degraded answer on expiry)
  .faults                            fault-injection status (laqy_faults builds)
  .ingest <rows>                     append generated lineorder rows (samples absorb)
  .stats                             sample-store statistics
  .samples                           stored coverage fragments per descriptor family
  .concurrent <n> <sql>              run <sql> from n threads sharing the store
  .save <path> / .restore <path>     persist / restore materialized samples
  .serve [addr] / .drain             start / gracefully stop a multi-tenant TCP server
  .quit                              exit
SQL: SELECT aggs FROM fact[, dims] WHERE col BETWEEN lo AND hi [AND ...] GROUP BY cols
The BETWEEN range is the explored predicate LAQy lazily samples over.";

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_repl() -> Repl {
        let mut r = Repl::new();
        let out = r.handle(".load ssb 0.001").unwrap();
        assert!(out.contains("6000 rows"), "{out}");
        r
    }

    #[test]
    fn help_and_unknown_commands() {
        let mut r = Repl::new();
        assert!(r.handle(".help").unwrap().contains("approximate SQL shell"));
        assert!(r.handle(".bogus").unwrap().contains("unknown command"));
        assert!(r.handle("").unwrap().is_empty());
    }

    #[test]
    fn quit_returns_none() {
        let mut r = Repl::new();
        assert!(r.handle(".quit").is_none());
        let mut r = Repl::new();
        assert!(r.handle(".exit").is_none());
    }

    #[test]
    fn sql_without_data_is_friendly() {
        let mut r = Repl::new();
        let out = r.handle("SELECT COUNT(*) FROM t").unwrap();
        assert!(out.contains("no data loaded"));
    }

    #[test]
    fn ssb_sql_roundtrip() {
        let mut r = loaded_repl();
        assert!(r.handle(".tables").unwrap().contains("lineorder"));
        let out = r
            .handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 2999 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("reuse online"), "{out}");
        // Repeat: full reuse.
        let out = r
            .handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 2999 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("reuse full"), "{out}");
        assert!(r.handle(".stats").unwrap().contains("1 samples"));
    }

    #[test]
    fn ingest_appends_rows_and_stored_samples_absorb() {
        let mut r = loaded_repl();
        // Warm a sample whose predicate range spans keys that only
        // arrive with the append batch.
        let out = r
            .handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 6499 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("reuse online"), "{out}");
        let out = r.handle(".ingest 500").unwrap();
        assert!(out.contains("row watermark now 6500"), "{out}");
        // The stored reservoir absorbed the batch in place, so the rerun
        // is a full hit at the new watermark — no re-sampling.
        let out = r
            .handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 6499 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("reuse full"), "{out}");
        let out = r.handle(".stats").unwrap();
        assert!(out.contains("1 append batches (500 rows)"), "{out}");
        assert!(out.contains("1 samples absorbed 500 rows"), "{out}");
    }

    #[test]
    fn ingest_guards_its_inputs() {
        let mut r = Repl::new();
        assert!(r.handle(".ingest 10").unwrap().contains(".load ssb"));
        let mut r = loaded_repl();
        assert!(r.handle(".ingest").unwrap().contains("usage"));
        assert!(r.handle(".ingest potato").unwrap().contains("usage"));
        assert!(r.handle(".ingest 0").unwrap().contains("usage"));
    }

    #[test]
    fn samples_command_lists_coverage_fragments() {
        let mut r = loaded_repl();
        assert!(r.handle(".samples").unwrap().contains("empty"));
        r.handle(
            "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
             WHERE lo_intkey BETWEEN 0 AND 1999 GROUP BY lo_orderdate",
        )
        .unwrap();
        let out = r.handle(".samples").unwrap();
        assert!(out.contains("lo_intkey ∈ [0, 1999]"), "{out}");
        assert!(out.contains("1 fragment(s)"), "{out}");
        assert!(out.contains("fragmentation ratio 0.00"), "{out}");
        // A second family (different group-by ⇒ different QCS) is listed
        // separately and leaves the ratio at zero.
        r.handle(
            "SELECT lo_quantity, SUM(lo_revenue) FROM lineorder \
             WHERE lo_intkey BETWEEN 0 AND 999 GROUP BY lo_quantity",
        )
        .unwrap();
        let out = r.handle(".samples").unwrap();
        assert!(out.contains("2 sample(s) in 2 family(ies)"), "{out}");
        // Coverage counters surface in .stats once a partial runs.
        r.handle(
            "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
             WHERE lo_intkey BETWEEN 0 AND 2999 GROUP BY lo_orderdate",
        )
        .unwrap();
        let out = r.handle(".stats").unwrap();
        assert!(out.contains("1 stored fragments merged"), "{out}");
        assert!(out.contains("1 residual fragments Δ-scanned"), "{out}");
        // Two hits on the merged sample, each read where it rests.
        for _ in 0..2 {
            r.handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 500 AND 2499 GROUP BY lo_orderdate",
            )
            .unwrap();
        }
        let out = r.handle(".stats").unwrap();
        let line = "full hits: 2 answered from stored samples as they rest";
        assert!(out.contains(line), "{out}");
    }

    #[test]
    fn mode_switching() {
        let mut r = loaded_repl();
        assert!(r.handle(".mode exact").unwrap().contains("exact"));
        let out = r
            .handle("SELECT COUNT(*) FROM lineorder WHERE lo_intkey BETWEEN 0 AND 99")
            .unwrap();
        assert!(out.contains("exact"), "{out}");
        assert!(out.contains("100.00"), "{out}");
        assert!(r.handle(".mode online").unwrap().contains("online"));
        let out = r
            .handle(
                "SELECT lo_orderdate, COUNT(*) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 999 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("reuse online"));
        assert!(r.handle(".mode nope").unwrap().contains("usage"));
    }

    #[test]
    fn k_and_error_settings() {
        let mut r = loaded_repl();
        assert!(r.handle(".k 64").unwrap().contains("64"));
        assert!(r.handle(".k potato").unwrap().contains("usage"));
        assert!(r.handle(".error 0.1").unwrap().contains("0.1"));
        let out = r
            .handle(
                "SELECT lo_quantity, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 5999 GROUP BY lo_quantity",
            )
            .unwrap();
        assert!(out.contains("worst rel err"), "{out}");
        assert!(r.handle(".error off").unwrap().contains("off"));
    }

    #[test]
    fn budget_setting_and_degraded_annotation() {
        let mut r = loaded_repl();
        assert!(r.handle(".budget potato").unwrap().contains("usage"));
        assert!(r.handle(".budget 0").unwrap().contains("usage"));
        assert!(r.handle(".budget 250").unwrap().contains("250 ms"));
        assert!(r.handle(".stats").unwrap().contains("budget 250 ms"));
        // A generous budget on tiny data: the query completes cleanly,
        // no degraded marker.
        let out = r
            .handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 2999 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(!out.contains("DEGRADED"), "{out}");
        assert!(r.handle(".budget off").unwrap().contains("off"));
        assert!(!r.handle(".stats").unwrap().contains("budget"));
    }

    #[test]
    fn faults_command_reports_build_status() {
        let mut r = Repl::new();
        let out = r.handle(".faults").unwrap();
        #[cfg(laqy_faults)]
        assert!(out.contains("compiled in"), "{out}");
        #[cfg(not(laqy_faults))]
        assert!(out.contains("compiled out"), "{out}");
    }

    #[test]
    fn stats_reports_robustness_counters() {
        let mut r = loaded_repl();
        let out = r.handle(".stats").unwrap();
        assert!(out.contains("0 degraded answers"), "{out}");
        assert!(out.contains("0 faults injected"), "{out}");
        assert!(out.contains("0 snapshot recoveries"), "{out}");
    }

    #[test]
    fn bad_sql_reports_error() {
        let mut r = loaded_repl();
        let out = r.handle("SELECT FROM WHERE").unwrap();
        assert!(out.contains("error"), "{out}");
        let out = r
            .handle("SELECT COUNT(*) FROM lineorder GROUP BY lo_quantity")
            .unwrap();
        assert!(out.contains("no BETWEEN"), "{out}");
    }

    #[test]
    fn concurrent_command_shares_the_store() {
        let mut r = loaded_repl();
        let out = r
            .handle(
                ".concurrent 4 SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 2999 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("4 clients"), "{out}");
        // All four identical queries materialize exactly one stored sample.
        assert!(r.handle(".stats").unwrap().contains("1 samples"));
        // A follow-up single-threaded query reuses it fully.
        let out = r
            .handle(
                "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 2999 GROUP BY lo_orderdate",
            )
            .unwrap();
        assert!(out.contains("reuse full"), "{out}");
        assert!(r.handle(".concurrent").unwrap().contains("usage"));
        assert!(r
            .handle(".concurrent 0 SELECT 1")
            .unwrap()
            .contains("usage"));
    }

    #[test]
    fn save_and_restore_samples() {
        let mut r = loaded_repl();
        r.handle(
            "SELECT lo_quantity, SUM(lo_revenue) FROM lineorder \
             WHERE lo_intkey BETWEEN 0 AND 5999 GROUP BY lo_quantity",
        )
        .unwrap();
        let path = std::env::temp_dir().join(format!("laqy_cli_{}.snap", std::process::id()));
        let path_str = path.to_string_lossy().to_string();
        let out = r.handle(&format!(".save {path_str}")).unwrap();
        assert!(out.contains("saved 1 samples"), "{out}");

        // Fresh repl on the same (deterministic) data: restore, then the
        // same query is answered from the snapshot with full reuse.
        let mut r2 = loaded_repl();
        let out = r2.handle(&format!(".restore {path_str}")).unwrap();
        assert!(out.contains("restored 1 samples"), "{out}");
        let out = r2
            .handle(
                "SELECT lo_quantity, SUM(lo_revenue) FROM lineorder \
                 WHERE lo_intkey BETWEEN 0 AND 5999 GROUP BY lo_quantity",
            )
            .unwrap();
        assert!(out.contains("reuse full"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_and_drain_roundtrip() {
        let mut r = Repl::new();
        assert!(r.handle(".serve").unwrap().contains("no data loaded"));
        assert!(r.handle(".drain").unwrap().contains("no server running"));

        let mut r = loaded_repl();
        let out = r.handle(".serve").unwrap();
        assert!(out.contains("serving on 127.0.0.1:"), "{out}");
        assert!(r.handle(".serve").unwrap().contains("already running"));
        // The served port answers a wire query against a fresh tenant.
        let addr: std::net::SocketAddr = out
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .unwrap()
            .parse()
            .unwrap();
        let mut client =
            laqy_server::Client::connect(addr, std::time::Duration::from_secs(10)).unwrap();
        let resp = client
            .request(&laqy_server::protocol::Request::Query {
                tenant: "shell".to_string(),
                sql: "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder \
                      WHERE lo_intkey BETWEEN 0 AND 999 GROUP BY lo_orderdate"
                    .to_string(),
                k: 32,
                timeout_ms: 0,
            })
            .unwrap();
        assert!(
            matches!(resp, laqy_server::protocol::Response::Answer(_)),
            "{resp:?}"
        );
        let out = r.handle(".drain").unwrap();
        assert!(out.contains("drained 1 tenant(s)"), "{out}");
        assert!(out.contains("finished"), "{out}");
    }

    #[test]
    fn csv_loading_via_command() {
        let path = std::env::temp_dir().join(format!("laqy_cli_{}.csv", std::process::id()));
        std::fs::write(&path, "k,grp,val\n0,a,1.5\n1,b,2.5\n2,a,3.5\n3,b,4.5\n").unwrap();
        let mut r = Repl::new();
        let out = r
            .handle(&format!(
                ".load csv events {} k:i64,grp:str,val:f64",
                path.to_string_lossy()
            ))
            .unwrap();
        assert!(out.contains("4 rows"), "{out}");
        let out = r
            .handle("SELECT grp, SUM(val) FROM events WHERE k BETWEEN 0 AND 3 GROUP BY grp")
            .unwrap();
        assert!(out.contains("reuse online"), "{out}");
        assert!(out.contains('a') && out.contains('b'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn schema_parsing_errors() {
        assert!(parse_schema("a:i64,b:str").is_ok());
        assert!(parse_schema("a").is_err());
        assert!(parse_schema("a:wat").is_err());
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["col".into(), "value".into()],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-key".into(), "123".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("col"));
        assert!(lines[3].contains("long-key"));
    }
}
