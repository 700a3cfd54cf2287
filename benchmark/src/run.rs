//! One benchmark run: set-up, the measured pass over the fixed op list,
//! the oracle, and — with `--trace 1` — the traced pass and the layer
//! probes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use laqy::{ApproxQuery, Interval, LaqyService};
use laqy_server::Answer;

use crate::e2e::{self, Measured, Round};
use crate::env::Header;
use crate::json::Json;
use crate::layers::{self, Timed};
use crate::ops::{self, explore_ops, serve_ops, ExploreOps, ServeOps, Template};
use crate::probes;
use crate::report::{Metrics, Report};
use crate::serve::{self, Served};
use crate::spec::{Scale, Workload};
use crate::stats::{self, Floors};
use crate::trace::{spans_json, Recorder, Span};
use crate::{explore, oracle};

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Op-list seed.
    pub seed: u64,
    /// Committed (or smoke) sizes; the traced run adjusts them itself
    /// ([`Scale::for_trace`]).
    pub scale: Scale,
    /// `--trace 1`: report the per-layer metrics.
    pub trace: bool,
    /// Directory for WAL/snapshot data and trace files.
    pub out_dir: PathBuf,
}

/// Sessions (or, for serving lists, leading queries) the
/// `reuse.speedup_vs_online` comparison replays. The issue asked for
/// four; online-oblivious Q1 costs 50 ms a query, and two keep the
/// traced run inside the time the driver allows.
const REUSE_SESSIONS: usize = 2;
/// Pings behind `wire.ping_rtt_ms`.
const PINGS: usize = 15;

/// Run one workload. `Err` means the run could not be carried out at all
/// (no result line is printed); a completed run with failed checks is
/// `Ok` with `violations`.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    // Unique per run even when several runs share a process (tests).
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let scratch = args.out_dir.join(format!(
        "run-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let scale = if args.trace {
        args.scale.for_trace()
    } else {
        args.scale.clone()
    };
    let cx = Context {
        args,
        scale: &scale,
        scratch: &scratch,
    };
    let result = match args.workload {
        Workload::ExploreQ1 => cx.explore(Template::Q1),
        Workload::ExploreQ2 => cx.explore(Template::Q2),
        Workload::ServeHot => cx.serve(false),
        Workload::ServeIngest => cx.serve(true),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// What [`Context::explore_rounds`] leaves behind.
struct Explored {
    measured: Measured,
    /// The last round's service, pass and counters.
    svc: LaqyService,
    last: explore::Pass,
    counters: laqy::ServiceStats,
}

/// What [`Context::serve_rounds`] leaves behind.
struct ServedRounds {
    measured: Measured,
    /// The last round's server (still running), pass and counters.
    served: Served,
    last: serve::Pass,
    counters: laqy::ServiceStats,
    audit_at: Vec<Vec<usize>>,
}

struct Context<'a> {
    args: &'a RunArgs,
    scale: &'a Scale,
    scratch: &'a Path,
}

impl Context<'_> {
    fn header(&self, op_counts: &str) -> Header {
        let h = Header::collect(
            self.args.workload,
            self.args.seed,
            self.args.trace,
            self.scale,
            op_counts,
            &self.args.out_dir,
        );
        h.print();
        h
    }

    fn explore(&self, template: Template) -> Result<Report, String> {
        let ops = explore_ops(template, self.args.seed, self.scale);
        let header = self.header(&format!(
            "queries={} in {} sessions, ingests=0",
            ops.len(),
            ops.sessions.len()
        ));
        if self.args.trace {
            self.explore_layers(&ops, header)
        } else {
            self.explore_end_to_end(&ops)
        }
    }

    /// The rounds of an exploration run: a fresh set-up and one pass
    /// each, spans recorded when `traced`. Only the last round's answers
    /// are audited; its service, pass and counters are kept.
    fn explore_rounds(&self, ops: &ExploreOps, traced: bool) -> Explored {
        let audit_at = ops::audit_positions(self.args.seed, ops.len(), self.scale.audit);
        let mut rounds = Vec::new();
        let mut kept = None;
        for r in 0..self.scale.rounds {
            // One catalog at a time, so the memory high-water mark is
            // that of a round and not of their sum.
            drop(kept.take());
            let (svc, setup_s) = explore::setup(ops.template, self.scale);
            let before = svc.stats();
            let last = r + 1 == self.scale.rounds;
            let recorder = if traced {
                Recorder::on(Instant::now())
            } else {
                Recorder::off()
            };
            let audit_at = if last { &audit_at[..] } else { &[] };
            let pass = explore::run_pass(&svc, ops, self.scale, audit_at, recorder);
            rounds.push(Round {
                setup_s,
                wall_s: pass.wall_s,
                clients: vec![pass.latencies()],
            });
            let counters = layers::since(&svc.stats(), &before);
            kept = Some((svc, pass, counters));
        }
        let (svc, last, counters) = kept.expect("a run has at least one round");
        Explored {
            measured: Measured::after_last_pass(rounds, &[vec![true; ops.len()]]),
            svc,
            last,
            counters,
        }
    }

    /// Notes and checks every exploration run makes on its last round:
    /// the service's counters, and that it counted exactly the full hits
    /// the op list implies (one driver thread, so the mix is exact).
    fn explore_checks(
        &self,
        report: &mut Report,
        ops: &ExploreOps,
        x: &Explored,
    ) -> Result<oracle::Audit, String> {
        report.notes.push(layers::counts_line(&x.counters));
        let implied = ops.implied_full_hits() as u64;
        if x.counters.full_hits != implied {
            report.violations.push(format!(
                "the service counted {} full hits, the op list implies {implied}",
                x.counters.full_hits
            ));
        }
        explore::audit(&x.svc, &x.last.audited)
    }

    fn explore_end_to_end(&self, ops: &ExploreOps) -> Result<Report, String> {
        let mut report = Report::default();
        let x = self.explore_rounds(ops, false);
        let audit = self.explore_checks(&mut report, ops, &x)?;
        e2e::fill(&mut report, &x.measured, &audit, self.scale.floors);
        Ok(report)
    }

    fn explore_layers(&self, ops: &ExploreOps, header: Header) -> Result<Report, String> {
        let mut report = Report::default();
        let untraced_ops_per_s = self.explore_rounds(ops, false).measured.wall_ops_per_s();

        let x = self.explore_rounds(ops, true);
        let audit = self.explore_checks(&mut report, ops, &x)?;
        let steady = &x.measured.steady;
        report.attempted = steady.attempted;
        report.failed = steady.failed;
        report.violations.extend(audit.violations());

        let queries = x.last.succeeded();
        let busy_ms: f64 = queries.iter().map(|q| q.ms).sum();
        let m = &mut report.metrics;
        m.extend(latency_and_oracle_metrics(steady.query_ms.clone(), &audit));
        m.set("process.peak_rss_mb", x.measured.peak_rss_mb);
        m.extend(layers::executor_metrics(&queries, &mut report.notes));
        m.extend(layers::service_metrics(&x.counters, busy_ms));
        m.set(
            "trace.overhead_share",
            layers::trace_overhead(untraced_ops_per_s, x.measured.wall_ops_per_s()),
        );
        for wire_only in [
            "wire.ping_rtt_ms",
            "wire.overhead_ms",
            "admission.shed_share",
            "wal.ack_p50_ms",
            "wal.ack_p95_ms",
        ] {
            m.set(wire_only, 0.0);
        }

        let store = x.svc.store();
        let sessions: Vec<Vec<ApproxQuery>> = ops
            .sessions
            .iter()
            .take(REUSE_SESSIONS)
            .map(|s| {
                s.iter()
                    .map(|&r| ops.template.query(r, self.scale.k))
                    .collect()
            })
            .collect();
        m.extend(reuse_metrics(&x.svc, &sessions)?);

        let flat: Vec<Interval> = ops.sessions.iter().flatten().copied().collect();
        let catalog = x.svc.catalog().clone();
        m.extend(probes::run(
            probes::Input {
                catalog: &catalog,
                scale: self.scale,
                template: ops.template,
                ranges: &spread(&flat, probes::PROBE_RANGES),
                store,
                scratch: self.scratch,
            },
            &mut report.notes,
        )?);
        self.write_trace(header, &report, &x.counters, &queries, vec![x.last.spans])?;
        Ok(report)
    }

    fn serve(&self, ingest: bool) -> Result<Report, String> {
        let (n, every) = if ingest {
            (self.scale.ingest_ops, self.scale.ingest_every)
        } else {
            (self.scale.hot_ops, 0)
        };
        let ops = serve_ops(self.args.seed, n, every, self.scale);
        let (queries, ingests) = ops.counts();
        let header = self.header(&format!(
            "queries={queries}, ingests={ingests} ({} rows each) over {} clients",
            self.scale.ingest_rows,
            ops.clients.len()
        ));
        if self.args.trace {
            self.serve_layers(&ops, ingest, header)
        } else {
            self.serve_end_to_end(&ops, ingest)
        }
    }

    fn data_dir(&self, ingest: bool, tag: &str) -> Option<PathBuf> {
        ingest.then(|| self.scratch.join(format!("data-{tag}")))
    }

    /// The rounds of a serving run: a fresh server (and data directory)
    /// and one pass of all clients each, spans recorded when `traced`.
    /// Only the last round's answers are audited; its server is left
    /// running for the checks that need it.
    fn serve_rounds(
        &self,
        ops: &ServeOps,
        ingest: bool,
        traced: bool,
    ) -> Result<ServedRounds, String> {
        let audit_at = serve::audit_positions(ops, self.args.seed, self.scale.audit);
        let no_audit = vec![Vec::new(); ops.clients.len()];
        let tag = if traced { "traced" } else { "untraced" };
        let mut rounds = Vec::new();
        let mut kept: Option<(Served, serve::Pass, laqy::ServiceStats)> = None;
        for r in 0..self.scale.rounds {
            if let Some((previous, _, _)) = kept.take() {
                previous.shutdown();
            }
            let dir = self.data_dir(ingest, &format!("{tag}-{r}"));
            let (served, setup_s) = serve::setup(ops, self.scale, dir.as_deref())?;
            let before = served.tenant.service.stats();
            let last = r + 1 == self.scale.rounds;
            let pass = serve::run_pass(
                served.addr(),
                ops,
                self.scale,
                if last { &audit_at } else { &no_audit },
                traced.then(Instant::now),
            );
            rounds.push(Round {
                setup_s,
                wall_s: pass.wall_s,
                clients: pass.latencies(),
            });
            let counters = layers::since(&served.tenant.service.stats(), &before);
            kept = Some((served, pass, counters));
        }
        let (served, last, counters) = kept.ok_or("a run needs at least one round")?;
        Ok(ServedRounds {
            measured: Measured::after_last_pass(rounds, &ops.is_query()),
            served,
            last,
            counters,
            audit_at,
        })
    }

    fn serve_end_to_end(&self, ops: &ServeOps, ingest: bool) -> Result<Report, String> {
        let mut report = Report::default();
        let x = self.serve_rounds(ops, ingest, false)?;
        let outcome =
            self.after_serve_pass(&mut report, &x.served, ops, ingest, &x.last, &x.audit_at);
        report.notes.push(layers::counts_line(&x.counters));
        x.served.shutdown();
        e2e::fill(&mut report, &x.measured, &outcome?, self.scale.floors);
        Ok(report)
    }

    /// Checks that need the server still up: response types, the oracle
    /// (for `serve_ingest` a probe after the last ack, against the base
    /// plus every batch) and durability of every acknowledged ingest.
    fn after_serve_pass(
        &self,
        report: &mut Report,
        served: &Served,
        ops: &ServeOps,
        ingest: bool,
        pass: &serve::Pass,
        audit_at: &[Vec<usize>],
    ) -> Result<oracle::Audit, String> {
        for (c, client) in pass.clients.iter().enumerate() {
            for f in &client.failures {
                report.violations.push(format!("client {c}: {f}"));
            }
        }
        let snapshot = served.tenant.counters.snapshot();
        report.notes.push(format!("tenant counters: {snapshot:?}"));
        if !ingest {
            let answers: Vec<(String, Answer)> = pass
                .clients
                .iter()
                .flat_map(|c| c.audited.iter().cloned())
                .collect();
            return serve::audit(
                &explore::service(served.catalog.clone()),
                self.scale,
                &answers,
            );
        }
        let answers = serve::probe_answers(served.addr(), ops, self.scale, audit_at)?;
        let grown = serve::grown_catalog(&served.catalog, ops, self.scale)?;
        let audit = serve::audit(&explore::service(grown), self.scale, &answers)?;
        let acked: u64 = pass.clients.iter().map(|c| c.acked_rows).sum();
        match serve::verify_durability(served, &self.scratch.join("recovered"), acked) {
            Ok(ms) => report.notes.push(format!(
                "durability: recovered base + {acked} acked rows from a copy of the \
                 undrained data dir in {ms:.1} ms"
            )),
            Err(e) => report.violations.push(format!("durability: {e}")),
        }
        Ok(audit)
    }

    fn serve_layers(&self, ops: &ServeOps, ingest: bool, header: Header) -> Result<Report, String> {
        let mut report = Report::default();
        let (queries, ingests) = ops.counts();
        let per_pass = (queries + ingests) as f64;

        let untraced = self.serve_rounds(ops, ingest, false)?;
        let untraced_ops_per_s = untraced.measured.wall_ops_per_s();
        untraced.served.shutdown();

        let x = self.serve_rounds(ops, ingest, true)?;
        let ping = serve::ping_rtt_ms(x.served.addr(), PINGS);
        let snapshot = x.served.tenant.counters.snapshot();
        let store = x.served.tenant.service.store();
        let catalog = x.served.catalog.clone();
        let grown = x.served.tenant.service.catalog().clone();
        let outcome =
            self.after_serve_pass(&mut report, &x.served, ops, ingest, &x.last, &x.audit_at);
        x.served.shutdown();
        let audit = outcome?;
        report.violations.extend(audit.violations());
        report.notes.push(layers::counts_line(&x.counters));
        let steady = &x.measured.steady;
        report.attempted = steady.attempted;
        report.failed = steady.failed;

        let (svc, replayed) = serve::replay_in_process(&catalog, ops, self.scale)?;
        let wire_ms = stats::sorted(steady.query_ms.clone());
        let local_ms = stats::sorted(replayed.iter().map(|q| q.ms).collect());
        let p50 = |sorted: &[f64]| stats::p50(sorted, Floors::Relaxed).unwrap_or(0.0);
        let acks = stats::sorted(steady.ingest_ms.clone());
        let busy_ms: f64 = x
            .last
            .clients
            .iter()
            .flat_map(|c| c.ops.iter().flatten())
            .sum();

        let m = &mut report.metrics;
        m.extend(latency_and_oracle_metrics(steady.query_ms.clone(), &audit));
        m.set("process.peak_rss_mb", x.measured.peak_rss_mb);
        m.extend(layers::executor_metrics(&replayed, &mut report.notes));
        m.extend(layers::service_metrics(&x.counters, busy_ms));
        m.set("wire.ping_rtt_ms", ping?);
        m.set("wire.overhead_ms", p50(&wire_ms) - p50(&local_ms));
        m.set(
            "admission.shed_share",
            snapshot.shed as f64 / per_pass.max(1.0),
        );
        m.set("wal.ack_p50_ms", p50(&acks));
        m.set(
            "wal.ack_p95_ms",
            stats::tail(&acks, 0.95, Floors::Relaxed).unwrap_or(0.0),
        );
        m.set(
            "trace.overhead_share",
            layers::trace_overhead(untraced_ops_per_s, x.measured.wall_ops_per_s()),
        );
        report.notes.push(format!(
            "wire query p50 {:.3} ms (n={}) vs in-process replay p50 {:.3} ms (n={}); \
             ingest acks n={}",
            p50(&wire_ms),
            wire_ms.len(),
            p50(&local_ms),
            local_ms.len(),
            acks.len()
        ));

        let ranges: Vec<Interval> = ops
            .queries()
            .map(|(_, _, lo, hi)| Interval::new(lo, hi))
            .collect();
        let session: Vec<ApproxQuery> = ranges
            .iter()
            .take(REUSE_SESSIONS * 50)
            .map(|&r| Template::Q1.query(r, self.scale.k))
            .collect();
        m.extend(reuse_metrics(&svc, &[session])?);
        // The tenant's catalog as the pass left it: the stored samples
        // have absorbed every ingested row, and so must the table the
        // absorb probe grows.
        m.extend(probes::run(
            probes::Input {
                catalog: &grown,
                scale: self.scale,
                template: Template::Q1,
                ranges: &spread(&ranges, probes::PROBE_RANGES),
                store,
                scratch: self.scratch,
            },
            &mut report.notes,
        )?);
        let spans = x.last.clients.into_iter().map(|c| c.spans).collect();
        self.write_trace(header, &report, &x.counters, &replayed, spans)?;
        Ok(report)
    }

    /// Write `trace_<workload>.json`: the header, the counters the
    /// public API returned, every per-layer metric, the engine's own
    /// account of each query, and the spans.
    fn write_trace(
        &self,
        header: Header,
        report: &Report,
        counters: &laqy::ServiceStats,
        queries: &[Timed],
        spans: Vec<Vec<Span>>,
    ) -> Result<(), String> {
        let us = |d: std::time::Duration| Json::Num(d.as_secs_f64() * 1e6);
        let queries = queries
            .iter()
            .map(|q| {
                Json::obj([
                    ("caller_ms", Json::Num(q.ms)),
                    (
                        "reuse",
                        Json::str(q.stats.reuse.map_or("none", |r| r.label())),
                    ),
                    ("scan_us", us(q.stats.scan)),
                    ("processing_us", us(q.stats.processing)),
                    ("merge_us", us(q.stats.merge)),
                    ("estimate_us", us(q.stats.estimate)),
                    ("total_us", us(q.stats.total)),
                    ("scanned_rows", Json::Num(q.stats.scanned_rows as f64)),
                    (
                        "sampled_input_rows",
                        Json::Num(q.stats.sampled_input_rows as f64),
                    ),
                ])
            })
            .collect();
        let metrics = crate::spec::PER_LAYER
            .iter()
            .filter_map(|l| report.metrics.get(l.name).map(|v| (l.name, Json::Num(v))));
        let doc = Json::obj([
            ("env", header.json()),
            ("service_stats", Json::str(format!("{counters:?}"))),
            (
                "notes",
                Json::Arr(report.notes.iter().map(Json::str).collect()),
            ),
            ("per_layer", Json::obj(metrics)),
            ("exec_stats", Json::Arr(queries)),
            ("spans", spans_json(spans)),
        ]);
        let path = self
            .args
            .out_dir
            .join(format!("trace_{}.json", self.args.workload.name()));
        std::fs::write(&path, doc.encode_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// `latency.*` and `oracle.*`: the percentiles and the error measure
/// that are too unsteady between seeds for an end-to-end bound (see the
/// noise policy in README.md), from the traced pass.
fn latency_and_oracle_metrics(caller_ms: Vec<f64>, audit: &oracle::Audit) -> Metrics {
    let sorted = stats::sorted(caller_ms);
    let mut m = Metrics::default();
    m.set(
        "latency.query_p50_ms",
        stats::p50(&sorted, Floors::Relaxed).unwrap_or(0.0),
    );
    m.set(
        "latency.query_p99_ms",
        stats::tail(&sorted, 0.99, Floors::Relaxed).unwrap_or(0.0),
    );
    m.set(
        "oracle.rel_err_p50",
        if audit.groups() > 0 {
            audit.rel_err_p50()
        } else {
            0.0
        },
    );
    m
}

/// `n` items spread evenly over `items`.
fn spread<T: Copy>(items: &[T], n: usize) -> Vec<T> {
    let n = n.min(items.len());
    (0..n).map(|i| items[i * items.len() / n]).collect()
}

/// `reuse.*`: the paper's headline comparison on a few sessions — the
/// same queries answered lazily (store cleared before each session) and
/// by workload-oblivious online sampling. Informational: speeding the
/// baseline up is never a regression.
fn reuse_metrics(svc: &LaqyService, sessions: &[Vec<ApproxQuery>]) -> Result<Metrics, String> {
    let (mut lazy_ms, mut online_ms) = (0.0, 0.0);
    for session in sessions {
        svc.clear_samples();
        for query in session {
            let t = Instant::now();
            svc.run(query)
                .map_err(|e| format!("lazy replay failed: {e}"))?;
            lazy_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        for query in session {
            let t = Instant::now();
            svc.run_online_oblivious(query)
                .map_err(|e| format!("online replay failed: {e}"))?;
            online_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    let mut m = Metrics::default();
    m.set("reuse.online_seq_ms", online_ms);
    m.set(
        "reuse.speedup_vs_online",
        if lazy_ms > 0.0 {
            online_ms / lazy_ms
        } else {
            0.0
        },
    );
    Ok(m)
}
