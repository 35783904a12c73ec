//! The repository's benchmark: one CH-benCHmark workload per run, driven
//! through the public `HtapSystem` API, with its answers checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload htap-mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run calls `execute_sql` with tracing off and prints
//! the end-to-end metrics. With `--trace 1` it sends each whole mix cycle,
//! chosen at random, either down that path or down a traced one that times
//! `plan_sql`, `schedule_query` and `run_query` separately, and prints the
//! per-layer metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Why each workload
//! exists, and which end-to-end metric each layer metric should move, is in
//! `README.md` beside this package.

mod check;
mod stats;

use htap_core::{ChConfig, HtapConfig, HtapSystem, MemStorage, QueryId, Schedule, SchedulerPolicy};
use htap_obs::Span;
use stats::{max, percentile, Metrics, Percentile, Ratio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// System builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// How the benchmark's single client sends queries.
#[derive(Debug, Clone, Copy)]
enum Arrival {
    /// The next query goes out when the previous one returns.
    Closed,
    /// Queries are due at a fixed rate whether or not the last one returned;
    /// latency runs from the due time.
    Open { per_s: f64 },
}

/// When the system's own ingest pool runs.
#[derive(Debug, Clone, Copy)]
enum Ingest {
    /// Throughout the measured window.
    During,
    /// Before the window, until this many commits; the window is read-only.
    Before { commits: u64 },
}

#[derive(Debug)]
struct Workload {
    name: &'static str,
    /// CH-benCHmark scale factor (orderlines = scale × 6,001,215).
    scale: f64,
    mix: Vec<QueryId>,
    ingest: Ingest,
    /// Build with `build_durable` over a fresh in-memory medium: the WAL,
    /// group commit, checkpoints and recovery all run, but the shared host's
    /// disk does not set the figures (see README.md).
    durable: bool,
    arrival: Arrival,
}

fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "htap-mix" => Workload {
            name: "htap-mix",
            scale: 0.02,
            mix: htap_chbench::query_mix_wide(),
            ingest: Ingest::During,
            durable: false,
            arrival: Arrival::Closed,
        },
        "olap-scan" => Workload {
            name: "olap-scan",
            scale: 0.1,
            mix: htap_chbench::query_mix_wide(),
            ingest: Ingest::Before { commits: 30_000 },
            durable: false,
            arrival: Arrival::Closed,
        },
        "ingest-durable" => Workload {
            name: "ingest-durable",
            scale: 0.02,
            mix: htap_chbench::query_mix(),
            ingest: Ingest::During,
            durable: true,
            arrival: Arrival::Open { per_s: 1.0 },
        },
        _ => return None,
    };
    Some(w)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: htap-perfbench --workload <htap-mix|olap-scan|ingest-durable> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut chosen, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                chosen = Some(workload(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: chosen.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The fig5 harness population at `scale`, generated from `seed`; the
/// transaction stream of the ingest pool is seeded from it too.
fn config(w: &Workload, seed: u64) -> HtapConfig {
    let chbench = ChConfig {
        warehouses: 4,
        customers_per_district: 100,
        items: 10_000,
        seed,
        ..ChConfig::scale_factor(w.scale)
    };
    HtapConfig::small()
        .with_chbench(chbench)
        .with_schedule(Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(
            0.5,
        )))
}

/// Build a system; a durable one over `storage` when given. The medium
/// outlives the system, so building again over it recovers what it holds.
fn build(config: HtapConfig, storage: Option<&MemStorage>) -> Result<HtapSystem, String> {
    match storage {
        None => HtapSystem::build(config),
        Some(medium) => HtapSystem::build_durable(config, Arc::new(medium.clone())),
    }
}

/// Deterministic shuffle stream for the per-cycle query order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// What the traced path measured for one query.
struct TracedQuery {
    plan_us: f64,
    schedule_ms: f64,
    run_ms: f64,
    modeled_schedule_ms: f64,
    modeled_run_ms: f64,
    etl: Option<(u64, u64)>,
    freshness: f64,
    pending_fresh_rows: u64,
    fresh_rows: u64,
    tuples_scanned: u64,
    olap_workers: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The public calls `execute_sql` makes, timed one by one, under a root span
/// of the benchmark's own so the layer spans of one query stay together.
fn traced_query(system: &HtapSystem, sql: &str) -> Result<TracedQuery, String> {
    let _root = htap_obs::span("bench.query");
    let t = Instant::now();
    let plan = system.plan_sql(sql).map_err(|e| e.to_string())?;
    let plan_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
    let schedule_ms = ms(t.elapsed());
    let txn = system.rde().txn_work();
    let t = Instant::now();
    let execution = system
        .rde()
        .olap()
        .run_query(&plan, &scheduled.sources, Some(&txn))
        .map_err(|e| e.to_string())?;
    let run_ms = ms(t.elapsed());
    let migration = &scheduled.migration;
    Ok(TracedQuery {
        plan_us,
        schedule_ms,
        run_ms,
        modeled_schedule_ms: scheduled.scheduling_time * 1e3,
        modeled_run_ms: execution.modeled.total * 1e3,
        etl: migration.etl.map(|e| (e.copied_rows, e.copied_bytes)),
        freshness: scheduled.freshness.freshness_rate(),
        pending_fresh_rows: migration.switch.fresh_rows_vs_olap,
        fresh_rows: execution.output.work.fresh_rows,
        tuples_scanned: execution.output.work.tuples_scanned,
        olap_workers: scheduled.olap_workers,
    })
}

/// Everything the measured window recorded.
#[derive(Default)]
struct Window {
    /// Per attempted query, ms; a failed query is `INFINITY`.
    latency_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    /// Open loop: how late each query went out, ms.
    gen_late_ms: Vec<f64>,
    traced: Vec<TracedQuery>,
    /// Service time of each complete mix cycle, ms: untraced, traced.
    cycle_ms: [Vec<f64>; 2],
    oltp_active: Vec<f64>,
    olap_team: Vec<f64>,
}

fn measure(system: &HtapSystem, args: &Args, sqls: &[(&'static str, String)]) -> Window {
    let mut window = Window::default();
    let mut rng = SplitMix(args.seed ^ 0x5EED);
    let mut order: Vec<usize> = (0..sqls.len()).collect();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let mut sent = 0u64;
    'window: loop {
        rng.shuffle(&mut order);
        // Traced cycles are drawn at random, not alternated, so that no
        // periodic pattern of the system (a checkpoint every other query)
        // lines up with them.
        let traced = args.trace && rng.next() % 2 == 1;
        htap_obs::set_enabled(traced);
        let mut cycle_ms = 0.0;
        for &i in &order {
            let due = match args.workload.arrival {
                Arrival::Closed => Instant::now(),
                Arrival::Open { per_s } => start + Duration::from_secs_f64(sent as f64 / per_s),
            };
            if due >= deadline {
                break 'window;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent_at = Instant::now();
            if matches!(args.workload.arrival, Arrival::Open { .. }) {
                window.gen_late_ms.push(ms(sent_at - due));
            }
            sent += 1;
            let workers = system.rde().oltp().worker_manager();
            window.oltp_active.push(workers.active_workers() as f64);
            let (label, sql) = &sqls[i];
            let result = if traced {
                traced_query(system, sql).map(|q| window.traced.push(q))
            } else {
                system.execute_sql(sql).map(drop).map_err(|e| e.to_string())
            };
            let done = Instant::now();
            window.oltp_active.push(workers.active_workers() as f64);
            window.olap_team.push(system.olap_worker_count() as f64);
            window.attempted += 1;
            cycle_ms += ms(done - sent_at);
            match result {
                Ok(()) => window.latency_ms.push(ms(done - due)),
                Err(e) => {
                    if window.failed == 0 {
                        eprintln!("{label} failed: {e}");
                    }
                    window.failed += 1;
                    window.latency_ms.push(f64::INFINITY);
                }
            }
        }
        window.cycle_ms[usize::from(traced)].push(cycle_ms);
    }
    htap_obs::set_enabled(false);
    window.elapsed_s = start.elapsed().as_secs_f64();
    window
}

/// Layer spans under the benchmark's `bench.query` roots, by name.
fn collect_spans<'a>(span: &'a Span, name: &str, out: &mut Vec<&'a Span>) {
    if span.name == name {
        out.push(span);
    }
    for child in &span.children {
        collect_spans(child, name, out);
    }
}

fn arg(span: &Span, key: &str) -> f64 {
    span.args
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string())
}

/// The commit the checkout came from, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Mean of `f` over `items` (0 for none).
fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        0.0
    } else {
        items.iter().map(f).sum::<f64>() / items.len() as f64
    }
}

fn p50(sample: &[f64]) -> Percentile {
    percentile(sample, 0.5)
}

/// Transactions of the ingest pool: over the window, or over the phase
/// before it on a workload that ingests only before.
struct Txns {
    committed: u64,
    aborted: u64,
    retried: u64,
    seconds: f64,
}

/// Everything one run measured, before it becomes metrics.
struct Measured {
    setup_s: Vec<f64>,
    window: Window,
    txns: Txns,
    /// WAL records appended and fsyncs issued during the window.
    wal: Ratio,
    checkpoints: u64,
    /// Ring events lost / recorded during the window.
    events: Ratio,
    spans: Vec<Span>,
    olap_bytes_end: u64,
    recovery_s: f64,
    pool_threads: usize,
    correct: bool,
}

/// Build the system `SETUP_REPS` times, each durable one over a fresh
/// medium, timing each build; keep the last system and its medium.
type SetUp = (HtapSystem, Option<MemStorage>, Vec<f64>);

fn set_up(durable: bool, config: &HtapConfig) -> Result<SetUp, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let storage = durable.then(MemStorage::new);
        let system = build(config.clone(), storage.as_ref())?;
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((system, storage));
    }
    let (system, storage) = built.ok_or("no set-up ran")?;
    Ok((system, storage, setup_s))
}

fn warm_up(system: &HtapSystem, sqls: &[(&'static str, String)]) -> Result<(), String> {
    for (label, sql) in sqls {
        system
            .execute_sql(sql)
            .map_err(|e| format!("warm-up {label}: {e}"))?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<Measured, String> {
    let w = &args.workload;
    htap_obs::set_enabled(false);
    let config = config(w, args.seed);
    let (system, storage, setup_s) = set_up(w.durable, &config)?;
    let sqls: Vec<(&'static str, String)> = w.mix.iter().map(|q| (q.label(), q.sql())).collect();
    // The first pass absorbs the population into the OLAP instance.
    warm_up(&system, &sqls)?;

    let pool_threads = system.start_oltp_ingest();
    let mut burst = None;
    if let Ingest::Before { commits } = w.ingest {
        let t = Instant::now();
        while system.oltp_live_counts().committed < commits {
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = system.stop_oltp_ingest();
        burst = Some(Txns {
            committed: report.committed(),
            aborted: report.aborted(),
            retried: report.retried(),
            seconds: t.elapsed().as_secs_f64(),
        });
    }
    warm_up(&system, &sqls)?;

    let durability = system.rde().oltp().durability();
    let wal_stats = || {
        durability
            .as_ref()
            .map(|d| d.wal().stats())
            .unwrap_or_default()
    };
    let checkpoints = || {
        durability
            .as_ref()
            .map_or(0, |d| d.stats().checkpoints_taken)
    };
    let (wal_before, checkpoints_before) = (wal_stats(), checkpoints());
    let live_before = system.oltp_live_counts();
    let events_before = htap_obs::obs().event_totals();
    let window = measure(&system, args, &sqls);
    let live_after = system.oltp_live_counts();
    let (wal_after, checkpoints_after) = (wal_stats(), checkpoints());
    drop(durability);
    // Events still in the rings are read now, as a trace export would read
    // them; those overwritten before this drain count as dropped.
    let _ = htap_obs::drain_events();
    let events_after = htap_obs::obs().event_totals();
    if system.oltp_ingest_running() {
        system.stop_oltp_ingest();
    }
    let txns = burst.unwrap_or(Txns {
        committed: live_after.committed - live_before.committed,
        aborted: live_after.aborted - live_before.aborted,
        retried: live_after.retried - live_before.retried,
        seconds: window.elapsed_s,
    });

    // Answer checks on the quiesced system.
    let mut correct = true;
    if let Err(e) = check::answers(&system, &sqls) {
        eprintln!("answer check failed: {e}");
        correct = false;
    }
    let olap_bytes_end = system.rde().olap().store().bytes();
    let mut recovery_s = 0.0;
    if let Some(medium) = &storage {
        let before = check::table_counts(&system);
        drop(system);
        let t = Instant::now();
        let recovered = build(config, Some(medium))?;
        recovery_s = t.elapsed().as_secs_f64();
        let after = check::table_counts(&recovered);
        if before != after {
            eprintln!(
                "recovery check failed: rows/keys per table {before:?} before, {after:?} after"
            );
            correct = false;
        }
    }

    Ok(Measured {
        setup_s,
        window,
        txns,
        wal: Ratio {
            part: wal_after.appended - wal_before.appended,
            base: wal_after.fsyncs - wal_before.fsyncs,
        },
        checkpoints: checkpoints_after - checkpoints_before,
        events: Ratio {
            part: events_after.dropped - events_before.dropped,
            base: events_after.recorded - events_before.recorded,
        },
        spans: htap_obs::spans_snapshot(),
        olap_bytes_end,
        recovery_s,
        pool_threads,
        correct,
    })
}

fn end_to_end(r: &Measured) -> Metrics {
    let mut m = Metrics::default();
    let lat = &r.window.latency_ms;
    let completed = lat.iter().filter(|l| l.is_finite()).count();
    let elapsed = r.window.elapsed_s;
    let t = &r.txns;
    m.percentile("setup_s", p50(&r.setup_s), "s");
    m.push(
        "query_mean_ms",
        mean(lat, |l| *l),
        "ms",
        format!("n={}", lat.len()),
    );
    m.percentile("query_p90_ms", percentile(lat, 0.9), "ms");
    let note = format!("{completed} in {elapsed:.3} s");
    m.push("queries_per_s", completed as f64 / elapsed, "1/s", note);
    let note = format!("{} in {:.3} s", t.committed, t.seconds);
    m.push("commits_per_s", t.committed as f64 / t.seconds, "1/s", note);
    let attempts = t.committed + t.aborted;
    m.ratio(
        "txn_abort_ratio",
        Ratio {
            part: t.aborted,
            base: attempts,
        },
    );
    let base = r.window.attempted;
    m.ratio(
        "query_ok_ratio",
        Ratio {
            part: completed as u64,
            base,
        },
    );
    m.push("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM".into());
    m
}

fn per_layer(r: &Measured) -> Metrics {
    let mut m = Metrics::default();
    let tq = &r.window.traced;
    let col = |f: fn(&TracedQuery) -> f64| tq.iter().map(f).collect::<Vec<f64>>();
    let queries = format!("over {} queries", tq.len());
    let per_query = |total: f64| total / tq.len().max(1) as f64;

    m.percentile("sql.plan_us.p50", p50(&col(|q| q.plan_us)), "us");

    let schedule_ms = col(|q| q.schedule_ms);
    m.percentile("scheduler.schedule_ms.p50", p50(&schedule_ms), "ms");
    m.percentile(
        "scheduler.schedule_ms.p99",
        percentile(&schedule_ms, 0.99),
        "ms",
    );
    let etls: Vec<(u64, u64)> = tq.iter().filter_map(|q| q.etl).collect();
    let share = Ratio {
        part: etls.len() as u64,
        base: tq.len() as u64,
    };
    m.ratio("scheduler.etl_share", share);
    m.percentile(
        "scheduler.freshness.p50",
        p50(&col(|q| q.freshness)),
        "ratio",
    );

    let roots: Vec<&Span> = r.spans.iter().filter(|s| s.name == "bench.query").collect();
    let (mut switch_spans, mut etl_spans) = (Vec::new(), Vec::new());
    for root in &roots {
        collect_spans(root, "rde.switch", &mut switch_spans);
        collect_spans(root, "rde.etl", &mut etl_spans);
    }
    let span_ms =
        |s: &[&Span]| -> Vec<f64> { s.iter().map(|s| s.duration_us() as f64 / 1e3).collect() };
    let per_root = |total: f64| total / roots.len().max(1) as f64;
    let synced: f64 = switch_spans.iter().map(|s| arg(s, "synced_records")).sum();
    m.percentile("rde.switch_ms.p50", p50(&span_ms(&switch_spans)), "ms");
    let note = format!("{} spans / {} queries", switch_spans.len(), roots.len());
    m.push(
        "rde.switches_per_query",
        per_root(switch_spans.len() as f64),
        "count",
        note,
    );
    let note = format!("{synced} records / {} queries", roots.len());
    m.push(
        "rde.sync_records_per_query",
        per_root(synced),
        "count",
        note,
    );
    m.percentile("rde.etl_ms.p50", p50(&span_ms(&etl_spans)), "ms");
    let etl_rows = etls.iter().map(|e| e.0).sum::<u64>() as f64;
    let etl_bytes = etls.iter().map(|e| e.1).sum::<u64>() as f64;
    m.push(
        "rde.etl_rows_per_query",
        per_query(etl_rows),
        "count",
        queries.clone(),
    );
    m.push(
        "rde.etl_bytes_per_query",
        per_query(etl_bytes),
        "bytes",
        queries.clone(),
    );

    let run_ms = col(|q| q.run_ms);
    m.percentile("olap.run_ms.p50", p50(&run_ms), "ms");
    m.percentile("olap.run_ms.p99", percentile(&run_ms, 0.99), "ms");
    let run_s = run_ms.iter().sum::<f64>() / 1e3;
    let scanned: u64 = tq.iter().map(|q| q.tuples_scanned).sum();
    let rows_per_s = if run_s > 0.0 {
        scanned as f64 / run_s
    } else {
        0.0
    };
    let note = format!("{scanned} rows in {run_s:.3} s");
    m.push("olap.rows_per_s", rows_per_s, "rows/s", note);
    let fresh = mean(tq, |q| q.fresh_rows as f64);
    m.push("olap.fresh_rows_per_query", fresh, "count", queries);
    m.percentile(
        "olap.workers",
        p50(&col(|q| q.olap_workers as f64)),
        "count",
    );

    m.percentile("oltp.active_workers", p50(&r.window.oltp_active), "count");
    m.push(
        "oltp.retries",
        r.txns.retried as f64,
        "count",
        "NO-WAIT, retries off".into(),
    );

    let pending = col(|q| q.pending_fresh_rows as f64);
    m.percentile("storage.pending_fresh_rows.p50", p50(&pending), "count");
    m.push(
        "storage.olap_bytes_end",
        r.olap_bytes_end as f64,
        "bytes",
        String::new(),
    );

    let note = format!("{}/{}", r.wal.part, r.wal.base);
    m.push("durability.records_per_fsync", r.wal.value(), "count", note);
    let fsyncs_per_s = r.wal.base as f64 / r.window.elapsed_s;
    m.push(
        "durability.fsyncs_per_s",
        fsyncs_per_s,
        "1/s",
        String::new(),
    );
    m.push(
        "durability.checkpoints",
        r.checkpoints as f64,
        "count",
        String::new(),
    );
    m.push("durability.recovery_s", r.recovery_s, "s", String::new());

    let ratios = |f: fn(&TracedQuery) -> (f64, f64)| -> Vec<f64> {
        tq.iter()
            .map(f)
            .filter(|(_, model)| *model > 0.0)
            .map(|(wall, model)| wall / model)
            .collect()
    };
    let model_error = ratios(|q| (q.run_ms, q.modeled_run_ms));
    m.percentile("sim.model_error.p50", p50(&model_error), "ratio");
    let sched_error = ratios(|q| (q.schedule_ms, q.modeled_schedule_ms));
    m.percentile("sim.sched_model_error.p50", p50(&sched_error), "ratio");

    let [untraced, traced] = &r.window.cycle_ms;
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        (p50(traced).value / p50(untraced).value - 1.0) * 100.0
    };
    let note = format!(
        "median cycle, {} traced vs {} untraced",
        traced.len(),
        untraced.len()
    );
    m.push("obs.overhead_pct", overhead, "%", note);
    m.ratio("obs.events_dropped_ratio", r.events);

    let late = &r.window.gen_late_ms;
    m.push(
        "bench.gen_late_ms.max",
        max(late),
        "ms",
        format!("n={}", late.len()),
    );
    m
}

/// Command line, seed, commit, host and the system's own thread counts.
fn provenance(args: &Args, argv_line: &str, r: &Measured) -> String {
    format!(
        "{{\"command\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_commit\": {}, \"nproc\": {}, \"cpu_model\": {}, \"ingest_pool_threads\": {}, \
         \"oltp_active_workers_p50\": {}, \"olap_team_size_p50\": {}, \"setup_s\": {:?}, \
         \"span_roots_dropped\": {}}}",
        stats::json_string(argv_line),
        stats::json_string(args.workload.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::json_string(&git_commit()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        stats::json_string(&cpu_model()),
        r.pool_threads,
        p50(&r.window.oltp_active).value,
        p50(&r.window.olap_team).value,
        r.setup_s,
        htap_obs::spans_dropped(),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let measured = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name);
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        per_layer(&measured)
    } else {
        end_to_end(&measured)
    };
    let w = &measured.window;
    let lat = &w.latency_ms;
    println!(
        "provenance {}",
        provenance(&args, &argv.join(" "), &measured)
    );
    println!(
        "{} seed={} {}: correct={} attempted={} failed={}",
        args.workload.name,
        args.seed,
        if args.trace {
            "per-layer (traced)"
        } else {
            "end-to-end"
        },
        measured.correct,
        w.attempted,
        w.failed
    );
    println!(
        "query latency ms: p50={:.3} p90={:.3} p99={:.3} max={:.3} (n={}); \
         generator late by up to {:.3} ms (n={})",
        p50(lat).value,
        percentile(lat, 0.9).value,
        percentile(lat, 0.99).value,
        max(lat),
        lat.len(),
        max(&w.gen_late_ms),
        w.gen_late_ms.len(),
    );
    print!("{}", metrics.render());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.correct,
        w.attempted,
        w.failed,
        metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric one section of `BENCHMARK.json`
    /// declares, read with a plain text scan (the file's layout is fixed).
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("section closes")];
        let field = |line: &str, key: &str| -> String {
            let tail = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
            tail[..tail.find('"').expect("closing quote")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn measured() -> Measured {
        Measured {
            setup_s: vec![0.1],
            window: Window::default(),
            txns: Txns {
                committed: 1,
                aborted: 0,
                retried: 0,
                seconds: 1.0,
            },
            wal: Ratio { part: 0, base: 0 },
            checkpoints: 0,
            events: Ratio { part: 0, base: 0 },
            spans: Vec::new(),
            olap_bytes_end: 0,
            recovery_s: 0.0,
            pool_threads: 0,
            correct: true,
        }
    }

    fn emitted(metrics: &Metrics) -> Vec<(String, String)> {
        let names = metrics.names().into_iter();
        names.map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn runs_emit_exactly_the_metrics_benchmark_json_declares() {
        assert_eq!(emitted(&end_to_end(&measured())), declared("end_to_end"));
        assert_eq!(emitted(&per_layer(&measured())), declared("per_layer"));
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let args = parse("--workload olap-scan --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (args.workload.name, args.seed, args.seconds, args.trace),
            ("olap-scan", 7, 3, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1").is_err());
        assert!(parse("--workload htap-mix --seconds 1").is_err());
        assert!(parse("--workload htap-mix --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload htap-mix --seed x --seconds 1").is_err());
    }
}
