//! End-to-end observability: a real system run must leave a coherent
//! picture in every collector — span trees for queries, ring events for
//! commits and morsels, decisions for the scheduler, metrics for the
//! registry — and the Chrome export must carry all of it as parseable
//! JSON.
//!
//! The obs state is process-global (rings, span log, registry, the
//! enabled flag), so the tests in this binary serialise on one mutex.

use adaptive_htap::{obs, HtapConfig, HtapSystem, QueryId, Schedule, SystemState};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn find_span<'a>(spans: &'a [obs::Span], name: &str) -> Option<&'a obs::Span> {
    for s in spans {
        if s.name == name {
            return Some(s);
        }
        if let Some(hit) = find_span(&s.children, name) {
            return Some(hit);
        }
    }
    None
}

/// Run the continuous ingest pool until at least `commits` transactions
/// committed, returning the stopped pool's totals.
fn ingest_at_least(system: &HtapSystem, commits: u64) -> adaptive_htap::oltp::OltpCounts {
    assert!(system.start_oltp_ingest() > 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while system.oltp_live_counts().committed < commits {
        assert!(Instant::now() < deadline, "ingest never reached {commits}");
        std::thread::yield_now();
    }
    system.stop_oltp_ingest().total()
}

fn committed_counter() -> u64 {
    obs::metrics_snapshot()
        .counters
        .get("oltp.txn.committed")
        .copied()
        .unwrap_or(0)
}

#[test]
fn a_real_run_populates_spans_events_decisions_and_metrics() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    let events_before = obs::obs().event_totals().recorded;
    let decisions_before = obs::decisions_snapshot().len();
    let counter_before = committed_counter();

    let pool = ingest_at_least(&system, 20);
    assert!(pool.committed >= 20);
    let report = system.execute_query(QueryId::Q6).expect("Q6 executes");
    assert!(report.result_rows >= 1);
    let sql_report = system
        .execute_sql("SELECT COUNT(*) FROM orderline")
        .expect("ad-hoc SQL executes");
    assert!(sql_report.result_rows >= 1);

    // Span trees: the CH query and the SQL query each left a root with the
    // full schedule→execute hierarchy underneath.
    let spans = obs::spans_snapshot();
    let roots: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert!(roots.contains(&"query"), "no query roots in {roots:?}");
    for name in [
        "query.execute",
        "rde.schedule",
        "rde.switch",
        "olap.pipeline",
        "worker",
        "sql.parse",
        "sql.bind",
        "sql.plan",
    ] {
        assert!(
            find_span(&spans, name).is_some(),
            "span {name} missing from the run's span log"
        );
    }
    let exec = find_span(&spans, "query.execute").unwrap();
    assert!(
        exec.args.iter().any(|(k, _)| *k == "freshness"),
        "query.execute carries no freshness arg: {:?}",
        exec.args
    );

    // Ring events: commits (the ingest pool) and morsels (the queries).
    let totals = obs::obs().event_totals();
    assert!(
        totals.recorded > events_before,
        "no ring events recorded by the run"
    );

    // Decision log: one decision per scheduled query, carrying the
    // scheduler's inputs.
    let decisions = obs::decisions_snapshot();
    assert!(decisions.len() >= decisions_before + 2);
    let last = decisions.last().unwrap();
    assert!(!last.state.is_empty() && !last.action.is_empty());
    assert!((0.0..=1.0).contains(&last.freshness));

    // Metrics registry: the standing counters and histograms moved. The
    // commit counter moved by exactly what the stopped pool reported.
    assert_eq!(committed_counter() - counter_before, pool.committed);
    let snapshot = obs::metrics_snapshot();
    let freshness = snapshot
        .histograms
        .get("query.freshness_ppm")
        .expect("freshness histogram exists");
    assert!(freshness.count >= 2);
    assert!(freshness.max <= 1_000_000);

    // With the pool stopped, the live counts read all-zero.
    assert_eq!(
        system.oltp_live_counts(),
        adaptive_htap::oltp::OltpCounts::default()
    );

    // Chrome export: carries all three sources, and a second export only
    // drains ring events recorded since the first.
    let json = obs::chrome::chrome_trace_json();
    for needle in [
        "\"traceEvents\"",
        "\"query.execute\"",
        "\"txn-commit\"",
        "\"morsel\"",
        "rde-",
        "olap-worker-0",
    ] {
        assert!(json.contains(needle), "export lacks {needle}");
    }
    assert!(json.trim_end().ends_with('}'));
    let drained_once = obs::obs().event_totals().drained;
    let _second = obs::chrome::chrome_trace_json();
    assert_eq!(
        obs::obs().event_totals().drained,
        drained_once,
        "second export re-drained events the first already consumed"
    );
}

#[test]
fn disabling_tracing_stops_recording_but_not_the_metrics_registry() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let system = HtapSystem::build(HtapConfig::tiny()).expect("system builds");
    obs::set_enabled(false);
    let events_before = obs::obs().event_totals().recorded;
    let spans_before = obs::spans_snapshot().len();
    let counter_before = committed_counter();
    let pool = ingest_at_least(&system, 5);
    system.execute_query(QueryId::Q1).expect("Q1 executes");
    assert_eq!(
        obs::obs().event_totals().recorded,
        events_before,
        "disabled tracing must not record ring events"
    );
    assert_eq!(
        obs::spans_snapshot().len(),
        spans_before,
        "disabled tracing must not open spans"
    );
    // The registry is a separate concern: counters keep counting.
    assert_eq!(committed_counter() - counter_before, pool.committed);
    obs::set_enabled(true);
}

fn histogram_count(name: &str) -> u64 {
    obs::metrics_snapshot()
        .histograms
        .get(name)
        .map_or(0, |h| h.count)
}

#[test]
fn every_switch_and_etl_lands_in_the_gate_and_etl_histograms() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    // Static S2 runs an ETL before every query.
    let config = HtapConfig::tiny().with_schedule(Schedule::Static(SystemState::S2Isolated));
    let system = HtapSystem::build(config).expect("system builds");
    let names = [
        "rde.switch.gate_wait_us",
        "rde.switch.gate_hold_us",
        "rde.etl_us",
    ];
    let before = names.map(histogram_count);
    let etls_before = system.with_scheduler(|s| s.etl_count());

    // Queries scheduled while the ingest pool contends for the gate, and
    // then with tracing off: the registry records either way.
    const TRACED: u64 = 3;
    const UNTRACED: u64 = 2;
    assert!(system.start_oltp_ingest() > 0);
    for _ in 0..TRACED {
        system.execute_query(QueryId::Q6).expect("Q6 executes");
    }
    obs::set_enabled(false);
    for _ in 0..UNTRACED {
        system.execute_query(QueryId::Q1).expect("Q1 executes");
    }
    obs::set_enabled(true);
    system.stop_oltp_ingest();

    let after = names.map(histogram_count);
    let etls = system.with_scheduler(|s| s.etl_count()) - etls_before;
    assert_eq!(
        after[0] - before[0],
        TRACED + UNTRACED,
        "one gate wait per switch"
    );
    assert_eq!(
        after[1] - before[1],
        TRACED + UNTRACED,
        "one gate hold per switch"
    );
    assert_eq!(etls, TRACED + UNTRACED);
    assert_eq!(after[2] - before[2], etls, "one ETL sample per ETL");

    let spans = obs::spans_snapshot();
    let switch = find_span(&spans, "rde.switch").expect("a traced switch span");
    for arg in ["gate_wait_us", "gate_hold_us"] {
        assert!(
            switch.args.iter().any(|(k, _)| *k == arg),
            "rde.switch carries no {arg} arg: {:?}",
            switch.args
        );
    }
}

#[test]
fn every_checkpoint_lands_in_the_checkpoint_histogram_traced_or_not() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut config = HtapConfig::tiny();
    // Every scheduled query switches once and checkpoints at that switch.
    config.durability.checkpoint_interval_switches = 1;
    let system = HtapSystem::build_durable(
        config,
        std::sync::Arc::new(adaptive_htap::durability::MemStorage::new()),
    )
    .expect("durable system builds");
    let durability = system.rde().oltp().durability().expect("built durable");
    for traced in [true, false] {
        obs::set_enabled(traced);
        let before = histogram_count("durability.checkpoint_us");
        let taken_before = durability.stats().checkpoints_taken;
        // Two checkpoints through the scheduler's switch, one explicit.
        assert!(system.run_oltp(2).committed > 0);
        system.execute_query(QueryId::Q6).expect("Q6 executes");
        assert!(system.checkpoint_now().expect("checkpoint succeeds"));
        system.execute_query(QueryId::Q1).expect("Q1 executes");
        let taken = durability.stats().checkpoints_taken - taken_before;
        assert_eq!(taken, 3, "traced {traced}");
        assert_eq!(
            histogram_count("durability.checkpoint_us") - before,
            taken,
            "one sample per checkpoint, traced {traced}"
        );
    }
    obs::set_enabled(true);
}
