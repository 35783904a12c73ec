//! Quickstart: build the HTAP system, ingest transactions, run the three
//! CH-benCHmark analytical queries and print what the scheduler did.
//!
//! Run with: `cargo run --example quickstart --release`

use adaptive_htap::{HtapConfig, HtapSystem, QueryId};

fn main() -> Result<(), String> {
    // A small CH-benCHmark database on the simulated two-socket server, with
    // the adaptive (hybrid-elasticity) schedule and α = 0.5.
    let system = HtapSystem::build(HtapConfig::small())?;
    println!(
        "loaded CH-benCHmark: {} rows ({} order lines), resources: {}",
        system.population().total_rows,
        system.population().orderlines,
        system.rde().describe_resources()
    );

    // The transactional queue: NewOrder transactions on every worker.
    let committed = system.run_oltp(200).committed;
    println!("ingested {committed} NewOrder transactions");

    // Analytical queries arrive one by one; the scheduler picks a state for
    // each based on the freshness of the data it touches.
    for query in [QueryId::Q1, QueryId::Q6, QueryId::Q19] {
        let report = system.execute_query(query).expect("CH query executes");
        println!(
            "{:>3}: state={:<5} exec={:.4}s sched={:.4}s freshness={:.3} fresh_rows={} oltp={:.2} MTPS{}",
            report.query,
            report.state.label(),
            report.execution_time,
            report.scheduling_time,
            report.freshness_rate,
            report.fresh_rows_accessed,
            report.oltp_mtps(),
            if report.performed_etl { " (ETL)" } else { "" },
        );
    }

    // More transactions arrive, making the OLAP instance stale again.
    system.run_oltp(200);
    let report = system
        .execute_query(QueryId::Q6)
        .expect("CH query executes");
    println!(
        "after more ingest -> {} chose {} (freshness {:.3})",
        report.query,
        report.state.label(),
        report.freshness_rate
    );
    Ok(())
}
