//! A "short and fresh" workload (§2.3 of the paper): a dashboard issues small
//! analytical queries continuously and every query must see the latest
//! transactions. The adaptive scheduler keeps the system in the hybrid states
//! (split access / borrowed cores) so queries reach fresh data without paying
//! a full ETL, and falls back to an ETL only once the fresh delta dominates.
//!
//! Run with: `cargo run --example realtime_dashboard --release`

use adaptive_htap::core::SchedulerPolicy;
use adaptive_htap::{HtapConfig, HtapSystem, QueryId, Schedule};

fn main() -> Result<(), String> {
    // Hybrid elasticity with a moderately lazy ETL threshold.
    let config = HtapConfig::small().with_schedule(Schedule::Adaptive(
        SchedulerPolicy::adaptive_non_isolated(0.6),
    ));
    let system = HtapSystem::build(config)?;
    println!(
        "dashboard over {} order lines",
        system.population().orderlines
    );

    let mut total_fresh = 0u64;
    for tick in 0..12 {
        // Transactions stream in between dashboard refreshes.
        let committed = system.run_oltp(50).committed;
        // The dashboard refresh is a cheap scan-heavy query over the newest data.
        let report = system
            .execute_query(QueryId::Q6)
            .expect("CH query executes");
        total_fresh += report.fresh_rows_accessed;
        println!(
            "tick {tick:>2}: +{committed:>4} txns | {} in {:.4}s via {:<5} freshness={:.3} fresh_rows={}{}",
            report.query,
            report.total_time(),
            report.state.label(),
            report.freshness_rate,
            report.fresh_rows_accessed,
            if report.performed_etl { " [ETL]" } else { "" }
        );
    }
    println!(
        "dashboard read {total_fresh} fresh rows; ETLs performed: {}",
        system.with_scheduler(|s| s.etl_count())
    );
    println!(
        "final resource split: {}",
        system.rde().describe_resources()
    );
    Ok(())
}
