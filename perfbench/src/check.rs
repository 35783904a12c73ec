//! Answer checks: engine results against the row-at-a-time oracle, and the
//! store recovered from disk against the store that wrote it.

use htap_core::HtapSystem;
use htap_olap::{execute_reference, QueryResult};
use std::collections::BTreeMap;

/// Relative tolerance for SUM and AVG, as in the differential suite: the
/// vectorized engine and the oracle add in different orders, so the last
/// bits may differ.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Compare an engine result with the oracle's: shapes, counts and group keys
/// exactly, aggregate values to [`REL_TOL`].
pub fn compare(engine: &QueryResult, reference: &QueryResult) -> Result<(), String> {
    match (engine, reference) {
        (QueryResult::Scalars(e), QueryResult::Scalars(r)) => {
            if e.len() != r.len() {
                return Err(format!("scalar arity {} vs {}", e.len(), r.len()));
            }
            for (i, (a, b)) in e.iter().zip(r).enumerate() {
                if !close(*a, *b) {
                    return Err(format!("scalar {i}: engine {a} vs oracle {b}"));
                }
            }
            Ok(())
        }
        (QueryResult::Groups(e), QueryResult::Groups(r)) => {
            if e.len() != r.len() {
                return Err(format!("group count {} vs {}", e.len(), r.len()));
            }
            for (i, ((ek, ea), (rk, ra))) in e.iter().zip(r).enumerate() {
                if ek != rk {
                    return Err(format!("group {i}: key {ek:?} vs {rk:?}"));
                }
                if ea.len() != ra.len() {
                    return Err(format!("group {i}: arity {} vs {}", ea.len(), ra.len()));
                }
                for (j, (a, b)) in ea.iter().zip(ra).enumerate() {
                    if !close(*a, *b) {
                        return Err(format!("group {i} agg {j}: engine {a} vs oracle {b}"));
                    }
                }
            }
            Ok(())
        }
        _ => Err("result shapes differ".into()),
    }
}

/// Run each query through the same public calls `execute_sql` makes and
/// compare the engine's answer with the oracle's over the same sources.
/// Ingest must be stopped, so both read one unchanging snapshot.
pub fn answers(system: &HtapSystem, sqls: &[(&'static str, String)]) -> Result<(), String> {
    for (label, sql) in sqls {
        let plan = system
            .plan_sql(sql)
            .map_err(|e| format!("{label}: plan: {e}"))?;
        let scheduled = system.with_scheduler(|s| s.schedule_query(&plan, false));
        let engine = system
            .rde()
            .olap()
            .run_query(&plan, &scheduled.sources, None)
            .map_err(|e| format!("{label}: engine: {e}"))?;
        let reference = execute_reference(&plan, &scheduled.sources)
            .map_err(|e| format!("{label}: oracle: {e}"))?;
        compare(&engine.output.result, &reference).map_err(|e| format!("{label}: {e}"))?;
    }
    Ok(())
}

/// Per relation: rows in the active instance and keys in the primary index.
pub fn table_counts(system: &HtapSystem) -> BTreeMap<String, (u64, usize)> {
    let oltp = system.rde().oltp();
    oltp.table_names()
        .into_iter()
        .filter_map(|name| {
            let rt = oltp.table(&name)?;
            let counts = (rt.twin().row_count(), rt.index().len());
            Some((name, counts))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_match_to_a_relative_tolerance() {
        let a = QueryResult::Scalars(vec![1e12, 3.0]);
        let b = QueryResult::Scalars(vec![1e12 + 1e2, 3.0]);
        assert!(compare(&a, &b).is_ok());
        let far = QueryResult::Scalars(vec![1e12 + 1e4, 3.0]);
        assert!(compare(&a, &far).is_err());
    }

    #[test]
    fn keys_counts_and_shapes_match_exactly() {
        let g = |k: i64| QueryResult::Groups(vec![(vec![k], vec![1.0])]);
        assert!(compare(&g(1), &g(1)).is_ok());
        assert!(compare(&g(1), &g(2)).is_err());
        assert!(compare(&g(1), &QueryResult::Groups(vec![])).is_err());
        assert!(compare(&g(1), &QueryResult::Scalars(vec![1.0])).is_err());
    }
}
