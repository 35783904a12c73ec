//! Shared plumbing for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Each figure has its own binary under `src/bin/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig1_etl_vs_cow`        | Figure 1 — ETL vs CoW motivation experiment |
//! | `table1_design_space`    | Table 1 — design-space classification probe |
//! | `fig3a_s1_sensitivity`   | Figure 3(a) — co-located state sensitivity |
//! | `fig3b_s2_batches`       | Figure 3(b) — isolated state batch amortisation |
//! | `fig3c_s3ni_elastic`     | Figure 3(c) — hybrid non-isolated elasticity |
//! | `fig4_freshness_sweep`   | Figure 4 — response time vs fresh data accessed |
//! | `fig5_adaptive_mix`      | Figure 5(a)+(b) — adaptive vs static schedules |
//!
//! All binaries accept `--scale <sf>` (CH scale factor, default 0.02),
//! `--sequences <n>` where applicable, and `--csv` to print machine-readable
//! output. `fig5_adaptive_mix` additionally accepts `--concurrent` (OLTP
//! ingest runs continuously while the sequences execute), `--smoke`
//! (CI-bounded tiny run) and `--paper-mix` (the paper's original
//! {Q1, Q6, Q19} sequence instead of the widened seven-query default).
//! Modelled times come from the simulated machine of `htap-sim` (see "Crate
//! layering" in `ARCHITECTURE.md`); the shapes — not the absolute values —
//! are the reproduction target.

use htap_chbench::{ChConfig, ChGenerator, TransactionDriver};
use htap_olap::{QueryExecutor, QueryPlan, WorkerTeam};
use htap_rde::{AccessMethod, RdeConfig, RdeEngine};
use htap_sim::{CoreId, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// CH-benCHmark scale factor.
    pub scale: f64,
    /// Number of sequences / repetitions, where applicable.
    pub sequences: usize,
    /// Emit CSV instead of an aligned text table.
    pub csv: bool,
    /// Also run the measured (wall-clock) scaling sweep where the harness
    /// supports one — real threads over real data instead of modelled time.
    pub measured: bool,
    /// Run OLTP ingest continuously *while* the analytical sequences execute
    /// (fig5): per-query freshness against the live delta stream and
    /// measured, not modelled, per-query OLTP throughput.
    pub concurrent: bool,
    /// Bound the run to a CI-friendly few seconds (tiny scale, few
    /// sequences); used by the concurrent smoke step.
    pub smoke: bool,
    /// Restrict fig5 to the paper's original {Q1, Q6, Q19} mix instead of
    /// the widened {Q1, Q3, Q4, Q6, Q12, Q14, Q19} default.
    pub paper_mix: bool,
    /// Export a Chrome `trace_event` JSON file of the run (spans, per-worker
    /// events and RDE decisions) to the given path; open it in
    /// `chrome://tracing` or Perfetto.
    pub trace: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 0.02,
            sequences: 30,
            csv: false,
            measured: false,
            concurrent: false,
            smoke: false,
            paper_mix: false,
            trace: None,
        }
    }
}

impl HarnessArgs {
    /// Parse `--scale`, `--sequences` and `--csv` from the process arguments,
    /// falling back to the defaults for anything absent.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.scale = v;
                    }
                }
                "--sequences" => {
                    if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                        out.sequences = v;
                    }
                }
                "--csv" => out.csv = true,
                "--measured" => out.measured = true,
                "--concurrent" => out.concurrent = true,
                "--smoke" => out.smoke = true,
                "--paper-mix" => out.paper_mix = true,
                "--trace" => out.trace = iter.next(),
                _ => {}
            }
        }
        out
    }

    /// The CH-benCHmark configuration implied by the arguments, bounded below
    /// so even `--scale 0` produces a runnable database.
    pub fn chbench(&self) -> ChConfig {
        let mut cfg = ChConfig::scale_factor(self.scale.max(0.001));
        // Keep warehouse/customer dimensions host-friendly at tiny scales.
        cfg.warehouses = 4;
        cfg.customers_per_district = 100;
        cfg.items = 10_000;
        cfg
    }
}

/// A populated HTAP stack ready for an experiment: RDE engine (with both
/// engines inside), the CH generator's report and the transaction driver.
pub struct Harness {
    /// The resource and data exchange engine owning both engines.
    pub rde: Arc<RdeEngine>,
    /// The CH-benCHmark transaction driver.
    pub driver: TransactionDriver,
    /// The population that was loaded.
    pub rows_loaded: u64,
}

impl Harness {
    /// Build a populated stack on the given topology.
    pub fn build(args: &HarnessArgs, topology: Topology) -> Self {
        let chbench = args.chbench();
        let rde_config = RdeConfig {
            topology,
            ..RdeConfig::default()
        };
        let rde = Arc::new(RdeEngine::bootstrap(rde_config));
        let generator = ChGenerator::new(chbench.clone());
        let report = generator.build(&rde).expect("population succeeds");
        Harness {
            rde,
            driver: TransactionDriver::for_config(&chbench),
            rows_loaded: report.total_rows,
        }
    }

    /// Build on the paper's two-socket evaluation server.
    pub fn two_socket(args: &HarnessArgs) -> Self {
        Self::build(args, Topology::two_socket())
    }

    /// Build on the four-socket machine of Figure 1.
    pub fn four_socket(args: &HarnessArgs) -> Self {
        Self::build(args, Topology::four_socket())
    }

    /// Run `txns` NewOrder transactions spread over `workers` warehouses.
    pub fn ingest(&self, txns: u64, workers: u64, seed: u64) -> u64 {
        let workers = workers.max(1);
        let per_worker = (txns / workers).max(1);
        let mut committed = 0;
        for w in 0..workers {
            committed += self
                .driver
                .run_new_orders(self.rde.oltp(), w, per_worker, seed + w)
                .committed;
        }
        committed
    }
}

/// One point of a measured (wall-clock) scaling sweep: the same plan over
/// the same data, executed by a worker team of the given size.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Pipeline workers (granted cores) of the run.
    pub workers: usize,
    /// Best wall-clock execution time over the repetitions, seconds.
    pub best_seconds: f64,
    /// Scan throughput at the best time, tuples per second.
    pub tuples_per_second: f64,
}

/// Measure wall-clock scan scaling of the morsel-driven executor: execute
/// `plan` with each worker count of `worker_counts` and report the best of
/// `repetitions` runs (the modelled times elsewhere in the harnesses are
/// deterministic; this is the one place real threads touch real data, so the
/// minimum over a few runs filters scheduler noise).
pub fn measured_scan_scaling(
    rde: &RdeEngine,
    plan: &QueryPlan,
    access: AccessMethod,
    worker_counts: &[usize],
    repetitions: usize,
) -> Vec<MeasuredPoint> {
    let sources = rde.sources_for(&plan.tables(), access);
    // Morsels small enough that even the tiny default scale gives every
    // worker of the largest team a queue to pull from.
    let executor = QueryExecutor::with_block_rows(4 * 1024);
    worker_counts
        .iter()
        .map(|&workers| {
            let team = WorkerTeam::from_cores((0..workers as u16).map(CoreId).collect());
            // Warm-up run: faults the columns in and spins the threads up once.
            let output = executor
                .execute_parallel(plan, &sources, &team)
                .expect("CH plan matches its sources");
            let tuples = output.work.tuples_scanned;
            let mut best = f64::INFINITY;
            for _ in 0..repetitions.max(1) {
                let start = Instant::now();
                let out = executor
                    .execute_parallel(plan, &sources, &team)
                    .expect("CH plan matches its sources");
                let elapsed = start.elapsed().as_secs_f64();
                assert_eq!(out.result, output.result, "parallel runs must agree");
                best = best.min(elapsed);
            }
            MeasuredPoint {
                workers,
                best_seconds: best,
                tuples_per_second: if best > 0.0 {
                    tuples as f64 / best
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Format a seconds value with µs precision for the experiment tables.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.6}")
}

/// Format a throughput value as MTPS.
pub fn fmt_mtps(tps: f64) -> String {
    format!("{:.3}", tps / 1e6)
}

/// The executor perf-trajectory fixture: one synthetic fact relation with
/// two dimensions plus the six plan shapes of the morsel executor, shared
/// by the `olap/vectorized_*` / `olap/baseline_*` criterion benches and the
/// `bench_exec` binary that records `BENCH_exec.json`.
pub mod exec_trajectory {
    use htap_olap::{
        AggExpr, BuildSide, CmpOp, Predicate, QueryPlan, ScalarExpr, ScanSource, TopK,
    };
    use htap_sim::SocketId;
    use htap_storage::{ColumnDef, ColumnarTable, DataType, TableSchema, TableSnapshot, Value};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Build the fact/dim/far access paths with `rows` fact tuples.
    pub fn sources(rows: u64) -> BTreeMap<String, ScanSource> {
        let fact = {
            let schema = TableSchema::new(
                "fact",
                vec![
                    ColumnDef::new("f_id", DataType::I64),
                    ColumnDef::new("f_mid", DataType::I64),
                    ColumnDef::new("f_g", DataType::I32),
                    ColumnDef::new("f_hc", DataType::I64),
                    ColumnDef::new("f_a", DataType::F64),
                    ColumnDef::new("f_b", DataType::F64),
                ],
                Some(0),
            );
            let t = ColumnarTable::new(schema);
            for i in 0..rows {
                t.append_row(&[
                    Value::I64(i as i64),
                    Value::I64((i % 64) as i64),
                    Value::I32((i % 24) as i32),
                    Value::I64((i.wrapping_mul(2654435761) % 65536) as i64),
                    Value::F64((i % 100) as f64 + 0.25),
                    Value::F64((i % 13) as f64 * 0.5),
                ])
                .unwrap();
            }
            Arc::new(t)
        };
        let dim = {
            let schema = TableSchema::new(
                "dim",
                vec![
                    ColumnDef::new("d_id", DataType::I64),
                    ColumnDef::new("d_far", DataType::I64),
                    ColumnDef::new("d_v", DataType::F64),
                ],
                Some(0),
            );
            let t = ColumnarTable::new(schema);
            for i in 0..64u64 {
                t.append_row(&[
                    Value::I64(i as i64),
                    Value::I64((i % 8) as i64),
                    Value::F64(i as f64 * 3.0),
                ])
                .unwrap();
            }
            Arc::new(t)
        };
        let far = {
            let schema = TableSchema::new(
                "far",
                vec![
                    ColumnDef::new("r_id", DataType::I64),
                    ColumnDef::new("r_v", DataType::F64),
                ],
                Some(0),
            );
            let t = ColumnarTable::new(schema);
            for i in 0..8u64 {
                t.append_row(&[Value::I64(i as i64), Value::F64(i as f64)])
                    .unwrap();
            }
            Arc::new(t)
        };
        let mut sources = BTreeMap::new();
        let snap = TableSnapshot::new("fact".into(), fact, rows, 0);
        sources.insert(
            "fact".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let snap = TableSnapshot::new("dim".into(), dim, 64, 0);
        sources.insert(
            "dim".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        let snap = TableSnapshot::new("far".into(), far, 8, 0);
        sources.insert(
            "far".to_string(),
            ScanSource::contiguous_snapshot(&snap, SocketId(0)),
        );
        sources
    }

    /// The six plan shapes of the trajectory, labelled by the CH query
    /// whose shape they mirror (plus a high-cardinality group-by stressing
    /// the radix-partitioned merge).
    pub fn plans() -> Vec<(&'static str, QueryPlan)> {
        vec![
            (
                "q6_aggregate",
                QueryPlan::Aggregate {
                    table: "fact".into(),
                    filters: vec![Predicate::new("f_a", CmpOp::Lt, 60.0)],
                    aggregates: vec![
                        AggExpr::Sum(ScalarExpr::col("f_a") * ScalarExpr::col("f_b")),
                        AggExpr::Avg(ScalarExpr::col("f_a")),
                        AggExpr::Count,
                    ],
                },
            ),
            (
                // Mirrors the repo's ch_q1: sums, averages and a count over
                // two measures, grouped by a small integer key.
                "q1_group_by",
                QueryPlan::GroupByAggregate {
                    table: "fact".into(),
                    filters: vec![Predicate::new("f_a", CmpOp::Ge, 10.0)],
                    group_by: vec!["f_g".into()],
                    aggregates: vec![
                        AggExpr::Sum(ScalarExpr::col("f_a")),
                        AggExpr::Sum(ScalarExpr::col("f_b")),
                        AggExpr::Avg(ScalarExpr::col("f_a")),
                        AggExpr::Avg(ScalarExpr::col("f_b")),
                        AggExpr::Count,
                    ],
                },
            ),
            (
                // High-cardinality GROUP BY: up to 64k scrambled groups, the
                // shape the radix-partitioned merge exists for. No filter, so
                // every row upserts into the group table.
                "hicard_group_by",
                QueryPlan::GroupByAggregate {
                    table: "fact".into(),
                    filters: vec![],
                    group_by: vec!["f_hc".into()],
                    aggregates: vec![
                        AggExpr::Sum(ScalarExpr::col("f_a")),
                        AggExpr::Max(ScalarExpr::col("f_b")),
                        AggExpr::Count,
                    ],
                },
            ),
            (
                "q19_join",
                QueryPlan::JoinAggregate {
                    fact: "fact".into(),
                    dim: "dim".into(),
                    fact_key: "f_mid".into(),
                    dim_key: "d_id".into(),
                    fact_filters: vec![Predicate::new("f_a", CmpOp::Ge, 5.0)],
                    dim_filters: vec![Predicate::new("d_v", CmpOp::Ge, 30.0)],
                    aggregates: vec![AggExpr::Sum(ScalarExpr::col("f_a")), AggExpr::Count],
                },
            ),
            (
                "q3_multi_join",
                QueryPlan::MultiJoinAggregate {
                    fact: "fact".into(),
                    fact_key: ScalarExpr::col("f_mid"),
                    fact_filters: vec![Predicate::new("f_b", CmpOp::Ge, 1.0)],
                    mid: BuildSide::new("dim", ScalarExpr::col("d_id"), vec![]),
                    mid_fk: ScalarExpr::col("d_far"),
                    far: BuildSide::new(
                        "far",
                        ScalarExpr::col("r_id"),
                        vec![Predicate::new("r_v", CmpOp::Ge, 2.0)],
                    ),
                    aggregates: vec![AggExpr::Sum(ScalarExpr::col("f_a")), AggExpr::Count],
                },
            ),
            (
                "q4_join_group_by",
                QueryPlan::JoinGroupByAggregate {
                    fact: "fact".into(),
                    fact_key: ScalarExpr::col("f_mid"),
                    fact_filters: vec![Predicate::new("f_a", CmpOp::Ge, 10.0)],
                    dim: BuildSide::new(
                        "dim",
                        ScalarExpr::col("d_id"),
                        vec![Predicate::new("d_v", CmpOp::Ge, 15.0)],
                    ),
                    group_by: vec!["f_g".into()],
                    aggregates: vec![AggExpr::Count, AggExpr::Sum(ScalarExpr::col("f_a"))],
                    top_k: Some(TopK {
                        agg_index: 0,
                        k: 10,
                    }),
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_known_flags_and_ignore_others() {
        let args = HarnessArgs::parse_from(
            [
                "--scale",
                "0.05",
                "--junk",
                "--sequences",
                "12",
                "--csv",
                "--concurrent",
                "--smoke",
                "--paper-mix",
                "--trace",
                "out.json",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(args.scale, 0.05);
        assert_eq!(args.sequences, 12);
        assert!(args.csv);
        assert!(args.concurrent);
        assert!(args.smoke);
        assert!(args.paper_mix);
        assert_eq!(args.trace.as_deref(), Some("out.json"));
        let defaults = HarnessArgs::parse_from(std::iter::empty());
        assert_eq!(defaults, HarnessArgs::default());
    }

    #[test]
    fn chbench_config_is_bounded_below() {
        let args = HarnessArgs {
            scale: 0.0,
            ..HarnessArgs::default()
        };
        assert!(args.chbench().orderlines >= 6_000);
    }

    #[test]
    fn harness_builds_and_ingests() {
        let args = HarnessArgs {
            scale: 0.001,
            sequences: 1,
            ..HarnessArgs::default()
        };
        let harness = Harness::two_socket(&args);
        assert!(harness.rows_loaded > 0);
        let committed = harness.ingest(8, 4, 1);
        assert!(committed >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.1234567), "0.123457");
        assert_eq!(fmt_mtps(1_234_000.0), "1.234");
    }
}
