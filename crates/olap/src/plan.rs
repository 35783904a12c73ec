//! Query plans.
//!
//! The plans cover the analytical patterns the paper's evaluation uses
//! (§5.2–5.3): scan-filter-reduce (CH-Q6), scan-filter-group-by (CH-Q1) and
//! fact–dimension hash joins with aggregation (CH-Q19). Each plan lists the
//! relations and columns it touches, which is exactly the information the
//! scheduler needs to compute per-query freshness (Algorithm 2 "calculates the
//! freshness-rate metric only for the columns which will be accessed by every
//! query").

use crate::dag::DagPlan;
use crate::expr::{AggExpr, Predicate, ScalarExpr};
use std::collections::BTreeMap;

/// One hash-join build side: the relation to build from, the join key the
/// probe side is matched against, and the filters applied while building.
///
/// The key is a [`ScalarExpr`] rather than a column name so that composite
/// TPC-C keys can be joined through their integer encoding (e.g.
/// `(ol_w_id * 100 + ol_d_id) * 10^7 + ol_o_id` equals the `orders` relation's
/// encoded `o_key`). Key expressions evaluate over integer-valued columns, so
/// the `f64` arithmetic is exact (all CH key encodings stay far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSide {
    /// Relation the hash set is built from.
    pub table: String,
    /// Join-key expression evaluated over this relation's rows.
    pub key: ScalarExpr,
    /// Filters applied while building.
    pub filters: Vec<Predicate>,
}

impl BuildSide {
    /// Construct a build side.
    pub fn new(table: impl Into<String>, key: ScalarExpr, filters: Vec<Predicate>) -> Self {
        BuildSide {
            table: table.into(),
            key,
            filters,
        }
    }

    /// Columns this side reads (filters + key expression).
    pub fn columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self.filters.iter().map(|p| p.column.clone()).collect();
        cols.extend(self.key.columns());
        cols
    }

    /// The sorted, deduplicated column list a scan of this side materialises:
    /// filters + key expression + an optional foreign-key expression (the
    /// chain step of a three-table join). The executor uses this same list
    /// for reading *and* for byte accounting, so the two cannot drift.
    pub fn read_columns(&self, fk: Option<&ScalarExpr>) -> Vec<String> {
        let mut cols = self.columns();
        if let Some(fk) = fk {
            cols.extend(fk.columns());
        }
        cols.sort();
        cols.dedup();
        cols
    }
}

/// Top-k selection over the finalised groups of a
/// [`QueryPlan::JoinGroupByAggregate`]: keep the `k` groups with the largest
/// value of aggregate `agg_index`, ordered descending with ties broken by
/// ascending group key (the deterministic order both the morsel engine and
/// the reference executor produce).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopK {
    /// Index into the plan's aggregate list to order by.
    pub agg_index: usize,
    /// Number of groups to keep.
    pub k: usize,
}

/// A logical/physical query plan (the engine specialises operators per plan
/// shape at compile time; see "Vectorized execution pipeline" in
/// `ARCHITECTURE.md` for the code-generation substitution).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPlan {
    /// Scan → filter → full aggregation (no grouping). CH-Q6 shape.
    Aggregate {
        /// Scanned relation.
        table: String,
        /// Conjunctive filter predicates.
        filters: Vec<Predicate>,
        /// Aggregates to compute.
        aggregates: Vec<AggExpr>,
    },
    /// Scan → filter → hash group-by → aggregation. CH-Q1 shape.
    GroupByAggregate {
        /// Scanned relation.
        table: String,
        /// Conjunctive filter predicates.
        filters: Vec<Predicate>,
        /// Grouping key columns (integer-typed).
        group_by: Vec<String>,
        /// Aggregates to compute per group.
        aggregates: Vec<AggExpr>,
    },
    /// Fact–dimension hash join with aggregation (broadcast build side).
    /// CH-Q19 shape.
    JoinAggregate {
        /// Fact (probe-side) relation.
        fact: String,
        /// Dimension (build-side) relation.
        dim: String,
        /// Join key column on the fact side.
        fact_key: String,
        /// Join key column on the dimension side.
        dim_key: String,
        /// Filters applied to the fact side before probing.
        fact_filters: Vec<Predicate>,
        /// Filters applied to the dimension side while building.
        dim_filters: Vec<Predicate>,
        /// Aggregates over fact-side columns for joining tuples.
        aggregates: Vec<AggExpr>,
    },
    /// Three-table chain join fact ⋈ mid ⋈ far with scalar aggregation
    /// (CH-Q3 shape: `orderline ⋈ orders ⋈ customer`). The far set is built
    /// first; the mid build keeps only rows whose `mid_fk` hits the far set;
    /// the fact side probes the resulting mid set.
    MultiJoinAggregate {
        /// Fact (probe-side) relation.
        fact: String,
        /// Join-key expression over fact rows, matched against `mid.key`.
        fact_key: ScalarExpr,
        /// Filters applied to the fact side before probing.
        fact_filters: Vec<Predicate>,
        /// Middle dimension (first build side).
        mid: BuildSide,
        /// Foreign-key expression over `mid` rows, matched against `far.key`.
        mid_fk: ScalarExpr,
        /// Far dimension (second build side).
        far: BuildSide,
        /// Aggregates over fact-side columns for fully joined tuples.
        aggregates: Vec<AggExpr>,
    },
    /// Hash join followed by a hash group-by over fact columns, with an
    /// optional top-k over the finalised groups (CH-Q4/Q12 shape:
    /// `orders ⋈ orderline` grouped by `o_ol_cnt` / `o_carrier_id`).
    JoinGroupByAggregate {
        /// Fact (probe-side) relation — also the side the group keys and
        /// aggregate inputs come from.
        fact: String,
        /// Join-key expression over fact rows, matched against `dim.key`.
        fact_key: ScalarExpr,
        /// Filters applied to the fact side before probing.
        fact_filters: Vec<Predicate>,
        /// Dimension (build side).
        dim: BuildSide,
        /// Grouping key columns (integer-typed, fact side).
        group_by: Vec<String>,
        /// Aggregates to compute per group.
        aggregates: Vec<AggExpr>,
        /// Optional top-k ordering of the finalised groups.
        top_k: Option<TopK>,
    },
    /// An explicit composable operator DAG (see [`crate::dag`]). The five
    /// named shapes above are retained as convenient plan constructors for
    /// the common CH patterns, but the executor lowers *every* plan —
    /// including them — onto this representation, so there is exactly one
    /// execution path. Plans only expressible as a DAG (HAVING, N-way chain
    /// joins, sorted/limited output) use this variant directly.
    Dag(DagPlan),
}

impl QueryPlan {
    /// A short label for reports ("aggregate", "group-by", "join",
    /// "multi-join", "join-group-by").
    pub fn label(&self) -> &'static str {
        match self {
            QueryPlan::Aggregate { .. } => "aggregate",
            QueryPlan::GroupByAggregate { .. } => "group-by",
            QueryPlan::JoinAggregate { .. } => "join",
            QueryPlan::MultiJoinAggregate { .. } => "multi-join",
            QueryPlan::JoinGroupByAggregate { .. } => "join-group-by",
            QueryPlan::Dag(_) => "dag",
        }
    }

    /// The relations the plan reads.
    pub fn tables(&self) -> Vec<&str> {
        match self {
            QueryPlan::Aggregate { table, .. } | QueryPlan::GroupByAggregate { table, .. } => {
                vec![table]
            }
            QueryPlan::JoinAggregate { fact, dim, .. } => vec![fact, dim],
            QueryPlan::MultiJoinAggregate { fact, mid, far, .. } => {
                vec![fact, &mid.table, &far.table]
            }
            QueryPlan::JoinGroupByAggregate { fact, dim, .. } => vec![fact, &dim.table],
            QueryPlan::Dag(dag) => dag.tables(),
        }
    }

    /// The columns the plan reads, per relation. Drives both the byte
    /// accounting of the cost model and the per-query freshness computation.
    pub fn accessed_columns(&self) -> BTreeMap<String, Vec<String>> {
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut add = |table: &str, cols: Vec<String>| {
            let entry = out.entry(table.to_string()).or_default();
            entry.extend(cols);
            entry.sort();
            entry.dedup();
        };
        match self {
            QueryPlan::Aggregate {
                table,
                filters,
                aggregates,
            } => {
                let mut cols: Vec<String> = filters.iter().map(|p| p.column.clone()).collect();
                cols.extend(aggregates.iter().flat_map(AggExpr::columns));
                add(table, cols);
            }
            QueryPlan::GroupByAggregate {
                table,
                filters,
                group_by,
                aggregates,
            } => {
                let mut cols: Vec<String> = filters.iter().map(|p| p.column.clone()).collect();
                cols.extend(group_by.iter().cloned());
                cols.extend(aggregates.iter().flat_map(AggExpr::columns));
                add(table, cols);
            }
            QueryPlan::JoinAggregate {
                fact,
                dim,
                fact_key,
                dim_key,
                fact_filters,
                dim_filters,
                aggregates,
            } => {
                let mut fact_cols: Vec<String> =
                    fact_filters.iter().map(|p| p.column.clone()).collect();
                fact_cols.push(fact_key.clone());
                fact_cols.extend(aggregates.iter().flat_map(AggExpr::columns));
                add(fact, fact_cols);
                let mut dim_cols: Vec<String> =
                    dim_filters.iter().map(|p| p.column.clone()).collect();
                dim_cols.push(dim_key.clone());
                add(dim, dim_cols);
            }
            QueryPlan::MultiJoinAggregate {
                fact,
                fact_key,
                fact_filters,
                mid,
                mid_fk,
                far,
                aggregates,
            } => {
                let mut fact_cols: Vec<String> =
                    fact_filters.iter().map(|p| p.column.clone()).collect();
                fact_cols.extend(fact_key.columns());
                fact_cols.extend(aggregates.iter().flat_map(AggExpr::columns));
                add(fact, fact_cols);
                let mut mid_cols = mid.columns();
                mid_cols.extend(mid_fk.columns());
                add(&mid.table, mid_cols);
                add(&far.table, far.columns());
            }
            QueryPlan::JoinGroupByAggregate {
                fact,
                fact_key,
                fact_filters,
                dim,
                group_by,
                aggregates,
                ..
            } => {
                let mut fact_cols: Vec<String> =
                    fact_filters.iter().map(|p| p.column.clone()).collect();
                fact_cols.extend(fact_key.columns());
                fact_cols.extend(group_by.iter().cloned());
                fact_cols.extend(aggregates.iter().flat_map(AggExpr::columns));
                add(fact, fact_cols);
                add(&dim.table, dim.columns());
            }
            QueryPlan::Dag(dag) => return dag.accessed_columns(),
        }
        out
    }

    /// Per-tuple CPU cost estimate in nanoseconds, used by the cost model's
    /// CPU term. Group-bys and joins pay more per tuple than plain reductions.
    pub fn cpu_ns_per_tuple(&self) -> f64 {
        match self {
            QueryPlan::Aggregate {
                aggregates,
                filters,
                ..
            } => 0.5 + 0.3 * (aggregates.len() + filters.len()) as f64,
            QueryPlan::GroupByAggregate {
                aggregates,
                filters,
                group_by,
                ..
            } => 1.0 + 0.4 * (aggregates.len() + filters.len() + group_by.len()) as f64,
            QueryPlan::JoinAggregate {
                aggregates,
                fact_filters,
                dim_filters,
                ..
            } => 1.5 + 0.4 * (aggregates.len() + fact_filters.len() + dim_filters.len()) as f64,
            QueryPlan::JoinGroupByAggregate {
                aggregates,
                fact_filters,
                dim,
                group_by,
                ..
            } => {
                1.8 + 0.4
                    * (aggregates.len() + fact_filters.len() + dim.filters.len() + group_by.len())
                        as f64
            }
            QueryPlan::MultiJoinAggregate {
                aggregates,
                fact_filters,
                mid,
                far,
                ..
            } => {
                2.2 + 0.4
                    * (aggregates.len()
                        + fact_filters.len()
                        + mid.filters.len()
                        + far.filters.len()) as f64
            }
            QueryPlan::Dag(dag) => dag.cpu_ns_per_tuple(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, ScalarExpr};

    fn q6_like() -> QueryPlan {
        QueryPlan::Aggregate {
            table: "orderline".into(),
            filters: vec![Predicate::new("ol_quantity", CmpOp::Lt, 25.0)],
            aggregates: vec![AggExpr::Sum(ScalarExpr::col("ol_amount"))],
        }
    }

    #[test]
    fn labels_and_tables() {
        assert_eq!(q6_like().label(), "aggregate");
        assert_eq!(q6_like().tables(), vec!["orderline"]);
        let join = QueryPlan::JoinAggregate {
            fact: "orderline".into(),
            dim: "item".into(),
            fact_key: "ol_i_id".into(),
            dim_key: "i_id".into(),
            fact_filters: vec![],
            dim_filters: vec![],
            aggregates: vec![AggExpr::Count],
        };
        assert_eq!(join.label(), "join");
        assert_eq!(join.tables(), vec!["orderline", "item"]);
    }

    #[test]
    fn accessed_columns_deduplicate_and_cover_all_clauses() {
        let plan = QueryPlan::GroupByAggregate {
            table: "orderline".into(),
            filters: vec![Predicate::new("ol_delivery_d", CmpOp::Gt, 10.0)],
            group_by: vec!["ol_number".into()],
            aggregates: vec![
                AggExpr::Sum(ScalarExpr::col("ol_amount")),
                AggExpr::Avg(ScalarExpr::col("ol_amount")),
                AggExpr::Count,
            ],
        };
        let cols = plan.accessed_columns();
        assert_eq!(
            cols["orderline"],
            vec![
                "ol_amount".to_string(),
                "ol_delivery_d".into(),
                "ol_number".into()
            ]
        );
    }

    #[test]
    fn join_accessed_columns_split_by_table() {
        let plan = QueryPlan::JoinAggregate {
            fact: "orderline".into(),
            dim: "item".into(),
            fact_key: "ol_i_id".into(),
            dim_key: "i_id".into(),
            fact_filters: vec![Predicate::new("ol_quantity", CmpOp::Le, 10.0)],
            dim_filters: vec![Predicate::new("i_price", CmpOp::Ge, 1.0)],
            aggregates: vec![AggExpr::Sum(ScalarExpr::col("ol_amount"))],
        };
        let cols = plan.accessed_columns();
        assert_eq!(
            cols["orderline"],
            vec![
                "ol_amount".to_string(),
                "ol_i_id".into(),
                "ol_quantity".into()
            ]
        );
        assert_eq!(cols["item"], vec!["i_id".to_string(), "i_price".into()]);
    }

    #[test]
    fn cpu_cost_orders_plans_by_complexity() {
        let agg = q6_like().cpu_ns_per_tuple();
        let group = QueryPlan::GroupByAggregate {
            table: "t".into(),
            filters: vec![],
            group_by: vec!["g".into()],
            aggregates: vec![AggExpr::Count],
        }
        .cpu_ns_per_tuple();
        let join = QueryPlan::JoinAggregate {
            fact: "f".into(),
            dim: "d".into(),
            fact_key: "k".into(),
            dim_key: "k".into(),
            fact_filters: vec![],
            dim_filters: vec![],
            aggregates: vec![AggExpr::Count],
        }
        .cpu_ns_per_tuple();
        assert!(agg < group && group < join);
    }

    fn q3_like() -> QueryPlan {
        // orderline ⋈ orders ⋈ customer through the encoded composite keys.
        QueryPlan::MultiJoinAggregate {
            fact: "orderline".into(),
            fact_key: (ScalarExpr::col("ol_w_id") * ScalarExpr::lit(100.0)
                + ScalarExpr::col("ol_d_id"))
                * ScalarExpr::lit(10_000_000.0)
                + ScalarExpr::col("ol_o_id"),
            fact_filters: vec![Predicate::new("ol_delivery_d", CmpOp::Ge, 0.0)],
            mid: BuildSide::new(
                "orders",
                ScalarExpr::col("o_key"),
                vec![Predicate::new("o_entry_d", CmpOp::Ge, 0.0)],
            ),
            mid_fk: (ScalarExpr::col("o_w_id") * ScalarExpr::lit(100.0)
                + ScalarExpr::col("o_d_id"))
                * ScalarExpr::lit(100_000.0)
                + ScalarExpr::col("o_c_id"),
            far: BuildSide::new(
                "customer",
                ScalarExpr::col("c_key"),
                vec![Predicate::new("c_balance", CmpOp::Lt, 0.0)],
            ),
            aggregates: vec![AggExpr::Sum(ScalarExpr::col("ol_amount")), AggExpr::Count],
        }
    }

    #[test]
    fn multi_join_lists_all_three_tables_and_their_columns() {
        let plan = q3_like();
        assert_eq!(plan.label(), "multi-join");
        assert_eq!(plan.tables(), vec!["orderline", "orders", "customer"]);
        let cols = plan.accessed_columns();
        // Fact: filters + key-expression columns + aggregate inputs.
        for c in [
            "ol_delivery_d",
            "ol_w_id",
            "ol_d_id",
            "ol_o_id",
            "ol_amount",
        ] {
            assert!(cols["orderline"].contains(&c.to_string()), "missing {c}");
        }
        // Mid: its own key + filters + the fk-expression columns.
        for c in ["o_key", "o_entry_d", "o_w_id", "o_d_id", "o_c_id"] {
            assert!(cols["orders"].contains(&c.to_string()), "missing {c}");
        }
        // Far: key + filters only.
        assert_eq!(
            cols["customer"],
            vec!["c_balance".to_string(), "c_key".into()]
        );
    }

    #[test]
    fn join_group_by_lists_group_keys_and_both_tables() {
        let plan = QueryPlan::JoinGroupByAggregate {
            fact: "orders".into(),
            fact_key: ScalarExpr::col("o_key"),
            fact_filters: vec![],
            dim: BuildSide::new(
                "orderline",
                ScalarExpr::col("ol_o_key"),
                vec![Predicate::new("ol_amount", CmpOp::Ge, 500.0)],
            ),
            group_by: vec!["o_ol_cnt".into()],
            aggregates: vec![AggExpr::Count],
            top_k: Some(TopK { agg_index: 0, k: 5 }),
        };
        assert_eq!(plan.label(), "join-group-by");
        assert_eq!(plan.tables(), vec!["orders", "orderline"]);
        let cols = plan.accessed_columns();
        assert_eq!(cols["orders"], vec!["o_key".to_string(), "o_ol_cnt".into()]);
        assert_eq!(
            cols["orderline"],
            vec!["ol_amount".to_string(), "ol_o_key".into()]
        );
    }

    #[test]
    fn new_shapes_cost_more_per_tuple_than_their_simpler_counterparts() {
        let join = QueryPlan::JoinAggregate {
            fact: "f".into(),
            dim: "d".into(),
            fact_key: "k".into(),
            dim_key: "k".into(),
            fact_filters: vec![],
            dim_filters: vec![],
            aggregates: vec![AggExpr::Count],
        }
        .cpu_ns_per_tuple();
        let jgb = QueryPlan::JoinGroupByAggregate {
            fact: "f".into(),
            fact_key: ScalarExpr::col("k"),
            fact_filters: vec![],
            dim: BuildSide::new("d", ScalarExpr::col("k"), vec![]),
            group_by: vec!["g".into()],
            aggregates: vec![AggExpr::Count],
            top_k: None,
        }
        .cpu_ns_per_tuple();
        let multi = q3_like().cpu_ns_per_tuple();
        assert!(join < jgb && jgb < multi);
    }
}
