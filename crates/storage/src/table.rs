//! Columnar tables: a schema plus one [`Column`] per attribute.
//!
//! A `ColumnarTable` is one *instance* of a relation. The twin-instance
//! machinery in [`crate::twin`] owns two of them per relation plus the OLAP
//! engine's own instance.

use crate::column::Column;
use crate::schema::{TableSchema, Value};
use crate::stats::ColumnStats;
use crate::RowId;
use std::sync::atomic::{AtomicU64, Ordering};

/// One columnar instance of a relation.
#[derive(Debug)]
pub struct ColumnarTable {
    schema: TableSchema,
    columns: Vec<Column>,
    column_stats: Vec<ColumnStats>,
    /// Number of fully appended rows (published after all columns are written).
    row_count: AtomicU64,
}

impl ColumnarTable {
    /// Create an empty instance for `schema`.
    pub fn new(schema: TableSchema) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| Column::new(c.dtype))
            .collect();
        let column_stats = schema.columns.iter().map(|_| ColumnStats::new()).collect();
        ColumnarTable {
            schema,
            columns,
            column_stats,
            row_count: AtomicU64::new(0),
        }
    }

    /// Create an empty instance with per-column capacity pre-allocated.
    pub fn with_capacity(schema: TableSchema, rows: usize) -> Self {
        let columns = schema
            .columns
            .iter()
            .map(|c| Column::with_capacity(c.dtype, rows))
            .collect();
        let column_stats = schema.columns.iter().map(|_| ColumnStats::new()).collect();
        ColumnarTable {
            schema,
            columns,
            column_stats,
            row_count: AtomicU64::new(0),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of committed rows.
    pub fn row_count(&self) -> u64 {
        self.row_count.load(Ordering::Acquire)
    }

    /// Column accessor by index.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column accessor by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.column_index(name).map(|i| &self.columns[i])
    }

    /// Statistics of column `idx`.
    pub fn column_stats(&self, idx: usize) -> &ColumnStats {
        &self.column_stats[idx]
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Total bytes of the instance in columnar representation.
    pub fn bytes(&self) -> u64 {
        self.row_count() * self.schema.row_width_bytes()
    }

    /// Append a row; returns its [`RowId`]. The row must match the schema.
    pub fn append_row(&self, row: &[Value]) -> Result<RowId, crate::StorageError> {
        self.schema.check_row(row)?;
        for (col, val) in self.columns.iter().zip(row) {
            col.append(val);
        }
        // Publish the row only after every column holds it.
        let id = self.row_count.fetch_add(1, Ordering::AcqRel);
        Ok(id)
    }

    /// Append a row that is known to match the schema (skips validation);
    /// used on the bulk-load path.
    pub fn append_row_unchecked(&self, row: &[Value]) -> RowId {
        for (col, val) in self.columns.iter().zip(row) {
            col.append(val);
        }
        self.row_count.fetch_add(1, Ordering::AcqRel)
    }

    /// Overwrite one attribute of an existing row.
    pub fn update_value(
        &self,
        row: RowId,
        column: usize,
        value: &Value,
    ) -> Result<(), crate::StorageError> {
        if row >= self.row_count() {
            return Err(crate::StorageError::RowOutOfRange {
                table: self.schema.name.clone(),
                row,
                rows: self.row_count(),
            });
        }
        if value.data_type() != self.schema.columns[column].dtype {
            return Err(crate::StorageError::TypeMismatch {
                table: self.schema.name.clone(),
                column,
                expected: self.schema.columns[column].dtype,
                got: value.data_type(),
            });
        }
        self.columns[column].update(row as usize, value);
        self.column_stats[column].mark_updated();
        Ok(())
    }

    /// Read one attribute of a row.
    pub fn get_value(&self, row: RowId, column: usize) -> Option<Value> {
        if row >= self.row_count() {
            return None;
        }
        self.columns[column].get(row as usize)
    }

    /// Read a whole row.
    pub fn get_row(&self, row: RowId) -> Option<Vec<Value>> {
        if row >= self.row_count() {
            return None;
        }
        Some(
            self.columns
                .iter()
                // lint:allow(no-panic): row < row_count was checked above, and values are appended to every column before row_count is published
                .map(|c| c.get(row as usize).expect("row published but column short"))
                .collect(),
        )
    }

    /// Copy the rows `rows` (ascending) of `src` into this instance, one
    /// column at a time, growing this instance if necessary, then publish
    /// the row count once. Both instances must share the same schema. Used
    /// by twin synchronisation and ETL.
    pub fn copy_rows_from(&self, src: &ColumnarTable, rows: &[RowId]) {
        let Some(&last) = rows.last() else {
            return;
        };
        debug_assert_eq!(self.schema.arity(), src.schema.arity());
        for (dst_col, src_col) in self.columns.iter().zip(src.columns.iter()) {
            dst_col.copy_rows_from(src_col, rows);
        }
        // The row count only grows, never shrinks.
        self.row_count.fetch_max(last + 1, Ordering::AcqRel);
    }

    /// Copy the contiguous rows `range` of `src` into this instance, one
    /// column at a time, then publish the row count once (ETL of inserts).
    pub fn copy_range_from(&self, src: &ColumnarTable, range: std::ops::Range<RowId>) {
        if range.is_empty() {
            return;
        }
        debug_assert_eq!(self.schema.arity(), src.schema.arity());
        for (dst_col, src_col) in self.columns.iter().zip(src.columns.iter()) {
            dst_col.copy_range_from(src_col, range.clone());
        }
        self.row_count.fetch_max(range.end, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn item_schema() -> TableSchema {
        TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_id", DataType::I64),
                ColumnDef::new("i_price", DataType::F64),
                ColumnDef::new("i_name", DataType::Str),
            ],
            Some(0),
        )
    }

    fn row(id: i64, price: f64, name: &str) -> Vec<Value> {
        vec![Value::I64(id), Value::F64(price), Value::from(name)]
    }

    #[test]
    fn append_and_read_rows() {
        let t = ColumnarTable::new(item_schema());
        let r0 = t.append_row(&row(1, 9.5, "bolt")).unwrap();
        let r1 = t.append_row(&row(2, 3.25, "nut")).unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get_value(1, 1), Some(Value::F64(3.25)));
        assert_eq!(t.get_row(0).unwrap()[2], Value::from("bolt"));
        assert_eq!(t.get_row(5), None);
    }

    #[test]
    fn append_rejects_schema_violation() {
        let t = ColumnarTable::new(item_schema());
        assert!(t.append_row(&[Value::I64(1)]).is_err());
        assert!(t
            .append_row(&[Value::F64(1.0), Value::F64(1.0), Value::from("x")])
            .is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn update_marks_column_stats() {
        let t = ColumnarTable::new(item_schema());
        t.append_row(&row(1, 9.5, "bolt")).unwrap();
        assert!(!t.column_stats(1).is_updated());
        t.update_value(0, 1, &Value::F64(10.0)).unwrap();
        assert!(t.column_stats(1).is_updated());
        assert_eq!(t.get_value(0, 1), Some(Value::F64(10.0)));
    }

    #[test]
    fn update_rejects_bad_row_or_type() {
        let t = ColumnarTable::new(item_schema());
        t.append_row(&row(1, 9.5, "bolt")).unwrap();
        assert!(t.update_value(3, 1, &Value::F64(1.0)).is_err());
        assert!(t.update_value(0, 1, &Value::I64(1)).is_err());
    }

    #[test]
    fn bytes_accounting_scales_with_rows() {
        let t = ColumnarTable::new(item_schema());
        assert_eq!(t.bytes(), 0);
        for i in 0..10 {
            t.append_row(&row(i, 1.0, "x")).unwrap();
        }
        assert_eq!(t.bytes(), 10 * (8 + 8 + 24));
    }

    #[test]
    fn copy_rows_from_replicates_and_publishes() {
        let schema = item_schema();
        let src = ColumnarTable::new(schema.clone());
        let dst = ColumnarTable::new(schema);
        for i in 0..6 {
            src.append_row(&row(i, i as f64, &format!("n{i}"))).unwrap();
        }
        dst.copy_rows_from(&src, &[1, 4]);
        assert_eq!(dst.row_count(), 5);
        assert_eq!(dst.get_row(4), src.get_row(4));
        assert_eq!(dst.get_row(1), src.get_row(1));
        // Earlier rows exist as zero-filled placeholders until copied.
        assert_eq!(dst.get_value(2, 2), Some(Value::from("")));
        dst.copy_rows_from(&src, &[2]);
        assert_eq!(dst.get_value(2, 1), Some(Value::F64(2.0)));
        assert_eq!(dst.row_count(), 5, "row count must not shrink");
        dst.copy_range_from(&src, 3..6);
        assert_eq!(dst.row_count(), 6);
        for r in 1..6 {
            assert_eq!(dst.get_row(r), src.get_row(r), "row {r}");
        }
        dst.copy_range_from(&src, 2..2);
        assert_eq!(dst.row_count(), 6, "an empty range publishes nothing");
    }

    #[test]
    fn column_by_name_lookup() {
        let t = ColumnarTable::new(item_schema());
        assert!(t.column_by_name("i_price").is_some());
        assert!(t.column_by_name("nope").is_none());
    }
}
