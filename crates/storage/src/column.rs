//! Typed, append-friendly columns.
//!
//! Each column stores its values contiguously (one `Vec` per type), which is
//! what gives the OLAP engine sequential scans at memory bandwidth over the
//! inactive twin instance (§3.2: "each instance keeps data in a columnar
//! layout, to allow the OLAP engine to perform fast scans"). Columns are
//! individually lockable so that transactional appends/updates on the active
//! instance never conflict with scans of the inactive one.

use crate::schema::{DataType, Value};
use crate::RowId;
use parking_lot::{RwLock, RwLockReadGuard};

/// A read guard over a whole typed column, exposing its values as a
/// contiguous slice for the guard's lifetime.
///
/// This is the zero-copy access path of the OLAP executor: instead of
/// copying a row range out of the column under the lock (the `with_*`
/// closures), a scan holds the guard for the duration of one morsel and
/// reads the slice in place.
pub enum ColumnGuard<'a> {
    /// Guard over a 64-bit integer column.
    I64(RwLockReadGuard<'a, Vec<i64>>),
    /// Guard over a 64-bit float column.
    F64(RwLockReadGuard<'a, Vec<f64>>),
    /// Guard over a 32-bit integer column.
    I32(RwLockReadGuard<'a, Vec<i32>>),
    /// Guard over a string column.
    Str(RwLockReadGuard<'a, Vec<String>>),
}

/// Typed column storage.
#[derive(Debug)]
pub enum Column {
    /// 64-bit integer column.
    I64(RwLock<Vec<i64>>),
    /// 64-bit float column.
    F64(RwLock<Vec<f64>>),
    /// 32-bit integer column.
    I32(RwLock<Vec<i32>>),
    /// String column.
    Str(RwLock<Vec<String>>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::I64 => Column::I64(RwLock::new(Vec::new())),
            DataType::F64 => Column::F64(RwLock::new(Vec::new())),
            DataType::I32 => Column::I32(RwLock::new(Vec::new())),
            DataType::Str => Column::Str(RwLock::new(Vec::new())),
        }
    }

    /// Create an empty column with pre-allocated capacity (the RDE engine
    /// pre-faults memory before handing it to the engines).
    pub fn with_capacity(dtype: DataType, capacity: usize) -> Self {
        match dtype {
            DataType::I64 => Column::I64(RwLock::new(Vec::with_capacity(capacity))),
            DataType::F64 => Column::F64(RwLock::new(Vec::with_capacity(capacity))),
            DataType::I32 => Column::I32(RwLock::new(Vec::with_capacity(capacity))),
            DataType::Str => Column::Str(RwLock::new(Vec::with_capacity(capacity))),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::I64(_) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::I32(_) => DataType::I32,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.read().len(),
            Column::F64(v) => v.read().len(),
            Column::I32(v) => v.read().len(),
            Column::Str(v) => v.read().len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes occupied by the stored values (columnar accounting, used by the
    /// cost model and the freshness metric).
    pub fn bytes(&self) -> u64 {
        self.len() as u64 * self.dtype().width_bytes()
    }

    /// Append a value. Panics on type mismatch (schema violations are caught
    /// at the table layer; reaching this with a wrong type is a logic error).
    pub fn append(&self, value: &Value) {
        match (self, value) {
            (Column::I64(v), Value::I64(x)) => v.write().push(*x),
            (Column::F64(v), Value::F64(x)) => v.write().push(*x),
            (Column::I32(v), Value::I32(x)) => v.write().push(*x),
            (Column::Str(v), Value::Str(x)) => v.write().push(x.clone()),
            // lint:allow(no-panic): dtype contract documented on the method; the table layer validates values against the schema before dispatch
            (col, val) => panic!("type mismatch: column {:?} value {val:?}", col.dtype()),
        }
    }

    /// Overwrite the value at `row`. Panics on type mismatch or out-of-range row.
    pub fn update(&self, row: usize, value: &Value) {
        match (self, value) {
            (Column::I64(v), Value::I64(x)) => v.write()[row] = *x,
            (Column::F64(v), Value::F64(x)) => v.write()[row] = *x,
            (Column::I32(v), Value::I32(x)) => v.write()[row] = *x,
            (Column::Str(v), Value::Str(x)) => v.write()[row] = x.clone(),
            // lint:allow(no-panic): dtype contract documented on the method; the table layer validates values against the schema before dispatch
            (col, val) => panic!("type mismatch: column {:?} value {val:?}", col.dtype()),
        }
    }

    /// Read the value at `row`, or `None` if out of range.
    pub fn get(&self, row: usize) -> Option<Value> {
        match self {
            Column::I64(v) => v.read().get(row).map(|x| Value::I64(*x)),
            Column::F64(v) => v.read().get(row).map(|x| Value::F64(*x)),
            Column::I32(v) => v.read().get(row).map(|x| Value::I32(*x)),
            Column::Str(v) => v.read().get(row).map(|x| Value::Str(x.clone())),
        }
    }

    /// Copy the values at `rows` (ascending) from `src` into `self` at the
    /// same rows, growing `self` with default values if needed. One read
    /// guard on `src` gathers the values into a buffer and is dropped before
    /// one write guard on `self` scatters them, so the two columns are never
    /// locked together. Used by twin-instance synchronisation and ETL.
    pub fn copy_rows_from(&self, src: &Column, rows: &[RowId]) {
        let Some(&last) = rows.last() else {
            return;
        };
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows not ascending");
        fn copy<T: Clone + Default>(
            dst: &RwLock<Vec<T>>,
            src: &RwLock<Vec<T>>,
            rows: &[RowId],
            end: usize,
        ) {
            let values: Vec<T> = {
                let s = src.read();
                rows.iter().map(|&r| s[r as usize].clone()).collect()
            };
            let mut d = dst.write();
            if d.len() < end {
                d.resize(end, T::default());
            }
            for (&r, v) in rows.iter().zip(values) {
                d[r as usize] = v;
            }
        }
        let end = last as usize + 1;
        match (self, src) {
            (Column::I64(d), Column::I64(s)) => copy(d, s, rows, end),
            (Column::F64(d), Column::F64(s)) => copy(d, s, rows, end),
            (Column::I32(d), Column::I32(s)) => copy(d, s, rows, end),
            (Column::Str(d), Column::Str(s)) => copy(d, s, rows, end),
            // lint:allow(no-panic): twin sync and ETL only pair columns cloned from one schema, so the dtypes always match
            _ => panic!("copy_rows_from between mismatched column types"),
        }
    }

    /// Copy the contiguous rows `range` from `src` into `self` at the same
    /// rows, growing `self` if needed (rows skipped over get default
    /// values). Same locking as [`Self::copy_rows_from`]: gather under one
    /// read guard, then scatter under one write guard.
    pub fn copy_range_from(&self, src: &Column, range: std::ops::Range<RowId>) {
        if range.is_empty() {
            return;
        }
        fn copy<T: Clone + Default>(
            dst: &RwLock<Vec<T>>,
            src: &RwLock<Vec<T>>,
            start: usize,
            end: usize,
        ) {
            let values: Vec<T> = src.read()[start..end].to_vec();
            let mut d = dst.write();
            let len = d.len();
            d.reserve(end.saturating_sub(len));
            if d.len() < start {
                d.resize(start, T::default());
            }
            // Overwrite the rows `self` already holds, append the rest.
            let overlap = d.len().min(end) - start;
            let mut values = values.into_iter();
            for (slot, v) in d[start..start + overlap].iter_mut().zip(values.by_ref()) {
                *slot = v;
            }
            d.extend(values);
        }
        let (start, end) = (range.start as usize, range.end as usize);
        match (self, src) {
            (Column::I64(d), Column::I64(s)) => copy(d, s, start, end),
            (Column::F64(d), Column::F64(s)) => copy(d, s, start, end),
            (Column::I32(d), Column::I32(s)) => copy(d, s, start, end),
            (Column::Str(d), Column::Str(s)) => copy(d, s, start, end),
            // lint:allow(no-panic): ETL only pairs columns cloned from one schema, so the dtypes always match
            _ => panic!("copy_range_from between mismatched column types"),
        }
    }

    /// Take a typed read guard over the column's storage. The caller can
    /// borrow contiguous value slices from the guard for as long as it is
    /// held (writers block for that duration; readers do not).
    pub fn read_guard(&self) -> ColumnGuard<'_> {
        match self {
            Column::I64(v) => ColumnGuard::I64(v.read()),
            Column::F64(v) => ColumnGuard::F64(v.read()),
            Column::I32(v) => ColumnGuard::I32(v.read()),
            Column::Str(v) => ColumnGuard::Str(v.read()),
        }
    }

    /// Run `f` over the column's `i64` values limited to the first `limit`
    /// rows. Panics if the column is not `I64`.
    pub fn with_i64<R>(&self, limit: usize, f: impl FnOnce(&[i64]) -> R) -> R {
        match self {
            Column::I64(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected i64 column, found {:?}", other.dtype()),
        }
    }

    /// Run `f` over the column's `f64` values limited to the first `limit`
    /// rows. Panics if the column is not `F64`.
    pub fn with_f64<R>(&self, limit: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        match self {
            Column::F64(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected f64 column, found {:?}", other.dtype()),
        }
    }

    /// Run `f` over the column's `i32` values limited to the first `limit`
    /// rows. Panics if the column is not `I32`.
    pub fn with_i32<R>(&self, limit: usize, f: impl FnOnce(&[i32]) -> R) -> R {
        match self {
            Column::I32(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected i32 column, found {:?}", other.dtype()),
        }
    }

    /// Run `f` over the column's string values limited to the first `limit`
    /// rows. Panics if the column is not `Str`.
    pub fn with_str<R>(&self, limit: usize, f: impl FnOnce(&[String]) -> R) -> R {
        match self {
            Column::Str(v) => {
                let guard = v.read();
                let n = limit.min(guard.len());
                f(&guard[..n])
            }
            // lint:allow(no-panic): dtype contract documented on the method; callers dispatch on dtype() first
            other => panic!("expected str column, found {:?}", other.dtype()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_get_update_roundtrip() {
        let col = Column::new(DataType::I64);
        col.append(&Value::I64(10));
        col.append(&Value::I64(20));
        assert_eq!(col.len(), 2);
        assert_eq!(col.get(1), Some(Value::I64(20)));
        col.update(1, &Value::I64(25));
        assert_eq!(col.get(1), Some(Value::I64(25)));
        assert_eq!(col.get(5), None);
    }

    #[test]
    fn string_column_roundtrip() {
        let col = Column::new(DataType::Str);
        col.append(&Value::from("a"));
        col.append(&Value::from("b"));
        col.update(0, &Value::from("z"));
        assert_eq!(col.get(0), Some(Value::from("z")));
        col.with_str(10, |s| assert_eq!(s, &["z".to_string(), "b".to_string()]));
    }

    #[test]
    fn bytes_accounting_uses_type_width() {
        let col = Column::new(DataType::I32);
        for i in 0..10 {
            col.append(&Value::I32(i));
        }
        assert_eq!(col.bytes(), 40);
        assert!(!col.is_empty());
    }

    #[test]
    fn slice_access_respects_limit() {
        let col = Column::new(DataType::F64);
        for i in 0..100 {
            col.append(&Value::F64(i as f64));
        }
        let sum = col.with_f64(10, |s| s.iter().sum::<f64>());
        assert_eq!(sum, 45.0);
        let all = col.with_f64(1000, |s| s.len());
        assert_eq!(all, 100);
    }

    #[test]
    fn copy_rows_from_grows_destination() {
        let src = Column::new(DataType::I64);
        for i in 0..8 {
            src.append(&Value::I64(i * 100));
        }
        let dst = Column::new(DataType::I64);
        dst.append(&Value::I64(-1));
        dst.copy_rows_from(&src, &[3, 5]);
        assert_eq!(dst.len(), 6);
        assert_eq!(dst.get(3), Some(Value::I64(300)));
        assert_eq!(dst.get(5), Some(Value::I64(500)));
        // Rows that were never written are zero-filled placeholders, and
        // rows outside the batch keep their value.
        assert_eq!(dst.get(1), Some(Value::I64(0)));
        assert_eq!(dst.get(0), Some(Value::I64(-1)));
        dst.copy_rows_from(&src, &[]);
        assert_eq!(dst.len(), 6, "an empty batch changes nothing");
    }

    #[test]
    fn copy_range_from_overwrites_then_appends() {
        let src = Column::new(DataType::Str);
        for s in ["a", "b", "c", "d", "e"] {
            src.append(&Value::from(s));
        }
        let dst = Column::new(DataType::Str);
        for s in ["x", "y", "z"] {
            dst.append(&Value::from(s));
        }
        dst.copy_range_from(&src, 2..5);
        dst.with_str(10, |v| assert_eq!(v, ["x", "y", "c", "d", "e"]));
        let gap = Column::new(DataType::F64);
        gap.copy_range_from(&Column::new(DataType::F64), 0..0);
        assert!(gap.is_empty());
    }

    #[test]
    #[should_panic(expected = "mismatched column types")]
    fn batch_copy_between_mismatched_types_panics() {
        let src = Column::new(DataType::I64);
        src.append(&Value::I64(1));
        Column::new(DataType::F64).copy_rows_from(&src, &[0]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn append_type_mismatch_panics() {
        Column::new(DataType::I64).append(&Value::F64(1.0));
    }

    #[test]
    #[should_panic(expected = "expected i64 column")]
    fn wrong_slice_accessor_panics() {
        Column::new(DataType::F64).with_i64(1, |_| ());
    }

    #[test]
    fn read_guard_borrows_contiguous_slices() {
        let col = Column::new(DataType::F64);
        for i in 0..8 {
            col.append(&Value::F64(i as f64));
        }
        match col.read_guard() {
            ColumnGuard::F64(g) => assert_eq!(&g[2..5], &[2.0, 3.0, 4.0]),
            _ => panic!("expected an F64 guard"),
        }
        let keys = Column::new(DataType::I64);
        keys.append(&Value::I64(7));
        match keys.read_guard() {
            ColumnGuard::I64(g) => assert_eq!(g.as_slice(), &[7]),
            _ => panic!("expected an I64 guard"),
        };
    }

    #[test]
    fn with_capacity_preallocates() {
        let col = Column::with_capacity(DataType::I64, 1000);
        assert_eq!(col.len(), 0);
        if let Column::I64(v) = &col {
            assert!(v.read().capacity() >= 1000);
        } else {
            unreachable!();
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Batched copies (a scattered ascending row set, then a contiguous
        /// range) agree with the same copies applied to plain `Vec`s.
        #[test]
        fn batch_copies_match_a_vec_model(
            src_values in prop::collection::vec(any::<i64>(), 1..300),
            dst_len in 0usize..300,
            picks in prop::collection::vec(prop::bool::ANY, 300..301),
            (a, b) in (0usize..300, 0usize..300),
        ) {
            let n = src_values.len();
            let src = Column::new(DataType::I64);
            for &v in &src_values {
                src.append(&Value::I64(v));
            }
            let dst = Column::new(DataType::I64);
            let mut model: Vec<i64> = (0..dst_len as i64).map(|i| -i).collect();
            for &v in &model {
                dst.append(&Value::I64(v));
            }

            let rows: Vec<RowId> = (0..n).filter(|&r| picks[r]).map(|r| r as RowId).collect();
            dst.copy_rows_from(&src, &rows);
            if let Some(&last) = rows.last() {
                if model.len() <= last as usize {
                    model.resize(last as usize + 1, 0);
                }
            }
            for &r in &rows {
                model[r as usize] = src_values[r as usize];
            }
            dst.with_i64(usize::MAX, |v| assert_eq!(v, model.as_slice()));

            let (start, end) = ((a % n).min(b % n), (a % n).max(b % n));
            dst.copy_range_from(&src, start as RowId..end as RowId);
            if start < end {
                if model.len() < end {
                    model.resize(end, 0);
                }
                model[start..end].copy_from_slice(&src_values[start..end]);
            }
            dst.with_i64(usize::MAX, |v| assert_eq!(v, model.as_slice()));
        }
    }
}
