//! Column-segment checkpoint format.
//!
//! A checkpoint captures the committed state of every relation at one WAL
//! position: for each table, the primary keys in row order plus each column
//! as one contiguous value segment (columnar, like the twin instances it is
//! taken from). The whole file carries a trailing CRC32 and is written with
//! `write_atomic`, so after a crash it is either entirely the old snapshot
//! or entirely the new one — never a mix.
//!
//! A live engine writes checkpoints with [`CheckpointWriter`], which copies
//! typed column slices of row-bounded instances straight into one buffer.
//! [`CheckpointData::encode`] writes the same bytes from decoded values; it
//! is the reference the writer is tested against.
//!
//! `lsn` is *exclusive*: every WAL record with `record_lsn < lsn` is covered
//! by the snapshot; recovery replays only `record_lsn >= lsn`.
//!
//! File layout:
//!
//! ```text
//! [magic u64 = "HTAPCKP1"] [version u32] [lsn u64] [last_ts u64]
//! [table_count u32]
//!   per table:
//!     [name str] [row_count u64] [col_count u32] [dtype tag u8 × col_count]
//!     [keys u64 × row_count]
//!     per column: [values × row_count]          (fixed width or len+bytes)
//! [crc32 u32 of everything above]
//! ```

use crate::error::DurabilityError;
use crate::record::{crc32, Lsn};
use htap_storage::{DataType, TableSnapshot, Value};

/// Magic bytes identifying a checkpoint file.
pub const CKPT_MAGIC: u64 = u64::from_le_bytes(*b"HTAPCKP1");
/// Checkpoint format version.
pub const CKPT_VERSION: u32 = 1;

const DT_I64: u8 = 1;
const DT_F64: u8 = 2;
const DT_I32: u8 = 3;
const DT_STR: u8 = 4;

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::I64 => DT_I64,
        DataType::F64 => DT_F64,
        DataType::I32 => DT_I32,
        DataType::Str => DT_STR,
    }
}

fn tag_dtype(tag: u8) -> Option<DataType> {
    match tag {
        DT_I64 => Some(DataType::I64),
        DT_F64 => Some(DataType::F64),
        DT_I32 => Some(DataType::I32),
        DT_STR => Some(DataType::Str),
        _ => None,
    }
}

/// One relation's rows inside a checkpoint, stored column-segment-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointTable {
    /// Relation name.
    pub name: String,
    /// Column types, in schema order.
    pub dtypes: Vec<DataType>,
    /// Primary key of each captured row; `keys[i]` owns row `i`.
    pub keys: Vec<u64>,
    /// `columns[c][i]` is the value of column `c` in row `i`.
    pub columns: Vec<Vec<Value>>,
}

impl CheckpointTable {
    /// Materialise row `i` across all columns.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns
            .iter()
            .filter_map(|col| col.get(i).cloned())
            .collect()
    }
}

/// A full checkpoint: every relation's committed rows as of WAL position
/// `lsn` (exclusive).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// First WAL LSN *not* covered by this snapshot.
    pub lsn: Lsn,
    /// Highest commit timestamp contained in the snapshot; recovery advances
    /// the logical clock past it.
    pub last_ts: u64,
    /// Captured relations.
    pub tables: Vec<CheckpointTable>,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

impl CheckpointData {
    /// Serialise the checkpoint, including the trailing CRC. This is the
    /// per-value reference encoder of the format; [`CheckpointWriter`]
    /// writes the same bytes from column slices.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.lsn.to_le_bytes());
        buf.extend_from_slice(&self.last_ts.to_le_bytes());
        buf.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for table in &self.tables {
            put_str(&mut buf, &table.name);
            buf.extend_from_slice(&(table.keys.len() as u64).to_le_bytes());
            buf.extend_from_slice(&(table.dtypes.len() as u32).to_le_bytes());
            for &dt in &table.dtypes {
                buf.push(dtype_tag(dt));
            }
            for &key in &table.keys {
                buf.extend_from_slice(&key.to_le_bytes());
            }
            for (col, &dt) in table.columns.iter().zip(&table.dtypes) {
                for value in col {
                    match (dt, value) {
                        (DataType::I64, Value::I64(x)) => buf.extend_from_slice(&x.to_le_bytes()),
                        (DataType::F64, Value::F64(x)) => {
                            buf.extend_from_slice(&x.to_bits().to_le_bytes())
                        }
                        (DataType::I32, Value::I32(x)) => buf.extend_from_slice(&x.to_le_bytes()),
                        (DataType::Str, Value::Str(s)) => put_str(&mut buf, s),
                        // Type-mismatched cells cannot occur for segments
                        // captured from a schema-checked table; encode a
                        // default so the writer stays total, the CRC still
                        // covers exactly what was written.
                        (DataType::I64, _) => buf.extend_from_slice(&0i64.to_le_bytes()),
                        (DataType::F64, _) => buf.extend_from_slice(&0u64.to_le_bytes()),
                        (DataType::I32, _) => buf.extend_from_slice(&0i32.to_le_bytes()),
                        (DataType::Str, _) => put_str(&mut buf, ""),
                    }
                }
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode and CRC-verify a checkpoint file. Any structural or checksum
    /// problem is an error: a checkpoint is written atomically, so unlike a
    /// WAL tail there is no benign torn state to salvage.
    pub fn decode(bytes: &[u8]) -> Result<Self, DurabilityError> {
        let corrupt = |what: &str| DurabilityError::corrupt(format!("checkpoint: {what}"));
        if bytes.len() < 4 {
            return Err(corrupt("file too short"));
        }
        let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let mut crc = [0u8; 4];
        crc.copy_from_slice(crc_bytes);
        if crc32(payload) != u32::from_le_bytes(crc) {
            return Err(corrupt("crc mismatch"));
        }

        let mut r = CkptReader {
            bytes: payload,
            pos: 0,
        };
        if r.u64().ok_or_else(|| corrupt("truncated"))? != CKPT_MAGIC {
            return Err(corrupt("magic mismatch"));
        }
        let version = r.u32().ok_or_else(|| corrupt("truncated"))?;
        if version != CKPT_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let lsn = r.u64().ok_or_else(|| corrupt("truncated"))?;
        let last_ts = r.u64().ok_or_else(|| corrupt("truncated"))?;
        let table_count = r.u32().ok_or_else(|| corrupt("truncated"))? as usize;
        if table_count > payload.len() {
            return Err(corrupt("implausible table count"));
        }
        let mut tables = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let name = r.str().ok_or_else(|| corrupt("bad table name"))?;
            let row_count = r.u64().ok_or_else(|| corrupt("truncated"))? as usize;
            let col_count = r.u32().ok_or_else(|| corrupt("truncated"))? as usize;
            if row_count > payload.len() || col_count > payload.len() {
                return Err(corrupt("implausible table shape"));
            }
            let mut dtypes = Vec::with_capacity(col_count);
            for _ in 0..col_count {
                let tag = r.u8().ok_or_else(|| corrupt("truncated"))?;
                dtypes.push(tag_dtype(tag).ok_or_else(|| corrupt("bad dtype tag"))?);
            }
            let mut keys = Vec::with_capacity(row_count);
            for _ in 0..row_count {
                keys.push(r.u64().ok_or_else(|| corrupt("truncated keys"))?);
            }
            let mut columns = Vec::with_capacity(col_count);
            for &dt in &dtypes {
                let mut col = Vec::with_capacity(row_count);
                for _ in 0..row_count {
                    let v = match dt {
                        DataType::I64 => r.u64().map(|x| Value::I64(x as i64)),
                        DataType::F64 => r.u64().map(|x| Value::F64(f64::from_bits(x))),
                        DataType::I32 => r.u32().map(|x| Value::I32(x as i32)),
                        DataType::Str => r.str().map(Value::Str),
                    };
                    col.push(v.ok_or_else(|| corrupt("truncated column segment"))?);
                }
                columns.push(col);
            }
            tables.push(CheckpointTable {
                name,
                dtypes,
                keys,
                columns,
            });
        }
        if r.pos != payload.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(CheckpointData {
            lsn,
            last_ts,
            tables,
        })
    }
}

/// Bytes of the file header: magic, version, lsn, last_ts, table count.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;
/// Bytes of the trailing CRC.
const CRC_LEN: usize = 4;

/// Writes a checkpoint straight from row-bounded columnar instances: each
/// column is copied as a typed slice, under its own read guard, into one
/// buffer sized exactly up front. The bytes are those
/// [`CheckpointData::encode`] writes for the same rows.
///
/// Create it with every table the checkpoint will hold, then call
/// [`Self::table`] once per table in the same order, then
/// [`Self::finish`]. Only the first [`TableSnapshot::rows`] rows of each
/// instance are read; the caller guarantees they do not change meanwhile.
#[derive(Debug)]
pub struct CheckpointWriter {
    buf: Vec<u8>,
    /// The file's exact size, computed up front.
    len: usize,
}

impl CheckpointWriter {
    /// Start a checkpoint at `lsn` holding `tables`, and size its buffer.
    /// Sizing reads the string columns once for their byte lengths.
    pub fn new(lsn: Lsn, last_ts: u64, tables: &[TableSnapshot]) -> Self {
        let len = HEADER_LEN + tables.iter().map(encoded_table_len).sum::<usize>() + CRC_LEN;
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        buf.extend_from_slice(&lsn.to_le_bytes());
        buf.extend_from_slice(&last_ts.to_le_bytes());
        buf.extend_from_slice(&(tables.len() as u32).to_le_bytes());
        CheckpointWriter { buf, len }
    }

    /// Append one table: `keys[r]` is the primary key of row `r`. Takes each
    /// column's read guard in turn, never two at once. Fails if `keys` or a
    /// column does not hold exactly `table.rows()` rows.
    pub fn table(&mut self, table: &TableSnapshot, keys: &[u64]) -> Result<(), DurabilityError> {
        let rows = table.rows() as usize;
        let short = |what: String| {
            DurabilityError::corrupt(format!(
                "checkpoint of {}: {what}, expected {rows} rows",
                table.name()
            ))
        };
        if keys.len() != rows {
            return Err(short(format!("{} keys", keys.len())));
        }
        let dtypes = table_dtypes(table);
        let buf = &mut self.buf;
        put_str(buf, table.name());
        buf.extend_from_slice(&(rows as u64).to_le_bytes());
        buf.extend_from_slice(&(dtypes.len() as u32).to_le_bytes());
        buf.extend(dtypes.iter().map(|&dt| dtype_tag(dt)));
        put_fixed(buf, keys, |k| k.to_le_bytes());
        for (c, &dt) in dtypes.iter().enumerate() {
            let written = match dt {
                DataType::I64 => table.scan_i64(c, |s| put_fixed(buf, s, |x| x.to_le_bytes())),
                DataType::F64 => {
                    table.scan_f64(c, |s| put_fixed(buf, s, |x| x.to_bits().to_le_bytes()))
                }
                DataType::I32 => table.scan_i32(c, |s| put_fixed(buf, s, |x| x.to_le_bytes())),
                DataType::Str => table.scan_str(c, |s| {
                    for x in s {
                        put_str(buf, x);
                    }
                    s.len()
                }),
            };
            if written != rows {
                return Err(short(format!("column {c} holds {written}")));
            }
        }
        Ok(())
    }

    /// Append the CRC and return the file's bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(self.buf.len(), self.len, "checkpoint size");
        self.buf
    }
}

fn table_dtypes(table: &TableSnapshot) -> Vec<DataType> {
    let schema = table.table().schema();
    schema.columns.iter().map(|c| c.dtype).collect()
}

/// Encoded bytes of one table: header, keys and column segments.
fn encoded_table_len(table: &TableSnapshot) -> usize {
    let rows = table.rows() as usize;
    let dtypes = table_dtypes(table);
    let header = 4 + table.name().len() + 8 + 4 + dtypes.len();
    let columns: usize = dtypes
        .iter()
        .enumerate()
        .map(|(c, &dt)| match dt {
            DataType::I64 | DataType::F64 => 8 * rows,
            DataType::I32 => 4 * rows,
            DataType::Str => table.scan_str(c, |s| s.iter().map(|x| 4 + x.len()).sum()),
        })
        .sum();
    header + 8 * rows + columns
}

/// Append `values` as fixed-width little-endian cells; returns how many.
fn put_fixed<T: Copy, const W: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    bytes: impl Fn(T) -> [u8; W],
) -> usize {
    let start = buf.len();
    buf.resize(start + values.len() * W, 0);
    for (cell, &v) in buf[start..].chunks_exact_mut(W).zip(values) {
        cell.copy_from_slice(&bytes(v));
    }
    values.len()
}

struct CkptReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| {
            let mut b = [0u8; 4];
            b.copy_from_slice(s);
            u32::from_le_bytes(b)
        })
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| {
            let mut b = [0u8; 8];
            b.copy_from_slice(s);
            u64::from_le_bytes(b)
        })
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            lsn: 17,
            last_ts: 432,
            tables: vec![
                CheckpointTable {
                    name: "orders".into(),
                    dtypes: vec![DataType::I64, DataType::F64, DataType::Str],
                    keys: vec![3, 1, 7],
                    columns: vec![
                        vec![Value::I64(3), Value::I64(1), Value::I64(7)],
                        vec![Value::F64(0.5), Value::F64(-2.25), Value::F64(1e9)],
                        vec![
                            Value::Str("a".into()),
                            Value::Str("".into()),
                            Value::Str("long-ish value".into()),
                        ],
                    ],
                },
                CheckpointTable {
                    name: "empty".into(),
                    dtypes: vec![DataType::I32],
                    keys: vec![],
                    columns: vec![vec![]],
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        let decoded = CheckpointData::decode(&bytes).unwrap();
        assert_eq!(decoded, ckpt);
        assert_eq!(
            decoded.tables[0].row(1),
            vec![Value::I64(1), Value::F64(-2.25), Value::Str("".into()),]
        );
    }

    #[test]
    fn any_bit_flip_is_rejected() {
        let bytes = sample().encode();
        for pos in [0, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x01;
            assert!(
                CheckpointData::decode(&corrupt).is_err(),
                "flip at {pos} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(CheckpointData::decode(&bytes[..cut]).is_err());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use htap_storage::{ColumnDef, ColumnarTable, TableSchema};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// SplitMix64: cell values derived from one generated seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn value(dt: DataType, state: &mut u64) -> Value {
        let x = next(state);
        match dt {
            DataType::I64 => Value::I64(x as i64),
            DataType::F64 => Value::F64(f64::from_bits(x)),
            DataType::I32 => Value::I32(x as i32),
            // 0–5 lowercase letters: empty strings are common.
            DataType::Str => Value::Str(
                (0..x % 6)
                    .map(|i| (b'a' + ((x >> (8 * i)) % 26) as u8) as char)
                    .collect(),
            ),
        }
    }

    fn instance(name: &str, dtypes: &[DataType], rows: &[Vec<Value>]) -> Arc<ColumnarTable> {
        let columns = dtypes
            .iter()
            .enumerate()
            .map(|(c, &dt)| ColumnDef::new(format!("c{c}"), dt))
            .collect();
        let table = ColumnarTable::new(TableSchema::new(name, columns, None));
        for row in rows {
            table.append_row(row).unwrap();
        }
        Arc::new(table)
    }

    #[test]
    fn writer_rejects_rows_it_cannot_supply() {
        let rows = vec![vec![Value::I32(1)], vec![Value::I32(2)]];
        let table = instance("t", &[DataType::I32], &rows);
        let bounded = TableSnapshot::new("t".into(), Arc::clone(&table), 2, 0);
        let mut writer = CheckpointWriter::new(0, 0, std::slice::from_ref(&bounded));
        assert!(
            writer.table(&bounded, &[7]).is_err(),
            "one key for two rows"
        );
        // A bound past the column's length: the column is short.
        let past = TableSnapshot::new("t".into(), table, 3, 0);
        let mut writer = CheckpointWriter::new(0, 0, &[]);
        assert!(writer.table(&past, &[1, 2, 3]).is_err());
    }

    proptest! {
        /// The slice writer produces the reference encoder's bytes, over
        /// all four dtypes, empty tables and strings, and row bounds below
        /// the instances' lengths; the bytes decode back to themselves.
        #[test]
        fn writer_matches_the_reference_encoder(
            lsn in any::<u64>(),
            last_ts in any::<u64>(),
            shapes in prop::collection::vec(
                (prop::collection::vec(1u8..5, 1..6), 0usize..24, 0usize..25, any::<u64>()),
                0..4,
            ),
        ) {
            let mut snapshots = Vec::new();
            let mut keys = Vec::new();
            let mut tables = Vec::new();
            for (t, (tags, len, bound, seed)) in shapes.into_iter().enumerate() {
                let name = format!("t{t}");
                let dtypes: Vec<DataType> =
                    tags.iter().map(|&tag| tag_dtype(tag).unwrap()).collect();
                let mut state = seed;
                let rows: Vec<Vec<Value>> = (0..len)
                    .map(|_| dtypes.iter().map(|&dt| value(dt, &mut state)).collect())
                    .collect();
                let bound = bound.min(len);
                let table_keys: Vec<u64> = (0..bound).map(|_| next(&mut state)).collect();
                let table = instance(&name, &dtypes, &rows);
                snapshots.push(TableSnapshot::new(name.clone(), table, bound as u64, 0));
                tables.push(CheckpointTable {
                    name,
                    columns: (0..dtypes.len())
                        .map(|c| rows[..bound].iter().map(|r| r[c].clone()).collect())
                        .collect(),
                    dtypes,
                    keys: table_keys.clone(),
                });
                keys.push(table_keys);
            }
            let mut writer = CheckpointWriter::new(lsn, last_ts, &snapshots);
            for (snapshot, table_keys) in snapshots.iter().zip(&keys) {
                writer.table(snapshot, table_keys).unwrap();
            }
            let bytes = writer.finish();
            let reference = CheckpointData { lsn, last_ts, tables }.encode();
            prop_assert_eq!(&bytes, &reference);
            // Re-encoding compares floats bit for bit (NaN != NaN as values).
            prop_assert_eq!(CheckpointData::decode(&bytes).unwrap().encode(), bytes);
        }
    }
}
