//! WAL record format: typed commit records with length + CRC32 framing.
//!
//! File layout:
//!
//! ```text
//! [magic u64 LE = "HTAPWAL1"] [version u32 LE] [base_lsn u64 LE]   header
//! [len u32 LE] [crc32 u32 LE] [body: len bytes]                    record 0  (lsn = base_lsn)
//! [len u32 LE] [crc32 u32 LE] [body: len bytes]                    record 1  (lsn = base_lsn + 1)
//! ...
//! ```
//!
//! A record's LSN is implicit in its position. The CRC covers the body only;
//! a record whose frame is incomplete (torn write at the tail) or whose CRC
//! mismatches (bit rot) ends the valid prefix — it and everything after it
//! is discarded on recovery, which is exactly transaction atomicity: a
//! commit whose record never became fully durable never happened.
//!
//! Body layout: `txn_id u64, commit_ts u64, op_count u32, ops...`; each op
//! is a tag byte (1 = insert, 2 = update) followed by its fields. Strings
//! are `len u32 + UTF-8 bytes`; values are a type tag byte followed by the
//! fixed-width little-endian payload (`f64` via `to_bits`) or a string.
//! Decoding is total: every read is bounds-checked and malformed input ends
//! the valid prefix instead of panicking.

use crate::error::DurabilityError;
use htap_storage::Value;

/// Log sequence number: position of a record in the logical WAL.
pub type Lsn = u64;

/// Magic bytes identifying a WAL file.
pub const WAL_MAGIC: u64 = u64::from_le_bytes(*b"HTAPWAL1");
/// WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Byte length of the WAL file header.
pub const WAL_HEADER_LEN: usize = 8 + 4 + 8;
/// Upper bound on one record body; larger frames are treated as corruption.
const MAX_RECORD_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-8, tables generated at compile time — no
// external crates.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` advances the
/// CRC of byte `b` through `k` more zero bytes, so eight table lookups fold
/// eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE 802.3) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Typed operations
// ---------------------------------------------------------------------------

/// One logged mutation within a committed transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert of a new record.
    Insert {
        /// Relation name.
        table: String,
        /// Primary key.
        key: u64,
        /// Full row of values.
        values: Vec<Value>,
    },
    /// Update of one attribute of an existing record.
    Update {
        /// Relation name.
        table: String,
        /// Primary key.
        key: u64,
        /// Column index.
        column: u32,
        /// New value.
        value: Value,
    },
}

/// One committed transaction's WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Transaction identifier (diagnostic only; replay is positional).
    pub txn_id: u64,
    /// Commit timestamp assigned by the transaction manager.
    pub commit_ts: u64,
    /// The transaction's mutations, in apply order.
    pub ops: Vec<WalOp>,
}

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 2;

const VAL_I64: u8 = 1;
const VAL_F64: u8 = 2;
const VAL_I32: u8 = 3;
const VAL_STR: u8 = 4;

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I64(x) => {
            buf.push(VAL_I64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            buf.push(VAL_F64);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::I32(x) => {
            buf.push(VAL_I32);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(VAL_STR);
            put_str(buf, s);
        }
    }
}

impl WalRecord {
    /// Append the framed encoding of this record to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut body = Vec::with_capacity(64);
        body.extend_from_slice(&self.txn_id.to_le_bytes());
        body.extend_from_slice(&self.commit_ts.to_le_bytes());
        body.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                WalOp::Insert { table, key, values } => {
                    body.push(TAG_INSERT);
                    put_str(&mut body, table);
                    body.extend_from_slice(&key.to_le_bytes());
                    body.extend_from_slice(&(values.len() as u32).to_le_bytes());
                    for v in values {
                        put_value(&mut body, v);
                    }
                }
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                } => {
                    body.push(TAG_UPDATE);
                    put_str(&mut body, table);
                    body.extend_from_slice(&key.to_le_bytes());
                    body.extend_from_slice(&column.to_le_bytes());
                    put_value(&mut body, value);
                }
            }
        }
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
    }
}

// ---------------------------------------------------------------------------
// Total (panic-free) decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

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

    /// The body of the next intact frame — length in bounds, CRC matching,
    /// body not decoded — or `None` at a torn or corrupt frame or the end of
    /// input. On success `pos` is the end of the frame.
    fn frame(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        if len > MAX_RECORD_LEN {
            return None;
        }
        let crc = self.u32()?;
        let body = self.take(len as usize)?;
        (crc32(body) == crc).then_some(body)
    }

    /// Check the file header and return its base LSN.
    fn wal_header(&mut self) -> Result<Lsn, DurabilityError> {
        let truncated = || DurabilityError::corrupt("wal header truncated");
        if self.u64().ok_or_else(truncated)? != WAL_MAGIC {
            return Err(DurabilityError::corrupt("wal magic mismatch"));
        }
        let version = self.u32().ok_or_else(truncated)?;
        if version != WAL_VERSION {
            return Err(DurabilityError::corrupt(format!(
                "unsupported wal version {version}"
            )));
        }
        self.u64().ok_or_else(truncated)
    }

    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            VAL_I64 => self.u64().map(|x| Value::I64(x as i64)),
            VAL_F64 => self.u64().map(|x| Value::F64(f64::from_bits(x))),
            VAL_I32 => self.u32().map(|x| Value::I32(x as i32)),
            VAL_STR => self.str().map(Value::Str),
            _ => None,
        }
    }
}

fn decode_body(body: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(body);
    let txn_id = r.u64()?;
    let commit_ts = r.u64()?;
    let op_count = r.u32()? as usize;
    // An op is at least a tag + table length; bound op_count by what could
    // possibly fit so a corrupt count cannot cause a huge allocation.
    if op_count > body.len() {
        return None;
    }
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        let op = match r.u8()? {
            TAG_INSERT => {
                let table = r.str()?;
                let key = r.u64()?;
                let value_count = r.u32()? as usize;
                if value_count > body.len() {
                    return None;
                }
                let mut values = Vec::with_capacity(value_count);
                for _ in 0..value_count {
                    values.push(r.value()?);
                }
                WalOp::Insert { table, key, values }
            }
            TAG_UPDATE => {
                let table = r.str()?;
                let key = r.u64()?;
                let column = r.u32()?;
                let value = r.value()?;
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                }
            }
            _ => return None,
        };
        ops.push(op);
    }
    // Trailing garbage inside a CRC-valid body would mean an encoder bug; be
    // strict and reject it.
    if r.pos != body.len() {
        return None;
    }
    Some(WalRecord {
        txn_id,
        commit_ts,
        ops,
    })
}

/// The decoded content of a WAL file: its base LSN, the records of the valid
/// prefix, and where that prefix ends in the byte stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WalSegment {
    /// LSN of the first record in the file.
    pub base_lsn: Lsn,
    /// Records of the valid prefix, in LSN order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + intact records). Anything
    /// past this offset is a torn or corrupt tail.
    pub valid_len: usize,
}

impl WalSegment {
    /// One past the LSN of the last intact record (the LSN the next append
    /// would receive). Exclusive bounds avoid `-1` sentinels everywhere.
    pub fn end_lsn(&self) -> Lsn {
        self.base_lsn + self.records.len() as u64
    }

    /// `(lsn, record)` pairs of the valid prefix.
    pub fn numbered(&self) -> impl Iterator<Item = (Lsn, &WalRecord)> {
        let base = self.base_lsn;
        self.records
            .iter()
            .enumerate()
            .map(move |(i, r)| (base + i as u64, r))
    }
}

/// Build the header bytes for an empty WAL starting at `base_lsn`.
pub fn encode_wal_header(base_lsn: Lsn) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN);
    buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
    buf.extend_from_slice(&base_lsn.to_le_bytes());
    buf
}

/// Decode a WAL file. Fails only if the header itself is missing or invalid;
/// a torn or corrupt record tail is expected after a crash and simply ends
/// the valid prefix.
pub fn decode_wal(bytes: &[u8]) -> Result<WalSegment, DurabilityError> {
    let mut r = Reader::new(bytes);
    let base_lsn = r.wal_header()?;
    let mut records = Vec::new();
    let mut valid_len = WAL_HEADER_LEN;
    while let Some(body) = r.frame() {
        let Some(record) = decode_body(body) else {
            break;
        };
        records.push(record);
        valid_len = r.pos;
    }
    Ok(WalSegment {
        base_lsn,
        records,
        valid_len,
    })
}

/// Rewrite a WAL file so it holds only the records with `lsn >= up_to`: a
/// new header whose base LSN is `up_to` (clamped to the records the file
/// holds), then the kept frames copied byte for byte. Frames are found by
/// walking their lengths and checking their CRCs; no record is decoded. A
/// torn or corrupt tail ends the walk and is dropped, as [`decode_wal`]
/// drops it.
pub(crate) fn truncate_wal(bytes: &[u8], up_to: Lsn) -> Result<Vec<u8>, DurabilityError> {
    let mut r = Reader::new(bytes);
    let base_lsn = r.wal_header()?;
    let up_to = up_to.max(base_lsn);
    let mut lsn = base_lsn;
    let mut keep_from = None;
    let mut valid_len = WAL_HEADER_LEN;
    loop {
        if lsn == up_to {
            keep_from = Some(r.pos);
        }
        if r.frame().is_none() {
            break;
        }
        valid_len = r.pos;
        lsn += 1;
    }
    // `lsn` is now one past the last intact record.
    let kept = keep_from.map_or(&[][..], |from| &bytes[from..valid_len]);
    let mut out = Vec::with_capacity(WAL_HEADER_LEN + kept.len());
    out.extend_from_slice(&encode_wal_header(up_to.min(lsn)));
    out.extend_from_slice(kept);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(txn_id: u64) -> WalRecord {
        WalRecord {
            txn_id,
            commit_ts: txn_id * 10,
            ops: vec![
                WalOp::Insert {
                    table: "orders".into(),
                    key: txn_id,
                    values: vec![
                        Value::I64(txn_id as i64),
                        Value::F64(1.5),
                        Value::I32(-7),
                        Value::Str("pending".into()),
                    ],
                },
                WalOp::Update {
                    table: "district".into(),
                    key: 3,
                    column: 2,
                    value: Value::F64(99.25),
                },
            ],
        }
    }

    fn file_with(records: &[WalRecord], base_lsn: Lsn) -> Vec<u8> {
        let mut bytes = encode_wal_header(base_lsn);
        for r in records {
            r.encode_into(&mut bytes);
        }
        bytes
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = vec![sample(1), sample(2), sample(3)];
        let bytes = file_with(&records, 5);
        let seg = decode_wal(&bytes).unwrap();
        assert_eq!(seg.base_lsn, 5);
        assert_eq!(seg.records, records);
        assert_eq!(seg.valid_len, bytes.len());
        assert_eq!(seg.end_lsn(), 8);
        let numbered: Vec<_> = seg.numbered().map(|(lsn, _)| lsn).collect();
        assert_eq!(numbered, vec![5, 6, 7]);
    }

    #[test]
    fn torn_tail_ends_the_valid_prefix() {
        let records = vec![sample(1), sample(2)];
        let full = file_with(&records, 0);
        let one = file_with(&records[..1], 0);
        // Cut anywhere strictly inside the second record: only record 1 survives.
        for cut in one.len() + 1..full.len() {
            let seg = decode_wal(&full[..cut]).unwrap();
            assert_eq!(seg.records.len(), 1, "cut at {cut}");
            assert_eq!(seg.valid_len, one.len());
        }
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let records = vec![sample(1), sample(2)];
        let clean = file_with(&records, 0);
        let one_len = file_with(&records[..1], 0).len();
        // Flip a bit in the second record's body.
        let mut bytes = clean.clone();
        bytes[one_len + 12] ^= 0x10;
        let seg = decode_wal(&bytes).unwrap();
        assert_eq!(seg.records.len(), 1);
        assert_eq!(seg.records[0], records[0]);
    }

    #[test]
    fn header_corruption_is_an_error() {
        assert!(decode_wal(b"short").is_err());
        let mut bytes = file_with(&[sample(1)], 0);
        bytes[0] ^= 0xFF;
        assert!(decode_wal(&bytes).is_err());
    }

    #[test]
    fn empty_wal_decodes_to_no_records() {
        let bytes = encode_wal_header(42);
        let seg = decode_wal(&bytes).unwrap();
        assert_eq!(seg.base_lsn, 42);
        assert!(seg.records.is_empty());
        assert_eq!(seg.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn truncate_wal_keeps_the_tail_verbatim() {
        let records: Vec<_> = (1..=5).map(sample).collect();
        let bytes = file_with(&records, 10);
        for up_to in 0..18 {
            let out = truncate_wal(&bytes, up_to).unwrap();
            let seg = decode_wal(&out).unwrap();
            let first = up_to.clamp(10, 15);
            assert_eq!(seg.base_lsn, first, "up_to {up_to}");
            assert_eq!(
                seg.records,
                records[(first - 10) as usize..],
                "up_to {up_to}"
            );
            // The kept frames are the original bytes, not a re-encoding.
            assert!(bytes.ends_with(&out[WAL_HEADER_LEN..]));
        }
        // A torn tail is dropped along with the covered prefix.
        let torn = &bytes[..bytes.len() - 3];
        let seg = decode_wal(&truncate_wal(torn, 12).unwrap()).unwrap();
        assert_eq!(seg.base_lsn, 12);
        assert_eq!(seg.records, records[2..4]);
        assert!(truncate_wal(b"short", 0).is_err());
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308] {
            let rec = WalRecord {
                txn_id: 1,
                commit_ts: 2,
                ops: vec![WalOp::Update {
                    table: "t".into(),
                    key: 0,
                    column: 0,
                    value: Value::F64(v),
                }],
            };
            let mut bytes = encode_wal_header(0);
            rec.encode_into(&mut bytes);
            let seg = decode_wal(&bytes).unwrap();
            match &seg.records[0].ops[0] {
                WalOp::Update {
                    value: Value::F64(got),
                    ..
                } => assert_eq!(got.to_bits(), v.to_bits()),
                other => panic!("unexpected op {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop over the first table: the reference the
    /// slicing-by-8 [`crc32`] must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn bytewise_reference_matches_the_known_vector() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        /// Slicing-by-8 equals the bytewise loop on every length class:
        /// shorter than one 8-byte step, whole steps plus a remainder, and
        /// long buffers.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            short in prop::collection::vec(any::<u8>(), 0..65),
            long in prop::collection::vec(any::<u8>(), 65..4096),
        ) {
            prop_assert_eq!(crc32(&long), crc32_bytewise(&long));
            for cut in 0..=short.len() {
                prop_assert_eq!(crc32(&short[cut..]), crc32_bytewise(&short[cut..]));
            }
        }
    }
}
