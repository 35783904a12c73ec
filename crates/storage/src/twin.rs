//! Twin-instance storage: two full columnar copies of every relation, of
//! which exactly one is *active* for transaction processing at any point in
//! time (§3.2, following Twin Blocks / Twin Tuples).
//!
//! * **Updates** are applied to the active instance only, and set the
//!   record's update-indication bits (one set per twin synchronisation, one
//!   for propagation to the OLAP instance).
//! * **OLAP propagation** consumes only updates the snapshot holds: an
//!   update lands in a since-switch bitmap and moves into the ETL's
//!   bitmap at the next switch, when the snapshot starts holding it. An ETL
//!   that runs while transactions update the new active instance therefore
//!   never consumes (and loses) an update it cannot yet copy.
//! * **Inserts** are appended to *both* instances, but become visible to the
//!   analytical side only after the next switch (the visible-row watermark is
//!   captured at switch time).
//! * **Switching** makes the freshest instance available to the OLAP engine as
//!   an immutable snapshot while the OLTP engine continues on the other one;
//!   the RDE engine then synchronises the now-active instance from the
//!   now-inactive one using the update bits.

use crate::schema::TableSchema;
use crate::schema::Value;
use crate::snapshot::TableSnapshot;
use crate::stats::{InstanceStats, UpdatePresence};
use crate::table::ColumnarTable;
use crate::update_bits::AtomicBitmap;
use crate::{Epoch, RowId};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifier of one of the two twin instances (0 or 1).
pub type InstanceId = usize;

/// Result of an active-instance switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchOutcome {
    /// The instance that was active before the switch (now the OLAP snapshot).
    pub previous_active: InstanceId,
    /// The instance that is active after the switch (OLTP continues here).
    pub new_active: InstanceId,
    /// Epoch after the switch.
    pub epoch: Epoch,
    /// Rows visible in the snapshot (row count of the previously-active
    /// instance at switch time).
    pub snapshot_rows: u64,
    /// Number of records that must be synchronised into the new active
    /// instance (update bits pending in the previously-active instance).
    pub pending_sync_records: u64,
}

/// Result of a twin-instance synchronisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Records copied from the snapshot instance into the active instance.
    pub copied_records: u64,
    /// Records skipped because the active instance already overwrote them.
    pub skipped_records: u64,
    /// Bytes copied (columnar accounting).
    pub copied_bytes: u64,
}

/// One relation stored as two twin columnar instances.
#[derive(Debug)]
pub struct TwinTable {
    schema: TableSchema,
    instances: [Arc<ColumnarTable>; 2],
    active: AtomicUsize,
    epoch: AtomicU64,
    /// Update bits per instance: rows updated in instance `i` that have not
    /// yet been synchronised into the other instance.
    dirty_twin: [AtomicBitmap; 2],
    /// Rows whose update the snapshot instance holds but the OLAP instance
    /// does not yet: the ETL copies and clears exactly these.
    dirty_olap: AtomicBitmap,
    /// Rows updated on the active instance since the last switch. The next
    /// switch moves them into `dirty_olap`, once the snapshot holds them.
    dirty_olap_since_switch: AtomicBitmap,
    /// Rows already propagated to the OLAP instance (inserts beyond this
    /// watermark are fresh with respect to OLAP).
    olap_synced_rows: AtomicU64,
    /// Visible-row watermark of each instance, captured when it last became
    /// the snapshot (inactive) instance.
    visible_rows: [AtomicU64; 2],
    /// Hierarchical update-presence flag for this relation.
    update_presence: UpdatePresence,
    /// Serialises concurrent inserts: the per-column appends within an
    /// instance, and the appends to the two instances, must not interleave
    /// across writers or the twins fall out of step (concurrent ingest
    /// workers commit inserts to the same relation at any time).
    append_lock: Mutex<()>,
}

impl TwinTable {
    /// Create a twin table with two empty instances.
    pub fn new(schema: TableSchema) -> Self {
        TwinTable {
            instances: [
                Arc::new(ColumnarTable::new(schema.clone())),
                Arc::new(ColumnarTable::new(schema.clone())),
            ],
            schema,
            active: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            dirty_twin: [AtomicBitmap::new(), AtomicBitmap::new()],
            dirty_olap: AtomicBitmap::new(),
            dirty_olap_since_switch: AtomicBitmap::new(),
            olap_synced_rows: AtomicU64::new(0),
            visible_rows: [AtomicU64::new(0), AtomicU64::new(0)],
            update_presence: UpdatePresence::new(),
            append_lock: Mutex::new(()),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Identifier of the currently active instance.
    pub fn active_instance(&self) -> InstanceId {
        self.active.load(Ordering::Acquire)
    }

    /// Identifier of the currently inactive (snapshot) instance.
    pub fn inactive_instance(&self) -> InstanceId {
        1 - self.active_instance()
    }

    /// Access one instance directly (used by the RDE engine and tests).
    pub fn instance(&self, id: InstanceId) -> &Arc<ColumnarTable> {
        &self.instances[id]
    }

    /// The currently active instance.
    pub fn active(&self) -> &Arc<ColumnarTable> {
        &self.instances[self.active_instance()]
    }

    /// Current epoch (number of switches performed).
    pub fn epoch(&self) -> Epoch {
        self.epoch.load(Ordering::Acquire)
    }

    /// The relation's update-presence flag.
    pub fn update_presence(&self) -> &UpdatePresence {
        &self.update_presence
    }

    /// Number of committed rows (identical in both instances by construction).
    pub fn row_count(&self) -> u64 {
        self.active().row_count()
    }

    /// Insert a row into both instances. Returns the row id (identical in
    /// both instances — concurrent inserters are serialised per relation so
    /// the twins never fall out of step).
    pub fn insert(&self, row: &[Value]) -> Result<RowId, crate::StorageError> {
        self.schema.check_row(row)?;
        let _guard = self.append_lock.lock();
        let id0 = self.instances[0].append_row_unchecked(row);
        let id1 = self.instances[1].append_row_unchecked(row);
        debug_assert_eq!(id0, id1, "twin instances out of step");
        Ok(id0)
    }

    /// Update one attribute of a row in the active instance, setting the
    /// update-indication bits. Returns the overwritten value (for the MVCC
    /// delta store).
    pub fn update(
        &self,
        row: RowId,
        column: usize,
        value: &Value,
    ) -> Result<Value, crate::StorageError> {
        let active = self.active_instance();
        let table = &self.instances[active];
        let old = table
            .get_value(row, column)
            .ok_or(crate::StorageError::RowMissing { row })?;
        table.update_value(row, column, value)?;
        self.dirty_twin[active].set(row as usize);
        self.dirty_olap_since_switch.set(row as usize);
        self.update_presence.mark();
        Ok(old)
    }

    /// Read one attribute of a row from the active instance.
    pub fn get(&self, row: RowId, column: usize) -> Option<Value> {
        self.active().get_value(row, column)
    }

    /// Read one attribute of a row from a specific instance.
    pub fn get_from(&self, instance: InstanceId, row: RowId, column: usize) -> Option<Value> {
        self.instances[instance].get_value(row, column)
    }

    /// Switch the active instance. The caller (OLTP worker manager) must have
    /// quiesced the workers that were using the previously-active instance.
    pub fn switch_active(&self) -> SwitchOutcome {
        let previous_active = self.active_instance();
        let new_active = 1 - previous_active;
        let snapshot_rows = self.instances[previous_active].row_count();
        // The previously-active instance becomes the snapshot: record its
        // visible-row watermark before publishing the switch.
        self.visible_rows[previous_active].store(snapshot_rows, Ordering::Release);
        self.active.store(new_active, Ordering::Release);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        // The snapshot now holds every update made before the switch.
        self.dirty_olap_since_switch.move_into(&self.dirty_olap);
        // Record per-column switch statistics on the snapshot instance.
        for (idx, _) in self.schema.columns.iter().enumerate() {
            self.instances[previous_active]
                .column_stats(idx)
                .record_switch(snapshot_rows, epoch);
        }
        SwitchOutcome {
            previous_active,
            new_active,
            epoch,
            snapshot_rows,
            pending_sync_records: self.dirty_twin[previous_active].count(),
        }
    }

    /// Synchronise the active instance from the snapshot (inactive) instance:
    /// copy every record whose update bit is set in the snapshot instance,
    /// unless the active instance has already overwritten it since the
    /// switch. Clears the consumed bits in one pass over the bit words and
    /// copies one column at a time. Performed by the RDE engine right after
    /// a switch (§3.4).
    pub fn sync_active_from_snapshot(&self) -> SyncOutcome {
        let active = self.active_instance();
        let snapshot = 1 - active;
        // Records the active instance overwrote since the switch are
        // skipped: the newest value must win.
        let (pending, skipped) =
            self.dirty_twin[snapshot].drain_excluding(&self.dirty_twin[active]);
        let rows: Vec<RowId> = pending.into_iter().map(|r| r as RowId).collect();
        self.instances[active].copy_rows_from(&self.instances[snapshot], &rows);
        let copied = rows.len() as u64;
        SyncOutcome {
            copied_records: copied,
            skipped_records: skipped,
            copied_bytes: copied * self.schema.row_width_bytes(),
        }
    }

    /// A read-only snapshot over the inactive instance, bounded at the
    /// visible-row watermark captured at the last switch.
    pub fn snapshot(&self) -> TableSnapshot {
        let inactive = self.inactive_instance();
        TableSnapshot::new(
            self.schema.name.clone(),
            Arc::clone(&self.instances[inactive]),
            self.visible_rows[inactive].load(Ordering::Acquire),
            self.epoch(),
        )
    }

    /// Rows that are fresh with respect to the OLAP instance: updated rows not
    /// yet propagated plus rows inserted beyond the propagation watermark,
    /// measured against the current snapshot watermark. An updated row
    /// counts once, whether the snapshot holds its update yet or not.
    pub fn fresh_rows_vs_olap(&self) -> u64 {
        let snapshot_rows = self.visible_rows[self.inactive_instance()].load(Ordering::Acquire);
        let synced = self.olap_synced_rows.load(Ordering::Acquire);
        let inserted = snapshot_rows.saturating_sub(synced);
        // Updated rows below the synced watermark (those above are counted as inserts).
        let updated = self
            .dirty_olap
            .count_union_below(&self.dirty_olap_since_switch, synced as usize);
        inserted + updated
    }

    /// Rows below the propagation watermark updated since the OLAP instance
    /// last received them, whether the snapshot holds the update yet or not
    /// (the rows [`Self::fresh_rows_vs_olap`] counts as updated), ascending.
    pub fn updated_rows_vs_olap(&self) -> Vec<RowId> {
        let synced = self.olap_synced_rows.load(Ordering::Acquire);
        self.dirty_olap
            .union_below(&self.dirty_olap_since_switch, synced as usize)
            .into_iter()
            .map(|r| r as RowId)
            .collect()
    }

    /// The rows that an ETL to the OLAP instance must copy right now:
    /// `(updated_rows_below_watermark, insert_range)`. The updated rows are
    /// those whose update the snapshot holds, in ascending order.
    pub fn olap_delta(&self) -> (Vec<RowId>, std::ops::Range<u64>) {
        let snapshot_rows = self.visible_rows[self.inactive_instance()].load(Ordering::Acquire);
        let synced = self.olap_synced_rows.load(Ordering::Acquire);
        let updated: Vec<RowId> = self
            .dirty_olap
            .iter_set()
            .into_iter()
            .map(|r| r as u64)
            .filter(|&r| r < synced)
            .collect();
        (updated, synced..snapshot_rows)
    }

    /// Record that the OLAP instance has been brought up to date with the
    /// current snapshot: clears the consumed update bits (every bit below
    /// the snapshot watermark, in one pass) and advances the propagation
    /// watermark. Returns the number of update bits cleared.
    pub fn mark_olap_synced(&self) -> u64 {
        let snapshot_rows = self.visible_rows[self.inactive_instance()].load(Ordering::Acquire);
        let cleared = self.dirty_olap.clear_below(snapshot_rows as usize);
        self.olap_synced_rows
            .fetch_max(snapshot_rows, Ordering::AcqRel);
        cleared
    }

    /// Rows already propagated to the OLAP instance.
    pub fn olap_synced_rows(&self) -> u64 {
        self.olap_synced_rows.load(Ordering::Acquire)
    }

    /// Aggregated statistics of the active instance, as consumed by the
    /// scheduler.
    pub fn stats(&self) -> InstanceStats {
        let active = self.active_instance();
        let visible = self.instances[active].row_count();
        let snapshot_rows = self.visible_rows[self.inactive_instance()].load(Ordering::Acquire);
        InstanceStats {
            visible_rows: visible,
            inserted_since_switch: visible.saturating_sub(snapshot_rows),
            updated_since_sync: self.dirty_twin[active].count(),
            fresh_vs_olap: self.fresh_rows_vs_olap(),
            epoch: self.epoch(),
        }
    }

    /// Bytes of one instance of the relation.
    pub fn instance_bytes(&self) -> u64 {
        self.active().bytes()
    }
}

/// The whole transactional database: one [`TwinTable`] per relation.
#[derive(Debug, Default)]
pub struct TwinStore {
    tables: RwLock<BTreeMap<String, Arc<TwinTable>>>,
    /// Database-level update-presence flag (top of the hierarchy).
    update_presence: UpdatePresence,
}

impl TwinStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a relation. Returns an error if the name is already taken.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<TwinTable>, crate::StorageError> {
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(crate::StorageError::TableExists { table: schema.name });
        }
        let table = Arc::new(TwinTable::new(schema.clone()));
        tables.insert(schema.name.clone(), Arc::clone(&table));
        Ok(table)
    }

    /// Look up a relation by name.
    pub fn table(&self, name: &str) -> Option<Arc<TwinTable>> {
        self.tables.read().get(name).cloned()
    }

    /// Names of all relations, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// All relations.
    pub fn tables(&self) -> Vec<Arc<TwinTable>> {
        self.tables.read().values().cloned().collect()
    }

    /// The database-level update-presence flag.
    pub fn update_presence(&self) -> &UpdatePresence {
        &self.update_presence
    }

    /// Mark that some relation received an update (called by the OLTP engine
    /// on the write path to maintain the hierarchy root).
    pub fn mark_updated(&self) {
        self.update_presence.mark();
    }

    /// Switch the active instance of every relation. Returns per-table outcomes.
    pub fn switch_all(&self) -> BTreeMap<String, SwitchOutcome> {
        self.tables
            .read()
            .iter()
            .map(|(name, t)| (name.clone(), t.switch_active()))
            .collect()
    }

    /// Total size of one instance of the database, in bytes.
    pub fn instance_bytes(&self) -> u64 {
        self.tables
            .read()
            .values()
            .map(|t| t.instance_bytes())
            .sum()
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> u64 {
        self.tables.read().values().map(|t| t.row_count()).sum()
    }

    /// Total fresh rows with respect to the OLAP instance, across relations.
    pub fn fresh_rows_vs_olap(&self) -> u64 {
        self.tables
            .read()
            .values()
            .map(|t| t.fresh_rows_vs_olap())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "accounts",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("balance", DataType::F64),
            ],
            Some(0),
        )
    }

    fn row(id: i64, balance: f64) -> Vec<Value> {
        vec![Value::I64(id), Value::F64(balance)]
    }

    #[test]
    fn inserts_go_to_both_instances() {
        let t = TwinTable::new(schema());
        let r = t.insert(&row(1, 100.0)).unwrap();
        assert_eq!(r, 0);
        assert_eq!(t.instance(0).row_count(), 1);
        assert_eq!(t.instance(1).row_count(), 1);
        assert_eq!(t.get_from(0, 0, 1), Some(Value::F64(100.0)));
        assert_eq!(t.get_from(1, 0, 1), Some(Value::F64(100.0)));
    }

    #[test]
    fn updates_touch_only_active_instance_and_set_bits() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 100.0)).unwrap();
        let old = t.update(0, 1, &Value::F64(150.0)).unwrap();
        assert_eq!(old, Value::F64(100.0));
        let active = t.active_instance();
        assert_eq!(t.get_from(active, 0, 1), Some(Value::F64(150.0)));
        assert_eq!(t.get_from(1 - active, 0, 1), Some(Value::F64(100.0)));
        assert!(t.update_presence().is_set());
        assert_eq!(t.stats().updated_since_sync, 1);
        assert_eq!(
            t.stats().fresh_vs_olap,
            0,
            "no switch yet: snapshot watermark is 0"
        );
    }

    #[test]
    fn switch_exposes_fresh_snapshot_and_sync_catches_up() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 100.0)).unwrap();
        t.insert(&row(2, 200.0)).unwrap();
        t.update(0, 1, &Value::F64(111.0)).unwrap();

        let outcome = t.switch_active();
        assert_eq!(outcome.previous_active, 0);
        assert_eq!(outcome.new_active, 1);
        assert_eq!(outcome.snapshot_rows, 2);
        assert_eq!(outcome.pending_sync_records, 1);
        assert_eq!(t.epoch(), 1);

        // The snapshot (instance 0) holds the updated value.
        let snap = t.snapshot();
        assert_eq!(snap.rows(), 2);
        assert_eq!(snap.table().get_value(0, 1), Some(Value::F64(111.0)));

        // The new active instance still has the stale value until sync.
        assert_eq!(t.get(0, 1), Some(Value::F64(100.0)));
        let sync = t.sync_active_from_snapshot();
        assert_eq!(sync.copied_records, 1);
        assert_eq!(sync.skipped_records, 0);
        assert_eq!(t.get(0, 1), Some(Value::F64(111.0)));
        // Bits consumed.
        assert_eq!(t.switch_active().pending_sync_records, 0);
    }

    #[test]
    fn sync_skips_records_already_overwritten_after_switch() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 100.0)).unwrap();
        t.update(0, 1, &Value::F64(111.0)).unwrap();
        t.switch_active();
        // A newer transaction updates the same record on the new active instance.
        t.update(0, 1, &Value::F64(999.0)).unwrap();
        let sync = t.sync_active_from_snapshot();
        assert_eq!(sync.copied_records, 0);
        assert_eq!(sync.skipped_records, 1);
        // Newest value wins.
        assert_eq!(t.get(0, 1), Some(Value::F64(999.0)));
    }

    #[test]
    fn inserts_become_visible_to_snapshot_only_after_switch() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 1.0)).unwrap();
        t.switch_active();
        t.insert(&row(2, 2.0)).unwrap();
        let snap = t.snapshot();
        assert_eq!(
            snap.rows(),
            1,
            "row inserted after the switch is not yet visible"
        );
        t.switch_active();
        let snap = t.snapshot();
        assert_eq!(snap.rows(), 2);
    }

    #[test]
    fn olap_freshness_tracking_counts_inserts_and_updates() {
        let t = TwinTable::new(schema());
        for i in 0..10 {
            t.insert(&row(i, i as f64)).unwrap();
        }
        t.switch_active();
        // Nothing propagated yet: all 10 visible rows are fresh.
        assert_eq!(t.fresh_rows_vs_olap(), 10);
        let (updated, inserts) = t.olap_delta();
        assert!(updated.is_empty());
        assert_eq!(inserts, 0..10);
        t.mark_olap_synced();
        assert_eq!(t.fresh_rows_vs_olap(), 0);
        assert_eq!(t.olap_synced_rows(), 10);

        // New update + new insert become fresh after the next switch.
        t.update(3, 1, &Value::F64(33.0)).unwrap();
        t.insert(&row(100, 100.0)).unwrap();
        assert_eq!(
            t.fresh_rows_vs_olap(),
            1,
            "update counts immediately; insert waits for switch"
        );
        t.switch_active();
        assert_eq!(t.fresh_rows_vs_olap(), 2);
        let (updated, inserts) = t.olap_delta();
        assert_eq!(updated, vec![3]);
        assert_eq!(inserts, 10..11);
        assert_eq!(t.mark_olap_synced(), 1);
        assert_eq!(t.fresh_rows_vs_olap(), 0);
    }

    #[test]
    fn olap_delta_waits_for_the_switch_that_puts_an_update_in_the_snapshot() {
        let t = TwinTable::new(schema());
        for i in 0..4 {
            t.insert(&row(i, i as f64)).unwrap();
        }
        t.switch_active();
        t.mark_olap_synced();
        // Updated after the switch: only the active instance holds it, so
        // an ETL now must neither copy nor consume it.
        t.update(2, 1, &Value::F64(22.0)).unwrap();
        assert_eq!(t.fresh_rows_vs_olap(), 1);
        assert!(t.olap_delta().0.is_empty());
        assert_eq!(t.mark_olap_synced(), 0);
        assert_eq!(t.fresh_rows_vs_olap(), 1, "the update is still fresh");
        t.switch_active();
        assert_eq!(t.olap_delta().0, vec![2]);
        assert_eq!(t.mark_olap_synced(), 1);
        assert_eq!(t.fresh_rows_vs_olap(), 0);
    }

    #[test]
    fn stats_report_inserted_since_switch() {
        let t = TwinTable::new(schema());
        t.insert(&row(1, 1.0)).unwrap();
        t.switch_active();
        t.insert(&row(2, 2.0)).unwrap();
        t.insert(&row(3, 3.0)).unwrap();
        let stats = t.stats();
        assert_eq!(stats.visible_rows, 3);
        assert_eq!(stats.inserted_since_switch, 2);
        assert_eq!(stats.epoch, 1);
    }

    #[test]
    fn concurrent_inserts_keep_twins_in_step() {
        let t = TwinTable::new(schema());
        std::thread::scope(|scope| {
            for w in 0..4i64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..200i64 {
                        t.insert(&row(w * 1000 + i, i as f64)).unwrap();
                    }
                });
            }
        });
        assert_eq!(t.instance(0).row_count(), 800);
        assert_eq!(t.instance(1).row_count(), 800);
        // Both instances hold the identical row at every id — interleaved
        // appends across writers must never cross-assign rows.
        for r in 0..800 {
            let id = t.get_from(0, r, 0);
            assert!(id.is_some());
            assert_eq!(id, t.get_from(1, r, 0), "row {r} diverged");
            assert_eq!(t.get_from(0, r, 1), t.get_from(1, r, 1), "row {r} diverged");
        }
    }

    #[test]
    fn twin_store_creates_and_lists_tables() {
        let store = TwinStore::new();
        store.create_table(schema()).unwrap();
        assert!(store.create_table(schema()).is_err());
        assert_eq!(store.table_names(), vec!["accounts".to_string()]);
        assert!(store.table("accounts").is_some());
        assert!(store.table("missing").is_none());

        let t = store.table("accounts").unwrap();
        t.insert(&row(1, 10.0)).unwrap();
        assert_eq!(store.total_rows(), 1);
        assert_eq!(store.instance_bytes(), 16);
        let outcomes = store.switch_all();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(store.fresh_rows_vs_olap(), 1);
    }

    #[test]
    fn consecutive_switches_alternate_instances() {
        let t = TwinTable::new(schema());
        assert_eq!(t.active_instance(), 0);
        t.switch_active();
        assert_eq!(t.active_instance(), 1);
        t.switch_active();
        assert_eq!(t.active_instance(), 0);
        assert_eq!(t.epoch(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::schema::{ColumnDef, DataType};
    use proptest::prelude::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", DataType::I64),
                ColumnDef::new("v", DataType::I64),
            ],
            Some(0),
        )
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(i64),
        Update(usize, i64),
        SwitchAndSync,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<i64>().prop_map(Op::Insert),
            3 => (0usize..64, any::<i64>()).prop_map(|(r, v)| Op::Update(r, v)),
            1 => Just(Op::SwitchAndSync),
        ]
    }

    #[derive(Debug, Clone)]
    enum EtlOp {
        Insert(i64),
        Update(usize, i64),
        SwitchAndSync,
        Etl,
    }

    fn arb_etl_op() -> impl Strategy<Value = EtlOp> {
        prop_oneof![
            3 => any::<i64>().prop_map(EtlOp::Insert),
            3 => (0usize..64, any::<i64>()).prop_map(|(r, v)| EtlOp::Update(r, v)),
            1 => Just(EtlOp::SwitchAndSync),
            1 => Just(EtlOp::Etl),
        ]
    }

    /// One ETL into `olap`, as the OLAP store applies it: the updated rows,
    /// then the contiguous insert range, then the watermark.
    fn etl(t: &TwinTable, olap: &ColumnarTable) {
        let snapshot = t.snapshot();
        let (updated, inserted) = t.olap_delta();
        olap.copy_rows_from(snapshot.table(), &updated);
        olap.copy_range_from(snapshot.table(), inserted);
        t.mark_olap_synced();
    }

    proptest! {
        /// After any interleaving of inserts, updates, switch+sync cycles and
        /// ETLs — with updates also landing between a switch and its ETL — a
        /// final switch+sync and ETL leaves the OLAP instance holding exactly
        /// the latest committed value of every record.
        #[test]
        fn olap_instance_converges_after_switch_and_etl(ops in prop::collection::vec(arb_etl_op(), 1..150)) {
            let t = TwinTable::new(schema());
            let olap = ColumnarTable::new(schema());
            let mut model: Vec<i64> = Vec::new();
            for op in ops {
                match op {
                    EtlOp::Insert(v) => {
                        t.insert(&[Value::I64(model.len() as i64), Value::I64(v)]).unwrap();
                        model.push(v);
                    }
                    EtlOp::Update(r, v) => {
                        if !model.is_empty() {
                            let r = r % model.len();
                            t.update(r as u64, 1, &Value::I64(v)).unwrap();
                            model[r] = v;
                        }
                    }
                    EtlOp::SwitchAndSync => {
                        t.switch_active();
                        t.sync_active_from_snapshot();
                    }
                    EtlOp::Etl => etl(&t, &olap),
                }
            }
            t.switch_active();
            t.sync_active_from_snapshot();
            etl(&t, &olap);
            prop_assert_eq!(olap.row_count(), model.len() as u64);
            prop_assert_eq!(t.fresh_rows_vs_olap(), 0);
            for (row, expected) in model.iter().enumerate() {
                prop_assert_eq!(
                    olap.get_value(row as u64, 1),
                    Some(Value::I64(*expected)),
                    "row {} diverged in the OLAP instance", row
                );
            }
        }

        /// After any interleaving of inserts, updates and switch+sync cycles,
        /// a final switch+sync leaves both instances holding exactly the
        /// latest committed value of every record.
        #[test]
        fn instances_converge_after_switch_and_sync(ops in prop::collection::vec(arb_op(), 1..120)) {
            let t = TwinTable::new(schema());
            let mut model: Vec<i64> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(v) => {
                        t.insert(&[Value::I64(model.len() as i64), Value::I64(v)]).unwrap();
                        model.push(v);
                    }
                    Op::Update(r, v) => {
                        if !model.is_empty() {
                            let r = r % model.len();
                            t.update(r as u64, 1, &Value::I64(v)).unwrap();
                            model[r] = v;
                        }
                    }
                    Op::SwitchAndSync => {
                        t.switch_active();
                        t.sync_active_from_snapshot();
                    }
                }
            }
            // Final convergence step.
            t.switch_active();
            t.sync_active_from_snapshot();
            for (row, expected) in model.iter().enumerate() {
                for inst in 0..2 {
                    prop_assert_eq!(
                        t.get_from(inst, row as u64, 1),
                        Some(Value::I64(*expected)),
                        "row {} instance {} diverged", row, inst
                    );
                }
            }
        }
    }
}
