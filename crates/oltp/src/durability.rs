//! Engine-side durability orchestration: periodic column-segment checkpoints
//! positioned inside the switch-gate quiescence window and written from the
//! frozen snapshot instance after the gate opens, and replay of recovered
//! state through the normal twin-table insert/update path.
//!
//! The byte formats, group-commit WAL and fault-injection plumbing live in
//! `htap-durability`; this module owns the *coordination* with the OLTP
//! engine — where a checkpoint stands (the WAL position and clock read while
//! the gate is held, so no transaction is mid-commit), what it captures
//! (every registered relation, keys in row order), and how a
//! [`RecoveredState`] is applied back onto a freshly created schema.
//!
//! See `ARCHITECTURE.md` ("Durability & crash recovery").

use crate::engine::OltpEngine;
use htap_durability::{
    CheckpointWriter, DurabilityError, DurableStorage, Lsn, RecoveredState, Wal, WalOp,
};
use htap_storage::TableSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default WAL file name inside the durable storage root.
pub const WAL_FILE: &str = "wal.log";
/// Default checkpoint file name inside the durable storage root.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Running counters of the checkpoint machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Instance switches observed since attach.
    pub switches_seen: u64,
    /// Checkpoints successfully written (and WAL truncated).
    pub checkpoints_taken: u64,
    /// Checkpoint attempts that failed (the WAL keeps its tail; the engine
    /// keeps running — durability degrades to replay-from-older-checkpoint).
    pub checkpoint_errors: u64,
}

/// Where a checkpoint stands, read while the switch gate is held: every
/// WAL record below `lsn` is applied, none at or after it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CheckpointPosition {
    lsn: Lsn,
    last_ts: u64,
}

/// Which instance of each relation holds the state at a
/// [`CheckpointPosition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckpointSource {
    /// The snapshot instance, bounded at its switch watermark: the position
    /// was read in the gate of the switch that froze it.
    Snapshot,
    /// The active instance, bounded at its row count: the gate is still
    /// held.
    Active,
}

/// Coordinates the WAL and periodic checkpoints with the OLTP engine.
///
/// Attached to an [`OltpEngine`] via [`OltpEngine::attach_durability`]. The
/// engine calls [`DurabilityController::note_switch`] from inside
/// `switch_and_sync_instances` while the switch-gate write lock is held; a
/// due checkpoint records its position there and is written from the
/// switch's snapshot instance once the gate is released.
pub struct DurabilityController {
    storage: Arc<dyn DurableStorage>,
    wal: Wal,
    checkpoint_file: String,
    /// Take a checkpoint every N instance switches; 0 disables periodic
    /// checkpoints (explicit [`OltpEngine::checkpoint_now`] still works).
    checkpoint_interval_switches: u64,
    switches_seen: AtomicU64,
    checkpoints_taken: AtomicU64,
    checkpoint_errors: AtomicU64,
}

impl std::fmt::Debug for DurabilityController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityController")
            .field("checkpoint_file", &self.checkpoint_file)
            .field(
                "checkpoint_interval_switches",
                &self.checkpoint_interval_switches,
            )
            .field("stats", &self.stats())
            .finish()
    }
}

impl DurabilityController {
    /// Wrap an open WAL and its backing storage. `checkpoint_interval_switches`
    /// of 0 disables periodic checkpoints.
    pub fn new(
        storage: Arc<dyn DurableStorage>,
        wal: Wal,
        checkpoint_interval_switches: u64,
    ) -> Self {
        DurabilityController {
            storage,
            wal,
            checkpoint_file: CHECKPOINT_FILE.to_string(),
            checkpoint_interval_switches,
            switches_seen: AtomicU64::new(0),
            checkpoints_taken: AtomicU64::new(0),
            checkpoint_errors: AtomicU64::new(0),
        }
    }

    /// The write-ahead log this controller truncates at checkpoints.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            switches_seen: self.switches_seen.load(Ordering::Relaxed),
            checkpoints_taken: self.checkpoints_taken.load(Ordering::Relaxed),
            checkpoint_errors: self.checkpoint_errors.load(Ordering::Relaxed),
        }
    }

    /// Called by the engine from inside the switch quiescence window (switch
    /// gate held for writing, twins synced). Every
    /// `checkpoint_interval_switches` switches it returns the position of the
    /// checkpoint due, for [`Self::write_checkpoint`] from the snapshot
    /// instance after the gate is released.
    pub(crate) fn note_switch(&self, engine: &OltpEngine) -> Option<CheckpointPosition> {
        let seen = self.switches_seen.fetch_add(1, Ordering::AcqRel) + 1;
        if self.checkpoint_interval_switches == 0
            || !seen.is_multiple_of(self.checkpoint_interval_switches)
        {
            return None;
        }
        Some(self.position(engine))
    }

    /// The current checkpoint position. The caller must hold the switch gate
    /// for writing: no transaction is in flight, so every durable record is
    /// also applied and `next_lsn` covers exactly the store's state.
    pub(crate) fn position(&self, engine: &OltpEngine) -> CheckpointPosition {
        CheckpointPosition {
            lsn: self.wal.next_lsn(),
            last_ts: engine.txn_manager().now(),
        }
    }

    /// Write the checkpoint at `pos` from `source` and truncate the WAL to
    /// it. The rows read must hold the state at `pos` until this returns:
    /// the engine's switch mutex keeps the next switch out, and for
    /// [`CheckpointSource::Active`] the caller holds the gate.
    ///
    /// Failures are counted and returned: the engine keeps serving
    /// transactions and the WAL keeps its tail, so recovery falls back to
    /// the previous checkpoint plus a longer replay.
    pub(crate) fn write_checkpoint(
        &self,
        engine: &OltpEngine,
        pos: CheckpointPosition,
        source: CheckpointSource,
    ) -> Result<(), DurabilityError> {
        let started = Instant::now();
        let on = htap_obs::enabled();
        let t_ckpt = if on { htap_obs::now_us() } else { 0 };
        if on {
            htap_obs::record_thread(htap_obs::EventKind::CheckpointBegin, t_ckpt, 0, 0);
        }
        let result = self.encode_and_write(engine, pos, source);
        let elapsed_us = started.elapsed().as_micros() as u64;
        htap_obs::histogram("durability.checkpoint_us").record(elapsed_us);
        match &result {
            Ok(table_count) => {
                self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
                if on {
                    htap_obs::record_thread(
                        htap_obs::EventKind::CheckpointEnd,
                        t_ckpt,
                        *table_count,
                        elapsed_us,
                    );
                }
            }
            Err(_) => {
                self.checkpoint_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        result.map(|_| ())
    }

    /// Encode every relation, write the file, truncate the WAL. Returns
    /// the number of tables written.
    fn encode_and_write(
        &self,
        engine: &OltpEngine,
        pos: CheckpointPosition,
        source: CheckpointSource,
    ) -> Result<u64, DurabilityError> {
        let runtimes = engine.table_runtimes();
        let tables: Vec<TableSnapshot> = runtimes
            .iter()
            .map(|rt| match source {
                CheckpointSource::Snapshot => rt.twin().snapshot(),
                CheckpointSource::Active => {
                    let active = rt.twin().active();
                    TableSnapshot::new(
                        rt.name().to_string(),
                        Arc::clone(active),
                        active.row_count(),
                        rt.twin().epoch(),
                    )
                }
            })
            .collect();
        let mut writer = CheckpointWriter::new(pos.lsn, pos.last_ts, &tables);
        for (rt, table) in runtimes.iter().zip(&tables) {
            // The index walk ends before the column guards are taken.
            let keys = rt.index().keys_in_row_order(table.rows()).ok_or_else(|| {
                DurabilityError::corrupt(format!(
                    "index of {} does not hold exactly one key per row below {}",
                    rt.name(),
                    table.rows()
                ))
            })?;
            writer.table(table, &keys)?;
        }
        // Checkpoint first, truncate second: a crash between the two leaves
        // an un-truncated WAL prefix that recovery simply skips, because
        // replay starts at the checkpoint LSN.
        self.storage
            .write_atomic(&self.checkpoint_file, writer.finish())?;
        self.wal.truncate_to(pos.lsn)?;
        Ok(tables.len() as u64)
    }
}

/// Apply a [`RecoveredState`] onto an engine whose relations have already
/// been created (empty). Checkpoint rows are bulk-loaded, then the WAL tail
/// is replayed through the normal twin-table insert/update path, and the
/// logical clock is advanced past the last recovered commit.
///
/// Returns the number of replayed WAL records.
pub fn apply_recovered(
    engine: &OltpEngine,
    state: &RecoveredState,
) -> Result<u64, DurabilityError> {
    if let Some(ckpt) = &state.checkpoint {
        for table in &ckpt.tables {
            for (i, &key) in table.keys.iter().enumerate() {
                engine
                    .bulk_load(&table.name, key, table.row(i))
                    .map_err(|e| {
                        DurabilityError::corrupt(format!(
                            "checkpoint row {key} of {} rejected: {e}",
                            table.name
                        ))
                    })?;
            }
        }
    }
    let mut replayed = 0u64;
    for (lsn, record) in &state.tail {
        for op in &record.ops {
            match op {
                WalOp::Insert { table, key, values } => {
                    engine.bulk_load(table, *key, values.clone()).map_err(|e| {
                        DurabilityError::corrupt(format!(
                            "replay of insert {key} into {table} (lsn {lsn}) rejected: {e}"
                        ))
                    })?;
                }
                WalOp::Update {
                    table,
                    key,
                    column,
                    value,
                } => {
                    let rt = engine.table(table).ok_or_else(|| {
                        DurabilityError::corrupt(format!(
                            "replay references unknown table {table} (lsn {lsn})"
                        ))
                    })?;
                    let loc = rt.index().get(*key).ok_or_else(|| {
                        DurabilityError::corrupt(format!(
                            "replay updates missing key {key} in {table} (lsn {lsn})"
                        ))
                    })?;
                    rt.twin()
                        .update(loc.row, *column as usize, value)
                        .map_err(|e| {
                            DurabilityError::corrupt(format!(
                                "replay of update {key} in {table} (lsn {lsn}) rejected: {e}"
                            ))
                        })?;
                }
            }
        }
        replayed += 1;
    }
    engine.txn_manager().advance_clock(state.last_commit_ts);
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_durability::{load_state, MemStorage, WalConfig};
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("qty", DataType::I32),
                ColumnDef::new("note", DataType::Str),
            ],
            Some(0),
        )
    }

    fn durable_engine(disk: &MemStorage, interval: u64) -> (OltpEngine, Arc<DurabilityController>) {
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let (wal, _seg) = Wal::open(Arc::clone(&storage), WAL_FILE, WalConfig::default()).unwrap();
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        let ctl = Arc::new(DurabilityController::new(storage, wal, interval));
        engine.attach_durability(Arc::clone(&ctl));
        (engine, ctl)
    }

    fn insert(engine: &OltpEngine, key: u64, qty: i32) {
        engine.execute(|mut txn| {
            txn.insert(
                "stock",
                key,
                vec![
                    Value::I64(key as i64),
                    Value::I32(qty),
                    Value::Str(format!("row-{key}")),
                ],
            )
            .unwrap();
            txn.commit().unwrap();
        });
    }

    #[test]
    fn commits_reach_the_wal_and_replay_restores_them() {
        let disk = MemStorage::new();
        {
            let (engine, _ctl) = durable_engine(&disk, 0);
            insert(&engine, 1, 10);
            insert(&engine, 2, 20);
            engine.execute(|mut txn| {
                txn.update("stock", 1, 1, Value::I32(11)).unwrap();
                txn.commit().unwrap();
            });
        }
        // "Reboot": fresh engine, schemas recreated, state replayed.
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        assert!(state.checkpoint.is_none());
        assert_eq!(state.tail_len(), 3);
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert_eq!(apply_recovered(&engine, &state).unwrap(), 3);
        let t = engine.begin();
        assert_eq!(t.read("stock", 1, 1).unwrap(), Value::I32(11));
        assert_eq!(t.read("stock", 2, 1).unwrap(), Value::I32(20));
        assert_eq!(
            t.read("stock", 1, 2).unwrap(),
            Value::Str("row-1".to_string())
        );
        // New commits get timestamps after the recovered history.
        assert!(engine.txn_manager().now() >= state.last_commit_ts);
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovery_uses_it() {
        let disk = MemStorage::new();
        {
            let (engine, ctl) = durable_engine(&disk, 1);
            insert(&engine, 1, 10);
            insert(&engine, 2, 20);
            // Every switch checkpoints (interval 1).
            engine.switch_and_sync_instances();
            assert_eq!(ctl.stats().checkpoints_taken, 1);
            // Post-checkpoint traffic stays in the WAL tail.
            insert(&engine, 3, 30);
        }
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        let ckpt = state.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.tables[0].keys, vec![1, 2]);
        assert_eq!(state.tail_len(), 1);
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        apply_recovered(&engine, &state).unwrap();
        let t = engine.begin();
        for (key, qty) in [(1u64, 10), (2, 20), (3, 30)] {
            assert_eq!(t.read("stock", key, 1).unwrap(), Value::I32(qty));
        }
    }

    #[test]
    fn explicit_checkpoint_now_works_without_interval() {
        let disk = MemStorage::new();
        let (engine, ctl) = durable_engine(&disk, 0);
        insert(&engine, 7, 70);
        engine.switch_and_sync_instances();
        assert_eq!(ctl.stats().checkpoints_taken, 0);
        assert!(engine.checkpoint_now().unwrap());
        assert_eq!(ctl.stats().checkpoints_taken, 1);
        // The WAL was truncated to the checkpoint LSN.
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        assert_eq!(state.tail_len(), 0);
        assert_eq!(state.checkpoint.unwrap().tables[0].keys, vec![7]);
    }

    fn recover(disk: &MemStorage) -> (OltpEngine, RecoveredState) {
        let storage: Arc<dyn DurableStorage> = Arc::new(disk.clone());
        let state = load_state(storage.as_ref(), WAL_FILE, CHECKPOINT_FILE).unwrap();
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        apply_recovered(&engine, &state).unwrap();
        (engine, state)
    }

    #[test]
    fn recovery_keeps_the_row_id_of_every_checkpointed_key() {
        // Keys arrive out of key order, so row order differs from key order.
        let keys = [30u64, 10, 20, 5, 40];
        for switch_checkpoint in [false, true] {
            let disk = MemStorage::new();
            let rows: Vec<(u64, u64)> = {
                let (engine, _ctl) = durable_engine(&disk, u64::from(switch_checkpoint));
                for &k in &keys {
                    insert(&engine, k, k as i32);
                }
                if switch_checkpoint {
                    engine.switch_and_sync_instances();
                } else {
                    assert!(engine.checkpoint_now().unwrap());
                }
                let rt = engine.table("stock").unwrap();
                keys.iter()
                    .map(|&k| (k, rt.index().get(k).unwrap().row))
                    .collect()
            };
            let (engine, state) = recover(&disk);
            let ckpt = state.checkpoint.as_ref().unwrap();
            assert_eq!(ckpt.tables[0].keys, keys, "keys stored in row order");
            assert_eq!(state.tail_len(), 0);
            let rt = engine.table("stock").unwrap();
            for (key, row) in rows {
                assert_eq!(rt.index().get(key).unwrap().row, row, "key {key}");
            }
        }
    }

    #[test]
    fn snapshot_checkpoint_holds_the_switch_state_and_the_tail_survives() {
        let disk = MemStorage::new();
        {
            let (engine, ctl) = durable_engine(&disk, 0);
            insert(&engine, 1, 10);
            insert(&engine, 2, 20);
            engine.switch_and_sync_instances();
            // The position this switch would have checkpointed at.
            let pos = ctl.position(&engine);
            // Traffic after the gate opened: an update on the active
            // instance and an insert above the snapshot watermark.
            engine.execute(|mut txn| {
                txn.update("stock", 1, 1, Value::I32(11)).unwrap();
                txn.commit().unwrap();
            });
            insert(&engine, 3, 30);
            ctl.write_checkpoint(&engine, pos, CheckpointSource::Snapshot)
                .unwrap();
        }
        let (engine, state) = recover(&disk);
        let ckpt = state.checkpoint.as_ref().unwrap();
        assert_eq!(ckpt.tables[0].keys, vec![1, 2]);
        assert_eq!(ckpt.tables[0].row(0)[1], Value::I32(10), "pre-switch value");
        assert_eq!(state.tail_len(), 2, "post-switch commits stay in the WAL");
        let t = engine.begin();
        for (key, qty) in [(1u64, 11), (2, 20), (3, 30)] {
            assert_eq!(t.read("stock", key, 1).unwrap(), Value::I32(qty));
        }
    }

    #[test]
    fn engine_without_durability_reports_no_checkpoint() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert!(!engine.checkpoint_now().unwrap());
    }
}
