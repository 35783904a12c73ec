//! The OLTP engine facade: storage manager + transaction manager + worker
//! manager, plus the hooks the RDE engine drives (§3.2, §3.4).

use crate::durability::{CheckpointSource, DurabilityController};
use crate::txn::{Transaction, TxnManager};
use crate::worker::WorkerManager;
use htap_durability::DurabilityError;
use htap_storage::{
    CuckooIndex, DeltaStorage, RecordLocation, SnapshotHandle, StorageError, SwitchOutcome,
    SyncOutcome, TableSchema, TwinStore, TwinTable, Value,
};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-relation runtime state owned by the OLTP engine: the twin columnar
/// instances, the MVCC delta storage and the primary-key cuckoo index.
#[derive(Debug)]
pub struct TableRuntime {
    twin: Arc<TwinTable>,
    delta: DeltaStorage,
    index: CuckooIndex<RecordLocation>,
}

impl TableRuntime {
    /// Create the runtime for a new relation.
    pub fn new(schema: TableSchema) -> Self {
        TableRuntime {
            twin: Arc::new(TwinTable::new(schema)),
            delta: DeltaStorage::new(),
            index: CuckooIndex::with_capacity(1 << 16),
        }
    }

    /// Create the runtime around an existing twin table (used when the twin
    /// store is shared with the RDE engine).
    pub fn from_twin(twin: Arc<TwinTable>) -> Self {
        TableRuntime {
            twin,
            delta: DeltaStorage::new(),
            index: CuckooIndex::with_capacity(1 << 16),
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.twin.schema().name
    }

    /// The twin-instance storage of the relation.
    pub fn twin(&self) -> &Arc<TwinTable> {
        &self.twin
    }

    /// The MVCC delta storage of the relation.
    pub fn delta(&self) -> &DeltaStorage {
        &self.delta
    }

    /// The primary-key index of the relation.
    pub fn index(&self) -> &CuckooIndex<RecordLocation> {
        &self.index
    }
}

/// What one quiesced instance switch did, and how long it stalled the
/// engine (see [`OltpEngine::switch_and_sync_instances`]).
#[derive(Debug, Clone)]
pub struct InstanceSwitch {
    /// Per-relation switch outcomes.
    pub switched: BTreeMap<String, SwitchOutcome>,
    /// Per-relation twin synchronisation outcomes.
    pub synced: BTreeMap<String, SyncOutcome>,
    /// Microseconds spent waiting for in-flight transactions to drain.
    pub gate_wait_us: u64,
    /// Microseconds the switch gate was held: switch and sync, during which
    /// no transaction runs. A checkpoint due at this switch is written after
    /// the gate is released and is not part of the hold.
    pub gate_hold_us: u64,
}

/// The in-memory OLTP engine.
///
/// The engine is deliberately thin: it wires the storage manager (twin store),
/// the transaction manager and the worker manager together and exposes the
/// operations the RDE engine needs — switching the active instance,
/// synchronising the twins, and reporting fresh-data statistics — without
/// interfering with the design of either component.
#[derive(Debug)]
pub struct OltpEngine {
    store: Arc<TwinStore>,
    txn_manager: TxnManager,
    worker_manager: WorkerManager,
    runtimes: RwLock<BTreeMap<String, Arc<TableRuntime>>>,
    /// Switch gate: transactions hold a read lock while executing; an
    /// instance switch takes the write lock, which gives the quiescence point
    /// the storage manager requires ("when no active OLTP worker thread is
    /// using it any more", §3.2).
    switch_gate: RwLock<()>,
    /// Serialises instance switches and checkpoints. Taken before the gate;
    /// a switch that checkpoints holds it until the checkpoint is written
    /// from the snapshot instance, so no later switch changes that instance
    /// while it is read (see [`Self::switch_and_sync_instances`]).
    switch_lock: Mutex<()>,
    /// Durability controller, when persistence is enabled. Checkpoints are
    /// positioned inside the switch quiescence window and written after it.
    persistence: RwLock<Option<Arc<DurabilityController>>>,
}

impl Default for OltpEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OltpEngine {
    /// Create an engine with an empty database.
    pub fn new() -> Self {
        OltpEngine {
            store: Arc::new(TwinStore::new()),
            txn_manager: TxnManager::new(),
            worker_manager: WorkerManager::new(),
            runtimes: RwLock::new(BTreeMap::new()),
            switch_gate: RwLock::new(()),
            switch_lock: Mutex::new(()),
            persistence: RwLock::new(None),
        }
    }

    /// Enable durability: commits start appending to the controller's WAL
    /// (group-committed, durable before apply) and instance switches
    /// periodically checkpoint the store.
    pub fn attach_durability(&self, controller: Arc<DurabilityController>) {
        self.txn_manager.attach_wal(controller.wal().clone());
        *self.persistence.write() = Some(controller);
    }

    /// Disable durability (commits become memory-only again).
    pub fn detach_durability(&self) {
        self.txn_manager.detach_wal();
        *self.persistence.write() = None;
    }

    /// The attached durability controller, if any.
    pub fn durability(&self) -> Option<Arc<DurabilityController>> {
        self.persistence.read().clone()
    }

    /// Take a checkpoint immediately, inside its own quiescence window
    /// (blocks until in-flight transactions drain), from the active
    /// instance. Returns `Ok(false)` when no durability controller is
    /// attached.
    pub fn checkpoint_now(&self) -> Result<bool, DurabilityError> {
        let _switching = self.switch_lock.lock();
        let _guard = self.switch_gate.write();
        match self.persistence.read().clone() {
            Some(ctl) => {
                let pos = ctl.position(self);
                ctl.write_checkpoint(self, pos, CheckpointSource::Active)
                    .map(|()| true)
            }
            None => Ok(false),
        }
    }

    /// The underlying twin store (shared with the RDE engine).
    pub fn store(&self) -> &Arc<TwinStore> {
        &self.store
    }

    /// The transaction manager.
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txn_manager
    }

    /// The worker manager.
    pub fn worker_manager(&self) -> &WorkerManager {
        &self.worker_manager
    }

    /// Create a relation and register it with the transaction manager.
    pub fn create_table(&self, schema: TableSchema) -> Result<Arc<TableRuntime>, StorageError> {
        let twin = self.store.create_table(schema)?;
        let runtime = Arc::new(TableRuntime::from_twin(twin));
        self.txn_manager.register_table(Arc::clone(&runtime));
        self.runtimes
            .write()
            .insert(runtime.name().to_string(), Arc::clone(&runtime));
        Ok(runtime)
    }

    /// Look up a relation runtime.
    pub fn table(&self, name: &str) -> Option<Arc<TableRuntime>> {
        self.runtimes.read().get(name).cloned()
    }

    /// Names of all relations.
    pub fn table_names(&self) -> Vec<String> {
        self.runtimes.read().keys().cloned().collect()
    }

    /// Runtimes of all relations, in name order.
    pub(crate) fn table_runtimes(&self) -> Vec<Arc<TableRuntime>> {
        self.runtimes.read().values().cloned().collect()
    }

    /// Begin an interactive transaction.
    pub fn begin(&self) -> Transaction<'_> {
        self.txn_manager.begin()
    }

    /// Execute a transaction body under the switch gate. The closure receives
    /// a fresh transaction and must either commit or abort it (returning the
    /// closure's result). Worker threads use this entry point so that instance
    /// switches observe a quiesced engine.
    pub fn execute<R>(&self, body: impl FnOnce(Transaction<'_>) -> R) -> R {
        let _guard = self.switch_gate.read();
        body(self.txn_manager.begin())
    }

    /// Bulk-load a row into a relation outside of any transaction (initial
    /// database population). The index is updated and both twin instances
    /// receive the row; update bits are not touched.
    pub fn bulk_load(
        &self,
        table: &str,
        key: u64,
        values: Vec<Value>,
    ) -> Result<u64, StorageError> {
        let rt = self
            .table(table)
            .ok_or_else(|| StorageError::TableMissing {
                table: table.to_string(),
            })?;
        let row = rt.twin().insert(&values)?;
        rt.index().insert(key, RecordLocation::new(row, 0));
        Ok(row)
    }

    /// Switch the active instance of every relation. Blocks until in-flight
    /// transactions drain (switch gate), then performs the switch. Returns the
    /// per-relation outcomes (the RDE engine uses them to size the
    /// synchronisation work).
    pub fn switch_instance(&self) -> BTreeMap<String, SwitchOutcome> {
        let _switching = self.switch_lock.lock();
        let _guard = self.switch_gate.write();
        self.store.switch_all()
    }

    /// Synchronise the active instance of every relation from its snapshot
    /// twin (consumes the update-indication bits). Usually invoked by the RDE
    /// engine immediately after [`Self::switch_instance`]. The caller must
    /// guarantee no transactions run concurrently; with a live worker pool
    /// use [`Self::switch_and_sync_instances`] instead.
    pub fn sync_instances(&self) -> BTreeMap<String, SyncOutcome> {
        self.runtimes
            .read()
            .iter()
            .map(|(name, rt)| (name.clone(), rt.twin().sync_active_from_snapshot()))
            .collect()
    }

    /// Switch the active instance of every relation *and* synchronise the new
    /// active instance from the snapshot, inside one quiescence window: the
    /// switch gate is held across both steps so no transaction can execute
    /// against the un-synced active instance — it would read pre-switch
    /// values (e.g. a stale district order counter) or have its committed
    /// writes overwritten by the sync copy. This is the entry point the RDE
    /// engine uses while the continuous ingest pool runs. The result also
    /// says how long the gate took to acquire and how long it was held
    /// (every transaction stalls for the latter).
    ///
    /// A checkpoint due at this switch only reads its position (WAL LSN and
    /// clock) inside the gate. It is written after the gate is released,
    /// from the snapshot instance: below the switch watermark that instance
    /// holds exactly the state at that position and does not change until
    /// the next switch (updates and twin sync write the active instance,
    /// inserts append at or above the watermark), and the switch mutex,
    /// held until the checkpoint is written, keeps the next switch out.
    pub fn switch_and_sync_instances(&self) -> InstanceSwitch {
        let _switching = self.switch_lock.lock();
        let requested = Instant::now();
        let guard = self.switch_gate.write();
        let acquired = Instant::now();
        let switched = self.store.switch_all();
        let synced = self
            .runtimes
            .read()
            .iter()
            .map(|(name, rt)| (name.clone(), rt.twin().sync_active_from_snapshot()))
            .collect();
        let controller = self.persistence.read().clone();
        let due = controller.as_ref().and_then(|ctl| ctl.note_switch(self));
        let gate_hold_us = acquired.elapsed().as_micros() as u64;
        drop(guard);
        if let (Some(ctl), Some(pos)) = (controller, due) {
            // A failure is counted by the controller; the WAL keeps its
            // tail and the engine keeps running.
            let _ = ctl.write_checkpoint(self, pos, CheckpointSource::Snapshot);
        }
        InstanceSwitch {
            switched,
            synced,
            gate_wait_us: (acquired - requested).as_micros() as u64,
            gate_hold_us,
        }
    }

    /// A consistent snapshot handle over the inactive instance of every
    /// relation (what the RDE engine passes to the OLAP engine).
    pub fn snapshot(&self) -> SnapshotHandle {
        let mut handle = SnapshotHandle::new();
        for rt in self.runtimes.read().values() {
            handle.insert(rt.twin().snapshot());
        }
        handle
    }

    /// Total fresh rows (inserted or updated since the last propagation to the
    /// OLAP instance), across all relations.
    pub fn fresh_rows_vs_olap(&self) -> u64 {
        self.store.fresh_rows_vs_olap()
    }

    /// Total rows across all relations.
    pub fn total_rows(&self) -> u64 {
        self.store.total_rows()
    }

    /// Size in bytes of one instance of the database.
    pub fn instance_bytes(&self) -> u64 {
        self.store.instance_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_storage::{ColumnDef, DataType};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("qty", DataType::I32),
            ],
            Some(0),
        )
    }

    #[test]
    fn create_table_and_transact() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        assert_eq!(engine.table_names(), vec!["stock".to_string()]);
        assert!(engine.table("stock").is_some());
        assert!(engine.create_table(schema("stock")).is_err());

        let committed = engine.execute(|mut txn| {
            txn.insert("stock", 1, vec![Value::I64(1), Value::I32(5)])
                .unwrap();
            txn.commit().is_ok()
        });
        assert!(committed);
        assert_eq!(engine.total_rows(), 1);
        assert_eq!(engine.begin().read("stock", 1, 1).unwrap(), Value::I32(5));
    }

    #[test]
    fn bulk_load_populates_both_instances_and_index() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        for k in 0..100u64 {
            engine
                .bulk_load("stock", k, vec![Value::I64(k as i64), Value::I32(1)])
                .unwrap();
        }
        assert_eq!(engine.total_rows(), 100);
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.index().len(), 100);
        assert_eq!(rt.twin().instance(0).row_count(), 100);
        assert_eq!(rt.twin().instance(1).row_count(), 100);
        assert!(engine.bulk_load("missing", 0, vec![]).is_err());
    }

    #[test]
    fn switch_and_snapshot_expose_committed_data() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", 1, vec![Value::I64(1), Value::I32(10)])
            .unwrap();
        engine.execute(|mut txn| {
            txn.update("stock", 1, 1, Value::I32(42)).unwrap();
            txn.commit().unwrap();
        });

        let outcomes = engine.switch_instance();
        assert_eq!(outcomes["stock"].pending_sync_records, 1);
        let snapshot = engine.snapshot();
        let stock = snapshot.table("stock").unwrap();
        assert_eq!(stock.rows(), 1);
        assert_eq!(stock.table().get_value(0, 1), Some(Value::I32(42)));

        let sync = engine.sync_instances();
        assert_eq!(sync["stock"].copied_records, 1);
        // After sync both instances agree.
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.twin().get_from(0, 0, 1), Some(Value::I32(42)));
        assert_eq!(rt.twin().get_from(1, 0, 1), Some(Value::I32(42)));
    }

    #[test]
    fn fresh_row_accounting_spans_tables() {
        let engine = OltpEngine::new();
        engine.create_table(schema("a")).unwrap();
        engine.create_table(schema("b")).unwrap();
        engine
            .bulk_load("a", 1, vec![Value::I64(1), Value::I32(1)])
            .unwrap();
        engine
            .bulk_load("b", 1, vec![Value::I64(1), Value::I32(1)])
            .unwrap();
        engine.switch_instance();
        assert_eq!(engine.fresh_rows_vs_olap(), 2);
        assert!(engine.instance_bytes() > 0);
    }

    #[test]
    fn switch_and_sync_instances_is_one_quiescence_window() {
        let engine = OltpEngine::new();
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", 1, vec![Value::I64(1), Value::I32(10)])
            .unwrap();
        engine.execute(|mut txn| {
            txn.update("stock", 1, 1, Value::I32(42)).unwrap();
            txn.commit().unwrap();
        });
        let switch = engine.switch_and_sync_instances();
        assert_eq!(switch.switched["stock"].pending_sync_records, 1);
        assert_eq!(switch.synced["stock"].copied_records, 1);
        // Both instances agree immediately after the combined step — no
        // transaction can ever observe the in-between state.
        let rt = engine.table("stock").unwrap();
        assert_eq!(rt.twin().get_from(0, 0, 1), Some(Value::I32(42)));
        assert_eq!(rt.twin().get_from(1, 0, 1), Some(Value::I32(42)));
    }

    #[test]
    fn switch_waits_for_inflight_transactions() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let engine = Arc::new(OltpEngine::new());
        engine.create_table(schema("stock")).unwrap();
        engine
            .bulk_load("stock", 1, vec![Value::I64(1), Value::I32(0)])
            .unwrap();

        let in_txn = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let worker = {
            let engine = Arc::clone(&engine);
            let in_txn = Arc::clone(&in_txn);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                engine.execute(|mut txn| {
                    txn.update("stock", 1, 1, Value::I32(7)).unwrap();
                    in_txn.store(true, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    txn.commit().unwrap();
                });
            })
        };
        while !in_txn.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // The switch must block until the worker commits; verify by running it
        // on another thread and checking it has not finished while the
        // transaction is still open.
        let switcher = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.switch_instance())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !switcher.is_finished(),
            "switch must wait for the open transaction"
        );
        release.store(true, Ordering::SeqCst);
        worker.join().unwrap();
        let outcomes = switcher.join().unwrap();
        // The committed update is part of the snapshot.
        assert_eq!(outcomes["stock"].pending_sync_records, 1);
        let snap = engine.snapshot();
        assert_eq!(
            snap.table("stock").unwrap().table().get_value(0, 1),
            Some(Value::I32(7))
        );
    }
}
