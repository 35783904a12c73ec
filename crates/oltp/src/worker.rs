//! Worker manager: an elastic pool of transaction workers.
//!
//! The paper's OLTP engine "uses one hardware thread per transaction. The WM
//! keeps a worker pool of active threads. We set each thread to first generate
//! a transaction and then execute it, simulating a full transaction queue. The
//! WM exposes an API to set the number of active worker threads and their CPU
//! affinities, thus enabling the OLTP engine to elastically scale up and down
//! upon request" (§3.2).
//!
//! CPU affinities are logical: each worker is associated with a simulated
//! [`CoreId`] from `htap-sim`, and the resulting placement is what the
//! interference model uses to compute modelled throughput. Pinning to host
//! OS cores is deliberately not performed — the evaluation machine is
//! simulated by `htap-sim` (see "Crate layering" in `ARCHITECTURE.md`).

use htap_sim::{CoreId, CpuSet};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Commit, abort and retry totals of OLTP work.
///
/// `aborted` counts transactions that gave up (aborted on their final
/// attempt); `retried` counts re-attempts and is disjoint from it: a
/// transaction that fails twice and then commits contributes 2 retries,
/// 1 commit and 0 aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OltpCounts {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions that gave up (aborted on their final attempt).
    pub aborted: u64,
    /// Retry attempts (disjoint from `aborted`).
    pub retried: u64,
}

impl std::ops::Add for OltpCounts {
    type Output = OltpCounts;

    fn add(self, other: OltpCounts) -> OltpCounts {
        OltpCounts {
            committed: self.committed + other.committed,
            aborted: self.aborted + other.aborted,
            retried: self.retried + other.retried,
        }
    }
}

impl std::iter::Sum for OltpCounts {
    fn sum<I: Iterator<Item = OltpCounts>>(iter: I) -> OltpCounts {
        iter.fold(OltpCounts::default(), |a, b| a + b)
    }
}

/// Final counts of a stopped ingest pool.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Each worker's tally, in worker order.
    pub per_worker: Vec<OltpCounts>,
}

impl WorkerReport {
    /// Totals over every worker.
    pub fn total(&self) -> OltpCounts {
        self.per_worker.iter().copied().sum()
    }

    /// Total committed transactions.
    pub fn committed(&self) -> u64 {
        self.total().committed
    }

    /// Total transactions that gave up.
    pub fn aborted(&self) -> u64 {
        self.total().aborted
    }

    /// Total retry attempts.
    pub fn retried(&self) -> u64 {
        self.total().retried
    }
}

/// One ingest worker's outcome tally — the only record of its commits,
/// aborts and retries. Only the owning worker writes it, so a write needs
/// no CAS: the sequence word goes odd, one field is bumped, and the word
/// goes even again. Readers retry until they see the same even sequence on
/// both sides of the payload, so a snapshot never tears. Aligned to its own
/// cache line so neighbouring workers do not share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Tally {
    seq: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    retried: AtomicU64,
}

impl Tally {
    /// Add one to `field`, which must be one of this tally's counters.
    /// Called by the owning worker only.
    fn bump(&self, field: &AtomicU64) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        field.store(field.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    fn read(&self) -> OltpCounts {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let snapshot = OltpCounts {
                    committed: self.committed.load(Ordering::Relaxed),
                    aborted: self.aborted.load(Ordering::Relaxed),
                    retried: self.retried.load(Ordering::Relaxed),
                };
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == s1 {
                    return snapshot;
                }
            }
            std::hint::spin_loop();
        }
    }
}

/// Retry policy for aborted transactions in the long-running ingest pool.
///
/// NO-WAIT concurrency control trades waiting for aborts; under contention a
/// bounded retry with jittered exponential backoff recovers most of the lost
/// throughput without letting two workers re-collide in lockstep. The jitter
/// is derived deterministically from `(worker, txn_index, attempt)` so runs
/// stay reproducible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 disables retrying).
    pub max_retries: u32,
    /// Base backoff before the first retry, in microseconds; doubles per
    /// attempt (capped at 64×) with up to 100% deterministic jitter on top.
    /// 0 retries immediately.
    pub backoff_micros: u64,
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based) of transaction
    /// `txn_index` on worker `worker`, in microseconds. Exponential in the
    /// attempt with a deterministic jitter in `[0, window)` mixed from the
    /// identifying triple (splitmix64 finalizer — no RNG state, no `rand`).
    pub fn backoff_for(&self, worker: u64, txn_index: u64, attempt: u32) -> u64 {
        if self.backoff_micros == 0 {
            return 0;
        }
        let window = self
            .backoff_micros
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(6));
        let mut x = worker.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ txn_index.rotate_left(17)
            ^ (attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        window + x % window.max(1)
    }
}

/// Pool assignment shared with long-running ingest threads, so mid-flight
/// grants and revocations by the RDE engine take effect without restarting
/// the pool.
#[derive(Debug, Default)]
struct PoolState {
    /// Cores currently assigned to the pool, in worker order.
    affinity: RwLock<Vec<CoreId>>,
    /// Number of workers that are allowed to run (≤ `affinity.len()`).
    active_workers: AtomicU64,
    /// Revoked ingest workers block here instead of sleep-polling (polling
    /// would burn scheduler cycles on the very host whose ingest throughput
    /// is being measured); every resize and stop notifies.
    resize_mutex: std::sync::Mutex<()>,
    resize_cv: std::sync::Condvar,
    /// Retry policy for aborted ingest transactions; read per transaction so
    /// changes take effect mid-flight.
    retry: RwLock<RetryPolicy>,
}

impl PoolState {
    /// Wake every parked worker (after a resize or stop). Holding the mutex
    /// while notifying closes the check-then-wait race in
    /// [`Self::park_until_resize`].
    fn notify_resize(&self) {
        let _guard = self
            .resize_mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.resize_cv.notify_all();
    }

    /// Park the calling worker until the next resize/stop notification (with
    /// a timeout backstop). `should_park` is re-checked under the lock so a
    /// notification between the caller's last check and this call is never
    /// lost.
    fn park_until_resize(&self, should_park: impl Fn() -> bool) {
        let guard = self
            .resize_mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if should_park() {
            let _ = self
                .resize_cv
                .wait_timeout(guard, Duration::from_millis(50));
        }
    }
}

/// State shared by the threads of a continuously running pool.
#[derive(Debug)]
struct IngestShared {
    /// One tally per worker, indexed by worker id.
    tallies: Vec<Tally>,
    stop: AtomicBool,
}

impl IngestShared {
    fn snapshots(&self) -> impl Iterator<Item = OltpCounts> + '_ {
        self.tallies.iter().map(Tally::read)
    }
}

/// A continuously running set of ingest threads (long-running mode).
#[derive(Debug)]
struct IngestPool {
    shared: Arc<IngestShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// The elastic worker pool.
#[derive(Debug, Default)]
pub struct WorkerManager {
    state: Arc<PoolState>,
    /// Long-running ingest pool, when one has been started.
    ingest: Mutex<Option<IngestPool>>,
}

impl WorkerManager {
    /// New manager with no workers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker pool to one worker per core of `cores`, all active.
    /// This is the API the RDE engine calls when migrating states; a running
    /// ingest pool observes the new assignment mid-flight.
    pub fn set_workers(&self, cores: &CpuSet) {
        let cores: Vec<CoreId> = cores.iter().collect();
        let n = cores.len() as u64;
        *self.state.affinity.write() = cores;
        self.state.active_workers.store(n, Ordering::Release);
        self.state.notify_resize();
    }

    /// Restrict the number of active workers without changing affinities
    /// (scale down). `n` is clamped to the pool size — the RDE migration
    /// paths may request more workers than the pool holds — and the
    /// effective count is returned.
    pub fn set_active_workers(&self, n: usize) -> usize {
        let pool = self.state.affinity.read().len();
        let effective = n.min(pool);
        self.state
            .active_workers
            .store(effective as u64, Ordering::Release);
        self.state.notify_resize();
        effective
    }

    /// Number of active workers.
    pub fn active_workers(&self) -> usize {
        self.state.active_workers.load(Ordering::Acquire) as usize
    }

    /// The cores assigned to the active workers.
    pub fn affinity(&self) -> Vec<CoreId> {
        let all = self.state.affinity.read();
        all.iter().take(self.active_workers()).copied().collect()
    }

    /// Set the retry policy for aborted ingest transactions. Takes effect on
    /// the next transaction of a running pool.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.state.retry.write() = policy;
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.state.retry.read()
    }

    /// Start the long-running ingest mode with capacity for the current pool
    /// size only; see [`Self::start_with_capacity`] for grants that may grow
    /// beyond it.
    pub fn start<F>(&self, body: F) -> usize
    where
        F: Fn(usize, CoreId, u64) -> bool + Send + Sync + 'static,
    {
        self.start_with_capacity(0, body)
    }

    /// Start the long-running ingest mode: one OS thread per potential
    /// worker, each repeatedly invoking `body(worker_id, core, txn_index)`
    /// and recording whether the transaction committed. The pool keeps
    /// running until [`Self::stop`]; while it runs, [`Self::set_workers`] /
    /// [`Self::set_active_workers`] resize it mid-flight — deactivated
    /// workers park until they are granted back, and affinity changes are
    /// picked up on the next transaction.
    ///
    /// Threads are spawned for `max(max_workers, current pool size)` workers,
    /// so a later grant *larger* than the pool at start time still finds a
    /// thread to resume (parked threads block on a condition variable until
    /// a resize wakes them). Pass the machine's core count to cover every
    /// possible grant.
    ///
    /// Returns the number of threads spawned: 0 when the capacity is zero or
    /// an ingest run is already active (the running pool is left untouched).
    pub fn start_with_capacity<F>(&self, max_workers: usize, body: F) -> usize
    where
        F: Fn(usize, CoreId, u64) -> bool + Send + Sync + 'static,
    {
        let mut slot = self.ingest.lock();
        if slot.is_some() {
            return 0;
        }
        let pool_size = self.state.affinity.read().len().max(max_workers);
        if pool_size == 0 {
            return 0;
        }
        let shared = Arc::new(IngestShared {
            tallies: (0..pool_size).map(|_| Tally::default()).collect(),
            stop: AtomicBool::new(false),
        });
        let body = Arc::new(body);
        let handles = (0..pool_size)
            .map(|worker_id| {
                let state = Arc::clone(&self.state);
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                std::thread::Builder::new()
                    .name(format!("oltp-ingest-{worker_id}"))
                    .spawn(move || {
                        // Route this thread's ring events (commit, abort,
                        // retry) to its own oltp-ingest lane.
                        htap_obs::bind_thread_oltp(worker_id);
                        let tally = &shared.tallies[worker_id];
                        // The worker's core, when it is inside the current
                        // grant (active and with an assigned affinity slot).
                        let granted_core = |state: &PoolState| {
                            if worker_id < state.active_workers.load(Ordering::Acquire) as usize {
                                state.affinity.read().get(worker_id).copied()
                            } else {
                                None
                            }
                        };
                        let mut txn_index = 0u64;
                        while !shared.stop.load(Ordering::Acquire) {
                            let Some(core) = granted_core(&state) else {
                                state.park_until_resize(|| {
                                    !shared.stop.load(Ordering::Acquire)
                                        && granted_core(&state).is_none()
                                });
                                continue;
                            };
                            // Bounded retry: same (worker, txn_index) pair on
                            // every attempt, so a deterministic body re-runs
                            // the *same* transaction rather than moving on.
                            let mut attempt = 0u32;
                            loop {
                                if body(worker_id, core, txn_index) {
                                    tally.bump(&tally.committed);
                                    break;
                                }
                                let policy = *state.retry.read();
                                if attempt >= policy.max_retries
                                    || shared.stop.load(Ordering::Acquire)
                                {
                                    tally.bump(&tally.aborted);
                                    htap_obs::record_thread(
                                        htap_obs::EventKind::TxnAbort,
                                        htap_obs::now_us(),
                                        worker_id as u64,
                                        txn_index,
                                    );
                                    break;
                                }
                                attempt += 1;
                                tally.bump(&tally.retried);
                                htap_obs::record_thread(
                                    htap_obs::EventKind::TxnRetry,
                                    htap_obs::now_us(),
                                    worker_id as u64,
                                    u64::from(attempt),
                                );
                                let backoff =
                                    policy.backoff_for(worker_id as u64, txn_index, attempt);
                                if backoff > 0 {
                                    std::thread::sleep(Duration::from_micros(backoff));
                                }
                            }
                            txn_index += 1;
                        }
                    })
                    .expect("spawning an ingest worker")
            })
            .collect();
        *slot = Some(IngestPool { shared, handles });
        pool_size
    }

    /// Whether a long-running ingest pool is active.
    pub fn ingest_running(&self) -> bool {
        self.ingest.lock().is_some()
    }

    /// Live totals of the running ingest pool — sampled without stopping it,
    /// so callers can derive measured OLTP throughput around each analytical
    /// query. `aborted` counts transactions that gave up; `retried` counts
    /// re-attempts that are NOT in `aborted`. The sum of one torn-free
    /// snapshot per worker: each worker's triple is exact as of some moment
    /// of its own, and every field only grows from one call to the next.
    /// A retry is counted when its attempt aborts, so a snapshot can show
    /// retries of a transaction whose commit or abort has not landed yet.
    /// Zeroes when no pool runs. Allocation-free: pacing loops poll this at
    /// high frequency.
    pub fn live_counts(&self) -> OltpCounts {
        match self.ingest.lock().as_ref() {
            Some(pool) => pool.shared.snapshots().sum(),
            None => OltpCounts::default(),
        }
    }

    /// Live per-worker commit counts of the running ingest pool (empty when
    /// no pool runs). Lets callers observe which workers a mid-flight resize
    /// parked or resumed.
    pub fn per_worker_committed(&self) -> Vec<u64> {
        match self.ingest.lock().as_ref() {
            Some(pool) => pool.shared.snapshots().map(|c| c.committed).collect(),
            None => Vec::new(),
        }
    }

    /// Stop the long-running ingest pool: signal every thread, join them and
    /// return the final per-worker counts, whose totals are added to the
    /// `oltp.txn.{committed,aborted,retried}` registry counters. A no-op
    /// returning an empty report when no pool is running.
    pub fn stop(&self) -> WorkerReport {
        let Some(pool) = self.ingest.lock().take() else {
            return WorkerReport::default();
        };
        pool.shared.stop.store(true, Ordering::Release);
        self.state.notify_resize();
        for handle in pool.handles {
            // A panicked worker must not panic stop(): it is reachable from
            // Drop during unwinding, where a second panic aborts the whole
            // process and masks the original failure. The worker's partial
            // counts are still in its tally.
            let _ = handle.join();
        }
        let report = WorkerReport {
            per_worker: pool.shared.snapshots().collect(),
        };
        let total = report.total();
        htap_obs::counter("oltp.txn.committed").add(total.committed);
        htap_obs::counter("oltp.txn.aborted").add(total.aborted);
        htap_obs::counter("oltp.txn.retried").add(total.retried);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htap_sim::{SocketId, Topology};

    fn cores(n: u16) -> CpuSet {
        CpuSet::from_cores((0..n).map(CoreId))
    }

    #[test]
    fn set_workers_and_scale_down() {
        let wm = WorkerManager::new();
        assert_eq!(wm.active_workers(), 0);
        wm.set_workers(&cores(8));
        assert_eq!(wm.active_workers(), 8);
        assert_eq!(wm.affinity().len(), 8);
        assert_eq!(wm.set_active_workers(3), 3);
        assert_eq!(wm.active_workers(), 3);
        assert_eq!(wm.affinity(), vec![CoreId(0), CoreId(1), CoreId(2)]);
    }

    #[test]
    fn scaling_beyond_pool_clamps_to_pool_size() {
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        assert_eq!(wm.set_active_workers(5), 2, "clamped to the pool");
        assert_eq!(wm.active_workers(), 2);
        // An empty pool clamps everything to zero.
        let empty = WorkerManager::new();
        assert_eq!(empty.set_active_workers(4), 0);
    }

    /// Stopping a pool adds to the process-wide `oltp.txn.*` counters, so
    /// tests that start pools run one at a time: a test can then compare
    /// the registry delta with its own pool's report exactly.
    fn pool_test_lock() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
    }

    fn registry_txn_counts() -> OltpCounts {
        let counters = htap_obs::metrics_snapshot().counters;
        let get = |name| counters.get(name).copied().unwrap_or(0);
        OltpCounts {
            committed: get("oltp.txn.committed"),
            aborted: get("oltp.txn.aborted"),
            retried: get("oltp.txn.retried"),
        }
    }

    fn wait_until(mut condition: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !condition() {
            assert!(
                std::time::Instant::now() < deadline,
                "condition not reached within 30s"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn long_running_pool_counts_live_and_reports_on_stop() {
        let _lock = pool_test_lock();
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        // Every fourth transaction "aborts".
        assert_eq!(wm.start(|_, _, i| i % 4 != 3), 2);
        assert!(wm.ingest_running());
        // A second start must not spawn a second pool.
        assert_eq!(wm.start(|_, _, _| true), 0);
        wait_until(|| {
            let counts = wm.live_counts();
            counts.committed > 0 && counts.aborted > 0
        });
        let report = wm.stop();
        assert!(!wm.ingest_running());
        assert_eq!(report.per_worker.len(), 2);
        assert!(report.committed() > 0);
        assert!(report.aborted() > 0);
        // No retry policy was configured: aborts are final, nothing retried.
        assert_eq!(report.retried(), 0);
        // Stopping again is a no-op.
        assert_eq!(wm.stop(), WorkerReport::default());
        assert_eq!(wm.live_counts(), OltpCounts::default());
    }

    #[test]
    fn long_running_pool_resizes_mid_flight() {
        let _lock = pool_test_lock();
        let wm = WorkerManager::new();
        wm.set_workers(&cores(4));
        assert_eq!(wm.start(|_, _, _| true), 4);
        wait_until(|| wm.live_counts().committed > 0);

        // Revoke all but one worker (the RDE engine shrinking the grant):
        // only worker 0 may make further progress. A revoked worker can
        // still finish the single transaction in flight at revocation time,
        // so the deterministic bound is "at most one more commit each" — no
        // matter how long worker 0 keeps running.
        assert_eq!(wm.set_active_workers(1), 1);
        let at_revocation = wm.per_worker_committed();
        wait_until(|| wm.per_worker_committed()[0] > at_revocation[0] + 5);
        let later = wm.per_worker_committed();
        for w in 1..4 {
            assert!(
                later[w] <= at_revocation[w] + 1,
                "revoked worker {w} kept committing: {} -> {}",
                at_revocation[w],
                later[w]
            );
        }

        // Grant everything back: the parked workers resume.
        assert_eq!(wm.set_active_workers(4), 4);
        wait_until(|| {
            let now = wm.per_worker_committed();
            (1..4).all(|w| now[w] > later[w] + 1)
        });
        let report = wm.stop();
        assert_eq!(report.per_worker.len(), 4);
    }

    #[test]
    fn retries_recover_transient_aborts_and_are_counted_separately() {
        let _lock = pool_test_lock();
        use std::collections::HashMap;
        use std::sync::Mutex;
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        wm.set_retry_policy(RetryPolicy {
            max_retries: 3,
            backoff_micros: 10,
        });
        assert_eq!(
            wm.retry_policy(),
            RetryPolicy {
                max_retries: 3,
                backoff_micros: 10
            }
        );
        // Every transaction fails twice, then commits — and the body must see
        // the SAME txn_index across the retries of one transaction.
        let attempts: Mutex<HashMap<(usize, u64), u32>> = Mutex::new(HashMap::new());
        assert_eq!(
            wm.start(move |worker, _, txn| {
                let mut map = attempts.lock().unwrap();
                let seen = map.entry((worker, txn)).or_insert(0);
                *seen += 1;
                *seen > 2
            }),
            2
        );
        wait_until(|| wm.live_counts().committed >= 10);
        let report = wm.stop();
        // Nothing gave up mid-run (3 retries > 2 needed); only the in-flight
        // transaction on each worker may abort when stop() raises the flag.
        assert!(report.aborted() <= 2, "aborted {}", report.aborted());
        assert!(report.committed() >= 10);
        let retried = report.retried();
        assert!(
            retried >= report.committed() * 2 && retried <= (report.committed() + 2) * 2,
            "expected ~2 retries per commit, got {retried} for {}",
            report.committed()
        );
    }

    #[test]
    fn every_attempt_is_counted_exactly_once() {
        let _lock = pool_test_lock();
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        wm.set_retry_policy(RetryPolicy {
            max_retries: 2,
            backoff_micros: 0,
        });
        // Per worker, every cycle of seven calls is: fail, fail, commit
        // (two retries, one commit); commit; fail, fail, fail (two retries,
        // then the transaction gives up).
        let calls: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let body_calls = Arc::clone(&calls);
        let registry_before = registry_txn_counts();
        assert_eq!(
            wm.start(move |worker, _, _| {
                let n = body_calls[worker].fetch_add(1, Ordering::Relaxed);
                matches!(n % 7, 2 | 3)
            }),
            2
        );
        wait_until(|| {
            let c = wm.live_counts();
            c.committed >= 10 && c.aborted >= 2 && c.retried >= 10
        });
        let report = wm.stop();
        for (worker, counts) in report.per_worker.iter().enumerate() {
            assert_eq!(
                calls[worker].load(Ordering::Relaxed),
                counts.committed + counts.aborted + counts.retried,
                "worker {worker}: {counts:?}"
            );
        }
        let registry_after = registry_txn_counts();
        assert_eq!(
            OltpCounts {
                committed: registry_after.committed - registry_before.committed,
                aborted: registry_after.aborted - registry_before.aborted,
                retried: registry_after.retried - registry_before.retried,
            },
            report.total()
        );
    }

    #[test]
    fn workers_receive_their_assigned_core() {
        let _lock = pool_test_lock();
        let topology = Topology::two_socket();
        let wm = WorkerManager::new();
        wm.set_workers(&CpuSet::socket(&topology, SocketId(1)));
        // Workers are enumerated over socket-1 cores in ascending order; a
        // worker handed any other core aborts.
        assert_eq!(
            wm.start(|worker_id, core, _| core == CoreId(14 + worker_id as u16)),
            14
        );
        wait_until(|| wm.per_worker_committed().iter().all(|&c| c > 0));
        let report = wm.stop();
        assert_eq!(report.per_worker.len(), 14);
        assert_eq!(report.aborted(), 0, "every worker must see its own core");
    }

    #[test]
    fn retry_backoff_is_deterministic_jittered_and_bounded() {
        let p = RetryPolicy {
            max_retries: 5,
            backoff_micros: 100,
        };
        // Deterministic: same triple, same backoff.
        assert_eq!(p.backoff_for(1, 7, 1), p.backoff_for(1, 7, 1));
        // Jittered: different transactions land at different points.
        let distinct: std::collections::HashSet<u64> =
            (0..32).map(|t| p.backoff_for(0, t, 1)).collect();
        assert!(distinct.len() > 16, "jitter collapsed: {distinct:?}");
        // Bounded: window + jitter < 2 * window, exponential growth capped.
        for attempt in 1..=10u32 {
            let window = 100u64 * (1 << (attempt - 1).min(6));
            let b = p.backoff_for(3, 9, attempt);
            assert!(b >= window && b < 2 * window, "attempt {attempt}: {b}");
        }
        // Disabled backoff retries immediately.
        let zero = RetryPolicy {
            max_retries: 1,
            backoff_micros: 0,
        };
        assert_eq!(zero.backoff_for(0, 0, 1), 0);
    }

    #[test]
    fn starting_an_empty_pool_spawns_nothing() {
        let _lock = pool_test_lock();
        let wm = WorkerManager::new();
        assert_eq!(wm.start(|_, _, _| true), 0);
        assert!(!wm.ingest_running());
    }

    #[test]
    fn pool_grows_beyond_its_start_time_grant_up_to_capacity() {
        let _lock = pool_test_lock();
        let wm = WorkerManager::new();
        wm.set_workers(&cores(2));
        // Capacity for 4 workers even though only 2 cores are granted now.
        assert_eq!(wm.start_with_capacity(4, |_, _, _| true), 4);
        wait_until(|| wm.live_counts().committed > 0);
        let before = wm.per_worker_committed();
        assert_eq!(before.len(), 4);

        // A larger grant activates the spare threads.
        wm.set_workers(&cores(4));
        assert_eq!(wm.active_workers(), 4);
        wait_until(|| {
            let now = wm.per_worker_committed();
            (2..4).all(|w| now[w] > before[w])
        });
        let report = wm.stop();
        assert_eq!(report.per_worker.len(), 4);
        assert!(report.per_worker.iter().all(|c| c.committed > 0));
    }
}
