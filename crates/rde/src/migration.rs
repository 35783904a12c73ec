//! State migration — Algorithm 1 of the paper.
//!
//! Each migration follows the instance switch the query's arrival triggered:
//! it takes that switch's [`SwitchReport`], distributes CPUs (socket- or
//! core-granular), performs an ETL from the switched snapshot when the target
//! state requires it, and records the access method the OLAP engine must use
//! for subsequent queries. The scheduler only *selects* the state;
//! enforcement happens here.

use crate::engine::{AccessMethod, EtlReport, RdeEngine, SwitchReport};
use crate::state::SystemState;
use htap_sim::SocketId;

/// Outcome of a state migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// The state the system migrated to.
    pub state: SystemState,
    /// The access method the OLAP engine uses in this state.
    pub access: AccessMethod,
    /// The instance switch + synchronisation the migration followed.
    pub switch: SwitchReport,
    /// ETL outcome (only for states that perform one).
    pub etl: Option<EtlReport>,
    /// OLTP cores after the migration.
    pub oltp_cores: usize,
    /// OLAP cores after the migration.
    pub olap_cores: usize,
    /// Modelled time of the whole migration (switch + ETL).
    pub modeled_time: f64,
}

impl RdeEngine {
    /// `MigrateStateS1`: co-locate the engines. On every socket the OLTP
    /// engine keeps its configured minimum number of CPUs and the OLAP engine
    /// receives the rest; the OLAP engine then reads the freshly switched
    /// (now inactive) OLTP instance directly.
    pub fn migrate_state_s1(&self, switch: SwitchReport) -> MigrationReport {
        let min = self.config().oltp_min_cores_per_socket;
        let per_socket: Vec<(SocketId, usize)> = self
            .config()
            .topology
            .socket_ids()
            .into_iter()
            .map(|s| (s, min))
            .collect();
        self.migrate_state_s1_with(switch, &per_socket)
    }

    /// `MigrateStateS1` with an explicit per-socket OLTP CPU distribution
    /// (used by the sensitivity sweeps of Figure 3(a)).
    pub fn migrate_state_s1_with(
        &self,
        switch: SwitchReport,
        oltp_per_socket: &[(SocketId, usize)],
    ) -> MigrationReport {
        self.set_oltp_cores_per_socket(oltp_per_socket);
        self.finish_report(
            SystemState::S1Colocated,
            AccessMethod::OltpSnapshot,
            switch,
            None,
        )
    }

    /// `MigrateStateS2`: socket-level isolation plus ETL. The OLTP engine
    /// keeps its configured minimum number of sockets, the OLAP engine gets
    /// the remaining ones, the fresh delta of the switched snapshot is copied
    /// into the OLAP instance and queries run OLAP-local.
    pub fn migrate_state_s2(&self, switch: SwitchReport) -> MigrationReport {
        self.assign_sockets(self.config().oltp_min_sockets);
        let etl = self.etl_to_olap();
        self.finish_report(
            SystemState::S2Isolated,
            AccessMethod::OlapLocal,
            switch,
            Some(etl),
        )
    }

    /// `MigrateStateS3(ISOLATED)`: socket-level compute isolation; the OLAP
    /// engine reads only the fresh records it needs from the OLTP socket over
    /// the interconnect (split access), without updating its own instance.
    pub fn migrate_state_s3_isolated(&self, switch: SwitchReport) -> MigrationReport {
        self.assign_sockets(self.config().oltp_min_sockets);
        self.finish_report(
            SystemState::S3HybridIsolated,
            AccessMethod::Split,
            switch,
            None,
        )
    }

    /// `MigrateStateS3(NON-ISOLATED)`: the OLAP engine borrows
    /// `elastic_cores` CPUs on the OLTP socket (bounded by the OLTP minimum)
    /// and uses split access so the borrowed cores reach fresh data at full
    /// memory bandwidth.
    pub fn migrate_state_s3_non_isolated(&self, switch: SwitchReport) -> MigrationReport {
        self.migrate_state_s3_non_isolated_with(switch, self.config().elastic_cores)
    }

    /// `MigrateStateS3(NON-ISOLATED)` with an explicit number of borrowed
    /// cores (used by the sensitivity sweep of Figure 3(c)).
    pub fn migrate_state_s3_non_isolated_with(
        &self,
        switch: SwitchReport,
        borrowed: usize,
    ) -> MigrationReport {
        let topo = &self.config().topology;
        let oltp_socket = self.config().oltp_socket;
        let min = self.config().oltp_min_cores_per_socket;
        let keep = (topo.cores_per_socket as usize)
            .saturating_sub(borrowed)
            .max(min);
        // OLTP keeps `keep` cores on its own socket and nothing elsewhere; the
        // OLAP engine owns its socket plus the borrowed OLTP-socket cores.
        self.set_oltp_cores_per_socket(&[(oltp_socket, keep)]);
        self.finish_report(
            SystemState::S3HybridNonIsolated,
            AccessMethod::Split,
            switch,
            None,
        )
    }

    /// Migrate to a state using the configured defaults, following the
    /// instance switch reported by `switch`.
    pub fn migrate(&self, state: SystemState, switch: SwitchReport) -> MigrationReport {
        match state {
            SystemState::S1Colocated => self.migrate_state_s1(switch),
            SystemState::S2Isolated => self.migrate_state_s2(switch),
            SystemState::S3HybridIsolated => self.migrate_state_s3_isolated(switch),
            SystemState::S3HybridNonIsolated => self.migrate_state_s3_non_isolated(switch),
        }
    }

    /// Record `state` as current and build its report.
    fn finish_report(
        &self,
        state: SystemState,
        access: AccessMethod,
        switch: SwitchReport,
        etl: Option<EtlReport>,
    ) -> MigrationReport {
        self.set_current_state(state);
        let oltp_cores = self.txn_work().total_workers();
        let olap_cores = self.olap_placement().total_cores();
        let modeled_time = switch.modeled_time + etl.map(|e| e.modeled_time).unwrap_or(0.0);
        MigrationReport {
            state,
            access,
            switch,
            etl,
            oltp_cores,
            olap_cores,
            modeled_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RdeConfig;
    use htap_storage::{ColumnDef, DataType, TableSchema, Value};

    fn rde_with_data(rows: u64) -> RdeEngine {
        let rde = RdeEngine::bootstrap(RdeConfig::default());
        let schema = TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::I64),
                ColumnDef::new("amount", DataType::F64),
            ],
            Some(0),
        );
        rde.create_table(schema).unwrap();
        for i in 0..rows {
            rde.oltp()
                .bulk_load("sales", i, vec![Value::I64(i as i64), Value::F64(i as f64)])
                .unwrap();
        }
        rde
    }

    #[test]
    fn s1_colocates_and_reads_the_oltp_snapshot() {
        let rde = rde_with_data(100);
        let report = rde.migrate(SystemState::S1Colocated, rde.switch_and_sync());
        assert_eq!(report.state, SystemState::S1Colocated);
        assert_eq!(report.access, AccessMethod::OltpSnapshot);
        assert!(report.etl.is_none());
        // OLTP keeps the minimum (4) on each of the two sockets.
        assert_eq!(report.oltp_cores, 8);
        assert_eq!(report.olap_cores, 28 - 8);
        assert!(
            rde.olap_placement().cores_on(SocketId(0)) > 0,
            "OLAP co-located on the OLTP socket"
        );
        assert_eq!(rde.current_state(), Some(SystemState::S1Colocated));
    }

    #[test]
    fn s2_isolates_and_performs_etl() {
        let rde = rde_with_data(200);
        let report = rde.migrate(SystemState::S2Isolated, rde.switch_and_sync());
        assert_eq!(report.access, AccessMethod::OlapLocal);
        let etl = report.etl.expect("S2 performs an ETL");
        assert_eq!(etl.copied_rows, 200);
        assert!(report.modeled_time >= etl.modeled_time);
        assert_eq!(report.oltp_cores, 14);
        assert_eq!(report.olap_cores, 14);
        // The OLAP instance can now serve the data locally.
        assert_eq!(rde.olap().store().table("sales").unwrap().rows(), 200);
        // Queries in S2 need no fresh rows from OLTP.
        let sources = rde.sources_for(&["sales"], report.access);
        assert_eq!(sources["sales"].fresh_rows(), 0);
    }

    #[test]
    fn s3_isolated_keeps_sockets_but_uses_split_access() {
        let rde = rde_with_data(150);
        // First bring OLAP up to date, then add fresh rows.
        rde.migrate(SystemState::S2Isolated, rde.switch_and_sync());
        for i in 150..200u64 {
            rde.oltp()
                .bulk_load("sales", i, vec![Value::I64(i as i64), Value::F64(0.0)])
                .unwrap();
        }
        let report = rde.migrate(SystemState::S3HybridIsolated, rde.switch_and_sync());
        assert_eq!(report.access, AccessMethod::Split);
        assert!(report.etl.is_none());
        assert_eq!(report.oltp_cores, 14);
        assert_eq!(report.olap_cores, 14);
        let sources = rde.sources_for(&["sales"], report.access);
        assert_eq!(sources["sales"].total_rows(), 200);
        assert_eq!(sources["sales"].fresh_rows(), 50);
    }

    #[test]
    fn s3_non_isolated_borrows_elastic_cores() {
        let rde = rde_with_data(100);
        let report = rde.migrate(SystemState::S3HybridNonIsolated, rde.switch_and_sync());
        assert_eq!(report.access, AccessMethod::Split);
        // Default elastic_cores = 4: OLTP keeps 10, OLAP has 14 + 4.
        assert_eq!(report.oltp_cores, 10);
        assert_eq!(report.olap_cores, 18);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 4);

        // Borrowing more than the minimum allows is clamped.
        let report = rde.migrate_state_s3_non_isolated_with(report.switch, 13);
        assert_eq!(report.oltp_cores, 4, "OLTP never drops below its minimum");
    }

    #[test]
    fn sweeping_s1_cpu_distribution() {
        let rde = rde_with_data(100);
        let report =
            rde.migrate_state_s1_with(rde.switch_and_sync(), &[(SocketId(0), 7), (SocketId(1), 7)]);
        assert_eq!(report.oltp_cores, 14);
        assert_eq!(report.olap_cores, 14);
        assert_eq!(rde.txn_work().remote_worker_fraction(), 0.5);
        assert_eq!(rde.olap_placement().cores_on(SocketId(0)), 7);
    }

    #[test]
    fn every_state_is_reachable_via_migrate() {
        let rde = rde_with_data(50);
        let switch = rde.switch_and_sync();
        let epoch = rde.oltp().store().table("sales").unwrap().epoch();
        for state in SystemState::all() {
            let report = rde.migrate(state, switch);
            assert_eq!(report.state, state);
            assert_eq!(report.switch, switch);
            assert_eq!(rde.current_state(), Some(state));
            assert!(report.oltp_cores > 0);
        }
        assert_eq!(
            rde.oltp().store().table("sales").unwrap().epoch(),
            epoch,
            "a migration must not switch the active instance"
        );
    }
}
