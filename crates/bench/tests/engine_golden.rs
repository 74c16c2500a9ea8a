//! Golden digests of the default engine: the exact bytes of every output
//! stream a run produces, pinned as constants.
//!
//! Each case runs with all three observers (audit, flight recorder,
//! telemetry) attached and hashes four streams with
//! [`silo_base::fxhash::FxHasher`]: `physics_json`, `canonical_json`
//! (engine counters included), the trace JSONL and the telemetry JSONL.
//! The audit counters and the event-profile totals are pinned as exact
//! numbers. Any change to the physics, the event schedule or an observer
//! stream moves at least one of them.
//!
//! The cases cover the three §6.2 transports on a bench-scale ns2 cell,
//! a mid-run ToR outage (RTO storms and tenant-level timer churn) and a
//! pacer stall on one host, which keeps that host on the eager NIC-pull
//! path while the other hosts fast-forward.
//!
//! To re-record after an intended change, run this file and copy the
//! `actual` lines the failures print into the constants.

use silo_base::fxhash::FxHasher;
use silo_base::{Bytes, Dur, Rate, Time};
use silo_bench::ns2::{run_ns2_cell_with_engine, EngineOpts, Ns2Cell};
use silo_bench::Args;
use silo_simnet::{
    AuditConfig, FaultPlan, Metrics, Sim, SimConfig, TelemetryConfig, TenantSpec, TenantWorkload,
    TraceConfig, TransportMode,
};
use silo_topology::{HostId, Topology, TreeParams};
use std::hash::Hasher;

/// Everything the golden test pins for one run.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    physics: u64,
    canonical: u64,
    trace: u64,
    telemetry: u64,
    /// `AuditReport::events_checked`.
    audit_events: u64,
    /// `AuditReport::counters()`.
    audit: [u64; 8],
    /// Event-profile `[scheduled, fired, cancelled]` totals.
    events: [u64; 3],
}

fn fxhash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

fn digest(m: &Metrics) -> Digest {
    let audit = m.audit.as_ref().expect("audited run");
    let p = &m.profile;
    Digest {
        physics: fxhash(&m.physics_json()),
        canonical: fxhash(&m.canonical_json()),
        trace: fxhash(&m.trace.as_ref().expect("traced run").to_jsonl()),
        telemetry: fxhash(&m.telemetry.as_ref().expect("telemetry run").to_jsonl()),
        audit_events: audit.events_checked,
        audit: audit.counters(),
        events: [p.total_scheduled(), p.total_fired(), p.total_cancelled()],
    }
}

fn check(case: &str, m: &Metrics, want: Digest) {
    let got = digest(m);
    assert_eq!(got, want, "{case}: golden digest moved; actual {got:?}");
}

fn observe(cfg: &mut SimConfig) {
    cfg.audit = Some(AuditConfig::default());
    cfg.trace = Some(TraceConfig::default());
    cfg.telemetry = Some(TelemetryConfig::default());
}

fn ns2_cell(mode: TransportMode) -> Metrics {
    let args = Args {
        scale: 0.12,
        seed: 11,
        duration_ms: 10,
        runs: 1,
        threads: 1,
        ..Args::default()
    };
    let cell = Ns2Cell {
        mode,
        run: 0,
        seed: args.seed,
    };
    // The struct update keeps this file compiling against an `EngineOpts`
    // with more fields, so the same file re-records the digests on older
    // revisions.
    #[allow(clippy::needless_update)]
    let eng = EngineOpts {
        audit: true,
        trace: true,
        telemetry: true,
        ..EngineOpts::default()
    };
    let (_, m) = run_ns2_cell_with_engine(&cell, &args, eng);
    assert!(
        m.physics_json().contains("\"messages\":[{"),
        "{}: the cell must carry real traffic, or the digest pins nothing",
        mode.label()
    );
    m
}

#[test]
fn ns2_silo_cell_matches_golden() {
    check(
        "silo",
        &ns2_cell(TransportMode::Silo),
        Digest {
            physics: 18093920636645835229,
            canonical: 11519242472641797528,
            trace: 9723650932978535121,
            telemetry: 367535782696528456,
            audit_events: 1681090,
            audit: [0, 0, 0, 0, 0, 0, 0, 0],
            events: [2237583, 1506360, 728586],
        },
    );
}

#[test]
fn ns2_tcp_cell_matches_golden() {
    check(
        "tcp",
        &ns2_cell(TransportMode::Tcp),
        Digest {
            physics: 10657827129043576233,
            canonical: 11719270413983195685,
            trace: 12027311562798925757,
            telemetry: 14453890327284490496,
            audit_events: 1045465,
            audit: [0, 0, 0, 0, 0, 0, 0, 0],
            events: [1389187, 964799, 423414],
        },
    );
}

#[test]
fn ns2_dctcp_cell_matches_golden() {
    check(
        "dctcp",
        &ns2_cell(TransportMode::Dctcp),
        Digest {
            physics: 10373187098985015916,
            canonical: 11602743242908465645,
            trace: 16953832962330782736,
            telemetry: 17597801194066620465,
            audit_events: 1035717,
            audit: [0, 0, 0, 0, 0, 0, 0, 0],
            events: [1379293, 960731, 417596],
        },
    );
}

#[test]
fn tor_outage_run_matches_golden() {
    // A ToR outage mid-run: link flaps force RTO storms, black-holed
    // frames and pacer backlog on the cut-off rack.
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 2,
        servers_per_rack: 4,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let tenant = |a: u32, b: u32| TenantSpec {
        vm_hosts: vec![HostId(a), HostId(b)],
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: Some(Dur::from_ms(2)),
        workload: TenantWorkload::OldiPeriodic {
            msg: Bytes::from_kb(15),
            period: Dur::from_ms(2),
        },
    };
    let tor0 = topo.tor_link(0).0;
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(60), 7);
    cfg.faults = FaultPlan::new().link_down(Time::from_ms(20), Some(Time::from_ms(30)), tor0);
    observe(&mut cfg);
    let m = Sim::new(topo, cfg, vec![tenant(0, 4), tenant(1, 5)]).run();
    assert!(
        !m.violation_windows(0).is_empty() || !m.violation_windows(1).is_empty(),
        "the outage must actually bite, or the digest pins nothing"
    );
    check(
        "tor outage",
        &m,
        Digest {
            physics: 13814631492368697601,
            canonical: 4156865318432979741,
            trace: 8322677298253467884,
            telemetry: 13081586780181896691,
            audit_events: 18716,
            audit: [0, 0, 0, 0, 0, 0, 0, 0],
            events: [13929, 12374, 1538],
        },
    );
}

#[test]
fn pacer_stall_run_matches_golden() {
    // A pacer stall on host 0 puts that host on the eager NIC-pull path
    // (every batch boundary arms a pull, the stall clamps it); hosts 1–3
    // keep the idle-pacer fast-forward. A paced 500 Mbps hose leaves long
    // void runs, so coalesced voids are re-expanded for the observers.
    let topo = Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: 4,
        vm_slots_per_server: 6,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    });
    let tenants = vec![
        TenantSpec {
            vm_hosts: vec![HostId(0), HostId(1)],
            b: Rate::from_mbps(500),
            s: Bytes::from_kb(15),
            bmax: Rate::from_gbps(1),
            prio: 0,
            delay: None,
            workload: TenantWorkload::OldiPeriodic {
                msg: Bytes::from_kb(15),
                period: Dur::from_ms(2),
            },
        },
        TenantSpec {
            vm_hosts: vec![HostId(2), HostId(3)],
            b: Rate::from_gbps(3),
            s: Bytes(1500),
            bmax: Rate::from_gbps(10),
            prio: 1,
            delay: None,
            workload: TenantWorkload::BulkAllToAll {
                msg: Bytes::from_kb(256),
            },
        },
    ];
    let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(40), 7);
    let healthy = Sim::new(topo.clone(), cfg.clone(), tenants.clone()).run();
    cfg.faults = FaultPlan::new().pacer_stall(Time::from_ms(4), Time::from_ms(10), 0);
    observe(&mut cfg);
    let m = Sim::new(topo, cfg, tenants).run();
    assert_ne!(
        healthy.physics_json(),
        m.physics_json(),
        "the stall must actually bite, or the digest pins nothing"
    );
    check(
        "pacer stall",
        &m,
        Digest {
            physics: 9631095921507566587,
            canonical: 6261269237361659929,
            trace: 12245660280900811374,
            telemetry: 7811729579904615994,
            audit_events: 190792,
            audit: [0, 0, 0, 0, 0, 0, 0, 0],
            events: [156623, 117104, 39485],
        },
    );
}
