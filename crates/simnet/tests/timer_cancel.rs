//! Timer discipline of the engine: a re-armed or disarmed RTO / NIC pull
//! is cancelled in the queue (slot-generation keys in `silo_base::eventq`)
//! rather than left to fire into a no-op, and the engine's event profile
//! accounts for every event.
//!
//! That cancellation dequeues survivors exactly as the original tombstone
//! scheme did is proven at the queue layer
//! (`eventq::cancel_matches_tombstone_dequeue_order`); that no superseded
//! timer ever dispatches is a `debug_assert!` in `Sim::on_rto` and
//! `Sim::on_nic_pull`, which every debug-mode run below exercises. The
//! exact bytes of the default engine's outputs are pinned by
//! `silo-bench`'s `engine_golden` test.

use silo_base::{Bytes, Dur, Rate, Time};
use silo_simnet::{
    EvKind, FaultPlan, Metrics, Sim, SimConfig, TenantSpec, TenantWorkload, TransportMode,
};
use silo_topology::{HostId, Topology, TreeParams};

fn small_topo(servers: usize) -> Topology {
    Topology::build(TreeParams {
        pods: 1,
        racks_per_pod: 1,
        servers_per_rack: servers,
        vm_slots_per_server: 6,
        host_link: Rate::from_gbps(10),
        tor_oversub: 1.0,
        agg_oversub: 1.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

fn bulk_tenant(hosts: &[u32], msg: Bytes) -> TenantSpec {
    TenantSpec {
        vm_hosts: hosts.iter().map(|&h| HostId(h)).collect(),
        b: Rate::from_gbps(3),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 0,
        delay: None,
        workload: TenantWorkload::BulkAllToAll { msg },
    }
}

fn incast_tenant(n: u32) -> TenantSpec {
    TenantSpec {
        vm_hosts: (0..n).map(HostId).collect(),
        b: Rate::from_gbps(10),
        s: Bytes(1500),
        bmax: Rate::from_gbps(10),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(300),
            interval: Dur::from_ms(2),
        },
    }
}

#[test]
fn superseded_rtos_are_cancelled_tcp_bulk() {
    // Every segment send re-arms the connection RTO: the superseded timer
    // must be removed from the queue, not dispatched.
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 1);
    let tenants = vec![bulk_tenant(&[0, 1], Bytes::from_mb(64))];
    let m = Sim::new(small_topo(2), cfg, tenants).run();
    let rto = EvKind::Rto as usize;
    assert!(m.profile.cancelled[rto] > 0);
    assert!(
        m.profile.cancelled[rto] > 100 * m.profile.fired[rto],
        "re-arms dominate: {} cancelled vs {} fired",
        m.profile.cancelled[rto],
        m.profile.fired[rto]
    );
}

#[test]
fn fired_rtos_exercise_the_timeout_path_tcp_incast() {
    // RTO-heavy: incast drops force real retransmission timeouts, so the
    // disarm/fire/backoff paths all execute.
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 2);
    let m = Sim::new(small_topo(6), cfg, vec![incast_tenant(6)]).run();
    assert!(m.rtos > 0, "scenario must exercise fired RTOs");
    assert!(m.profile.fired[EvKind::Rto as usize] > 0);
}

#[test]
fn superseded_timers_are_cancelled_silo_paced() {
    // Paced mode exercises the NIC-pull timer: every batch re-arms the
    // pull, and datapath sends re-arm it mid-window.
    let cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(50), 2);
    let tenants = vec![TenantSpec {
        vm_hosts: (0..6).map(HostId).collect(),
        b: Rate::from_mbps(500),
        s: Bytes::from_kb(15),
        bmax: Rate::from_gbps(1),
        prio: 0,
        delay: None,
        workload: TenantWorkload::OldiAllToOne {
            msg_mean: Bytes::from_kb(15),
            interval: Dur::from_ms(1),
        },
    }];
    let m = Sim::new(small_topo(6), cfg, tenants).run();
    assert!(
        m.profile.cancelled[EvKind::NicPull as usize] + m.profile.cancelled[EvKind::Rto as usize]
            > 0,
        "paced run must cancel superseded timers"
    );
}

#[test]
fn timer_churn_under_a_link_outage() {
    // A mid-run link outage flushes queues, black-holes traffic, and
    // triggers RTO storms plus tenant-level disarms — the hairiest timer
    // churn the engine has. Debug runs check every fired timer was live.
    let mut cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 4);
    cfg.faults = FaultPlan::new().link_down(Time::from_ms(10), Some(Time::from_ms(25)), 0);
    let m = Sim::new(
        small_topo(2),
        cfg,
        vec![bulk_tenant(&[0, 1], Bytes::from_mb(64))],
    )
    .run();
    assert!(
        m.profile.fired[EvKind::Rto as usize] > 0,
        "the outage must fire RTOs"
    );
}

#[test]
fn fast_forward_narrows_to_stall_targets() {
    // The idle-pacer fast-forward is withdrawn only on hosts a pacer
    // stall or drift window targets; those hosts arm a pull at every
    // batch boundary instead. A window past the horizon never strikes,
    // so it changes which hosts fast-forward and nothing else: physics
    // must be byte-identical with none, one or all four hosts on the
    // eager path, while each host moved to it fires strictly more pulls.
    let tenants = || {
        vec![
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
        ]
    };
    let run = |eager: &[u32]| {
        let mut cfg = SimConfig::new(TransportMode::Silo, Dur::from_ms(40), 7);
        for &h in eager {
            cfg.faults = cfg
                .faults
                .pacer_stall(Time::from_ms(100), Time::from_ms(110), h);
        }
        Sim::new(small_topo(4), cfg, tenants()).run()
    };
    let lean = run(&[]);
    let one = run(&[0]);
    let all = run(&[0, 1, 2, 3]);
    assert_eq!(lean.physics_json(), one.physics_json());
    assert_eq!(lean.physics_json(), all.physics_json());
    let pulls = |m: &Metrics| m.profile.fired[EvKind::NicPull as usize];
    assert!(
        pulls(&lean) < pulls(&one) && pulls(&one) < pulls(&all),
        "pulls fired: none eager {}, host 0 eager {}, all eager {}",
        pulls(&lean),
        pulls(&one),
        pulls(&all)
    );
}

#[test]
fn profile_accounting_is_conserved() {
    // scheduled = fired + cancelled + still-pending-at-horizon. The run
    // ends by draining until the horizon, so the pending remainder is
    // whatever sits beyond it; it can only make `scheduled` the largest.
    let cfg = SimConfig::new(TransportMode::Tcp, Dur::from_ms(50), 1);
    let m = Sim::new(
        small_topo(2),
        cfg,
        vec![bulk_tenant(&[0, 1], Bytes::from_mb(64))],
    )
    .run();
    let p = &m.profile;
    assert!(p.total_fired() + p.total_cancelled() <= p.total_scheduled());
    // Fired counts match the engine's own dispatch counter.
    assert_eq!(p.total_fired(), m.events_processed);
}
