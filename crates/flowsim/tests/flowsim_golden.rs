//! Golden reports: the exact `Debug` text of `FlowSimReport` for a few
//! pinned cells. `Debug` prints every `f64` round-trip, so these strings
//! pin utilization, stretch and occupancy bit for bit.
//!
//! Any change to the allocators, the job model or the step loop that
//! moves a single bit of a report fails here. A failure prints the actual
//! report; copy it in only if the change is meant to alter the results.
//!
//! The small cells run in debug builds in a few seconds. The 500-server
//! Fig-16a cell (the end-to-end benchmark's `flow_fairshare` cell) is
//! `#[ignore]`d; run it with
//! `cargo test -q -p silo-flowsim --release --test flowsim_golden -- --include-ignored`.

use silo_base::{Bytes, Dur, Rate};
use silo_flowsim::{Allocator, ClassMix, FlowSim, FlowSimConfig, FlowSimReport};
use silo_placement::{LocalityPlacer, OktopusPlacer, Placer, SiloPlacer};
use silo_topology::{Topology, TreeParams};

/// 2 pods × 2 racks × 10 servers, 4 VM slots each, 1:5 oversubscription.
fn small_topo() -> Topology {
    tree(2, 2, 10)
}

/// 2 pods × 5 racks × 50 servers: the Fig 16 binary at `--scale 0.125`.
fn fig16a_topo() -> Topology {
    tree(2, 5, 50)
}

fn tree(pods: usize, racks_per_pod: usize, servers_per_rack: usize) -> Topology {
    Topology::build(TreeParams {
        pods,
        racks_per_pod,
        servers_per_rack,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

fn quick_cfg(occupancy: f64, class_b_x: Option<f64>, seed: u64) -> FlowSimConfig {
    FlowSimConfig {
        step: Dur::from_secs(1),
        duration: Dur::from_secs(600),
        warmup: Dur::from_secs(150),
        occupancy,
        mean_vms: 8.0,
        max_vms: 24,
        mean_compute: Dur::from_secs(60),
        mean_transfer: Dur::from_secs(50),
        mix: ClassMix {
            class_b_x,
            ..ClassMix::default()
        },
        seed,
    }
}

fn report<P: Placer>(placer: P, alloc: Allocator, cfg: FlowSimConfig) -> String {
    let r: FlowSimReport = FlowSim::new(placer, alloc, cfg).run();
    assert!(r.completed > 0, "the cell must complete jobs: {r:?}");
    format!("{r:?}")
}

#[test]
fn locality_fair_share_permutation_matches_golden() {
    let got = report(
        LocalityPlacer::new(small_topo()),
        Allocator::FairShare,
        quick_cfg(0.9, Some(1.0), 11),
    );
    assert_eq!(
        got,
        "FlowSimReport { offered_a: 59, offered_b: 71, admitted_a: 56, admitted_b: 68, completed: 124, utilization: 0.08775512743926787, mean_stretch: 0.7639346314188158, mean_occupancy: 0.7442488913525506 }"
    );
}

#[test]
fn locality_fair_share_all_to_all_matches_golden() {
    let got = report(
        LocalityPlacer::new(small_topo()),
        Allocator::FairShare,
        quick_cfg(0.75, None, 12),
    );
    assert_eq!(
        got,
        "FlowSimReport { offered_a: 47, offered_b: 61, admitted_a: 45, admitted_b: 58, completed: 101, utilization: 0.10942513260800531, mean_stretch: 0.7555127050618403, mean_occupancy: 0.6856707317073166 }"
    );
}

#[test]
fn silo_guaranteed_matches_golden() {
    let got = report(
        SiloPlacer::new(small_topo()),
        Allocator::Guaranteed,
        quick_cfg(0.9, Some(1.0), 13),
    );
    assert_eq!(
        got,
        "FlowSimReport { offered_a: 61, offered_b: 69, admitted_a: 56, admitted_b: 58, completed: 119, utilization: 0.030854475247819563, mean_stretch: 1.0128712576263132, mean_occupancy: 0.7196507760532146 }"
    );
}

#[test]
fn oktopus_guaranteed_matches_golden() {
    let got = report(
        OktopusPlacer::new(small_topo()),
        Allocator::Guaranteed,
        quick_cfg(0.9, None, 14),
    );
    assert_eq!(
        got,
        "FlowSimReport { offered_a: 65, offered_b: 64, admitted_a: 50, admitted_b: 53, completed: 104, utilization: 0.12370657751862532, mean_stretch: 1.0095890376478662, mean_occupancy: 0.8054878048780495 }"
    );
}

/// The Fig-16a Locality cell at 90% occupancy with the Fig 16 binary's
/// default seed and `FlowSimConfig` defaults (4000 one-second steps).
#[test]
#[ignore = "500-server cell: seconds in release, minutes in debug"]
fn fig16a_locality_cell_matches_golden() {
    let cfg = FlowSimConfig {
        occupancy: 0.9,
        mix: ClassMix {
            class_b_x: Some(1.0),
            ..ClassMix::default()
        },
        seed: 1,
        ..FlowSimConfig::default()
    };
    let got = report(
        LocalityPlacer::new(fig16a_topo()),
        Allocator::FairShare,
        cfg,
    );
    assert_eq!(
        got,
        "FlowSimReport { offered_a: 168, offered_b: 192, admitted_a: 168, admitted_b: 192, completed: 357, utilization: 0.18271085183653116, mean_stretch: 0.6376137681344015, mean_occupancy: 0.5560039986671128 }"
    );
}
