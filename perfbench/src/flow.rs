//! Flow-level workload: one Fig-16a cell — `LocalityPlacer` with
//! max-min fair sharing (`Allocator::FairShare`), Permutation-1 class-B
//! traffic, 90% occupancy, 500 servers.
//!
//! Set up through `Topology::build`, `LocalityPlacer::new` and
//! `FlowSim::new`, measured through `FlowSim::run`, whose water-filling
//! dominates every fig15/fig16 regeneration.
//!
//! The cell uses the Fig 16 binary's default seed whatever `--seed` is.
//! `FlowSimConfig::seed` drives every draw of the simulator (arrivals,
//! tenant sizes, traffic), and at 500 servers a handful of large tenants
//! decide the water-filling cost: across seeds 1–6 one cell took 2.9 s
//! to 7.2 s, which would swamp any change to the simulator.

use crate::admission::flow_topo;
use crate::calib::Probe;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{fingerprint, median};
use crate::{Round, Timings};
use silo_flowsim::{Allocator, ClassMix, FlowSim, FlowSimConfig, FlowSimReport};
use silo_placement::LocalityPlacer;
use std::hint::black_box;
use std::time::Instant;

/// 2 pods × 5 racks × 50 servers.
pub const SCALE: f64 = 0.125;
pub const OCCUPANCY: f64 = 0.9;
/// The seed of the Fig 16 binary's default run.
pub const FLOW_SEED: u64 = 1;
/// Extra set-ups per timed cell, timed but not simulated, so `setup_s` is
/// a median of many samples (one set-up takes well under a microsecond).
const SETUPS: usize = 199;

pub fn config(seed: u64) -> FlowSimConfig {
    FlowSimConfig {
        occupancy: OCCUPANCY,
        mix: ClassMix {
            class_b_x: Some(1.0),
            ..ClassMix::default()
        },
        seed,
        ..FlowSimConfig::default()
    }
}

/// Exact fingerprint of a report (`Debug` prints floats round-trip).
pub fn report_fingerprint(r: &FlowSimReport) -> u64 {
    fingerprint(format!("{r:?}").as_bytes())
}

struct Cell {
    report: FlowSimReport,
    setup_s: f64,
    run_s: f64,
    wall_s: f64,
}

/// Set up a cell, with spans around each call; returns the set-up time
/// too.
fn setup(tr: &mut Tracer) -> (FlowSim<LocalityPlacer>, f64) {
    let t0 = Instant::now();
    let s = tr.begin("topology.build", "topology");
    let topo = flow_topo(SCALE);
    tr.end(s);
    let s = tr.begin("placement.new", "placement");
    let placer = LocalityPlacer::new(topo);
    tr.end(s);
    let s = tr.begin("flowsim.new", "flowsim");
    let sim = FlowSim::new(placer, Allocator::FairShare, config(FLOW_SEED));
    tr.end(s);
    (sim, t0.elapsed().as_secs_f64())
}

fn cell(tr: &mut Tracer) -> Cell {
    let root = tr.begin("flow.cell", "bench");
    let t0 = Instant::now();
    let (sim, setup_s) = setup(tr);
    let t1 = Instant::now();
    let s = tr.begin("flowsim.run", "flowsim");
    let report = black_box(sim).run();
    tr.end(s);
    let run_s = t1.elapsed().as_secs_f64();
    tr.end(root);
    Cell {
        report,
        setup_s,
        run_s,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

pub fn run(seconds: f64, traced: bool, tr: &mut Tracer, out: &mut Outcome) {
    let start = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();
    let mut timings = Timings::default();
    let mut probe = Probe::start();
    loop {
        let kind = Round::of(cells.len(), traced);
        tr.set_enabled(kind == Round::Traced);
        tr.set_cell(cells.len() as u32);
        let c = cell(tr);
        out.attempted += 1;
        let u = c.report.utilization;
        out.check((0.0..=1.0).contains(&u), 1, || {
            format!("utilization {u} outside [0, 1]")
        });
        if let Some(first) = cells.first() {
            let (a, b) = (
                report_fingerprint(&first.report),
                report_fingerprint(&c.report),
            );
            out.check(a == b, 1, || {
                format!(
                    "report differs between repeats: {:?} vs {:?}",
                    first.report, c.report
                )
            });
        }
        if kind == Round::Timed {
            let mut setups = vec![c.setup_s];
            setups.extend((0..SETUPS).map(|_| setup(tr).1));
            timings.push(&mut probe, &setups, c.run_s);
        } else {
            probe.next_factor();
        }
        cells.push(c);
        if crate::done(cells.len(), start.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }
    tr.set_enabled(false);

    let of_kind = |k: Round| -> Vec<&Cell> {
        (cells.iter().enumerate())
            .filter(|(i, _)| Round::of(*i, traced) == k)
            .map(|(_, c)| c)
            .collect()
    };
    let timed = of_kind(Round::Timed);
    let of = |f: fn(&Cell) -> f64| median(&timed.iter().map(|c| f(c)).collect::<Vec<_>>());
    let run_s = timings.report(&probe, out);
    let r = &cells[0].report;
    println!(
        "# {} cells; report {:016x}: {r:?}",
        cells.len(),
        report_fingerprint(r)
    );
    if !traced {
        return;
    }

    let cfg = config(FLOW_SEED);
    let steps = (cfg.duration.as_secs_f64() / cfg.step.as_secs_f64()).round();
    out.set("flowsim.ms_per_step", run_s * 1e3 / steps);
    out.set("flowsim.offered", (r.offered_a + r.offered_b) as f64);
    out.set("flowsim.admitted", (r.admitted_a + r.admitted_b) as f64);
    out.set("flowsim.completed", r.completed as f64);
    out.set("flowsim.mean_stretch", r.mean_stretch);
    out.set("utilization", r.utilization);
    for (metric, n, span) in [
        ("topology.build_s", "topology.build_s.n", "topology.build"),
        ("flowsim.new_s", "flowsim.new_s.n", "flowsim.new"),
        ("flowsim.run_s", "flowsim.run_s.n", "flowsim.run"),
    ] {
        crate::set_span_median(out, tr, metric, n, span);
    }
    let traced_wall: Vec<f64> = of_kind(Round::Traced).iter().map(|c| c.wall_s).collect();
    let untraced_wall = of(|c| c.wall_s).expect("timed cell");
    out.set(
        "bench.tracing_overhead",
        median(&traced_wall).expect("traced cell") / untraced_wall,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(seed: u64) -> u64 {
        let cfg = FlowSimConfig {
            duration: silo_base::Dur::from_secs(60),
            warmup: silo_base::Dur::from_secs(10),
            ..config(seed)
        };
        let placer = LocalityPlacer::new(flow_topo(SCALE));
        report_fingerprint(&FlowSim::new(placer, Allocator::FairShare, cfg).run())
    }

    #[test]
    fn same_seed_same_report_other_seed_differs() {
        assert_eq!(short(1), short(1));
        assert_ne!(short(1), short(2));
    }
}
