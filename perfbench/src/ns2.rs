//! Packet-level workloads: one §6.2 cell on the ns2 topology at scale
//! 0.25 (100 hosts) and 90% occupancy, in Silo or TCP mode, with no
//! observers in the timed cells.
//!
//! A cell is set up through `Topology::build`,
//! `scenario::build_ns2_population` and `Sim::new`, and measured through
//! `Sim::run`. The tenant population is the one the Fig 12–14 binaries
//! place for their default seed; `--seed` drives the simulator's own
//! random draws (message sizes and arrival times). Populations drawn
//! from different seeds carry up to ±35% more or less traffic, which
//! would swamp any change to the engine, while the simulator seed moves
//! the event count by under 1%. A run repeats the cell; its timings are
//! medians over the repeats.
//!
//! The traced run also runs the cell with the three observers (audit,
//! flight recorder, telemetry): all on together, which must simulate
//! exactly what the bare cell does, and, in Silo mode, each alone
//! against a bare cell for its overhead. No workload times observed
//! cells end to end: their time varied from run to run by more than the
//! bound a later change is held to.

use crate::calib::Probe;
use crate::report::{Outcome, EV_KINDS, FIRED, SCHEDULED, SHARE};
use crate::spans::Tracer;
use crate::stats::{fingerprint, median, mix_seed, sorted, tail_percentile};
use crate::{Round, Timings};
use silo_base::{seeded_rng, Bytes, Dur, Summary};
use silo_bench::scenario::{build_ns2_population, NsClass, NsTenant, PlacerKind};
use silo_simnet::{
    AuditConfig, EvKind, Metrics, Sim, SimConfig, TelemetryConfig, TraceConfig, TransportMode,
};
use silo_topology::{Topology, TreeParams};
use std::hint::black_box;
use std::time::Instant;

/// 100 hosts.
pub const SCALE: f64 = 0.25;
pub const OCCUPANCY: f64 = 0.9;
/// Simulated time per cell: past the 10 ms minimum RTO, so TCP cells
/// fire retransmission timeouts.
pub const DURATION_MS: u64 = 15;
/// The population seed of the figure binaries' first run.
pub const POPULATION_SEED: u64 = 1;
/// Extra set-ups per timed cell, timed but not simulated, so `setup_s` is
/// a median of many samples.
const SETUPS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observers {
    pub audit: bool,
    pub trace: bool,
    pub telemetry: bool,
}

impl Observers {
    pub const NONE: Observers = Observers {
        audit: false,
        trace: false,
        telemetry: false,
    };
    pub const ALL: Observers = Observers {
        audit: true,
        trace: true,
        telemetry: true,
    };
}

/// The tenant population every ns2 cell places.
pub fn population(topo: &Topology, mode: TransportMode) -> Vec<NsTenant> {
    // Class A offers 0.4 of its hose and class B is near-backlogged, as
    // in the §6.2 figure binaries.
    build_ns2_population(
        topo,
        PlacerKind::for_mode(mode),
        OCCUPANCY,
        0.4,
        0.9,
        &mut seeded_rng(POPULATION_SEED),
    )
}

/// The simulator configuration a run seeded with `seed` uses.
pub fn config(mode: TransportMode, seed: u64, obs: Observers) -> SimConfig {
    let mut cfg = SimConfig::new(mode, Dur::from_ms(DURATION_MS), mix_seed(seed, 0));
    if obs.audit {
        cfg.audit = Some(AuditConfig::default());
    }
    if obs.trace {
        cfg.trace = Some(TraceConfig::default());
    }
    if obs.telemetry {
        cfg.telemetry = Some(TelemetryConfig::default());
    }
    cfg
}

/// Fingerprint of a cell's generated inputs: population and configuration.
pub fn input_fingerprint(tenants: &[NsTenant], cfg: &SimConfig) -> u64 {
    fingerprint(format!("{tenants:?}{cfg:?}").as_bytes())
}

/// Fingerprint of a cell's simulated physics.
pub fn physics_fingerprint(m: &Metrics) -> u64 {
    fingerprint(m.physics_json().as_bytes())
}

pub struct Cell {
    pub tenants: Vec<NsTenant>,
    pub metrics: Metrics,
    pub setup_s: f64,
    pub run_s: f64,
}

/// Set up a cell, with spans around each call, and the set-up time.
fn setup(
    mode: TransportMode,
    seed: u64,
    obs: Observers,
    tr: &mut Tracer,
) -> (Vec<NsTenant>, Sim, f64) {
    let t0 = Instant::now();
    let s = tr.begin("topology.build", "topology");
    let topo = Topology::build(TreeParams::ns2_scaled(SCALE));
    tr.end(s);
    let s = tr.begin("scenario.populate", "scenario");
    let tenants = population(&topo, mode);
    tr.end(s);
    let specs = tenants.iter().map(|t| t.spec.clone()).collect();
    let s = tr.begin("simnet.new", "simnet");
    let sim = Sim::new(topo, config(mode, seed, obs), specs);
    tr.end(s);
    (tenants, sim, t0.elapsed().as_secs_f64())
}

/// Set up and run one cell.
pub fn run_cell(mode: TransportMode, seed: u64, obs: Observers, tr: &mut Tracer) -> Cell {
    let (tenants, sim, setup_s) = setup(mode, seed, obs, tr);
    let t1 = Instant::now();
    let s = tr.begin("simnet.run", "simnet");
    let metrics = black_box(sim).run();
    tr.end(s);
    Cell {
        tenants,
        metrics,
        setup_s,
        run_s: t1.elapsed().as_secs_f64(),
    }
}

/// The §6.2 outputs of a cell: the Fig 12 class-A p99 of latency over
/// its §4.1 estimate, the Table 4 share of class-A tenants whose own p99
/// exceeds 1× the estimate, and the Fig 13 share of class-A messages
/// that suffered an RTO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Physics {
    /// Class-A messages the outputs are read from.
    pub msgs_a: usize,
    /// `None` below 1000 messages (fewer than ten beyond the p99).
    pub msg_p99_norm: Option<f64>,
    pub outlier_frac: f64,
    pub rto_msg_frac: f64,
}

pub fn physics(tenants: &[NsTenant], m: &Metrics) -> Physics {
    let mut ratios = Vec::new();
    let mut per_tenant: Vec<Summary> = vec![Summary::new(); tenants.len()];
    let mut rto = 0usize;
    for msg in &m.messages {
        let t = &tenants[msg.tenant as usize];
        if t.class != NsClass::A {
            continue;
        }
        let est = t
            .guarantee
            .message_latency_bound(Bytes(msg.size))
            .expect("class A has a delay guarantee")
            .as_us_f64();
        let r = msg.latency.as_us_f64() / est;
        ratios.push(r);
        per_tenant[msg.tenant as usize].record(r);
        rto += msg.rto as usize;
    }
    let (mut tenants_a, mut outliers) = (0usize, 0usize);
    for s in per_tenant.iter_mut().filter(|s| !s.is_empty()) {
        tenants_a += 1;
        outliers += (s.p99().expect("non-empty") > 1.0) as usize;
    }
    let msgs_a = ratios.len();
    Physics {
        msgs_a,
        msg_p99_norm: tail_percentile(&sorted(ratios), 0.99),
        outlier_frac: outliers as f64 / tenants_a.max(1) as f64,
        rto_msg_frac: rto as f64 / msgs_a.max(1) as f64,
    }
}

fn kind(label: &str) -> usize {
    EvKind::ALL
        .iter()
        .position(|k| k.label() == label)
        .expect("event kind label")
}

/// Check one finished cell: a repeat must reproduce the first cell's
/// physics exactly, the pacer's token buckets must conserve, every
/// guarantee violation must be attributed, and the observers must
/// report clean.
fn check_cell(out: &mut Outcome, m: &Metrics, fp: u64, want: u64) {
    out.check(fp == want, 1, || {
        format!("physics {fp:016x} differ from the first cell's {want:016x}")
    });
    out.check(m.token_violations == 0, 1, || {
        format!("{} token-bucket violations", m.token_violations)
    });
    let unattributed = m.violations.iter().filter(|v| v.fault.is_none()).count();
    out.check(unattributed == 0, 1, || {
        format!("{unattributed} unattributed guarantee violations")
    });
    if let Some(a) = &m.audit {
        out.check(a.is_clean() && a.unattributed == 0, 1, || a.summary());
    }
    if let Some(t) = &m.trace {
        out.check(t.events.len() as u64 + t.dropped == t.recorded, 1, || {
            "trace ring accounting broken".into()
        });
    }
}

pub fn run(
    mode: TransportMode,
    seed: u64,
    seconds: f64,
    traced: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let start = Instant::now();
    let mut untraced = Timings::default();
    // Wall time of whole untraced and traced rounds, for the tracer's
    // overhead.
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, Physics, Metrics)> = None;
    let mut probe = Probe::start();
    let mut rounds = 0;
    loop {
        let kind = Round::of(rounds, traced);
        tr.set_enabled(kind == Round::Traced);
        tr.set_cell(rounds as u32);
        let w0 = Instant::now();
        let root = tr.begin("ns2.cell", "bench");
        let c = run_cell(mode, seed, Observers::NONE, tr);
        let chk = tr.begin("check", "check");
        let fp = physics_fingerprint(&c.metrics);
        let want = first.as_ref().map_or(fp, |f| f.0);
        check_cell(out, &c.metrics, fp, want);
        tr.end(chk);
        tr.end(root);
        let wall = w0.elapsed().as_secs_f64();
        match kind {
            Round::Timed => {
                untraced_wall.push(wall);
                let mut setups = vec![c.setup_s];
                setups.extend((0..SETUPS).map(|_| setup(mode, seed, Observers::NONE, tr).2));
                untraced.push(&mut probe, &setups, c.run_s);
            }
            Round::Traced => {
                traced_wall.push(wall);
                probe.next_factor();
            }
            Round::Warmup => {
                probe.next_factor();
            }
        }
        out.attempted += 1;
        if first.is_none() {
            let cfg = config(mode, seed, Observers::NONE);
            println!(
                "# inputs fingerprint {:016x}",
                input_fingerprint(&c.tenants, &cfg)
            );
            let ph = physics(&c.tenants, &c.metrics);
            // Keep the counters, not the message log.
            let mut m = c.metrics;
            m.messages = Vec::new();
            first = Some((fp, ph, m));
        }
        rounds += 1;
        if crate::done(rounds, start.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }
    tr.set_enabled(false);
    let (fp, ph, m) = first.expect("one round ran");

    println!("# {rounds} cells, {DURATION_MS} ms simulated each; physics fingerprint {fp:016x}");
    println!(
        "# class-A messages {}: msg_p99_norm {:?} outlier_frac {} rto_msg_frac {}",
        ph.msgs_a, ph.msg_p99_norm, ph.outlier_frac, ph.rto_msg_frac
    );
    let run_s = untraced.report(&probe, out);
    if !traced {
        return;
    }

    let p = &m.profile;
    out.set("eventq.scheduled", p.total_scheduled() as f64);
    out.set("eventq.fired", p.total_fired() as f64);
    out.set("eventq.cancelled", p.total_cancelled() as f64);
    out.set("eventq.peak", m.peak_event_queue as f64);
    out.set(
        "eventq.ns_per_event",
        run_s * 1e9 / p.total_fired().max(1) as f64,
    );
    for (i, label) in EV_KINDS.iter().enumerate() {
        out.set(FIRED[i].name, p.fired[kind(label)] as f64);
        out.set(SCHEDULED[i].name, p.scheduled[kind(label)] as f64);
    }
    let (data, void) = (m.wire_data_bytes, m.wire_void_bytes);
    out.set("pacer.wire_data_bytes", data as f64);
    out.set("pacer.wire_void_bytes", void as f64);
    out.set("pacer.void_frac", void as f64 / (data + void).max(1) as f64);
    out.set("pacer.token_violations", m.token_violations as f64);
    out.set("port.drops", m.drops as f64);
    out.set("tcp.rtos", m.rtos as f64);
    out.set("msg_n", ph.msgs_a as f64);
    if let Some(v) = ph.msg_p99_norm {
        out.set("msg_p99_norm", v);
    }
    out.set("outlier_frac", ph.outlier_frac);
    out.set("rto_msg_frac", ph.rto_msg_frac);

    // Dispatch time by event kind, from the engine's sampled self-profile
    // of a telemetry-on cell.
    let with = Observers {
        telemetry: true,
        ..Observers::NONE
    };
    out.attempted += 1;
    let c = run_cell(mode, seed, with, tr);
    let sp = c.metrics.telemetry.expect("telemetry on").self_profile;
    let total = sp.dispatch_total_ns().max(1) as f64;
    for (i, label) in EV_KINDS.iter().enumerate() {
        let ns: u64 = sp.dispatch_ns.iter().map(|a| a[kind(label)]).sum();
        out.set(SHARE[i].name, ns as f64 / total);
    }

    observed_cell(mode, seed, fp, tr, out);
    if mode == TransportMode::Silo {
        observer_overheads(mode, seed, tr, out);
    }
    for (metric, n, span) in [
        ("topology.build_s", "topology.build_s.n", "topology.build"),
        (
            "scenario.populate_s",
            "scenario.populate_s.n",
            "scenario.populate",
        ),
        ("simnet.new_s", "simnet.new_s.n", "simnet.new"),
        ("simnet.run_s", "simnet.run_s.n", "simnet.run"),
    ] {
        crate::set_span_median(out, tr, metric, n, span);
    }
    out.set(
        "bench.tracing_overhead",
        median(&traced_wall).expect("traced cell") / median(&untraced_wall).expect("cell"),
    );
}

/// A cell with all three observers on, as CI and `verify_queue_bounds`
/// run cells: its physics must equal the bare cell's (`fp`), its audit
/// must be clean and its trace ring's accounting intact. Reports the
/// observers' counters.
fn observed_cell(mode: TransportMode, seed: u64, fp: u64, tr: &mut Tracer, out: &mut Outcome) {
    let m = run_cell(mode, seed, Observers::ALL, tr).metrics;
    out.attempted += 1;
    check_cell(out, &m, physics_fingerprint(&m), fp);
    let (a, t) = (m.audit.expect("audit on"), m.trace.expect("trace on"));
    out.set("audit.events_checked", a.events_checked as f64);
    out.set("trace.events_retained", t.events.len() as f64);
    out.set("trace.events_evicted", t.dropped as f64);
    out.set(
        "telemetry.windows",
        m.telemetry.expect("telemetry on").windows as f64,
    );
}

/// Each observer alone against a bare cell, interleaved.
fn observer_overheads(mode: TransportMode, seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let none = Observers::NONE;
    let alone = [
        (
            "audit.overhead",
            Observers {
                audit: true,
                ..none
            },
        ),
        (
            "trace.overhead",
            Observers {
                trace: true,
                ..none
            },
        ),
        (
            "telemetry.overhead",
            Observers {
                telemetry: true,
                ..none
            },
        ),
    ];
    let mut bare = Vec::new();
    let mut with: Vec<Vec<f64>> = vec![Vec::new(); alone.len()];
    for _ in 0..2 {
        bare.push(run_cell(mode, seed, none, tr).run_s);
        for (i, (_, o)) in alone.iter().enumerate() {
            with[i].push(run_cell(mode, seed, *o, tr).run_s);
        }
        out.attempted += 1 + alone.len() as u64;
    }
    let base = median(&bare).expect("bare cells");
    for (i, (name, _)) in alone.iter().enumerate() {
        out.set(name, median(&with[i]).expect("observer cells") / base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(mode: TransportMode, seed: u64) -> (u64, u64) {
        let topo = Topology::build(TreeParams::ns2_scaled(SCALE));
        let tenants = population(&topo, mode);
        let mut cfg = config(mode, seed, Observers::NONE);
        cfg.duration = Dur::from_us(300);
        let inputs = input_fingerprint(&tenants, &cfg);
        let specs = tenants.iter().map(|t| t.spec.clone()).collect();
        (
            inputs,
            physics_fingerprint(&Sim::new(topo, cfg, specs).run()),
        )
    }

    #[test]
    fn same_seed_same_inputs_and_physics_other_seed_differs() {
        for mode in [TransportMode::Silo, TransportMode::Tcp] {
            let a = short(mode, 1);
            assert_eq!(a, short(mode, 1), "{mode:?} repeat");
            let b = short(mode, 2);
            assert_ne!(a.0, b.0, "{mode:?} inputs ignore the seed");
            assert_ne!(a.1, b.1, "{mode:?} physics ignore the seed");
        }
    }

    #[test]
    fn observers_leave_physics_unchanged() {
        let run = |obs| {
            let topo = Topology::build(TreeParams::ns2_scaled(SCALE));
            let tenants = population(&topo, TransportMode::Silo);
            let mut cfg = config(TransportMode::Silo, 3, obs);
            cfg.duration = Dur::from_us(300);
            let specs = tenants.iter().map(|t| t.spec.clone()).collect();
            physics_fingerprint(&Sim::new(topo, cfg, specs).run())
        };
        assert_eq!(run(Observers::NONE), run(Observers::ALL));
    }
}
