//! Admission replay: `AdmissionService` on the 32 K-server Fig-15
//! topology, driven by one seeded `churn::generate` stream in a closed
//! loop with a single caller (each `apply` returns before the next event
//! is sent). It gives the placement and netcalc per-layer metrics in the
//! traced run of `flow_fairshare`.
//!
//! The stream holds demand at ~85% of the VM slots, adds a 4× flash crowd
//! and three rack-correlated failure bursts, and mixes admit-accept,
//! admit-reject, evict, fail_link and restore_link. Events before the
//! warm-up cut (three mean lifetimes, when the resident population has
//! reached ~95% of its steady state) fill the cluster and are timed
//! apart; the measured phase is the rest of the stream.

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{fingerprint, mix_seed, sorted, tail_percentile};
use crate::Round;
use silo_base::{Bytes, Dur, Rate};
use silo_placement::{AdmissionService, ChurnEvent, Decision};
use silo_topology::{Topology, TreeParams};
use silo_workload::churn::{self, ChurnConfig, FailureBurst, FlashCrowd};
use std::hint::black_box;
use std::time::Instant;

/// Tenant lifetimes in the stream.
pub const LIFETIMES: u64 = 160_000;
/// The warm-up cut, in mean tenant lifetimes.
const WARMUP_LIFETIMES: f64 = 3.0;

/// The Fig-15 flow-level topology: 16 pods × 40 racks × 50 servers.
pub fn flow_topo(scale: f64) -> Topology {
    let pods = ((16.0 * scale).round() as usize).max(2);
    let racks = ((40.0 * scale).round() as usize).max(2);
    Topology::build(TreeParams {
        pods,
        racks_per_pod: racks,
        servers_per_rack: 50,
        vm_slots_per_server: 4,
        host_link: Rate::from_gbps(10),
        tor_oversub: 5.0,
        agg_oversub: 5.0,
        switch_buffer: Bytes::from_kb(312),
        nic_buffer: Bytes::from_kb(64),
        prop_delay: Dur::from_ns(500),
    })
}

/// The stream's configuration and its warm-up cut in stream seconds.
pub fn churn_config(topo: &Topology, seed: u64, lifetimes: u64) -> (ChurnConfig, f64) {
    let mut c = ChurnConfig::diurnal(mix_seed(seed, 0));
    // The stream covers minutes of a one-hour virtual day, where the
    // sinusoid would only be a ramp: hold the arrival rate flat at 85%
    // steady slot demand (Little's law) instead.
    c.diurnal_amplitude = 0.0;
    let slots = (topo.num_hosts() * topo.slots_per_server()) as f64;
    c.arrivals_per_s = 0.85 * slots / (c.mean_lifetime_s * c.mean_vms);
    let c = c.for_lifetimes(lifetimes);
    let warm = WARMUP_LIFETIMES * c.mean_lifetime_s;
    let span = c.horizon_s - warm;
    assert!(span > 0.0, "stream shorter than its warm-up");
    let mut c = c.with_flash_crowd(FlashCrowd {
        at_s: warm + 0.3 * span,
        dur_s: 0.1 * span,
        multiplier: 4.0,
    });
    for k in 0..3 {
        c = c.with_failure_burst(FailureBurst {
            at_s: warm + (0.2 + 0.25 * k as f64) * span,
            dur_s: 0.1 * span,
            hosts: 8,
        });
    }
    (c, warm)
}

/// Fingerprint of a generated stream.
pub fn stream_fingerprint(events: &[(f64, ChurnEvent)]) -> u64 {
    fingerprint(format!("{events:?}").as_bytes())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Accept,
    Reject,
    Evict,
    FailLink,
    RestoreLink,
}

impl Kind {
    fn of(d: &Decision) -> Kind {
        match d {
            Decision::Admitted { .. } => Kind::Accept,
            Decision::Rejected { .. } => Kind::Reject,
            Decision::Evicted { .. } | Decision::EvictNoop => Kind::Evict,
            Decision::Fault { .. } => Kind::FailLink,
            Decision::Heal { .. } => Kind::RestoreLink,
        }
    }
}

/// The span tag of one applied event: its kind and the decision.
fn tag(d: &Decision) -> &'static str {
    match d {
        Decision::Admitted { .. } => "admit_accept",
        Decision::Rejected { .. } => "admit_reject",
        Decision::Evicted { .. } => "evict",
        Decision::EvictNoop => "evict_noop",
        Decision::Fault { .. } => "fail_link",
        Decision::Heal { .. } => "restore_link",
    }
}

/// Running FNV-1a fingerprint of every decision of a pass, folded in
/// without allocating on the common admit/evict paths.
struct DecisionLog(u64);

impl Default for DecisionLog {
    fn default() -> DecisionLog {
        DecisionLog(fingerprint(b""))
    }
}

impl DecisionLog {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push(&mut self, d: &Decision) {
        self.word(Kind::of(d) as u64);
        match d {
            Decision::Admitted {
                tenant,
                hosts,
                span,
            } => {
                self.word(tenant.0);
                self.word(*span as u64);
                for (h, k) in hosts {
                    self.word(((h.0 as u64) << 32) | *k as u64);
                }
            }
            Decision::Evicted { tenant } => self.word(tenant.0),
            Decision::EvictNoop => self.word(u64::MAX),
            other => self.word(fingerprint(format!("{other:?}").as_bytes())),
        }
    }
}

/// One replay of the stream on a fresh service.
struct Pass {
    warmup_s: f64,
    warmup_events: usize,
    run_s: f64,
    /// Service time in µs of every measured event, by kind.
    us: [Vec<f64>; 5],
    /// Fingerprint of every decision, in stream order.
    decisions: u64,
    snapshot: String,
    resident: usize,
    mask_rebuilds: u64,
    cache: (u64, u64),
    stream_fp: u64,
    consistent: Result<(), String>,
}

/// Build the topology, generate the stream and start a fresh service,
/// with spans around each call.
fn setup(seed: u64, tr: &mut Tracer) -> (Vec<(f64, ChurnEvent)>, f64, AdmissionService) {
    let s = tr.begin("topology.build", "topology");
    let topo = flow_topo(1.0);
    tr.end(s);
    let (cfg, warm) = churn_config(&topo, seed, LIFETIMES);
    let s = tr.begin("workload.churn_generate", "workload");
    let events = churn::generate(&topo, &cfg);
    tr.end(s);
    let s = tr.begin("placement.new", "placement");
    let svc = AdmissionService::new(topo);
    tr.end(s);
    (events, warm, svc)
}

fn pass(seed: u64, tr: &mut Tracer) -> Pass {
    let root = tr.begin("admission.pass", "bench");
    let (events, warm, mut svc) = setup(seed, tr);

    let split = events.partition_point(|(t, _)| *t < warm);
    let mut log = DecisionLog::default();
    let t1 = Instant::now();
    let s = tr.begin("placement.warmup", "placement");
    for (_, ev) in &events[..split] {
        log.push(&svc.apply(black_box(ev)));
    }
    tr.end(s);
    let warmup_s = t1.elapsed().as_secs_f64();

    let mut us: [Vec<f64>; 5] = Default::default();
    let mut run_s = 0.0;
    for (_, ev) in &events[split..] {
        let s = tr.begin("placement.apply", "placement");
        let t = Instant::now();
        let d = svc.apply(black_box(ev));
        let dt = t.elapsed().as_secs_f64();
        let kind = Kind::of(&d);
        tr.end_tagged(s, tag(&d));
        run_s += dt;
        us[kind as usize].push(dt * 1e6);
        log.push(&d);
    }

    let s = tr.begin("check", "check");
    let consistent = svc.placer().verify_scratch_consistency();
    let snapshot = svc.snapshot();
    let stream_fp = stream_fingerprint(&events);
    tr.end(s);
    tr.end(root);
    Pass {
        warmup_s,
        warmup_events: split,
        run_s,
        us,
        decisions: log.0,
        snapshot,
        resident: svc.live_tenants(),
        mask_rebuilds: svc.placer().mask_rebuilds(),
        cache: svc.placer().bound_cache_stats(),
        stream_fp,
        consistent,
    }
}

/// Cell ids of the replay's spans, apart from the flow cells' of the
/// same traced run.
const CELL0: u32 = 1000;

/// Replay the stream for the placement and netcalc per-layer metrics:
/// a warm-up pass, a timed pass and a traced pass, each on a fresh
/// service and each checked. The admission service has no workload of
/// its own (its time spread from run to run past the largest bound, see
/// the README), so this runs in the traced run of `flow_fairshare`,
/// which shares its topology.
pub fn layers(seed: u64, tr: &mut Tracer, out: &mut Outcome) {
    let mut passes: Vec<Pass> = Vec::new();
    for i in 0..crate::MIN_ROUNDS {
        tr.set_enabled(Round::of(i, true) == Round::Traced);
        tr.set_cell(CELL0 + i as u32);
        let p = pass(seed, tr);
        let events = (p.warmup_events + p.us.iter().map(Vec::len).sum::<usize>()) as u64;
        out.attempted += events;
        check_pass(out, &p, passes.first(), events);
        // Checked passes keep only their timings, not their snapshots.
        passes.push(Pass {
            snapshot: if passes.is_empty() {
                p.snapshot
            } else {
                String::new()
            },
            ..p
        });
    }
    tr.set_enabled(false);
    let timed = passes
        .iter()
        .enumerate()
        .find(|(i, _)| Round::of(*i, true) == Round::Timed)
        .map(|(_, p)| p)
        .expect("a timed pass");

    let first = &passes[0];
    let (acc, rej) = (
        first.us[Kind::Accept as usize].len(),
        first.us[Kind::Reject as usize].len(),
    );
    let reject_frac = rej as f64 / (acc + rej).max(1) as f64;
    println!(
        "# admission: {} passes over {} events ({} warm-up); decisions {:016x}, stream {:016x}, reject_frac {reject_frac}",
        passes.len(),
        first.warmup_events + first.us.iter().map(Vec::len).sum::<usize>(),
        first.warmup_events,
        first.decisions,
        first.stream_fp
    );

    // Service times of the timed pass.
    let of = |kinds: &[Kind]| -> Vec<f64> {
        sorted(
            kinds
                .iter()
                .flat_map(|k| timed.us[*k as usize].iter().copied())
                .collect(),
        )
    };
    let admits = of(&[Kind::Accept, Kind::Reject]);
    let admit_s: f64 = admits.iter().sum::<f64>() / 1e6;
    if let Some(v) = tail_percentile(&admits, 0.5) {
        out.set("admit_p50_us", v);
    }
    if let Some(v) = tail_percentile(&admits, 0.99) {
        out.set("admit_p99_us", v);
    }
    out.set("admit_n", admits.len() as f64);
    out.set("admissions_per_s", admits.len() as f64 / admit_s);
    for (kind, p99, n) in [
        (
            Kind::Accept,
            "placement.admit_accept_us.p99",
            "placement.admit_accept_us.n",
        ),
        (
            Kind::Reject,
            "placement.admit_reject_us.p99",
            "placement.admit_reject_us.n",
        ),
        (
            Kind::Evict,
            "placement.evict_us.p99",
            "placement.evict_us.n",
        ),
    ] {
        let v = of(&[kind]);
        if let Some(x) = tail_percentile(&v, 0.99) {
            out.set(p99, x);
        }
        out.set(n, v.len() as f64);
    }
    let fails = of(&[Kind::FailLink]);
    out.set(
        "placement.fail_link_us.mean",
        fails.iter().sum::<f64>() / fails.len().max(1) as f64,
    );
    out.set("placement.fail_link_us.n", fails.len() as f64);
    out.set("placement.mask_rebuilds", first.mask_rebuilds as f64);
    out.set("placement.resident_tenants", first.resident as f64);
    out.set("placement.warmup_s", timed.warmup_s);
    out.set("placement.warmup_events", first.warmup_events as f64);
    out.set("placement.run_s", timed.run_s);
    let (hits, misses) = first.cache;
    out.set("netcalc.bound_cache_hits", hits as f64);
    out.set("netcalc.bound_cache_misses", misses as f64);
    out.set(
        "netcalc.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("reject_frac", reject_frac);
    crate::set_span_median(
        out,
        tr,
        "workload.churn_generate_s",
        "workload.churn_generate_s.n",
        "workload.churn_generate",
    );
}

/// The pass's service must match a from-scratch rebuild, round-trip its
/// snapshot byte-exactly, and decide exactly as the first pass did.
fn check_pass(out: &mut Outcome, p: &Pass, first: Option<&Pass>, events: u64) {
    if let Err(e) = &p.consistent {
        out.check(false, events, || format!("incremental state diverged: {e}"));
    }
    let restored = AdmissionService::restore(&p.snapshot).map(|s| s.snapshot());
    out.check(restored.as_ref() == Ok(&p.snapshot), events, || {
        "snapshot -> restore -> snapshot is not byte-exact".into()
    });
    if let Some(f) = first {
        let same = (p.stream_fp, p.decisions, p.snapshot.as_str())
            == (f.stream_fp, f.decisions, f.snapshot.as_str());
        out.check(same, events, || {
            format!(
                "replay differs: decisions {:016x} vs {:016x}",
                p.decisions, f.decisions
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> u64 {
        let topo = flow_topo(0.125);
        let (cfg, _) = churn_config(&topo, seed, 2_000);
        stream_fingerprint(&churn::generate(&topo, &cfg))
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn stream_mixes_every_event_kind_after_warm_up() {
        let topo = flow_topo(0.125);
        let (cfg, warm) = churn_config(&topo, 1, 2_000);
        let events = churn::generate(&topo, &cfg);
        let after =
            |f: fn(&ChurnEvent) -> bool| events.iter().filter(|(t, e)| *t >= warm && f(e)).count();
        assert!(after(|e| matches!(e, ChurnEvent::Admit(_))) > 0);
        assert!(after(|e| matches!(e, ChurnEvent::Evict(_))) > 0);
        assert!(after(|e| matches!(e, ChurnEvent::FailLink(_))) > 0);
        assert!(after(|e| matches!(e, ChurnEvent::RestoreLink(_))) > 0);
    }

    #[test]
    fn decision_log_is_order_sensitive() {
        let mut a = DecisionLog::default();
        let mut b = DecisionLog::default();
        a.push(&Decision::EvictNoop);
        a.push(&Decision::Evicted {
            tenant: silo_placement::TenantId(1),
        });
        b.push(&Decision::Evicted {
            tenant: silo_placement::TenantId(1),
        });
        b.push(&Decision::EvictNoop);
        assert_ne!(a.0, b.0);
    }
}
