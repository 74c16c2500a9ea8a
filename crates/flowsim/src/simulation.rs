//! The time-stepped flow-level simulation driving Figs. 15–16.

use crate::alloc::{hose_rate, Allocator, Waterfill};
use rand::rngs::StdRng;
use rand::Rng;
use silo_base::{exponential, seeded_rng, Dur, Time};
use silo_placement::{Guarantee, Placer, TenantId, TenantRequest};
use silo_topology::{HostId, PortId};
use silo_workload::{all_to_one, permutation_x};

/// Tenant class mix and job-shape parameters (paper Table 3 plus the job
/// model of §6.3: "each tenant runs a job that transfers a given amount of
/// data between its VMs; each job also has a minimum compute time").
#[derive(Debug, Clone)]
pub struct ClassMix {
    /// Fraction of class-A (delay-sensitive, all-to-one) tenants.
    pub class_a_frac: f64,
    pub class_a: Guarantee,
    pub class_b: Guarantee,
    /// Class-B traffic pattern: `Some(x)` = Permutation-x, `None` =
    /// all-to-all.
    pub class_b_x: Option<f64>,
}

impl Default for ClassMix {
    fn default() -> ClassMix {
        ClassMix {
            class_a_frac: 0.5,
            class_a: Guarantee::class_a(),
            class_b: Guarantee::class_b(),
            class_b_x: Some(1.0),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct FlowSimConfig {
    /// Quantized time step.
    pub step: Dur,
    /// Total simulated time (including warmup).
    pub duration: Dur,
    /// Statistics are collected only after this point.
    pub warmup: Dur,
    /// Target datacenter occupancy in (0, 1]; sets the arrival rate.
    pub occupancy: f64,
    /// Mean tenant size (exponential, as in Oktopus), clamped to
    /// `[2, max_vms]`.
    pub mean_vms: f64,
    pub max_vms: usize,
    /// Mean compute time per job (exponential).
    pub mean_compute: Dur,
    /// Mean *nominal* transfer time per job at full guaranteed rate
    /// (exponential); flow byte counts derive from it.
    pub mean_transfer: Dur,
    pub mix: ClassMix,
    pub seed: u64,
}

impl Default for FlowSimConfig {
    fn default() -> FlowSimConfig {
        FlowSimConfig {
            step: Dur::from_secs(1),
            duration: Dur::from_secs(4_000),
            warmup: Dur::from_secs(1_000),
            occupancy: 0.75,
            mean_vms: 49.0,
            max_vms: 200,
            // Jobs are network-dominated (§2.2: messaging is a large
            // fraction of job time): starving a tenant's flows stretches
            // its slot residency, which is the mechanism behind Fig. 15b.
            mean_compute: Dur::from_secs(100),
            mean_transfer: Dur::from_secs(300),
            mix: ClassMix::default(),
            seed: 1,
        }
    }
}

struct Flow {
    /// Directed ports from the sender's host to the receiver's; empty
    /// when both VMs share a host.
    path: Vec<PortId>,
    src_vm: usize,
    dst_vm: usize,
    remaining: f64,
}

struct Job {
    tenant: TenantId,
    class_a: bool,
    /// Number of VMs; flow endpoints index `0..vms`.
    vms: usize,
    flows: Vec<Flow>,
    compute_done_at: Time,
    arrived: Time,
    /// Duration at full guaranteed rate: `max(compute, transfer)`.
    nominal: Dur,
}

/// State the step loop carries from one step to the next.
#[derive(Default)]
struct StepState {
    /// `(job index, flow index)` of every unfinished flow, in job then
    /// flow order.
    active: Vec<(usize, usize)>,
    /// The rate of each `active` flow, bits/sec.
    rates: Vec<f64>,
    /// Whether `active` and `rates` still describe the jobs: cleared when
    /// a job spawns or leaves, or a flow finishes. Rates are a pure
    /// function of the ordered active flow set, so while it holds they
    /// are reused as they are.
    fresh: bool,
    /// Per-VM active out- and in-degrees of the job being allocated.
    out_deg: Vec<usize>,
    in_deg: Vec<usize>,
    waterfill: Waterfill,
}

/// Results of a run.
#[derive(Debug, Clone, Default)]
pub struct FlowSimReport {
    pub offered_a: usize,
    pub offered_b: usize,
    pub admitted_a: usize,
    pub admitted_b: usize,
    pub completed: usize,
    /// Carried bits / capacity over all directed links, post-warmup.
    pub utilization: f64,
    /// Mean job stretch (actual / nominal duration) of completed jobs.
    pub mean_stretch: f64,
    /// Mean datacenter slot occupancy observed post-warmup.
    pub mean_occupancy: f64,
}

impl FlowSimReport {
    pub fn admitted_frac(&self) -> f64 {
        let off = self.offered_a + self.offered_b;
        if off == 0 {
            1.0
        } else {
            (self.admitted_a + self.admitted_b) as f64 / off as f64
        }
    }
    pub fn admitted_frac_a(&self) -> f64 {
        if self.offered_a == 0 {
            1.0
        } else {
            self.admitted_a as f64 / self.offered_a as f64
        }
    }
    pub fn admitted_frac_b(&self) -> f64 {
        if self.offered_b == 0 {
            1.0
        } else {
            self.admitted_b as f64 / self.offered_b as f64
        }
    }
}

/// The simulator, generic over the placement algorithm.
pub struct FlowSim<P: Placer> {
    placer: P,
    alloc: Allocator,
    cfg: FlowSimConfig,
    rng: StdRng,
    now: Time,
    jobs: Vec<Job>,
    report: FlowSimReport,
    stretch_sum: f64,
    stretch_n: usize,
    carried_bits: f64,
    occupancy_samples: (f64, usize),
}

impl<P: Placer> FlowSim<P> {
    pub fn new(placer: P, alloc: Allocator, cfg: FlowSimConfig) -> FlowSim<P> {
        let rng = seeded_rng(cfg.seed);
        FlowSim {
            placer,
            alloc,
            cfg,
            rng,
            now: Time::ZERO,
            jobs: Vec::new(),
            report: FlowSimReport::default(),
            stretch_sum: 0.0,
            stretch_n: 0,
            carried_bits: 0.0,
            occupancy_samples: (0.0, 0),
        }
    }

    /// Poisson tenant arrival rate that hits the target occupancy given
    /// the nominal job duration.
    fn arrival_rate(&self) -> f64 {
        let total_slots = self.placer.topology().params().num_vm_slots() as f64;
        let mean_dur = self
            .cfg
            .mean_compute
            .as_secs_f64()
            .max(self.cfg.mean_transfer.as_secs_f64());
        self.cfg.occupancy * total_slots / (self.cfg.mean_vms * mean_dur)
    }

    fn draw_tenant(&mut self) -> (TenantRequest, bool) {
        let n = exponential(&mut self.rng, 1.0 / self.cfg.mean_vms).round() as usize;
        let n = n.clamp(2, self.cfg.max_vms);
        let class_a = self.rng.random::<f64>() < self.cfg.mix.class_a_frac;
        let g = if class_a {
            self.cfg.mix.class_a
        } else {
            self.cfg.mix.class_b
        };
        (TenantRequest::new(n, g), class_a)
    }

    fn spawn_job(
        &mut self,
        req: &TenantRequest,
        class_a: bool,
        tenant: TenantId,
        vm_hosts: Vec<HostId>,
    ) {
        let n = vm_hosts.len();
        let b = req.guarantee.b.as_bps() as f64;
        let t_net = exponential(&mut self.rng, 1.0 / self.cfg.mean_transfer.as_secs_f64());
        let pairs = if class_a {
            all_to_one(n, 0)
        } else {
            match self.cfg.mix.class_b_x {
                Some(x) => permutation_x(n, x, &mut self.rng),
                None => silo_workload::all_to_all(n),
            }
        };
        // Per-flow bytes sized so the whole transfer takes ~t_net at the
        // guaranteed hose rates.
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for &(s, d) in &pairs {
            out_deg[s] += 1;
            in_deg[d] += 1;
        }
        let topo = self.placer.topology();
        let flows: Vec<Flow> = pairs
            .iter()
            .map(|&(s, d)| {
                let rate = (b / out_deg[s].max(1) as f64).min(b / in_deg[d].max(1) as f64);
                Flow {
                    path: topo.path_ports(vm_hosts[s], vm_hosts[d]),
                    src_vm: s,
                    dst_vm: d,
                    remaining: rate * t_net / 8.0,
                }
            })
            .collect();
        let compute = exponential(&mut self.rng, 1.0 / self.cfg.mean_compute.as_secs_f64());
        self.jobs.push(Job {
            tenant,
            class_a,
            vms: n,
            flows,
            compute_done_at: self.now + Dur::from_secs_f64(compute),
            arrived: self.now,
            nominal: Dur::from_secs_f64(compute.max(t_net)),
        });
    }

    /// Bring `st.rates` up to date with the unfinished flows, reusing the
    /// last step's rates while the active set is unchanged, and account
    /// the bits they carry this step.
    fn step_rates(&mut self, st: &mut StepState) {
        if !st.fresh {
            self.allocate(st);
            st.fresh = true;
        }
        // Utilization accounting: bits carried on every traversed link.
        let dt = self.cfg.step.as_secs_f64();
        if self.now.as_secs_f64() >= self.cfg.warmup.as_secs_f64() {
            for (&(ji, fi), &r) in st.active.iter().zip(&st.rates) {
                if r.is_finite() {
                    self.carried_bits += r * dt * self.jobs[ji].flows[fi].path.len() as f64;
                }
            }
        }
    }

    /// Collect the unfinished flows into `st.active` and allocate their
    /// rates into `st.rates`.
    fn allocate(&self, st: &mut StepState) {
        let StepState {
            active,
            rates,
            out_deg,
            in_deg,
            waterfill,
            ..
        } = st;
        active.clear();
        rates.clear();
        for (ji, job) in self.jobs.iter().enumerate() {
            let first = active.len();
            for (fi, f) in job.flows.iter().enumerate() {
                if f.remaining > 0.0 {
                    active.push((ji, fi));
                }
            }
            if self.alloc == Allocator::Guaranteed {
                // Per-VM active degrees for the hose shares.
                out_deg.clear();
                out_deg.resize(job.vms, 0);
                in_deg.clear();
                in_deg.resize(job.vms, 0);
                for &(_, fi) in &active[first..] {
                    let f = &job.flows[fi];
                    out_deg[f.src_vm] += 1;
                    in_deg[f.dst_vm] += 1;
                }
                let g = if job.class_a {
                    self.cfg.mix.class_a
                } else {
                    self.cfg.mix.class_b
                };
                rates.extend(active[first..].iter().map(|&(_, fi)| {
                    let f = &job.flows[fi];
                    hose_rate(g.b, out_deg[f.src_vm], g.b, in_deg[f.dst_vm])
                }));
            }
        }
        if self.alloc == Allocator::FairShare {
            let jobs = &self.jobs;
            waterfill.fill(
                self.placer.topology(),
                active.len(),
                |i| {
                    let (ji, fi) = active[i];
                    &jobs[ji].flows[fi].path
                },
                rates,
            );
        }
    }

    /// Run the simulation and report.
    pub fn run(mut self) -> FlowSimReport {
        let mut st = StepState::default();
        let rate = self.arrival_rate();
        let mut next_arrival = Time::ZERO + Dur::from_secs_f64(exponential(&mut self.rng, rate));
        let horizon = Time::ZERO + self.cfg.duration;
        let dt = self.cfg.step.as_secs_f64();
        let measuring =
            |now: Time, cfg: &FlowSimConfig| now.as_secs_f64() >= cfg.warmup.as_secs_f64();
        while self.now < horizon {
            // 1. Admit arrivals due this step.
            while next_arrival <= self.now + self.cfg.step {
                let (req, class_a) = self.draw_tenant();
                if measuring(self.now, &self.cfg) {
                    if class_a {
                        self.report.offered_a += 1;
                    } else {
                        self.report.offered_b += 1;
                    }
                }
                if let Ok(p) = self.placer.try_place(&req) {
                    if measuring(self.now, &self.cfg) {
                        if class_a {
                            self.report.admitted_a += 1;
                        } else {
                            self.report.admitted_b += 1;
                        }
                    }
                    let mut vm_hosts = Vec::with_capacity(req.vms);
                    for &(h, k) in &p.hosts {
                        for _ in 0..k {
                            vm_hosts.push(h);
                        }
                    }
                    self.spawn_job(&req, class_a, p.tenant, vm_hosts);
                    st.fresh = false;
                }
                next_arrival += Dur::from_secs_f64(exponential(&mut self.rng, rate));
            }
            // 2. Allocate rates and drain flows.
            self.step_rates(&mut st);
            for (&(ji, fi), &r) in st.active.iter().zip(&st.rates) {
                let f = &mut self.jobs[ji].flows[fi];
                if r.is_infinite() {
                    f.remaining = 0.0;
                } else {
                    f.remaining = (f.remaining - r * dt / 8.0).max(0.0);
                }
                if f.remaining <= 0.0 {
                    st.fresh = false;
                }
            }
            self.now += self.cfg.step;
            // 3. Complete jobs.
            let mut i = 0;
            while i < self.jobs.len() {
                let done = self.jobs[i].compute_done_at <= self.now
                    && self.jobs[i].flows.iter().all(|f| f.remaining <= 0.0);
                if done {
                    let job = self.jobs.swap_remove(i);
                    st.fresh = false;
                    self.placer.remove(job.tenant);
                    if measuring(self.now, &self.cfg) {
                        self.report.completed += 1;
                        let actual = (self.now - job.arrived).as_secs_f64();
                        self.stretch_sum += actual / job.nominal.as_secs_f64().max(1.0);
                        self.stretch_n += 1;
                    }
                } else {
                    i += 1;
                }
            }
            // 4. Occupancy sample.
            if measuring(self.now, &self.cfg) {
                let occ = self.placer.used_slots() as f64
                    / self.placer.topology().params().num_vm_slots() as f64;
                self.occupancy_samples.0 += occ;
                self.occupancy_samples.1 += 1;
            }
        }
        // Utilization: carried bits over total capacity-time.
        let topo = self.placer.topology();
        let mut cap_bits = 0.0;
        for i in 0..topo.num_ports() {
            cap_bits += topo.port(PortId(i as u32)).rate.as_bps() as f64;
        }
        let meas_time = (self.cfg.duration - self.cfg.warmup).as_secs_f64();
        self.report.utilization = self.carried_bits / (cap_bits * meas_time);
        self.report.mean_stretch = if self.stretch_n > 0 {
            self.stretch_sum / self.stretch_n as f64
        } else {
            0.0
        };
        self.report.mean_occupancy = if self.occupancy_samples.1 > 0 {
            self.occupancy_samples.0 / self.occupancy_samples.1 as f64
        } else {
            0.0
        };
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocFlow;
    use silo_base::{Bytes, Rate};
    use silo_placement::{LocalityPlacer, OktopusPlacer, SiloPlacer};
    use silo_topology::{Topology, TreeParams};

    fn topo(servers_per_rack: usize) -> Topology {
        Topology::build(TreeParams {
            pods: 2,
            racks_per_pod: 2,
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

    fn quick_cfg(occupancy: f64, seed: u64) -> FlowSimConfig {
        FlowSimConfig {
            step: Dur::from_secs(1),
            duration: Dur::from_secs(600),
            warmup: Dur::from_secs(150),
            occupancy,
            mean_vms: 8.0,
            max_vms: 24,
            mean_compute: Dur::from_secs(60),
            mean_transfer: Dur::from_secs(50),
            mix: ClassMix::default(),
            seed,
        }
    }

    #[test]
    fn locality_admits_everything_at_low_occupancy() {
        let sim = FlowSim::new(
            LocalityPlacer::new(topo(10)),
            Allocator::FairShare,
            quick_cfg(0.3, 1),
        );
        let r = sim.run();
        assert!(r.offered_a + r.offered_b > 20);
        assert!(r.admitted_frac() > 0.99, "{}", r.admitted_frac());
    }

    #[test]
    fn silo_rejects_some_at_high_occupancy() {
        let sim = FlowSim::new(
            SiloPlacer::new(topo(10)),
            Allocator::Guaranteed,
            quick_cfg(0.9, 2),
        );
        let r = sim.run();
        assert!(r.offered_a + r.offered_b > 50);
        let frac = r.admitted_frac();
        assert!(frac < 1.0, "Silo should reject something at 90%");
        assert!(frac > 0.5, "but not most things: {frac}");
    }

    #[test]
    fn oktopus_admits_no_less_than_silo() {
        let run = |kind: u8| {
            let cfg = quick_cfg(0.9, 3);
            match kind {
                0 => FlowSim::new(SiloPlacer::new(topo(10)), Allocator::Guaranteed, cfg).run(),
                _ => FlowSim::new(OktopusPlacer::new(topo(10)), Allocator::Guaranteed, cfg).run(),
            }
        };
        let silo = run(0);
        let okto = run(1);
        assert!(
            okto.admitted_frac() >= silo.admitted_frac() - 0.02,
            "okto {} vs silo {}",
            okto.admitted_frac(),
            silo.admitted_frac()
        );
    }

    #[test]
    fn utilization_grows_with_occupancy() {
        let run = |occ: f64| {
            FlowSim::new(
                SiloPlacer::new(topo(10)),
                Allocator::Guaranteed,
                quick_cfg(occ, 4),
            )
            .run()
        };
        let low = run(0.2);
        let high = run(0.8);
        assert!(
            high.utilization > low.utilization,
            "{} vs {}",
            high.utilization,
            low.utilization
        );
    }

    #[test]
    fn jobs_complete_and_release_slots() {
        let sim = FlowSim::new(
            SiloPlacer::new(topo(6)),
            Allocator::Guaranteed,
            quick_cfg(0.5, 5),
        );
        let r = sim.run();
        assert!(r.completed > 10, "completed {}", r.completed);
        assert!(r.mean_occupancy > 0.1 && r.mean_occupancy < 0.95);
        assert!(r.mean_stretch >= 0.9, "stretch {}", r.mean_stretch);
    }

    /// `(job, flow, rate)` of every unfinished flow at the current step.
    fn rates_now<P: Placer>(sim: &mut FlowSim<P>) -> Vec<(usize, usize, f64)> {
        let mut st = StepState::default();
        sim.allocate(&mut st);
        st.active
            .iter()
            .zip(&st.rates)
            .map(|(&(ji, fi), &r)| (ji, fi, r))
            .collect()
    }

    #[test]
    fn hose_rates_use_exact_degrees_past_255_vms() {
        // One 300-VM class-B tenant (Permutation-1: every VM sends one
        // flow, in-degrees vary). VMs 255 and above must each keep their
        // own degree counter.
        let cfg = FlowSimConfig {
            max_vms: 300,
            ..quick_cfg(0.5, 6)
        };
        let mut sim = FlowSim::new(LocalityPlacer::new(topo(50)), Allocator::Guaranteed, cfg);
        let req = TenantRequest::new(300, sim.cfg.mix.class_b);
        let p = sim
            .placer
            .try_place(&req)
            .expect("300 VMs fit in 800 slots");
        let vm_hosts: Vec<HostId> = p
            .hosts
            .iter()
            .flat_map(|&(h, k)| std::iter::repeat_n(h, k))
            .collect();
        sim.spawn_job(&req, false, p.tenant, vm_hosts);
        let flows = &sim.jobs[0].flows;
        let mut out_deg = vec![0usize; 300];
        let mut in_deg = vec![0usize; 300];
        for f in flows.iter().filter(|f| f.remaining > 0.0) {
            out_deg[f.src_vm] += 1;
            in_deg[f.dst_vm] += 1;
        }
        let b = req.guarantee.b;
        let want: Vec<(usize, usize, f64)> = flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.remaining > 0.0)
            .map(|(fi, f)| {
                let af = AllocFlow {
                    path: Vec::new(),
                    src_hose: b,
                    out_deg: out_deg[f.src_vm],
                    dst_hose: b,
                    in_deg: in_deg[f.dst_vm],
                };
                (0, fi, af.hose_rate())
            })
            .collect();
        assert!(want.len() > 255, "{} active flows", want.len());
        assert_eq!(rates_now(&mut sim), want);
    }
}
