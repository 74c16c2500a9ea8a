//! Flow rate allocation: guaranteed hose shares vs. max-min fair sharing.

use silo_base::Rate;
use silo_topology::{PortId, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// How flows get bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocator {
    /// Hose-model guarantees, no inter-tenant sharing (Silo/Oktopus).
    Guaranteed,
    /// Ideal-TCP max-min fairness over link capacities (Locality).
    FairShare,
}

/// One fluid flow for allocation purposes.
#[derive(Debug, Clone)]
pub struct AllocFlow {
    /// Directed ports the flow traverses.
    pub path: Vec<PortId>,
    /// Sender hose guarantee and current out-degree (active flows).
    pub src_hose: Rate,
    pub out_deg: usize,
    /// Receiver hose guarantee and current in-degree.
    pub dst_hose: Rate,
    pub in_deg: usize,
}

impl AllocFlow {
    /// The guaranteed allocator's rate.
    pub fn hose_rate(&self) -> f64 {
        hose_rate(self.src_hose, self.out_deg, self.dst_hose, self.in_deg)
    }
}

/// The guaranteed allocator's rate of a flow whose sender has `out_deg`
/// active flows and whose receiver has `in_deg`: the smaller of the two
/// endpoints' equal hose splits.
pub(crate) fn hose_rate(src_hose: Rate, out_deg: usize, dst_hose: Rate, in_deg: usize) -> f64 {
    let s = src_hose.as_bps() as f64 / out_deg.max(1) as f64;
    let d = dst_hose.as_bps() as f64 / in_deg.max(1) as f64;
    s.min(d)
}

/// Progressive-filling max-min fairness: repeatedly find the most
/// constrained link, freeze its flows at the fair share, remove the
/// capacity, repeat. Returns per-flow rates in bits/sec.
///
/// Only link capacities bind: ideal TCP has no hoses, so the paper's
/// Locality baseline shares "bandwidth fairly between all flows". A flow
/// with an empty path (both ends on one host) gets `f64::INFINITY`.
///
/// The most constrained link is the one with the least `residual /
/// unfrozen flows`; ties break toward the lowest port id. Each call costs
/// O(ports + flows · hops · log(flows · hops)), and its result is
/// bit-identical to [`reference_waterfill`]'s.
///
/// # Panics
///
/// If a path names a port outside `topo`.
pub fn waterfill(topo: &Topology, flows: &[AllocFlow]) -> Vec<f64> {
    let mut rate = Vec::new();
    Waterfill::default().fill(topo, flows.len(), |fi| &flows[fi].path, &mut rate);
    rate
}

/// The working set of [`waterfill`]: dense arrays indexed by `PortId`,
/// sized to the topology on first use and reused by later calls.
#[derive(Debug, Default)]
pub(crate) struct Waterfill {
    /// Capacity left on each port, bits/sec.
    residual: Vec<f64>,
    /// Unfrozen flows on each port.
    remaining: Vec<u32>,
    /// CSR port → flows index: the flows crossing port `p` are
    /// `members[start[p]..start[p + 1]]`, in ascending flow index.
    start: Vec<u32>,
    members: Vec<u32>,
    /// The freeze round that last touched each port, and the ports the
    /// current round touched: the stamp keeps each port once in the list,
    /// so a round pushes one heap entry per port.
    stamp: Vec<u32>,
    touched: Vec<u32>,
    /// Candidate bottlenecks keyed by `(share bits, port id)`. An entry
    /// is stale once its port's share has moved on; stale entries are
    /// dropped when popped.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    frozen: Vec<bool>,
}

/// A bottleneck's heap key. For finite `share ≥ +0.0` the bit patterns
/// order exactly as the values do.
fn share_key(share: f64) -> u64 {
    debug_assert!(
        share.is_finite() && share.is_sign_positive(),
        "fair share {share} must be finite and non-negative"
    );
    share.to_bits()
}

impl Waterfill {
    /// [`waterfill`] over the `n` flows whose paths `path(0..n)` yields,
    /// writing the rates into `rate`.
    ///
    /// Freezing applies the same f64 operations in the same order as
    /// [`reference_waterfill`]: the chosen link's flows in index order,
    /// each flow's ports in path order.
    pub(crate) fn fill<'a>(
        &mut self,
        topo: &Topology,
        n: usize,
        path: impl Fn(usize) -> &'a [PortId],
        rate: &mut Vec<f64>,
    ) {
        let ports = topo.num_ports();
        let Waterfill {
            residual,
            remaining,
            start,
            members,
            stamp,
            touched,
            heap,
            frozen,
        } = self;
        rate.clear();
        rate.resize(n, f64::INFINITY);
        frozen.clear();
        frozen.resize(n, false);
        remaining.clear();
        remaining.resize(ports, 0);
        for fi in 0..n {
            for p in path(fi) {
                remaining[p.0 as usize] += 1;
            }
        }
        // Each port's end offset, then fill the ranges back to front so
        // every port's members come out in ascending flow index.
        start.clear();
        let mut end = 0u32;
        for &c in remaining.iter() {
            end += c;
            start.push(end);
        }
        start.push(end);
        members.clear();
        members.resize(end as usize, 0);
        for fi in (0..n).rev() {
            for p in path(fi) {
                let s = &mut start[p.0 as usize];
                *s -= 1;
                members[*s as usize] = fi as u32;
            }
        }
        residual.clear();
        residual.resize(ports, 0.0);
        let mut entries = std::mem::take(heap).into_vec();
        entries.clear();
        for (l, &cnt) in remaining.iter().enumerate() {
            if cnt > 0 {
                residual[l] = topo.link_rate(PortId(l as u32).link()).as_bps() as f64;
                entries.push(Reverse((share_key(residual[l] / cnt as f64), l as u32)));
            }
        }
        *heap = BinaryHeap::from(entries);
        stamp.clear();
        stamp.resize(ports, 0);
        let mut round = 0u32;
        while let Some(Reverse((key, bl))) = heap.pop() {
            let b = bl as usize;
            let cnt = remaining[b];
            if cnt == 0 {
                continue;
            }
            let share = residual[b] / cnt as f64;
            if share.to_bits() != key {
                continue;
            }
            // Freeze every unfrozen flow on the bottleneck.
            round += 1;
            for &fi in &members[start[b] as usize..start[b + 1] as usize] {
                let fi = fi as usize;
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                rate[fi] = share;
                for p in path(fi) {
                    let l = p.0 as usize;
                    residual[l] = (residual[l] - share).max(0.0);
                    remaining[l] -= 1;
                    if stamp[l] != round {
                        stamp[l] = round;
                        touched.push(p.0);
                    }
                }
            }
            for l in touched.drain(..) {
                let cnt = remaining[l as usize];
                if cnt > 0 {
                    heap.push(Reverse((share_key(residual[l as usize] / cnt as f64), l)));
                }
            }
        }
        // Same-host flows (empty path) keep their infinite rate; any
        // other unfrozen flow would indicate a bug.
        for (fi, frozen) in frozen.iter().enumerate() {
            debug_assert!(
                *frozen || path(fi).is_empty(),
                "flow {fi} escaped the waterfill"
            );
        }
    }
}

/// The original max-min water-fill: `HashMap` per-link state and a full
/// rescan of every active link per freeze. Kept only as the oracle that
/// [`waterfill`] is checked against, bit for bit.
#[doc(hidden)]
pub fn reference_waterfill(topo: &Topology, flows: &[AllocFlow]) -> Vec<f64> {
    // Per-active-link state, deterministic ordering by port id.
    let mut link_flows: HashMap<u32, Vec<usize>> = HashMap::new();
    for (fi, f) in flows.iter().enumerate() {
        for p in &f.path {
            link_flows.entry(p.0).or_default().push(fi);
        }
    }
    let mut active: Vec<u32> = link_flows.keys().copied().collect();
    active.sort_unstable();
    let mut residual: HashMap<u32, f64> = active
        .iter()
        .map(|&l| (l, topo.port(PortId(l)).rate.as_bps() as f64))
        .collect();
    let mut remaining: HashMap<u32, usize> =
        link_flows.iter().map(|(&l, v)| (l, v.len())).collect();
    let mut rate = vec![f64::INFINITY; flows.len()];
    let mut frozen = vec![false; flows.len()];
    loop {
        // Most constrained link: min residual / remaining flows; ties
        // break toward the lowest port id for determinism.
        let mut best: Option<(u32, f64)> = None;
        for &l in &active {
            let cnt = remaining[&l];
            if cnt == 0 {
                continue;
            }
            let share = residual[&l] / cnt as f64;
            if best.is_none_or(|(_, s)| share < s) {
                best = Some((l, share));
            }
        }
        let Some((bl, share)) = best else { break };
        // Freeze every unfrozen flow on that link.
        for fi in link_flows[&bl].clone() {
            if frozen[fi] {
                continue;
            }
            frozen[fi] = true;
            rate[fi] = share;
            for p in &flows[fi].path {
                if let Some(r) = residual.get_mut(&p.0) {
                    *r = (*r - share).max(0.0);
                }
                if let Some(c) = remaining.get_mut(&p.0) {
                    *c -= 1;
                }
            }
        }
        active.retain(|l| remaining[l] > 0);
        if active.is_empty() {
            break;
        }
    }
    // Same-host flows (empty path) are never constrained; any other
    // unfrozen flow would indicate a bug.
    for (fi, r) in rate.iter_mut().enumerate() {
        if flows[fi].path.is_empty() {
            *r = f64::INFINITY;
        } else {
            debug_assert!(frozen[fi], "flow {fi} escaped the waterfill");
        }
    }
    rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_base::prop::{forall, Rng, StdRng};
    use silo_base::{Bytes, Dur};
    use silo_topology::{HostId, TreeParams};

    fn tree(pods: usize, racks: usize, servers: usize, tor: f64, agg: f64) -> Topology {
        Topology::build(TreeParams {
            pods,
            racks_per_pod: racks,
            servers_per_rack: servers,
            vm_slots_per_server: 4,
            host_link: Rate::from_gbps(10),
            tor_oversub: tor,
            agg_oversub: agg,
            switch_buffer: Bytes::from_kb(312),
            nic_buffer: Bytes::from_kb(64),
            prop_delay: Dur::from_ns(500),
        })
    }

    fn topo() -> Topology {
        tree(1, 2, 2, 2.0, 1.0)
    }

    fn flow(topo: &Topology, s: u32, d: u32) -> AllocFlow {
        AllocFlow {
            path: topo.path_ports(HostId(s), HostId(d)),
            src_hose: Rate::from_gbps(1),
            out_deg: 1,
            dst_hose: Rate::from_gbps(1),
            in_deg: 1,
        }
    }

    #[test]
    fn hose_rate_is_min_of_endpoint_shares() {
        let t = topo();
        let mut f = flow(&t, 0, 1);
        f.out_deg = 2;
        f.in_deg = 4;
        // min(1G/2, 1G/4) = 0.25 G.
        assert!((f.hose_rate() - 0.25e9).abs() < 1.0);
    }

    #[test]
    fn single_flow_gets_bottleneck_capacity() {
        let t = topo();
        // Cross-rack: bottleneck is the 10 G ToR uplink (2 servers x 10 /
        // oversub 2 = 10 G).
        let flows = vec![flow(&t, 0, 2)];
        let r = waterfill(&t, &flows);
        assert!((r[0] - 1e10).abs() < 1.0, "{}", r[0]);
    }

    #[test]
    fn two_flows_share_bottleneck_equally() {
        let t = topo();
        let flows = vec![flow(&t, 0, 2), flow(&t, 1, 3)];
        let r = waterfill(&t, &flows);
        // Both cross the 10 G rack-0 uplink: 5 G each.
        assert!((r[0] - 5e9).abs() < 1.0);
        assert!((r[1] - 5e9).abs() < 1.0);
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        let t = topo();
        // f0 and f1 share host 0's NIC; f2 runs alone from host 1.
        let flows = vec![flow(&t, 0, 1), flow(&t, 0, 2), flow(&t, 1, 3)];
        let r = waterfill(&t, &flows);
        assert!((r[0] - 5e9).abs() < 1e6, "{:?}", r);
        assert!((r[1] - 5e9).abs() < 1e6);
        // f1 and f2 both cross the 10 G rack-0 uplink: 5 G each, although
        // f2's own NIC could carry 10 G.
        assert!((r[2] - 5e9).abs() < 1e6);
    }

    #[test]
    fn same_host_flows_are_unconstrained() {
        let t = topo();
        let f = AllocFlow {
            path: vec![],
            src_hose: Rate::from_gbps(1),
            out_deg: 1,
            dst_hose: Rate::from_gbps(1),
            in_deg: 1,
        };
        let r = waterfill(&t, &[f]);
        assert!(r[0].is_infinite());
    }

    #[test]
    fn reused_scratch_matches_fresh_calls() {
        // One working set across calls of different sizes and topologies
        // must not leak state from one call into the next.
        let small = topo();
        let big = tree(2, 3, 4, 4.0, 3.0);
        let mut wf = Waterfill::default();
        let mut rate = Vec::new();
        let cases: [(&Topology, Vec<(u32, u32)>); 4] = [
            (&big, vec![(0, 23), (1, 23), (5, 5), (7, 12), (0, 23)]),
            (&small, vec![(0, 2), (1, 3)]),
            (&big, vec![]),
            (&big, vec![(3, 20), (20, 3), (4, 9)]),
        ];
        for (t, pairs) in cases {
            let flows: Vec<AllocFlow> = pairs.iter().map(|&(s, d)| flow(t, s, d)).collect();
            wf.fill(t, flows.len(), |fi| &flows[fi].path, &mut rate);
            assert_eq!(bits(&rate), bits(&reference_waterfill(t, &flows)));
        }
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    /// A random small tree and flow set: `(pods, racks, servers, equal
    /// link rates, flows as (src, dst) host pairs)`.
    type Case = (usize, usize, usize, bool, Vec<(u32, u32)>);

    fn case_topo(c: &Case) -> Topology {
        let &(pods, racks, servers, equal, _) = c;
        if equal {
            // Every link runs at 10 G, so fair shares tie all the time.
            tree(pods, racks, servers, servers as f64, racks as f64)
        } else {
            tree(pods, racks, servers, 2.5, 1.5)
        }
    }

    fn gen_case(rng: &mut StdRng) -> Case {
        let pods = rng.random_range(1..3usize);
        let racks = rng.random_range(1..4usize);
        let servers = rng.random_range(1..5usize);
        let hosts = (pods * racks * servers) as u32;
        let n = rng.random_range(0..41usize);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(n);
        while pairs.len() < n {
            let roll = rng.random_range(0..10u32);
            if roll < 2 && !pairs.is_empty() {
                // A repeated pair: two flows that share every link.
                let p = pairs[rng.random_range(0..pairs.len())];
                pairs.push(p);
            } else if roll < 3 {
                // A same-host flow: empty path.
                let h = rng.random_range(0..hosts);
                pairs.push((h, h));
            } else {
                pairs.push((rng.random_range(0..hosts), rng.random_range(0..hosts)));
            }
        }
        (pods, racks, servers, rng.random::<bool>(), pairs)
    }

    fn shrink_case(c: &Case) -> Vec<Case> {
        (0..c.4.len())
            .map(|i| {
                let mut s = c.clone();
                s.4.remove(i);
                s
            })
            .collect()
    }

    /// `waterfill` equals the reference bit for bit, and the rates are
    /// max-min fair: no link is over capacity, and every constrained flow
    /// has a saturated link on which no flow gets more.
    fn check_case(c: &Case) -> Result<(), String> {
        let t = case_topo(c);
        let flows: Vec<AllocFlow> = c.4.iter().map(|&(s, d)| flow(&t, s, d)).collect();
        let got = waterfill(&t, &flows);
        let want = reference_waterfill(&t, &flows);
        if bits(&got) != bits(&want) {
            return Err(format!("waterfill {got:?} != reference {want:?}"));
        }
        let mut load = vec![0.0; t.num_ports()];
        let mut top = vec![0.0f64; t.num_ports()];
        for (f, &r) in flows.iter().zip(&got) {
            for p in &f.path {
                load[p.0 as usize] += r;
                top[p.0 as usize] = top[p.0 as usize].max(r);
            }
        }
        let cap = |p: &PortId| t.port(*p).rate.as_bps() as f64;
        for (l, &sum) in load.iter().enumerate() {
            let c = cap(&PortId(l as u32));
            if sum > c * (1.0 + 1e-9) {
                return Err(format!("port {l} carries {sum} > capacity {c}"));
            }
        }
        for (fi, (f, &r)) in flows.iter().zip(&got).enumerate() {
            if f.path.is_empty() {
                if r != f64::INFINITY {
                    return Err(format!("same-host flow {fi} got {r}"));
                }
                continue;
            }
            let bottlenecked = f.path.iter().any(|p| {
                let l = p.0 as usize;
                load[l] >= cap(p) * (1.0 - 1e-9) && r >= top[l] * (1.0 - 1e-9)
            });
            if !bottlenecked {
                return Err(format!("flow {fi} at {r} has no saturated link it tops"));
            }
        }
        Ok(())
    }

    #[test]
    fn waterfill_matches_reference_and_is_max_min_fair() {
        forall("waterfill_vs_reference", gen_case, shrink_case, check_case);
    }
}
