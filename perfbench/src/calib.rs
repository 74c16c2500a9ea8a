//! Host-speed probe: a fixed chain of dependent integer operations,
//! owned by the benchmark and timed between the measured units of a run.
//!
//! On a shared virtual machine the same input runs up to ~1.8× faster or
//! slower from one minute to the next, and within a run the speed drifts
//! by a tenth as the host's cores change clock and neighbours come and
//! go. The probe's work never changes and touches no memory, so its time
//! follows the core's speed and not the program's. A unit's wall time
//! times [`REFERENCE_S`] over the probe times around it is the unit's
//! time on a core that runs the probe in exactly [`REFERENCE_S`]: a
//! change to the program moves it in full, a change of host speed
//! largely cancels out.

use std::hint::black_box;
use std::time::Instant;

/// Links in the chain: one multiply and one xor each, about 4 cycles.
const LINKS: u64 = 60_000_000;

/// Probe time of the reference core (≈2.4 GHz for this chain), to which
/// the benchmark's end-to-end timings are scaled.
pub const REFERENCE_S: f64 = 0.1;

pub struct Probe {
    last: f64,
    /// Every probe time of the run, in seconds.
    pub times: Vec<f64>,
}

impl Probe {
    /// Take the first probe.
    pub fn start() -> Probe {
        let mut p = Probe {
            last: 0.0,
            times: Vec::new(),
        };
        p.probe();
        p
    }

    fn probe(&mut self) {
        let t0 = Instant::now();
        black_box(chain(black_box(LINKS)));
        self.last = t0.elapsed().as_secs_f64();
        self.times.push(self.last);
    }

    /// Take a probe and return the factor that scales a time measured
    /// since the previous probe to the reference core: [`REFERENCE_S`]
    /// over the mean of the two probe times.
    pub fn next_factor(&mut self) -> f64 {
        let before = self.last;
        self.probe();
        factor(before, self.last)
    }
}

/// [`REFERENCE_S`] over the mean of the probe times before and after.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

/// The probe's work: each link depends on the one before, so the time
/// is the chain's latency and no compiler or core can shorten it.
fn chain(links: u64) -> u64 {
    let m = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut x = 3u64;
    for i in 0..links {
        x = x.wrapping_mul(m) ^ i;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_cancels_a_uniform_slowdown() {
        assert_eq!(2.0 * factor(0.1, 0.1), 3.0 * factor(0.15, 0.15));
        assert_eq!(factor(0.05, 0.15), 1.0);
        assert_eq!(factor(0.2, 0.2), 0.5);
    }

    #[test]
    fn chain_work_is_fixed() {
        assert_eq!(chain(1000), chain(1000));
        assert_ne!(chain(1000), chain(1001));
        let mut p = Probe::start();
        let k = p.next_factor();
        assert!(k.is_finite() && k > 0.0);
        assert_eq!(p.times.len(), 2);
    }
}
