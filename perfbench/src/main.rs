//! perfbench: the Silo reproduction's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `ns2_silo`, `ns2_tcp` (packet level) and `flow_fairshare`
//! (flow level), whose traced run also replays an admission-service
//! churn stream.
//! Each builds its inputs from `--seed`, runs them on one thread for
//! about `--seconds`, checks the outputs and prints a table followed by
//! one JSON line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records spans around every call into the crates, reports the
//! per-layer metrics and writes the spans to `perfbench/out/`. The exit
//! code is 0 only if every output check passed.

mod admission;
mod calib;
mod flow;
mod ns2;
mod report;
mod spans;
mod stats;

use report::Outcome;
use silo_simnet::TransportMode;
use spans::Tracer;
use std::path::Path;

const USAGE: &str = "usage: perfbench --workload <ns2_silo|ns2_tcp|flow_fairshare> --seed <u64> --seconds <1..600> --trace <0|1>";

pub const WORKLOADS: [&str; 3] = ["ns2_silo", "ns2_tcp", "flow_fairshare"];

#[derive(Debug, PartialEq)]
struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                )
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {val}")),
                })
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set a per-layer timing to the median duration of the spans called
/// `span`, with its sample count.
fn set_span_median(
    out: &mut Outcome,
    tr: &Tracer,
    metric: &'static str,
    n: &'static str,
    span: &str,
) {
    let d = tr.durations_s(span);
    if let Some(v) = stats::median(&d) {
        out.set(metric, v);
    }
    out.set(n, d.len() as f64);
}

/// Print the samples a median was taken over, in run order.
fn print_samples(metric: &str, xs: &[f64]) {
    let v: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    println!("# {metric} samples: {}", v.join(" "));
}

/// What a round of a run is for. Round 0 warms the caches and the
/// allocator and is not timed; after it, a traced run alternates
/// untraced and traced rounds, and only untraced rounds feed the
/// timings. Every round's outputs are checked against round 0's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    Warmup,
    Timed,
    Traced,
}

impl Round {
    pub fn of(i: usize, traced: bool) -> Round {
        match i {
            0 => Round::Warmup,
            i if traced && i % 2 == 0 => Round::Traced,
            _ => Round::Timed,
        }
    }
}

/// Rounds every run makes at least: the warm-up, a timed round and, in a
/// traced run, a traced one.
pub const MIN_ROUNDS: usize = 3;

/// Whether a run that has made `n` rounds in `elapsed_s` should stop:
/// one more round of the mean length would pass `seconds`.
pub fn done(n: usize, elapsed_s: f64, seconds: f64) -> bool {
    n >= MIN_ROUNDS && elapsed_s * (n + 1) as f64 / n as f64 > seconds
}

/// Timings of the timed rounds of a run. `setup` and `run` are scaled to
/// the reference core by the probes around each round; `run_wall` is
/// `run` as the clock read it.
#[derive(Default)]
pub struct Timings {
    pub setup: Vec<f64>,
    pub run: Vec<f64>,
    pub run_wall: Vec<f64>,
}

impl Timings {
    /// Record a round measured since the previous probe, taking the
    /// next: its unit's run time, and the set-up times of its unit and of
    /// the extra set-ups made after it. Set-ups are spread over the run
    /// like the units, because their time drifts with the run's phase.
    pub fn push(&mut self, probe: &mut calib::Probe, setups_s: &[f64], run_s: f64) {
        let k = probe.next_factor();
        self.setup.extend(setups_s.iter().map(|s| s * k));
        self.run.push(run_s * k);
        self.run_wall.push(run_s);
    }

    /// Set the end-to-end timings, their sample counts, the unscaled run
    /// time and the median probe time; returns `run_s`.
    pub fn report(&self, probe: &calib::Probe, out: &mut Outcome) -> f64 {
        let run_s = stats::median(&self.run).expect("a timed unit");
        out.set("setup_s", stats::median(&self.setup).expect("set-ups"));
        out.set("run_s", run_s);
        out.set("setup_s.n", self.setup.len() as f64);
        out.set("run_s.n", self.run.len() as f64);
        out.set(
            "run_wall_s",
            stats::median(&self.run_wall).expect("a timed unit"),
        );
        out.set(
            "bench.probe_s",
            stats::median(&probe.times).expect("probes"),
        );
        print_samples("run_s", &self.run);
        print_samples("run_wall_s", &self.run_wall);
        print_samples("probe_s", &probe.times);
        run_s
    }
}

/// Self time of each layer as a share of the traced phase.
fn set_self_fracs(out: &mut Outcome, tr: &Tracer) {
    let (by_layer, roots) = tr.self_times();
    for (layer, ns) in &by_layer {
        let name = report::per_layer()
            .iter()
            .map(|d| d.name)
            .find(|n| n.strip_prefix("self_frac.") == Some(layer))
            .unwrap_or_else(|| panic!("no self_frac metric for layer {layer}"));
        out.set(name, *ns as f64 / roots.max(1) as f64);
    }
    out.set("bench.spans", tr.spans().len() as f64);
}

/// Peak resident set of this process (one workload per process).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let seconds = opts.seconds as f64;
    let mut out = Outcome::default();
    let mut tr = Tracer::new(false);
    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let (seed, traced) = (opts.seed, opts.trace);
    let (silo, tcp) = (TransportMode::Silo, TransportMode::Tcp);
    match opts.workload {
        "ns2_silo" => ns2::run(silo, seed, seconds, traced, &mut tr, &mut out),
        "ns2_tcp" => ns2::run(tcp, seed, seconds, traced, &mut tr, &mut out),
        "flow_fairshare" => {
            flow::run(seconds, traced, &mut tr, &mut out);
            if traced {
                admission::layers(seed, &mut tr, &mut out);
            }
        }
        w => unreachable!("workload {w} passed parsing"),
    }
    if opts.trace {
        set_self_fracs(&mut out, &tr);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.tsv", opts.workload, opts.seed));
        match tr.write_tsv(&path, opts.workload) {
            Ok(()) => println!("# {} spans -> {}", tr.spans().len(), path.display()),
            Err(e) => out.check(false, 0, || format!("writing spans: {e}")),
        }
    } else {
        match peak_rss_mb() {
            Some(mb) => out.set("peak_rss_mb", mb),
            None => out.check(false, 0, || "no VmHWM in /proc/self/status".into()),
        }
    }
    if !out.print(opts.trace) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rounds_warm_up_then_alternate() {
        let kinds = |traced| (0..5).map(|i| Round::of(i, traced)).collect::<Vec<_>>();
        use Round::*;
        assert_eq!(kinds(false), [Warmup, Timed, Timed, Timed, Timed]);
        assert_eq!(kinds(true), [Warmup, Timed, Traced, Timed, Traced]);
        assert!(!done(2, 100.0, 1.0));
        assert!(done(3, 30.0, 30.0));
        assert!(!done(3, 15.0, 30.0));
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args("--workload ns2_tcp --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            o,
            Opts {
                workload: "ns2_tcp",
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(&args("--workload ns2_tcp --seed 1 --seconds 0")).is_err());
        assert!(parse(&args("--workload ns2_tcp --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse(&args("--workload ns2_tcp --seed 1")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
