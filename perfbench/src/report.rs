//! The metric catalogue and the one-line JSON result.
//!
//! `END_TO_END` and `per_layer()` list every metric the benchmark emits,
//! in the order `BENCHMARK.json` declares them (a self-test keeps the two
//! in step). An untraced run prints every end-to-end metric; a traced run
//! prints every per-layer metric. A layer the workload never calls reads
//! 0 (its counters did not move), so every workload prints the same set.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("run_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Event kinds broken out per layer, as `simnet::EvKind` labels them.
pub const EV_KINDS: [&str; 6] = [
    "arrive",
    "port_free",
    "nic_pull",
    "rto",
    "pace_resume",
    "hose_epoch",
];

macro_rules! per_kind {
    ($prefix:literal, $unit:literal) => {
        [
            m(concat!($prefix, "arrive"), $unit, "lower"),
            m(concat!($prefix, "port_free"), $unit, "lower"),
            m(concat!($prefix, "nic_pull"), $unit, "lower"),
            m(concat!($prefix, "rto"), $unit, "lower"),
            m(concat!($prefix, "pace_resume"), $unit, "lower"),
            m(concat!($prefix, "hose_epoch"), $unit, "lower"),
        ]
    };
}

pub const FIRED: [MetricDef; 6] = per_kind!("simnet.fired.", "count");
pub const SCHEDULED: [MetricDef; 6] = per_kind!("simnet.scheduled.", "count");
pub const SHARE: [MetricDef; 6] = per_kind!("simnet.dispatch_share.", "frac");

const LAYERS: &[MetricDef] = &[
    // Sample counts of the two end-to-end timings.
    m("setup_s.n", "count", "higher"),
    m("run_s.n", "count", "higher"),
    // `run_s` as the clock read it, and the host-speed probe it is
    // scaled by.
    m("run_wall_s", "s", "lower"),
    m("bench.probe_s", "s", "lower"),
    // Event queue.
    m("eventq.scheduled", "count", "lower"),
    m("eventq.fired", "count", "lower"),
    m("eventq.cancelled", "count", "lower"),
    m("eventq.peak", "count", "lower"),
    m("eventq.ns_per_event", "ns", "lower"),
    // Packet simulator calls.
    m("simnet.new_s", "s", "lower"),
    m("simnet.new_s.n", "count", "higher"),
    m("simnet.run_s", "s", "lower"),
    m("simnet.run_s.n", "count", "higher"),
    // Pacer, ports, transport.
    m("pacer.wire_data_bytes", "bytes", "higher"),
    m("pacer.wire_void_bytes", "bytes", "lower"),
    m("pacer.void_frac", "frac", "lower"),
    m("pacer.token_violations", "count", "lower"),
    m("port.drops", "count", "lower"),
    m("tcp.rtos", "count", "lower"),
    // Observers.
    m("audit.events_checked", "count", "higher"),
    m("audit.overhead", "x", "lower"),
    m("trace.events_retained", "count", "higher"),
    m("trace.events_evicted", "count", "lower"),
    m("trace.overhead", "x", "lower"),
    m("telemetry.windows", "count", "higher"),
    m("telemetry.overhead", "x", "lower"),
    // Admission service and placement.
    m("admit_p50_us", "us", "lower"),
    m("admit_p99_us", "us", "lower"),
    m("admit_n", "count", "higher"),
    m("admissions_per_s", "1/s", "higher"),
    m("placement.admit_accept_us.p99", "us", "lower"),
    m("placement.admit_accept_us.n", "count", "higher"),
    m("placement.admit_reject_us.p99", "us", "lower"),
    m("placement.admit_reject_us.n", "count", "higher"),
    m("placement.evict_us.p99", "us", "lower"),
    m("placement.evict_us.n", "count", "higher"),
    m("placement.fail_link_us.mean", "us", "lower"),
    m("placement.fail_link_us.n", "count", "higher"),
    m("placement.mask_rebuilds", "count", "lower"),
    m("placement.resident_tenants", "count", "higher"),
    m("placement.warmup_s", "s", "lower"),
    m("placement.warmup_events", "count", "higher"),
    m("placement.run_s", "s", "lower"),
    m("netcalc.bound_cache_hits", "count", "higher"),
    m("netcalc.bound_cache_misses", "count", "lower"),
    m("netcalc.hit_ratio", "frac", "higher"),
    // Set-up calls.
    m("topology.build_s", "s", "lower"),
    m("topology.build_s.n", "count", "higher"),
    m("workload.churn_generate_s", "s", "lower"),
    m("workload.churn_generate_s.n", "count", "higher"),
    m("scenario.populate_s", "s", "lower"),
    m("scenario.populate_s.n", "count", "higher"),
    // Flow-level simulator.
    m("flowsim.new_s", "s", "lower"),
    m("flowsim.new_s.n", "count", "higher"),
    m("flowsim.run_s", "s", "lower"),
    m("flowsim.run_s.n", "count", "higher"),
    m("flowsim.ms_per_step", "ms", "lower"),
    m("flowsim.offered", "count", "higher"),
    m("flowsim.admitted", "count", "higher"),
    m("flowsim.completed", "count", "higher"),
    m("flowsim.mean_stretch", "x", "lower"),
    // Simulated outputs (deterministic per seed).
    m("msg_p99_norm", "x", "lower"),
    m("msg_n", "count", "higher"),
    m("outlier_frac", "frac", "lower"),
    m("rto_msg_frac", "frac", "lower"),
    m("reject_frac", "frac", "lower"),
    m("utilization", "frac", "higher"),
    // Self time per layer over the traced phase, as shares of it.
    m("self_frac.topology", "frac", "lower"),
    m("self_frac.scenario", "frac", "lower"),
    m("self_frac.simnet", "frac", "lower"),
    m("self_frac.workload", "frac", "lower"),
    m("self_frac.placement", "frac", "lower"),
    m("self_frac.flowsim", "frac", "lower"),
    m("self_frac.check", "frac", "lower"),
    m("self_frac.bench", "frac", "lower"),
    // The benchmark's own tracer.
    m("bench.tracing_overhead", "x", "lower"),
    m("bench.spans", "count", "higher"),
];

/// Every per-layer metric in declaration order.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    v.extend_from_slice(LAYERS);
    v.extend_from_slice(&FIRED);
    v.extend_from_slice(&SCHEDULED);
    v.extend_from_slice(&SHARE);
    v
}

/// What one run measured and whether its outputs passed their checks.
#[derive(Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations run (cells, or admission events) and how many of them
    /// failed an output check.
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(per_layer().iter())
                .any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, v);
    }

    /// Record a check: on failure `ops` operations count as failed.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.attempted > 0
    }

    /// Print the human-readable table and, as the last line, the JSON
    /// result with the metrics of the requested set. Returns whether the
    /// run's outputs were correct.
    pub fn print(&mut self, traced: bool) -> bool {
        let defs: Vec<MetricDef> = if traced {
            per_layer()
        } else {
            END_TO_END.to_vec()
        };
        let mut metrics = Vec::new();
        for d in &defs {
            let v = match self.values.get(d.name) {
                Some(v) => *v,
                // A layer this workload never calls: its counters are 0.
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            if !v.is_finite() {
                self.failed += 1;
                self.failures
                    .push(format!("{} is not finite ({v})", d.name));
            }
            let n = match self.values.get(format!("{}.n", d.name).as_str()) {
                Some(n) => format!(", n={n}"),
                None => String::new(),
            };
            println!(
                "{:<32} {:>22} {:<6} ({} is better{n})",
                d.name,
                fmt_num(v),
                d.unit,
                d.better
            );
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                fmt_num(if v.is_finite() { v } else { 0.0 }),
                d.unit
            ));
        }
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.correct();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// Shortest round-trip decimal: every digit as measured.
fn fmt_num(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit and
    /// are at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<MetricDef> = END_TO_END.iter().copied().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(d.better == "higher" || d.better == "lower");
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        assert!(per_layer().len() <= 128);
        for k in EV_KINDS {
            assert!(seen.contains(format!("simnet.fired.{k}").as_str()));
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(valid_name("a.b-c_9"));
    }

    /// `BENCHMARK.json` declares exactly the catalogue, in order.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = silo_base::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(&per_layer()));
    }

    #[test]
    fn result_line_carries_every_metric() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.5);
        o.set("run_s", 1.25);
        o.set("peak_rss_mb", 12.0);
        o.attempted = 3;
        assert!(o.correct());
        o.check(false, 2, || "boom".into());
        assert!(!o.correct());
        assert_eq!(o.failed, 2);
    }
}
