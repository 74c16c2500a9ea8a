//! Simnet engine benchmark: event-loop throughput of the default engine,
//! sweep-level parallel speedup and the wall-clock cost of each observer —
//! written to `BENCH_simnet.json` in the current directory.
//!
//! Up to five phases run the **same** `(mode × seed)` cell grid:
//!
//! 1. `wheel/t1`     — the default engine, one thread;
//! 2. `wheel/tN`     — the default engine, one worker per core (skipped
//!    when N is 1: it would repeat `wheel/t1`);
//! 3. `audit/t1`     — the invariant-audit layer on (its wall-clock
//!    overhead and counters go into the report);
//! 4. `trace/t1`     — the flight recorder on (its wall-clock overhead and
//!    event counts go into the report);
//! 5. `telemetry/t1` — the windowed telemetry recorder on (1 ms windows;
//!    its wall-clock overhead goes into the report and is asserted under
//!    15%).
//!
//! Canonical results (physics and engine counters) are asserted
//! byte-identical across all phases: thread count and observers must not
//! move a byte.
//!
//! `--profile` instead runs one Silo cell (audit on) and prints the
//! per-event-kind scheduled/fired/cancelled table, per-tenant streaming
//! latency histograms, and the audit summary, failing if the cancellation
//! layer did no work or the audit flags a healthy run — the CI smoke test
//! that both stay live.

use silo_bench::ns2::{ns2_cells, run_ns2_cell_with_engine, EngineOpts, Ns2Cell};
use silo_bench::{auto_threads, run_cells_timed, Args, BenchCell, BenchReport};
use silo_simnet::TransportMode;
use std::time::Instant;

struct Phase {
    report: BenchReport,
    /// Full canonical fingerprints (physics + engine counters).
    canonical: Vec<String>,
    /// Summed invariant-audit counters (zeros unless the phase audits).
    audit_events: u64,
    audit_violations: u64,
    audit_unattributed: u64,
    /// Summed flight-recorder counters (zeros unless the phase traces).
    trace_events: u64,
    trace_dropped: u64,
    /// Summed telemetry window counts (zeros unless the phase records).
    telemetry_windows: u64,
    /// Per-tenant latency quantiles of the phase's first cell:
    /// `(tenant, msgs, p50, p90, p99, max)` in ps.
    tenant_latency: Vec<(u16, u64, u64, u64, u64, u64)>,
}

fn run_phase(tag: &str, cells: &[Ns2Cell], args: &Args, eng: EngineOpts, threads: usize) -> Phase {
    let t0 = Instant::now();
    let timed = run_cells_timed(cells, threads, |_, c: &Ns2Cell| {
        run_ns2_cell_with_engine(c, args, eng)
    });
    let total_wall_s = t0.elapsed().as_secs_f64();
    let mut bench_cells = Vec::with_capacity(cells.len());
    let mut canonical = Vec::with_capacity(cells.len());
    let (mut audit_events, mut audit_violations, mut audit_unattributed) = (0u64, 0u64, 0u64);
    let (mut trace_events, mut trace_dropped) = (0u64, 0u64);
    let mut telemetry_windows = 0u64;
    for (cell, t) in cells.iter().zip(&timed) {
        let (_, m) = &t.result;
        bench_cells.push(BenchCell {
            label: format!("{}/{}/seed{}", tag, cell.mode.label(), cell.seed),
            wall_s: t.wall.as_secs_f64(),
            events: m.events_processed,
            peak_event_queue: m.peak_event_queue,
        });
        canonical.push(m.canonical_json());
        if let Some(a) = &m.audit {
            audit_events += a.events_checked;
            audit_violations += a.total();
            audit_unattributed += a.unattributed;
        }
        if let Some(t) = &m.trace {
            trace_events += t.events.len() as u64;
            trace_dropped += t.dropped;
        }
        if let Some(tl) = &m.telemetry {
            telemetry_windows += tl.windows;
        }
    }
    // Per-tenant latency quantiles from the phase's first cell (the
    // grid's Silo cell at the base seed) — the streaming histograms are
    // always on, so this is free.
    let m0 = &timed[0].result.1;
    let mut tenant_latency: Vec<(u16, u64, u64, u64, u64, u64)> = (0..m0.latency_hist.len() as u16)
        .filter_map(|t| {
            m0.latency_hist(t).filter(|h| !h.is_empty()).map(|h| {
                (
                    t,
                    h.count(),
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.90).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                )
            })
        })
        .collect();
    tenant_latency.sort_by_key(|&(t, _, _, _, p99, _)| (std::cmp::Reverse(p99), t));
    Phase {
        report: BenchReport {
            name: format!("simnet_{}", tag.replace('/', "_")),
            notes: String::new(),
            host_cores: auto_threads(usize::MAX),
            threads,
            total_wall_s,
            cells: bench_cells,
        },
        canonical,
        audit_events,
        audit_violations,
        audit_unattributed,
        trace_events,
        trace_dropped,
        telemetry_windows,
        tenant_latency,
    }
}

/// `--profile`: one Silo cell on the default engine, profile table to
/// stdout. Exits nonzero when no timer was ever cancelled — that would
/// mean superseded timers are no longer removed from the queue.
fn profile_smoke(args: &Args) -> ! {
    let cell = Ns2Cell {
        mode: TransportMode::Silo,
        run: 0,
        seed: args.seed,
    };
    let eng = EngineOpts {
        audit: true,
        telemetry: true,
        ..EngineOpts::default()
    };
    let (_, m) = run_ns2_cell_with_engine(&cell, args, eng);
    println!(
        "Silo/seed{} ({} ms sim): {} events, peak queue {}",
        args.seed, args.duration_ms, m.events_processed, m.peak_event_queue
    );
    print!("{}", m.profile.to_table());
    print!(
        "\n{}",
        m.telemetry
            .as_ref()
            .expect("profile runs telemetry")
            .self_profile
            .to_table()
    );
    // Streaming per-tenant latency histograms: always on, fixed memory,
    // exact min/max/mean with ≤3.2% quantile error (sub_bits = 5). The
    // noisiest tenants by p99 head the list.
    println!(
        "\n{} messages over {} tenants (streaming histograms):",
        m.messages_total,
        m.latency_hist.len()
    );
    let mut order: Vec<u16> = (0..m.latency_hist.len() as u16)
        .filter(|&t| m.latency_hist(t).is_some_and(|h| !h.is_empty()))
        .collect();
    order.sort_by_key(|&t| std::cmp::Reverse(m.latency_hist(t).unwrap().quantile(0.99)));
    for &t in order.iter().take(8) {
        let h = m.latency_hist(t).unwrap();
        let q = |p: f64| h.quantile(p).unwrap_or(0) as f64 / 1e6;
        println!(
            "  tenant {t:<3} {:>7} msgs  p50 {:>9.1} us  p90 {:>9.1} us  p99 {:>9.1} us  p99.9 {:>9.1} us  max {:>9.1} us",
            h.count(),
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            h.max().unwrap_or(0) as f64 / 1e6,
        );
    }
    if order.len() > 8 {
        println!("  ... {} more tenants", order.len() - 8);
    }
    let report = m.audit.as_ref().expect("profile runs audit");
    println!("{}", report.summary());
    if !report.is_clean() {
        eprintln!("FAIL: invariant audit found violations on a healthy run");
        std::process::exit(1);
    }
    let cancelled = m.profile.total_cancelled();
    if cancelled == 0 {
        eprintln!("FAIL: no timers were cancelled — the cancellation layer is dead");
        std::process::exit(1);
    }
    println!("profile smoke OK: {cancelled} cancelled");
    std::process::exit(0);
}

fn main() {
    let args = Args::parse();
    if args.profile {
        profile_smoke(&args);
    }
    let modes = [
        TransportMode::Silo,
        TransportMode::Tcp,
        TransportMode::Dctcp,
    ];
    let cells = ns2_cells(&modes, &args);
    let cores = auto_threads(usize::MAX);
    let par_threads = args.effective_threads(cells.len());

    eprintln!(
        "bench_simnet: {} cells ({} modes x {} seeds), {} ms sim time, {} cores",
        cells.len(),
        modes.len(),
        args.runs,
        args.duration_ms,
        cores
    );

    let wheel = EngineOpts::default();
    let audit_eng = EngineOpts {
        audit: true,
        ..wheel
    };
    let trace_eng = EngineOpts {
        trace: true,
        ..wheel
    };
    let telemetry_eng = EngineOpts {
        telemetry: true,
        ..wheel
    };
    let wheel1 = run_phase("wheel/t1", &cells, &args, wheel, 1);
    let wheeln = (par_threads > 1).then(|| {
        run_phase(
            &format!("wheel/t{par_threads}"),
            &cells,
            &args,
            wheel,
            par_threads,
        )
    });
    let audit1 = run_phase("audit/t1", &cells, &args, audit_eng, 1);
    let trace1 = run_phase("trace/t1", &cells, &args, trace_eng, 1);
    let telemetry1 = run_phase("telemetry/t1", &cells, &args, telemetry_eng, 1);

    // Canonical results (engine counters included) must not move across
    // thread counts or with any observer attached.
    if let Some(wheeln) = &wheeln {
        assert_eq!(
            wheel1.canonical, wheeln.canonical,
            "thread count changed results"
        );
    }
    // The invariant-audit layer is pure observation: same physics, same
    // engine counters, and zero unattributed violations on healthy cells.
    assert_eq!(
        audit1.canonical, wheel1.canonical,
        "audit layer changed physical results"
    );
    assert_eq!(
        audit1.audit_unattributed, 0,
        "healthy ns2 cells reported unattributed audit violations"
    );
    assert!(audit1.audit_events > 0, "audit phase checked no events");
    // The flight recorder is pure observation too: canonical results are
    // byte-identical with tracing on, and the rings actually recorded.
    assert_eq!(
        trace1.canonical, wheel1.canonical,
        "flight recorder changed physical results"
    );
    assert!(trace1.trace_events > 0, "trace phase recorded no events");
    // The windowed telemetry recorder is the third pure observer:
    // canonical results byte-identical with it on, and every cell
    // produced its full window grid.
    assert_eq!(
        telemetry1.canonical, wheel1.canonical,
        "telemetry recorder changed physical results"
    );
    assert_eq!(
        telemetry1.telemetry_windows,
        args.duration_ms * cells.len() as u64,
        "every cell must record one window per simulated millisecond"
    );

    let parallel_speedup = wheeln
        .as_ref()
        .map(|p| wheel1.report.total_wall_s / p.report.total_wall_s);
    let audit_overhead = audit1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    let trace_overhead = trace1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    let telemetry_overhead = telemetry1.report.cell_wall_s() / wheel1.report.cell_wall_s();
    assert!(
        telemetry_overhead < 1.15,
        "telemetry at 1 ms windows must stay under 15% wall overhead ({telemetry_overhead:.3}x)"
    );

    let parallel = match parallel_speedup {
        Some(x) => format!("{par_threads}-thread sweep speedup {x:.2}x over 1 thread"),
        None => "no parallel phase (one worker)".to_string(),
    };
    let notes = format!(
        "{parallel} on a {cores}-core host; invariant audit {:.2}x wall-clock, \
         {} events checked, {} violations ({} unattributed); flight recorder \
         {:.2}x wall-clock, {} events retained ({} evicted from rings); \
         windowed telemetry {:.2}x wall-clock at 1 ms windows ({} windows \
         recorded); canonical results byte-identical across thread counts, \
         audit on/off, trace on/off and telemetry on/off",
        audit_overhead,
        audit1.audit_events,
        audit1.audit_violations,
        audit1.audit_unattributed,
        trace_overhead,
        trace1.trace_events,
        trace1.trace_dropped,
        telemetry_overhead,
        telemetry1.telemetry_windows
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"name\": \"simnet\",\n");
    out.push_str(&format!(
        "  \"notes\": \"{}\",\n",
        notes.replace('"', "\\\"")
    ));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"sim_duration_ms\": {}, \"scale\": {}, \"cells\": {},\n",
        args.duration_ms,
        args.scale,
        cells.len()
    ));
    if let Some(x) = parallel_speedup {
        out.push_str(&format!("  \"parallel_speedup_t{par_threads}\": {x:.3},\n"));
    }
    out.push_str(&format!(
        "  \"audit_wall_overhead\": {audit_overhead:.3},\n"
    ));
    out.push_str(&format!(
        "  \"audit_events_checked\": {}, \"audit_violations\": {}, \
         \"audit_unattributed\": {},\n",
        audit1.audit_events, audit1.audit_violations, audit1.audit_unattributed
    ));
    out.push_str(&format!(
        "  \"trace_wall_overhead\": {trace_overhead:.3},\n"
    ));
    out.push_str(&format!(
        "  \"trace_events_retained\": {}, \"trace_events_evicted\": {},\n",
        trace1.trace_events, trace1.trace_dropped
    ));
    out.push_str(&format!(
        "  \"telemetry_wall_overhead\": {telemetry_overhead:.3},\n"
    ));
    out.push_str(&format!(
        "  \"telemetry_windows_recorded\": {},\n",
        telemetry1.telemetry_windows
    ));
    // Per-tenant latency quantiles of the default engine's Silo cell
    // (worst p99 first) — the JSON face of `--profile`'s histogram table.
    out.push_str("  \"tenant_latency_us\": [\n");
    for (i, &(t, msgs, p50, p90, p99, max)) in wheel1.tenant_latency.iter().take(8).enumerate() {
        out.push_str(&format!(
            "    {{\"tenant\": {t}, \"msgs\": {msgs}, \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}}{}\n",
            p50 as f64 / 1e6,
            p90 as f64 / 1e6,
            p99 as f64 / 1e6,
            max as f64 / 1e6,
            if i + 1 < wheel1.tenant_latency.len().min(8) { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"phases\": [\n");
    let mut phases = vec![&wheel1];
    phases.extend(wheeln.as_ref());
    phases.extend([&audit1, &trace1, &telemetry1]);
    for (i, p) in phases.iter().enumerate() {
        for line in p.report.to_json().trim_end().lines() {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        if i + 1 < phases.len() {
            let last = out.pop();
            debug_assert_eq!(last, Some('\n'));
            out.push_str(",\n");
        }
    }
    out.push_str("  ]\n}\n");

    std::fs::write("BENCH_simnet.json", &out).expect("write BENCH_simnet.json");
    eprintln!("{notes}");
    eprintln!("wrote BENCH_simnet.json");
}
