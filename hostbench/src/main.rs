//! `hostbench`: the end-to-end host-time benchmark of the Nephele
//! reproduction (see README.md for the workloads and metrics).
//!
//! One invocation runs one workload in this process, on one thread, as a
//! closed loop: each platform call is issued when the previous one
//! returns. Rounds repeat on fresh platforms until `--seconds` have
//! passed. The last line of standard output is the JSON result; the exit
//! code is non-zero when any correctness check failed.

mod measure;
mod report;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use measure::REFERENCE_NS;
use report::{end_to_end, per_layer, Outcome};
use workloads::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: hostbench --workload <density_replay|udp_family|boot_restore|fuzz_reset|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Environment variables `Platform::new` reads: each would silently
/// change what is measured.
const PLATFORM_ENV: [&str; 5] = [
    "NEPHELE_THREADS",
    "NEPHELE_TRACE",
    "NEPHELE_TRACE_MODE",
    "NEPHELE_AUDIT",
    "NEPHELE_FLIGHTREC",
];

/// Set-up samples behind `setup_s`, the rounds' own included.
const SETUP_SAMPLES: usize = 9;

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse(),
            }
            .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// Pins glibc's allocator thresholds, which otherwise adapt to the
/// allocation history. Freed memory is then kept and reused by the next
/// round instead of being returned to the kernel and faulted in again,
/// so set-up and op times do not depend on what earlier rounds freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters and is safe to
    // call at any time; this runs before the process spawns any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PLATFORM_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("hostbench: refusing to run with {var} set: the platform would read it");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("hostbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = run(
        w,
        args.seed,
        w.size(),
        Duration::from_secs(args.seconds),
        args.trace,
    );
    for m in &outcome.metrics {
        println!("{} {} = {} {}", w.name(), m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::from(outcome.exit_code() as u8)
}

/// Runs rounds of `w` until `budget` has passed and at least three (four
/// when tracing) are done, timing the reference work around each. A
/// first warm-up round fills the allocator's free memory; it is checked
/// but not measured. With `trace`, every other round runs with the trace
/// sink on, and per-layer metrics are reported instead of the end-to-end
/// ones.
fn run(w: Workload, seed: u64, size: u32, budget: Duration, trace: bool) -> Outcome {
    let min_rounds = if trace { 4 } else { 3 };
    let started = Instant::now();
    let (warmup, _) = w.round(seed, size, false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut refs = Vec::new();
    let last = loop {
        let tracing = trace && untraced.len() > traced.len();
        let before = measure::reference_ns();
        let (mut round, platform) = w.round(seed, size, tracing);
        let after = measure::reference_ns();
        round.scale = 2.0 * REFERENCE_NS / (before + after) as f64;
        refs.extend([before, after]);
        eprintln!(
            "hostbench: {} round {}{}: {:.0} ops/s, op p50 {} ns, set-up {:.6} s, reference {} ns",
            w.name(),
            untraced.len() + traced.len() + 1,
            if tracing { " (traced)" } else { "" },
            round.ops as f64 * 1e9 / round.wall_ns.max(1) as f64,
            round.op.p50_ns,
            round.setup_s,
            (before + after) / 2
        );
        if tracing {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        if started.elapsed() >= budget && untraced.len() + traced.len() >= min_rounds {
            break platform;
        }
    };
    let t0 = Instant::now();
    let audit = last.audit();
    let audit_s = t0.elapsed().as_secs_f64();
    drop(last);
    if !audit.is_clean() {
        eprintln!("hostbench: audit after the last round failed:\n{audit}");
    }
    let reference_ns = measure::percentile(&mut refs, 50.0);
    println!(
        "{} seed {seed}: {} rounds of {size} ({} traced), digest {:#018x}, reference work {reference_ns} ns",
        w.name(),
        untraced.len() + traced.len(),
        traced.len(),
        untraced[0].digest
    );

    let metrics = if trace {
        per_layer(&untraced, &traced, audit_s, reference_ns)
    } else {
        let mut setups: Vec<f64> = untraced.iter().map(|r| r.setup_s * r.scale).collect();
        while setups.len() < SETUP_SAMPLES {
            let scale = REFERENCE_NS / measure::reference_ns() as f64;
            setups.push(w.setup_s(seed, size) * scale);
        }
        end_to_end(&untraced, &setups)
    };
    let rounds = [&warmup].into_iter().chain(&untraced).chain(&traced);
    Outcome::new(rounds, audit.is_clean(), metrics)
}

/// Runs every workload in a fresh process of its own, so each one's
/// peak memory is its own. Fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("hostbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round sizes small enough for a debug-build test.
    fn smoke_size(w: Workload) -> u32 {
        match w {
            Workload::Density => 2_000,
            Workload::Udp => 200,
            Workload::Boot => 300,
            Workload::Fuzz => 5_000,
        }
    }

    /// Two untraced rounds and a traced one must agree on the digest,
    /// pass every check and leave an audit-clean platform.
    fn digest_repeats(w: Workload) {
        let size = smoke_size(w);
        let (a, _) = w.round(7, size, false);
        let (b, _) = w.round(7, size, false);
        let (traced, p) = w.round(7, size, true);
        assert_eq!(a.digest, b.digest, "{}: untraced rounds differ", w.name());
        assert_eq!(
            a.digest,
            traced.digest,
            "{}: tracing changed the digest",
            w.name()
        );
        assert!(a.ops > 0 && a.op.count > 0, "{}: no ops measured", w.name());
        let outcome = Outcome::new([&a, &b, &traced], p.audit().is_clean(), Vec::new());
        assert_eq!(
            (outcome.failed, outcome.exit_code()),
            (0, 0),
            "{}",
            w.name()
        );
    }

    #[test]
    fn density_digest_repeats() {
        digest_repeats(Workload::Density);
    }

    #[test]
    fn udp_digest_repeats() {
        digest_repeats(Workload::Udp);
    }

    #[test]
    fn boot_digest_repeats() {
        digest_repeats(Workload::Boot);
    }

    #[test]
    fn fuzz_digest_repeats() {
        digest_repeats(Workload::Fuzz);
    }

    /// Metric names of one section of BENCHMARK.json.
    fn spec_names(section: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let body = &spec[spec
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn result_lines_carry_exactly_the_metrics_of_benchmark_json() {
        let w = Workload::Fuzz;
        let (untraced, _) = w.round(3, smoke_size(w), false);
        let (traced, _) = w.round(3, smoke_size(w), true);
        for (section, metrics) in [
            (
                "end_to_end",
                end_to_end(std::slice::from_ref(&untraced), &[untraced.setup_s]),
            ),
            (
                "per_layer",
                per_layer(
                    std::slice::from_ref(&untraced),
                    std::slice::from_ref(&traced),
                    0.1,
                    5_000_000,
                ),
            ),
        ] {
            let json = Outcome::new([&untraced], true, metrics.clone()).json();
            let want = spec_names(section);
            for name in &want {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{section}: {name} missing"
                );
            }
            let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                got, want,
                "{section}: the result line and BENCHMARK.json disagree"
            );
        }
    }

    #[test]
    fn command_line_arguments_parse() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            args("--workload fuzz_reset --seed 0x2a --seconds 3 --trace 1"),
            Ok(Args {
                workload: "fuzz_reset".into(),
                seed: 42,
                seconds: 3,
                trace: true,
            })
        );
        assert!(args("--workload fuzz_reset --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload fuzz_reset --bogus 1").is_err());
    }
}
