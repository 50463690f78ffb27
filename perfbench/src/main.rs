//! The repository benchmark. See `README.md` next to `Cargo.toml` for
//! the workloads, the metrics and the layer → metric → workload map.
//!
//! ```text
//! protest-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints detail lines starting with `#`, then one JSON result line.

mod analyze;
mod check;
mod layers;
mod optimize;
mod report;
mod serve;
mod stats;

use std::time::{Duration, Instant};

use protest_netlist::Circuit;
use protest_sim::{Fault, FaultSim, WeightedRandomPatterns};

use report::Report;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["analyze-mesh", "analyze-lanes", "optimize-div", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The set-ups timed in one run, for `setup_s`. The host's speed drifts
/// over seconds, so a workload repeats its set-up between the timed ops
/// too, and the median then spans the run the way the op median does.
#[derive(Default)]
pub struct SetupClock {
    times_s: Vec<f64>,
}

impl SetupClock {
    /// Runs one set-up, records its wall-clock and returns what it made.
    pub fn time<T>(&mut self, make: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let made = make();
        self.times_s.push(t.elapsed().as_secs_f64());
        made
    }

    /// Runs `reps` set-ups whose results are dropped.
    pub fn repeat<T>(&mut self, reps: usize, mut make: impl FnMut() -> T) {
        for _ in 0..reps {
            std::hint::black_box(self.time(&mut make));
        }
    }

    /// Seconds spent in set-ups so far.
    pub fn total_s(&self) -> f64 {
        self.times_s.iter().sum()
    }

    pub fn median_s(&self) -> f64 {
        stats::median(&self.times_s)
    }
}

/// Whether the timed loop that started at `t0` should start another op:
/// always before the first, and after that only while one more op, as
/// long as the median so far (`times_ms`), still ends within `budget`.
/// So a run's wall-clock stays near its budget, whatever the op length.
pub fn another_fits(t0: Instant, budget: Duration, times_ms: &[f64]) -> bool {
    times_ms.is_empty()
        || t0.elapsed() + Duration::from_secs_f64(stats::median(times_ms) / 1e3) <= budget
}

/// Mean |P_PROT − P_SIM| over a fault sample: `P_SIM` from the Table 1
/// pipeline, detection-counting fault simulation (no dropping) of seeded
/// weighted random patterns.
pub fn accuracy(
    circuit: &Circuit,
    faults: &[Fault],
    p_prot: &[f64],
    probs: &[f64],
    seed: u64,
    patterns: u64,
) -> f64 {
    let mut src = WeightedRandomPatterns::new(probs, seed);
    let p_sim = FaultSim::new(circuit)
        .count_detections(faults, &mut src, patterns)
        .probabilities();
    let errs: Vec<f64> = p_prot
        .iter()
        .zip(&p_sim)
        .map(|(a, b)| (a - b).abs())
        .collect();
    stats::mean(&errs)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The daemon's analyzers resolve their thread count from here; the
    // analysis workloads set theirs explicitly. Set before any thread runs.
    std::env::set_var("PROTEST_THREADS", "1");
    let r = match args.workload.as_str() {
        "analyze-mesh" => analyze::run(&analyze::MESH, args.seed, args.seconds, args.trace),
        "analyze-lanes" => analyze::run(&analyze::LANES, args.seed, args.seconds, args.trace),
        "optimize-div" => optimize::run(args.seed, args.seconds, args.trace),
        "serve-mix" => serve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated"),
    };
    print(&args, &r);
}

fn print(args: &Args, r: &Report) {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &r.notes {
        println!("# {line}");
    }
    println!(
        "# fail_frac = {} / {} = {}",
        r.tally.failed,
        r.tally.attempted,
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64
    );
    for m in r.tally.messages.iter().chain(&r.extra_failures) {
        println!("# failure: {m}");
    }
    println!("{}", r.result_line(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve-mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve-mix --seed x").is_err());
        assert!(args("--workload serve-mix --seconds").is_err());
    }

    #[test]
    fn the_loop_stops_before_an_op_would_overrun() {
        let t0 = Instant::now();
        let budget = Duration::from_secs(10);
        assert!(another_fits(t0, budget, &[]));
        assert!(another_fits(t0, budget, &[1.0, 2.0]));
        assert!(!another_fits(t0, budget, &[9000.0, 12_000.0, 11_000.0]));
        assert!(another_fits(t0, Duration::ZERO, &[]));
    }
}
