//! The `protest` command-line tool: probabilistic testability analysis for
//! combinational circuits, after Wunderlich's DAC'85 PROTEST.
//!
//! ```text
//! protest stats    <circuit>                  circuit statistics
//! protest check    <circuit> [options]        static lint + redundancy check
//! protest analyze  <circuit> [options]        testability report
//! protest optimize <circuit> [options]        optimized input probabilities
//! protest tpi      <circuit> --budget K       test-point insertion advisor
//! protest patterns <circuit> [options]        emit a random pattern set
//! protest simulate <circuit> --patterns FILE  fault-simulate a pattern set
//! protest serve    [options]                  analysis-as-a-service daemon
//! ```
//!
//! `check` runs the probability-free static analysis layer: structural
//! lints (constant nets, dead/unobservable logic, dangling inputs,
//! duplicate gates), dominator statistics and the fault-collapsing
//! pipeline (equivalence, then dominance). With `--prove-redundant` it
//! also runs the BDD-backed redundancy prover (node budget set by
//! `--bdd-budget`, chunked over `--threads` workers) and prunes
//! proven-undetectable fault classes from the reported counts; `--json`
//! emits the machine-readable form. Findings never fail the run.
//!
//! `stats --probe` additionally opens an incremental analysis session,
//! nudges one input probability and reports the work the session then
//! does — the forward AND evaluations of the dirty cone, then one full
//! observability sweep and one full fault pass — followed by the
//! telemetry phase tree: a wall-clock breakdown of where the probe's
//! time went (session build, estimator sweeps, propagation, the query
//! passes), aggregated across threads.
//!
//! `--trace FILE` (on any analysis subcommand) arms the zero-overhead
//! tracing layer in `protest-telemetry` for the duration of the run and
//! writes the collected spans as Chrome Trace Event Format JSON — load
//! it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing` to
//! see per-thread nested spans of every analysis phase. Tracing never
//! changes results: armed runs are bit-identical to disarmed runs.
//!
//! `tpi` closes the analyze → modify → re-analyze loop: it scores
//! control/observation test-point candidates analytically, greedily
//! commits up to `--budget` points by rewriting the netlist, and reports
//! the predicted and the re-analyzed test length per committed point.
//! `--dry-run` prints the ranked candidate table without modifying
//! anything; `--out FILE` writes the modified `.bench` netlist.
//!
//! `<circuit>` is an ISCAS-85 `.bench` file, a PDL file when it ends in
//! `.pdl`, a combinational BLIF file when it ends in `.blif`, or one of
//! the built-in circuit names `c17`, `comp24`, `alu`,
//! `mult`, `mult6`, `div8x8`, `div16`. Common options:
//!
//! ```text
//! --prob P          stimulate every input with probability P (default 0.5)
//! --testlen D,E     report N for fraction D, confidence E (repeatable)
//! --hardest K       list the K least testable faults (default 10)
//! --n-target N      optimizer objective parameter (default 10000)
//! --count N         number of patterns to emit (patterns subcommand)
//! --optimized       use optimized probabilities (patterns subcommand)
//! --seed S          RNG seed (default 1)
//! --threads N       analysis worker threads (default: PROTEST_THREADS or
//!                   the machine's available parallelism; results are
//!                   bit-identical at every thread count)
//! --probe           with `stats`: report incremental-session work
//!                   counters after a one-input mutation, plus the
//!                   telemetry phase tree of the probe itself
//! --trace FILE      write a Chrome Trace Event JSON of the run's
//!                   analysis phases (open in Perfetto)
//! --json            check: emit the report as JSON
//! --prove-redundant check: run the BDD-backed redundancy prover
//! --bdd-budget N    check: BDD node budget per proof (default 200000)
//! --budget K        tpi: maximum test points to commit (default 3)
//! --target-d D      tpi: test-length fraction d (default 1.0)
//! --target-e E      tpi: test-length confidence e (default 0.98)
//! --ctrl-prob Q     tpi: pseudo-input weight of control points (default 0.5)
//! --max-candidates M  tpi: candidates surviving into full scoring (128)
//! --dry-run         tpi: rank candidates only, modify nothing
//! --out FILE        tpi: write the modified netlist as .bench
//! ```
//!
//! `serve` starts the long-running analysis daemon (newline-delimited
//! JSON over TCP; the wire protocol is documented in the `protest-serve`
//! crate). Its options:
//!
//! ```text
//! --addr HOST:PORT  bind address (default 127.0.0.1:3585; port 0 = auto)
//! --handlers N      request handler threads (default 4)
//! --workers N       compute permits: analyses running at once on the
//!                   handler threads, across all circuits (default 2)
//! --queue N         requests that may wait for a permit (default 64)
//! --timeout-secs S  per-request wall-clock limit (default 120)
//! --max-circuits N  resident-circuit cap, evict idle circuits LRU-first
//!                   (0 = off)
//! --log-secs S      stats log-line interval, 0 = off (default 30)
//! --self-test       bind an ephemeral port, run a client round-trip
//!                   against every endpoint, drain, and exit
//! ```
//!
//! Exit codes: 0 success, 1 runtime failure (bad circuit, analysis or
//! serve error), 2 usage error (unknown flag/subcommand).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::sync::Arc;

use protest::prelude::*;
use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::report::TestabilityReport;
use protest_core::testlen::required_test_length_fraction;
use protest_core::tpi::{self, TpiParams};
use protest_core::{AnalyzerParams, InputProbs};
use protest_netlist::{parse_bench, parse_blif, parse_pdl, to_bench, CircuitStats};
use protest_serve::ServeConfig;
use protest_sim::{coverage_run, PatternSet, ReplaySource};

/// A typed CLI failure: what went wrong decides the exit code and
/// whether the usage text is worth printing.
#[derive(Debug)]
enum CliError {
    /// Bad flags, missing arguments, unknown subcommand (exit 2).
    Usage(String),
    /// The circuit could not be loaded or parsed (exit 1).
    Circuit(String),
    /// An analysis entry point failed (exit 1).
    Analysis(String),
    /// The serve daemon failed to start or self-test (exit 1).
    Serve(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Circuit(m) => write!(f, "circuit: {m}"),
            CliError::Analysis(m) => write!(f, "analysis: {m}"),
            CliError::Serve(m) => write!(f, "serve: {m}"),
        }
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

fn main() -> ExitCode {
    // Panics must never reach the user as a raw backtrace dump: a custom
    // hook prints a one-line typed error, and `catch_unwind` turns the
    // unwinding into a controlled nonzero exit.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("error: internal: {info}");
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match std::panic::catch_unwind(|| run(&args)) {
        Ok(Ok(output)) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Ok(Err(error)) => {
            eprintln!("error: {error}");
            if matches!(error, CliError::Usage(_)) {
                eprintln!("{USAGE}");
            }
            ExitCode::from(error.exit_code())
        }
        Err(_) => ExitCode::from(70),
    }
}

const USAGE: &str = "\
usage: protest <stats|check|analyze|optimize|tpi|patterns|simulate> <circuit> [options]
       protest serve [--addr HOST:PORT] [--self-test] [options]
options: --prob P  --testlen D,E  --hardest K  --n-target N  --count N
         --optimized  --patterns FILE  --seed S  --threads N  --probe
         --trace FILE  --json  --prove-redundant  --bdd-budget N
         --budget K  --target-d D  --target-e E  --ctrl-prob Q
         --max-candidates M  --dry-run  --out FILE
serve:   --handlers N  --workers N  --queue N  --timeout-secs S
         --max-circuits N  --log-secs S  --self-test";

/// Parsed command-line options.
struct Options {
    prob: f64,
    testlens: Vec<(f64, f64)>,
    hardest: usize,
    n_target: u64,
    count: usize,
    optimized: bool,
    patterns_file: Option<String>,
    seed: u64,
    threads: usize,
    probe: bool,
    trace: Option<String>,
    budget: usize,
    target_d: f64,
    target_e: f64,
    ctrl_prob: f64,
    max_candidates: usize,
    dry_run: bool,
    out: Option<String>,
    json: bool,
    prove_redundant: bool,
    bdd_budget: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            prob: 0.5,
            testlens: Vec::new(),
            hardest: 10,
            n_target: 10_000,
            count: 1000,
            optimized: false,
            patterns_file: None,
            seed: 1,
            threads: 0,
            probe: false,
            trace: None,
            budget: 3,
            target_d: 1.0,
            target_e: 0.98,
            ctrl_prob: 0.5,
            max_candidates: 128,
            dry_run: false,
            out: None,
            json: false,
            prove_redundant: false,
            bdd_budget: 200_000,
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| CliError::Usage("missing subcommand".to_string()))?
        .as_str();
    if command == "serve" {
        return cmd_serve(&args[1..]);
    }
    let path = it
        .next()
        .ok_or_else(|| CliError::Usage("missing circuit file".to_string()))?
        .clone();
    let opts = parse_options(it).map_err(CliError::Usage)?;
    let circuit = Arc::new(load_circuit(&path).map_err(CliError::Circuit)?);
    // Telemetry arms only on request: `--trace FILE` records a Chrome
    // trace of the run; `stats --probe` appends the phase tree. With
    // neither, every span site stays a single relaxed atomic load.
    let want_tree = command == "stats" && opts.probe;
    let armed = opts.trace.is_some() || want_tree;
    if armed {
        protest_telemetry::arm();
    }
    let mut result = match command {
        "stats" => cmd_stats(&circuit, &opts),
        "check" => cmd_check(&circuit, &opts),
        "analyze" => cmd_analyze(&circuit, &opts),
        "optimize" => cmd_optimize(&circuit, &opts),
        "tpi" => cmd_tpi(&circuit, &opts),
        "patterns" => cmd_patterns(&circuit, &opts),
        "simulate" => cmd_simulate(&circuit, &opts),
        other => return Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
    .map_err(CliError::Analysis);
    if armed {
        protest_telemetry::disarm();
        let trace = protest_telemetry::take();
        if let Ok(out) = result.as_mut() {
            if want_tree {
                out.push_str(&trace.phase_tree());
            }
            if let Some(file) = &opts.trace {
                fs::write(file, trace.to_chrome_json())
                    .map_err(|e| CliError::Analysis(format!("{file}: {e}")))?;
                let _ = writeln!(
                    out,
                    "# wrote Chrome trace ({} spans, {} threads) to {file}",
                    trace.spans.len(),
                    trace.threads.len()
                );
            }
        }
    }
    result
}

fn parse_options(mut it: std::slice::Iter<'_, String>) -> Result<Options, String> {
    let mut opts = Options::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--prob" => {
                opts.prob = value("--prob")?
                    .parse()
                    .map_err(|e| format!("--prob: {e}"))?;
            }
            "--testlen" => {
                let v = value("--testlen")?;
                let (d, e) = v
                    .split_once(',')
                    .ok_or(format!("--testlen expects D,E, got `{v}`"))?;
                let d: f64 = d.trim().parse().map_err(|e| format!("--testlen: {e}"))?;
                let e: f64 = e.trim().parse().map_err(|e| format!("--testlen: {e}"))?;
                opts.testlens.push((d, e));
            }
            "--hardest" => {
                opts.hardest = value("--hardest")?
                    .parse()
                    .map_err(|e| format!("--hardest: {e}"))?;
            }
            "--n-target" => {
                opts.n_target = value("--n-target")?
                    .parse()
                    .map_err(|e| format!("--n-target: {e}"))?;
            }
            "--count" => {
                opts.count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
            }
            "--optimized" => opts.optimized = true,
            "--patterns" => opts.patterns_file = Some(value("--patterns")?.clone()),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--probe" => opts.probe = true,
            "--trace" => opts.trace = Some(value("--trace")?.clone()),
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--target-d" => {
                opts.target_d = value("--target-d")?
                    .parse()
                    .map_err(|e| format!("--target-d: {e}"))?;
            }
            "--target-e" => {
                opts.target_e = value("--target-e")?
                    .parse()
                    .map_err(|e| format!("--target-e: {e}"))?;
            }
            "--ctrl-prob" => {
                opts.ctrl_prob = value("--ctrl-prob")?
                    .parse()
                    .map_err(|e| format!("--ctrl-prob: {e}"))?;
            }
            "--max-candidates" => {
                opts.max_candidates = value("--max-candidates")?
                    .parse()
                    .map_err(|e| format!("--max-candidates: {e}"))?;
            }
            "--dry-run" => opts.dry_run = true,
            "--out" => opts.out = Some(value("--out")?.clone()),
            "--json" => opts.json = true,
            "--prove-redundant" => opts.prove_redundant = true,
            "--bdd-budget" => {
                opts.bdd_budget = value("--bdd-budget")?
                    .parse()
                    .map_err(|e| format!("--bdd-budget: {e}"))?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.testlens.is_empty() {
        opts.testlens = vec![(1.0, 0.95), (0.98, 0.98)];
    }
    Ok(opts)
}

fn load_circuit(path: &str) -> Result<Circuit, String> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            // Built-in circuit names double as file-free arguments (CI
            // smoke runs, quick experiments) — one shared resolver with
            // the serve daemon's `builtin:` registry keys.
            return protest::circuits::by_name(path).ok_or(format!("{path}: {e}"));
        }
    };
    let name = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".bench")
        .trim_end_matches(".pdl")
        .trim_end_matches(".blif");
    if path.ends_with(".pdl") {
        parse_pdl(name, &text).map_err(|e| format!("{path}: {e}"))
    } else if path.ends_with(".blif") {
        parse_blif(name, &text).map_err(|e| format!("{path}: {e}"))
    } else {
        parse_bench(name, &text).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_stats(circuit: &Arc<Circuit>, opts: &Options) -> Result<String, String> {
    let mut out = format!("{}\n", CircuitStats::of(circuit));
    let analyzer = analyzer_for(circuit, opts);
    // The probe runs first so that the footprint below includes the
    // estimator ranks its session builds, and the lane
    // sweep before the footprint so that the peak RSS covers all the work.
    let probe = if opts.probe {
        probe_report(circuit, &analyzer)?
    } else {
        String::new()
    };
    let probs = InputProbs::constant(circuit.num_inputs(), opts.prob).map_err(|e| e.to_string())?;
    let lane_sweep = analyzer.lane_sweep(&probs).map_err(|e| e.to_string())?;
    let shape = analyzer.estimator_sweep_shape();
    let mut sum = 0;
    let mut counted = |bytes: usize| {
        sum += bytes;
        bytes
    };
    let _ = writeln!(out, "memory footprint:");
    let _ = writeln!(
        out,
        "  netlist storage:    {} B (flat struct-of-arrays)",
        counted(circuit.flat_storage_bytes())
    );
    let _ = writeln!(
        out,
        "  estimator cones:    {} B (gap-coded node ids per AND, {} shapes shared by {} conditioned ANDs)",
        counted(analyzer.estimator_storage_bytes()),
        shape.shapes,
        shape.conditioned
    );
    if let Some(bytes) = analyzer.estimator_ranks_bytes() {
        let _ = writeln!(
            out,
            "  estimator ranks:    {} B (fanin-depth ranks)",
            counted(bytes)
        );
    }
    let _ = writeln!(
        out,
        "  fault classes:      {} B ({} faults in {} classes, flat members and offsets)",
        counted(analyzer.fault_class_bytes()),
        analyzer
            .class_sizes()
            .iter()
            .map(|&n| n as usize)
            .sum::<usize>(),
        analyzer.faults().len()
    );
    let _ = writeln!(
        out,
        "  partitions:         {} component(s), {} structure class(es), {} B",
        analyzer.partition_count(),
        analyzer.partition_class_count(),
        counted(analyzer.partition_storage_bytes())
    );
    let _ = writeln!(out, "  footprint sum:      {sum} B (the counters above)");
    if let Some(kb) = peak_rss_kb() {
        let _ = writeln!(
            out,
            "  peak RSS (VmHWM):   {kb} kB ({:.1} MiB)",
            kb as f64 / 1024.0
        );
    }
    let _ = writeln!(
        out,
        "estimator sweep: {} of {} ANDs conditioned, {:.1} joining candidates and {:.1} cone nodes per conditioned AND",
        shape.conditioned, shape.ands, shape.mean_joining, shape.mean_inner
    );
    if let Some(sweep) = lane_sweep {
        let _ = writeln!(
            out,
            "lane sweep: {} batches, {} lanes, {:.3} enumeration passes per conditioned lane-AND",
            sweep.batches,
            sweep.lanes,
            sweep.passes_per_conditioned()
        );
    }
    out.push_str(&probe);
    Ok(out)
}

/// The process's peak resident set size in kB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file does not exist.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The `stats --probe` report: opens an incremental session, nudges input
/// 0 and counts the work the session re-did.
fn probe_report(circuit: &Circuit, analyzer: &Analyzer) -> Result<String, String> {
    if circuit.num_inputs() == 0 {
        return Err("--probe needs at least one primary input".to_string());
    }
    let mut out = String::new();
    let probs = InputProbs::uniform(circuit.num_inputs());
    let mut session = analyzer.session(&probs).map_err(|e| e.to_string())?;
    session.fault_detect_probs();
    let cold = session.stats();
    session
        .set_input_prob(0, 0.5 + 1.0 / 16.0)
        .map_err(|e| e.to_string())?;
    session.fault_detect_probs();
    let warm = session.stats();
    let _ = writeln!(out, "incremental probe (input 0: 0.5000 -> 0.5625):");
    let _ = writeln!(
        out,
        "  forward:       {} of {} AND nodes re-evaluated",
        warm.and_evals - cold.and_evals,
        warm.and_nodes
    );
    let _ = writeln!(
        out,
        "  observability: full sweep, {} levels, {} of {} nodes",
        warm.obs_level_evals - cold.obs_level_evals,
        warm.obs_node_evals - cold.obs_node_evals,
        warm.circuit_nodes
    );
    let _ = writeln!(
        out,
        "  faults:        full pass, {} of {} faults estimated",
        warm.fault_evals - cold.fault_evals,
        analyzer.faults().len()
    );
    Ok(out)
}

fn cmd_check(circuit: &Circuit, opts: &Options) -> Result<String, String> {
    let params = protest_core::CheckParams {
        prove_redundant: opts.prove_redundant,
        node_budget: opts.bdd_budget,
        num_threads: opts.threads,
    };
    let report = protest_core::check(circuit, &params);
    if opts.json {
        Ok(report.to_json())
    } else {
        Ok(report.to_string())
    }
}

/// Analyzer honoring the CLI's `--threads` (0 = auto), sharing the
/// loaded circuit.
fn analyzer_for(circuit: &Arc<Circuit>, opts: &Options) -> Analyzer {
    Analyzer::with_params(
        Arc::clone(circuit),
        AnalyzerParams {
            num_threads: opts.threads,
            ..AnalyzerParams::default()
        },
    )
}

fn cmd_analyze(circuit: &Arc<Circuit>, opts: &Options) -> Result<String, String> {
    let analyzer = analyzer_for(circuit, opts);
    let probs = InputProbs::constant(circuit.num_inputs(), opts.prob).map_err(|e| e.to_string())?;
    let analysis = analyzer.run(&probs).map_err(|e| e.to_string())?;
    let report = TestabilityReport::new(&analyzer, &analysis, &opts.testlens, opts.hardest);
    Ok(format!("{report}\n"))
}

fn cmd_optimize(circuit: &Arc<Circuit>, opts: &Options) -> Result<String, String> {
    let analyzer = analyzer_for(circuit, opts);
    let params = OptimizeParams {
        n_target: opts.n_target,
        seed: opts.seed,
        ..OptimizeParams::default()
    };
    let result = HillClimber::new(&analyzer, params)
        .optimize()
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# optimized input probabilities ({} rounds, {} evaluations)",
        result.rounds, result.evaluations
    );
    let w = result.session_stats;
    let _ = writeln!(
        out,
        "# session work: {} mutations, {} AND evals (of {} ANDs/pass), \
         obs {} levels / {} nodes swept, faults {} evaluated",
        w.mutations, w.and_evals, w.and_nodes, w.obs_level_evals, w.obs_node_evals, w.fault_evals
    );
    for (&id, p) in circuit.inputs().iter().zip(result.probs.as_slice()) {
        let _ = writeln!(out, "{} {:.4}", circuit.node_label(id), p);
    }
    // Re-use an incremental session for the post-optimization queries.
    let mut session = analyzer.session(&result.probs).map_err(|e| e.to_string())?;
    for &(d, e) in &opts.testlens {
        let n = required_test_length_fraction(session.fault_detect_probs(), d, e)
            .map_or("unreachable".to_string(), |t| t.patterns.to_string());
        let _ = writeln!(out, "# N(d={d}, e={e}) = {n}");
    }
    Ok(out)
}

/// Formats an optional pattern count (`None` = beyond the search cap).
fn fmt_patterns(n: Option<u64>) -> String {
    n.map_or("unreachable".to_string(), |n| n.to_string())
}

fn tpi_params(circuit: &Circuit, opts: &Options) -> Result<TpiParams, String> {
    let base_probs = if opts.prob == 0.5 {
        None
    } else {
        Some(InputProbs::constant(circuit.num_inputs(), opts.prob).map_err(|e| e.to_string())?)
    };
    Ok(TpiParams {
        analyzer: AnalyzerParams {
            num_threads: opts.threads,
            ..AnalyzerParams::default()
        },
        budget: opts.budget,
        frac_d: opts.target_d,
        conf_e: opts.target_e,
        control_prob: opts.ctrl_prob,
        max_candidates: opts.max_candidates,
        base_probs,
        ..TpiParams::default()
    })
}

fn cmd_tpi(circuit: &Circuit, opts: &Options) -> Result<String, String> {
    let params = tpi_params(circuit, opts)?;
    let mut out = String::new();
    if opts.dry_run {
        let (base, ranked) = tpi::rank(circuit, &params).map_err(|e| e.to_string())?;
        let base_n = base.map(|t| t.patterns);
        let _ = writeln!(
            out,
            "# {}: ranked test-point candidates (dry run; base N(d={}, e={}) = {})",
            circuit.name(),
            opts.target_d,
            opts.target_e,
            fmt_patterns(base_n)
        );
        let _ = writeln!(
            out,
            "{:>4}  {:<16} {:<4} {:>14}  {:>8}",
            "rank", "node", "kind", "predicted N", "delta"
        );
        for (i, cand) in ranked.iter().take(20).enumerate() {
            let predicted = cand.predicted.map(|t| t.patterns);
            let delta = match (base_n, predicted) {
                (Some(b), Some(p)) if b > 0 => {
                    format!("{:+.1}%", 100.0 * (p as f64 - b as f64) / b as f64)
                }
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:>4}  {:<16} {:<4} {:>14}  {:>8}",
                i + 1,
                cand.label,
                cand.spec.kind.mnemonic(),
                fmt_patterns(predicted),
                delta
            );
        }
        return Ok(out);
    }
    let result = tpi::advise(circuit, &params).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "# {}: base N(d={}, e={}) = {}",
        circuit.name(),
        opts.target_d,
        opts.target_e,
        fmt_patterns(result.base_patterns)
    );
    for (i, step) in result.steps.iter().enumerate() {
        let point = match &step.control_input_name {
            Some(ctrl) => format!(
                "{} @ {} (input {ctrl} w={:.2})",
                step.spec.kind, step.label, opts.ctrl_prob
            ),
            None => format!(
                "{} @ {} (output {})",
                step.spec.kind, step.label, step.gate_name
            ),
        };
        let _ = writeln!(
            out,
            "step {}: + {point:<34} predicted N = {:>12}  re-analyzed N = {:>12}  ({} scored, {} rejected)",
            i + 1,
            fmt_patterns(step.predicted_patterns),
            fmt_patterns(step.realized_patterns),
            step.candidates_scored,
            step.rejected_commits,
        );
    }
    if result.stopped_early {
        let _ = writeln!(
            out,
            "# stopped after {} of {} points: no candidate improved the re-analyzed test length",
            result.steps.len(),
            opts.budget
        );
    }
    let final_n = result
        .steps
        .last()
        .map_or(result.base_patterns, |s| s.realized_patterns);
    if let (Some(b), Some(f)) = (result.base_patterns, final_n) {
        let _ = writeln!(
            out,
            "# final N = {f} ({:.1}x shorter), +{} pseudo-inputs, +{} pseudo-outputs",
            b as f64 / f.max(1) as f64,
            result.circuit.num_inputs() - circuit.num_inputs(),
            result.circuit.num_outputs() - circuit.num_outputs(),
        );
    }
    for (&id, &w) in result
        .circuit
        .inputs()
        .iter()
        .zip(&result.weights)
        .skip(circuit.num_inputs())
    {
        let _ = writeln!(
            out,
            "# pseudo-input {} weight {w:.4}",
            result.circuit.node_label(id)
        );
    }
    if let Some(path) = &opts.out {
        fs::write(path, to_bench(&result.circuit)).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "# wrote modified netlist to {path}");
    }
    Ok(out)
}

fn cmd_patterns(circuit: &Arc<Circuit>, opts: &Options) -> Result<String, String> {
    let names: Vec<String> = circuit
        .inputs()
        .iter()
        .map(|&i| circuit.node_label(i))
        .collect();
    let probs = if opts.optimized {
        let analyzer = analyzer_for(circuit, opts);
        let params = OptimizeParams {
            n_target: opts.n_target,
            seed: opts.seed,
            ..OptimizeParams::default()
        };
        HillClimber::new(&analyzer, params)
            .optimize()
            .map_err(|e| e.to_string())?
            .probs
    } else {
        InputProbs::constant(circuit.num_inputs(), opts.prob).map_err(|e| e.to_string())?
    };
    let mut src = WeightedRandomPatterns::new(probs.as_slice(), opts.seed);
    let set = PatternSet::capture(&mut src, opts.count).with_names(names);
    Ok(set.to_text())
}

fn cmd_simulate(circuit: &Arc<Circuit>, opts: &Options) -> Result<String, String> {
    let file = opts
        .patterns_file
        .as_ref()
        .ok_or("simulate needs --patterns FILE")?;
    let text = fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let set = PatternSet::from_text(&text).map_err(|e| e.to_string())?;
    if set.num_inputs() != circuit.num_inputs() {
        return Err(format!(
            "pattern set has {} inputs, circuit has {}",
            set.num_inputs(),
            circuit.num_inputs()
        ));
    }
    let analyzer = Analyzer::new(Arc::clone(circuit));
    let mut src = ReplaySource::new(&set);
    let curve = coverage_run(circuit, analyzer.faults(), &mut src, &[set.len() as u64]);
    Ok(format!(
        "{} patterns, {} collapsed faults, coverage {:.2}%\n",
        set.len(),
        curve.total_faults,
        curve.final_percent()
    ))
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    use std::time::Duration;

    let mut config = ServeConfig {
        addr: "127.0.0.1:3585".to_string(),
        log_every: Some(Duration::from_secs(30)),
        ..ServeConfig::default()
    };
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, CliError>
        where
            T::Err: std::fmt::Display,
        {
            v.parse()
                .map_err(|e| CliError::Usage(format!("{name}: {e}")))
        }
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--handlers" => config.handlers = num("--handlers", value("--handlers")?)?,
            "--workers" => {
                config.workers = num("--workers", value("--workers")?)?;
            }
            "--queue" => config.queue_capacity = num("--queue", value("--queue")?)?,
            "--max-circuits" => {
                config.max_circuits = num("--max-circuits", value("--max-circuits")?)?;
            }
            "--timeout-secs" => {
                let s: f64 = num("--timeout-secs", value("--timeout-secs")?)?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(CliError::Usage("--timeout-secs must be positive".into()));
                }
                config.request_timeout = Duration::from_secs_f64(s);
            }
            "--log-secs" => {
                let s: f64 = num("--log-secs", value("--log-secs")?)?;
                config.log_every = (s > 0.0).then(|| Duration::from_secs_f64(s));
            }
            "--self-test" => self_test = true,
            other => return Err(CliError::Usage(format!("unknown serve option `{other}`"))),
        }
    }
    if self_test {
        // The self-test never wants to collide with a real daemon.
        config.addr = "127.0.0.1:0".to_string();
    }
    let handle = protest_serve::serve(config).map_err(|e| CliError::Serve(format!("bind: {e}")))?;
    println!("protest serve: listening on {}", handle.addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if self_test {
        let report = serve_self_test(handle.addr()).map_err(CliError::Serve)?;
        handle.wait();
        return Ok(report);
    }
    // Serve until a `shutdown` request arrives over the wire, then drain.
    handle.wait();
    Ok(format!(
        "protest serve: drained after {} requests\n",
        handle.metrics().requests_total()
    ))
}

/// One client round-trip against every endpoint, asserting each reply's
/// `ok` flag — the CI smoke path (`protest serve --self-test`).
fn serve_self_test(addr: std::net::SocketAddr) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};

    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |request: &str, want_ok: bool| -> Result<String, String> {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        let want = format!("\"ok\":{want_ok}");
        if !reply.contains(&want) {
            return Err(format!("self-test: `{request}` replied `{}`", reply.trim()));
        }
        Ok(reply)
    };

    let analyze = r#"{"id":2,"op":"analyze","circuit":"builtin:c17","hardest":2}"#;
    roundtrip(r#"{"id":1,"op":"submit","builtin":"c17"}"#, true)?;
    let first = roundtrip(analyze, true)?;
    roundtrip(
        r#"{"id":3,"op":"batch","circuit":"builtin:c17","requests":[{"op":"analyze","prob":0.4},{"op":"check"},{"op":"simulate","patterns":256}]}"#,
        true,
    )?;
    // Pooled sessions come back at the batch's point: the repeat (same
    // id, so the whole line) must move back and give the same bytes.
    let again = roundtrip(analyze, true)?;
    if again != first {
        return Err(format!(
            "self-test: repeated analyze differs after the batch:\n{}\n{}",
            first.trim(),
            again.trim()
        ));
    }
    roundtrip("{not json", false)?;
    roundtrip(r#"{"id":4,"op":"analyze","circuit":"no-such-hash"}"#, false)?;
    let stats = roundtrip(r#"{"id":5,"op":"stats"}"#, true)?;
    roundtrip(r#"{"id":6,"op":"shutdown"}"#, true)?;
    Ok(format!(
        "protest serve: self-test passed (submit, analyze, batch, repeat analyze, error replies, stats, shutdown)\nstats: {stats}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_c17() -> tempfile::TempGuard {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "protest_cli_c17_{}_{unique}.bench",
            std::process::id()
        ));
        fs::write(
            &path,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z1)\nOUTPUT(z2)\n\
             g1 = NAND(a, c)\ng2 = NAND(c, d)\ng3 = NAND(b, g2)\ng4 = NAND(g2, e)\n\
             z1 = NAND(g1, g3)\nz2 = NAND(g3, g4)\n",
        )
        .unwrap();
        tempfile::TempGuard(path)
    }

    mod tempfile {
        pub struct TempGuard(pub std::path::PathBuf);
        impl Drop for TempGuard {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Tests that arm/drain the global telemetry registry must not
    /// interleave, or one could drain the spans another is about to
    /// assert on.
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn stats_and_analyze() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["stats", p])).unwrap();
        assert!(out.contains("6 gates"), "{out}");
        assert!(out.contains("estimator sweep: "), "{out}");
        let out = run(&args(&["stats", "comp24"])).unwrap();
        assert!(
            out.contains("estimator sweep: 72 of 192 ANDs conditioned"),
            "{out}"
        );
        assert!(
            out.contains("7 shapes shared by 72 conditioned ANDs)"),
            "{out}"
        );
        // Ranks are built by the probe's session only.
        assert!(!out.contains("estimator ranks:"), "{out}");
        let probed = run(&args(&["stats", "comp24", "--probe"])).unwrap();
        assert!(probed.contains("  estimator ranks:    "), "{probed}");
        // The sum line adds up every byte counter printed above it.
        let counter = |line: &str| -> Option<usize> {
            let (label, rest) = line.split_once(':')?;
            let bytes = match label.trim() {
                "partitions" => rest.rsplit(", ").next()?,
                "footprint sum" | "peak RSS (VmHWM)" => return None,
                _ => rest.split(" (").next()?,
            };
            bytes.trim().strip_suffix(" B")?.parse().ok()
        };
        let block: Vec<&str> = probed
            .lines()
            .skip_while(|l| *l != "memory footprint:")
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect();
        let summed: usize = block.iter().filter_map(|l| counter(l)).sum();
        assert_eq!(
            block.iter().filter_map(|l| counter(l)).count(),
            5,
            "{probed}"
        );
        let sum_line = format!("  footprint sum:      {summed} B (the counters above)");
        assert!(block.contains(&sum_line.as_str()), "{probed}");
        let out = run(&args(&["analyze", p, "--testlen", "1.0,0.95"])).unwrap();
        assert!(out.contains("required random test lengths"), "{out}");
    }

    #[test]
    fn stats_reports_the_lane_sweep_of_partitioned_circuits() {
        let out = run(&args(&["stats", "comp24"])).unwrap();
        assert!(!out.contains("lane sweep:"), "{out}");
        // Five identical lanes at one thread: one batch of five lanes.
        let mesh = "multmesh:2x2x5:uncoupled";
        let out = run(&args(&["stats", mesh, "--threads", "1"])).unwrap();
        assert!(out.contains("lane sweep: 1 batches, 5 lanes, "), "{out}");
        let out = run(&args(&["stats", mesh, "--threads", "2"])).unwrap();
        assert!(out.contains("lane sweep: 2 batches, 5 lanes, "), "{out}");
    }

    #[test]
    fn check_reports_clean_circuit() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["check", p])).unwrap();
        assert!(out.contains("lint: clean"), "{out}");
        assert!(out.contains("equivalence classes"), "{out}");
        assert!(!out.contains("redundancy prover"), "{out}");
    }

    #[test]
    fn check_prover_and_json() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["check", p, "--prove-redundant", "--threads", "1"])).unwrap();
        assert!(out.contains("redundancy prover"), "{out}");
        assert!(out.contains("proven testable"), "{out}");
        let json = run(&args(&[
            "check",
            p,
            "--prove-redundant",
            "--json",
            "--bdd-budget",
            "100000",
        ]))
        .unwrap();
        assert!(json.contains("\"proven_redundant\": 0"), "{json}");
        assert!(json.contains("\"findings\": ["), "{json}");
    }

    #[test]
    fn check_flags_redundant_logic() {
        // z = OR(a, NOT a) is constant 1: the prover must find and prune
        // redundant classes; the report exits successfully regardless.
        let path =
            std::env::temp_dir().join(format!("protest_cli_red_{}.bench", std::process::id()));
        fs::write(
            &path,
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\n\
             na = NOT(a)\nz = OR(a, na)\nw = AND(a, b)\n",
        )
        .unwrap();
        let guard = tempfile::TempGuard(path);
        let p = guard.0.to_str().unwrap();
        let out = run(&args(&["check", p, "--prove-redundant"])).unwrap();
        assert!(out.contains("proven redundant"), "{out}");
        assert!(out.contains("redundant-fault"), "{out}");
    }

    #[test]
    fn stats_probe_reports_incremental_reuse() {
        let _serial = TELEMETRY_LOCK.lock().unwrap();
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["stats", p, "--probe"])).unwrap();
        assert!(out.contains("incremental probe"), "{out}");
        assert!(out.contains("  forward:       "), "{out}");
        // c17: 11 nodes over 4 levels, 22 collapsed faults, swept in full.
        assert!(
            out.contains("  observability: full sweep, 4 levels, 11 of 11 nodes"),
            "{out}"
        );
        assert!(
            out.contains("  faults:        full pass, 22 of 22 faults estimated"),
            "{out}"
        );
        assert!(!out.contains("reused"), "{out}");
        assert!(!out.contains("dirty window"), "{out}");
        assert!(out.contains("# phase breakdown"), "{out}");
        assert!(out.contains("session.build"), "{out}");
        // Without the flag the probe stays off.
        let plain = run(&args(&["stats", p])).unwrap();
        assert!(!plain.contains("incremental probe"), "{plain}");
        assert!(!plain.contains("# phase breakdown"), "{plain}");
    }

    #[test]
    fn trace_flag_writes_a_chrome_trace() {
        let _serial = TELEMETRY_LOCK.lock().unwrap();
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let trace_path =
            std::env::temp_dir().join(format!("protest_cli_trace_{}.json", std::process::id()));
        let out = run(&args(&[
            "analyze",
            p,
            "--trace",
            trace_path.to_str().unwrap(),
            "--threads",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("# wrote Chrome trace"), "{out}");
        let text = fs::read_to_string(&trace_path).unwrap();
        let guard = tempfile::TempGuard(trace_path);
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        assert!(text.contains("estimator.sweep"), "{text}");
        assert!(text.contains("faults.estimate"), "{text}");
        drop(guard);
        // Untraced runs print identical reports (modulo the trace note).
        let untraced = run(&args(&["analyze", p, "--threads", "1"])).unwrap();
        let traced_body: String = out
            .lines()
            .filter(|l| !l.starts_with("# wrote Chrome trace"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(untraced, traced_body, "tracing must not perturb results");
    }

    #[test]
    fn optimize_reports_session_work() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["optimize", p, "--n-target", "500"])).unwrap();
        assert!(out.contains("# session work:"), "{out}");
        assert!(out.contains("faults "), "{out}");
        assert!(!out.contains("reused"), "{out}");
    }

    #[test]
    fn optimize_and_patterns_roundtrip() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["optimize", p, "--n-target", "500"])).unwrap();
        assert!(out.contains("optimized input probabilities"), "{out}");
        let pats = run(&args(&["patterns", p, "--count", "128"])).unwrap();
        let set = PatternSet::from_text(&pats).unwrap();
        assert_eq!(set.len(), 128);
        assert_eq!(set.num_inputs(), 5);
    }

    #[test]
    fn simulate_pattern_file() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let pats = run(&args(&["patterns", p, "--count", "256", "--seed", "9"])).unwrap();
        let pat_path =
            std::env::temp_dir().join(format!("protest_cli_pats_{}.txt", std::process::id()));
        fs::write(&pat_path, pats).unwrap();
        let out = run(&args(&[
            "simulate",
            p,
            "--patterns",
            pat_path.to_str().unwrap(),
        ]))
        .unwrap();
        let _ = fs::remove_file(&pat_path);
        assert!(out.contains("coverage"), "{out}");
    }

    #[test]
    fn tpi_dry_run_ranks_without_modifying() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out = run(&args(&["tpi", p, "--dry-run", "--max-candidates", "8"])).unwrap();
        assert!(out.contains("ranked test-point candidates"), "{out}");
        assert!(out.contains("predicted N"), "{out}");
        assert!(!out.contains("re-analyzed"), "{out}");
    }

    #[test]
    fn tpi_commits_points_and_writes_netlist() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let out_path =
            std::env::temp_dir().join(format!("protest_cli_tpi_{}.bench", std::process::id()));
        let out = run(&args(&[
            "tpi",
            p,
            "--budget",
            "1",
            "--max-candidates",
            "24",
            "--out",
            out_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("re-analyzed N"), "{out}");
        assert!(out.contains("# final N"), "{out}");
        let text = fs::read_to_string(&out_path).unwrap();
        let _ = fs::remove_file(&out_path);
        let modified = parse_bench("c17_tpi", &text).unwrap();
        assert!(modified.num_outputs() + modified.num_inputs() > 7);
    }

    #[test]
    fn tpi_accepts_builtin_circuit_names() {
        let out = run(&args(&[
            "tpi",
            "c17",
            "--budget",
            "1",
            "--max-candidates",
            "24",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("base N"), "{out}");
        // Unknown names still error out.
        assert!(run(&args(&["tpi", "not_a_circuit"])).is_err());
    }

    #[test]
    fn threads_flag_is_accepted_and_results_match_serial() {
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        let serial = run(&args(&["analyze", p, "--threads", "1"])).unwrap();
        let parallel = run(&args(&["analyze", p, "--threads", "4"])).unwrap();
        assert_eq!(serial, parallel, "reports must be bit-identical");
        assert!(run(&args(&["analyze", p, "--threads", "zero?"])).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&args(&["analyze", "/nonexistent.bench"])).is_err());
        assert!(run(&args(&["frobnicate", "x"])).is_err());
        assert!(run(&args(&[])).is_err());
        let f = write_c17();
        let p = f.0.to_str().unwrap();
        assert!(run(&args(&["analyze", p, "--prob", "nan?"])).is_err());
        assert!(run(&args(&["analyze", p, "--bogus"])).is_err());
    }
}
