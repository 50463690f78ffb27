//! Differential tests: every value the daemon serves must be
//! bit-identical to the direct library API.
//!
//! The wire format uses Rust's shortest-roundtrip float printing, so a
//! served `f64` must survive serialize → parse with `to_bits` equality —
//! the daemon adds caching and transport, never approximation. These
//! tests drive N concurrent clients through real TCP connections and
//! compare against fresh `Analyzer`/`AnalysisSession` runs. The same
//! clients resubmitting one text must be served from the registry.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use protest_circuits::comp24;
use protest_core::optimize::{HillClimber, OptimizeParams};
use protest_core::{check, Analyzer, CheckParams, InputProbs};
use protest_netlist::{parse_bench, to_bench};
use protest_serve::{serve, Json, ServeConfig, ServerHandle};

const C17: &str = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z1)\nOUTPUT(z2)\n\
                   g1 = NAND(a, c)\ng2 = NAND(c, d)\ng3 = NAND(b, g2)\ng4 = NAND(g2, e)\n\
                   z1 = NAND(g1, g3)\nz2 = NAND(g3, g4)\n";

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let parsed = Json::parse(&reply).unwrap();
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "request `{line}` failed: {}",
        reply.trim()
    );
    parsed.get("result").cloned().unwrap()
}

fn floats(v: &Json, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing array `{key}` in {}", v.to_line()))
        .iter()
        .map(|x| x.as_f64().unwrap())
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn submit_text(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, text: &str) -> String {
    let line = format!(
        "{{\"op\":\"submit\",\"text\":{}}}",
        Json::str(text).to_line()
    );
    request(writer, reader, &line)
        .get("circuit")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn concurrent_analyze_matches_direct_api_bit_for_bit() {
    let handle = serve(ServeConfig::default()).unwrap();

    // Direct reference: fresh session per probability point.
    let circuit = parse_bench("circuit", C17).unwrap();
    let analyzer = Analyzer::new(&circuit);
    let probe_points: Vec<f64> = vec![0.2, 0.35, 0.5, 0.65, 0.8];
    let reference: Vec<(Vec<u64>, Vec<u64>)> = probe_points
        .iter()
        .map(|&p| {
            let probs = InputProbs::constant(circuit.num_inputs(), p).unwrap();
            let mut session = analyzer.session(&probs).unwrap();
            (
                bits(session.signal_probs()),
                bits(session.fault_detect_probs()),
            )
        })
        .collect();

    // Six clients hammer the daemon concurrently, each sweeping all five
    // points in a different order (c rotates the start index).
    std::thread::scope(|scope| {
        for c in 0..6usize {
            let probe_points = &probe_points;
            let reference = &reference;
            let handle = &handle;
            scope.spawn(move || {
                let (mut writer, mut reader) = connect(handle);
                let hash = submit_text(&mut writer, &mut reader, C17);
                for k in 0..probe_points.len() {
                    let i = (k + c) % probe_points.len();
                    let result = request(
                        &mut writer,
                        &mut reader,
                        &format!(
                            "{{\"op\":\"analyze\",\"circuit\":\"{hash}\",\"prob\":{},\"signal_probs\":true}}",
                            probe_points[i]
                        ),
                    );
                    assert_eq!(
                        bits(&floats(&result, "signal_probs")),
                        reference[i].0,
                        "signal probs must be bit-identical (client {c}, p={})",
                        probe_points[i]
                    );
                    assert_eq!(
                        bits(&floats(&result, "detect_probs")),
                        reference[i].1,
                        "detect probs must be bit-identical (client {c}, p={})",
                        probe_points[i]
                    );
                }
            });
        }
    });

    // All six clients submitted the same text: one miss, five hits.
    let (mut writer, mut reader) = connect(&handle);
    let stats = request(&mut writer, &mut reader, "{\"op\":\"stats\"}");
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(5));
    handle.shutdown();
}

#[test]
fn served_check_report_matches_direct_check() {
    let handle = serve(ServeConfig::default()).unwrap();
    let (mut writer, mut reader) = connect(&handle);
    let hash = submit_text(&mut writer, &mut reader, C17);
    let served = request(
        &mut writer,
        &mut reader,
        &format!("{{\"op\":\"check\",\"circuit\":\"{hash}\",\"prove_redundant\":true}}"),
    );

    let circuit = parse_bench("circuit", C17).unwrap();
    let params = CheckParams {
        prove_redundant: true,
        ..CheckParams::default()
    };
    let direct = check(&circuit, &params);
    // Same canonical form on both sides: parse the pretty-printed report
    // through the wire JSON reader and compare compact serializations.
    let direct_compact = Json::parse(&direct.to_json()).unwrap().to_line();
    assert_eq!(served.to_line(), direct_compact);
    handle.shutdown();
}

#[test]
fn served_optimize_matches_direct_hill_climber() {
    let handle = serve(ServeConfig::default()).unwrap();
    let (mut writer, mut reader) = connect(&handle);
    let hash = submit_text(&mut writer, &mut reader, C17);
    let served = request(
        &mut writer,
        &mut reader,
        &format!("{{\"op\":\"optimize\",\"circuit\":\"{hash}\",\"n_target\":500,\"seed\":3}}"),
    );

    let circuit = parse_bench("circuit", C17).unwrap();
    let analyzer = Analyzer::new(&circuit);
    let params = OptimizeParams {
        n_target: 500,
        seed: 3,
        ..OptimizeParams::default()
    };
    let direct = HillClimber::new(&analyzer, params).optimize().unwrap();
    assert_eq!(
        bits(&floats(&served, "probs")),
        bits(direct.probs.as_slice()),
        "optimized probabilities must be bit-identical"
    );
    assert_eq!(
        served.get("rounds").and_then(Json::as_u64),
        Some(direct.rounds as u64)
    );
    assert_eq!(
        served.get("evaluations").and_then(Json::as_u64),
        Some(direct.evaluations as u64)
    );
    handle.shutdown();
}

#[test]
fn batch_replies_match_singles() {
    let handle = serve(ServeConfig::default()).unwrap();
    let (mut writer, mut reader) = connect(&handle);
    let hash = submit_text(&mut writer, &mut reader, C17);

    let single_a = request(
        &mut writer,
        &mut reader,
        &format!("{{\"op\":\"analyze\",\"circuit\":\"{hash}\",\"prob\":0.3}}"),
    );
    let single_b = request(
        &mut writer,
        &mut reader,
        &format!("{{\"op\":\"analyze\",\"circuit\":\"{hash}\",\"prob\":0.7}}"),
    );
    let batch = request(
        &mut writer,
        &mut reader,
        &format!(
            "{{\"op\":\"batch\",\"circuit\":\"{hash}\",\"requests\":[{{\"op\":\"analyze\",\"prob\":0.3}},{{\"op\":\"analyze\",\"prob\":0.7}}]}}"
        ),
    );
    let results = batch.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 2);
    for (entry, single) in results.iter().zip([&single_a, &single_b]) {
        assert_eq!(entry.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            entry.get("result").unwrap().to_line(),
            single.to_line(),
            "batched op must serve the same bits as the single request"
        );
    }
    handle.shutdown();
}

/// The daemon's design-center workload: every client resubmits the same
/// netlist text and analyzes it. After the first registration each submit
/// is a registry hit (no parse, no analyzer build).
#[test]
fn resubmitting_one_text_is_served_from_the_registry() {
    let text = to_bench(&comp24());
    let (clients, rounds) = (2, 10);
    let handle = serve(ServeConfig::default()).unwrap();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (handle, text) = (&handle, &text);
            scope.spawn(move || {
                let (mut writer, mut reader) = connect(handle);
                for i in 0..rounds {
                    let hash = submit_text(&mut writer, &mut reader, text);
                    // Cycle a few probability points so sessions re-sync.
                    let p = 0.3 + 0.1 * ((c + i) % 5) as f64;
                    request(
                        &mut writer,
                        &mut reader,
                        &format!(
                            "{{\"op\":\"analyze\",\"circuit\":\"{hash}\",\"prob\":{p},\"detect_probs\":false}}"
                        ),
                    );
                }
            });
        }
    });

    let (mut writer, mut reader) = connect(&handle);
    let stats = request(&mut writer, &mut reader, r#"{"op":"stats"}"#);
    let cache = stats.get("cache").unwrap();
    let count = |key| cache.get(key).and_then(Json::as_u64).unwrap();
    let (hits, misses) = (count("hits"), count("misses"));
    let hit_rate = hits as f64 / (hits + misses) as f64;
    assert!(
        hit_rate > 0.90,
        "hot workload cache hit rate {hit_rate:.3} must exceed 0.90"
    );
    handle.shutdown();
}
