//! Robustness: hostile or broken input must produce typed error replies,
//! never a dead daemon; shutdown must drain gracefully.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use protest_serve::{serve, Json, ServeConfig, ServerHandle};

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Json::parse(&reply).unwrap()
}

fn error_kind(reply: &Json) -> String {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn hostile_input_gets_typed_errors_and_daemon_stays_up() {
    let handle = serve(ServeConfig {
        max_line_bytes: 2048,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut writer, mut reader) = connect(&handle);

    // Garbage that is not JSON.
    let r = roundtrip(&mut writer, &mut reader, "\u{1}\u{2}garbage!!");
    assert_eq!(error_kind(&r), "parse");

    // Valid JSON, invalid envelope — id still echoed for correlation.
    let r = roundtrip(&mut writer, &mut reader, r#"{"id":7,"op":"explode"}"#);
    assert_eq!(error_kind(&r), "protocol");
    assert_eq!(r.get("id").and_then(Json::as_u64), Some(7));

    // Deeply nested JSON (a depth bomb) is rejected, not recursed into.
    let bomb = format!("{}{}", "[".repeat(500), "]".repeat(500));
    let r = roundtrip(&mut writer, &mut reader, &bomb);
    assert_eq!(error_kind(&r), "parse");

    // A netlist that does not parse.
    let r = roundtrip(
        &mut writer,
        &mut reader,
        r#"{"op":"submit","text":"INPUT(\nbroken"}"#,
    );
    assert_eq!(error_kind(&r), "netlist");

    // Unknown circuit hash.
    let r = roundtrip(
        &mut writer,
        &mut reader,
        r#"{"op":"analyze","circuit":"feedbeef"}"#,
    );
    assert_eq!(error_kind(&r), "not_found");

    // An oversized line: discarded to the newline, typed reply, and the
    // framing resynchronizes.
    let huge = format!(r#"{{"op":"submit","text":"{}"}}"#, "z".repeat(100_000));
    let r = roundtrip(&mut writer, &mut reader, &huge);
    assert_eq!(error_kind(&r), "oversized");

    // Same connection still serves real work afterwards.
    let r = roundtrip(
        &mut writer,
        &mut reader,
        r#"{"id":9,"op":"submit","builtin":"c17"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

    // And so does a fresh connection.
    let (mut w2, mut r2) = connect(&handle);
    let r = roundtrip(
        &mut w2,
        &mut r2,
        r#"{"op":"analyze","circuit":"builtin:c17"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

    handle.shutdown();
}

#[test]
fn abrupt_disconnects_do_not_wedge_the_daemon() {
    let handle = serve(ServeConfig::default()).unwrap();

    // Half-written request, then vanish.
    {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"{\"op\":\"anal").unwrap();
    }
    // Connect and say nothing.
    {
        let _s = TcpStream::connect(handle.addr()).unwrap();
    }

    let (mut writer, mut reader) = connect(&handle);
    let r = roundtrip(
        &mut writer,
        &mut reader,
        r#"{"op":"submit","builtin":"c17"}"#,
    );
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_work_and_stops_accepting() {
    let handle = serve(ServeConfig::default()).unwrap();
    let addr = handle.addr();

    let (mut writer, mut reader) = connect(&handle);
    roundtrip(
        &mut writer,
        &mut reader,
        r#"{"op":"submit","builtin":"comp24"}"#,
    );

    // Pipeline several requests and the shutdown in one burst: everything
    // written before the shutdown must still be answered, in order.
    let mut burst = String::new();
    for i in 0..3 {
        burst.push_str(&format!(
            "{{\"id\":{i},\"op\":\"analyze\",\"circuit\":\"builtin:comp24\",\"prob\":0.{},\"detect_probs\":false}}\n",
            3 + i
        ));
    }
    burst.push_str("{\"id\":99,\"op\":\"shutdown\"}\n");
    writer.write_all(burst.as_bytes()).unwrap();

    for i in 0..3 {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let parsed = Json::parse(&reply).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(i));
        assert_eq!(
            parsed.get("ok").and_then(Json::as_bool),
            Some(true),
            "pipelined request {i} must be answered before the drain: {}",
            reply.trim()
        );
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"draining\":true"), "{reply}");

    // Drain completes even with this client still connected.
    handle.wait();

    // After the drain the listener is gone: either the connection is
    // refused outright, or nothing ever answers.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            s.write_all(b"{\"op\":\"stats\"}\n").unwrap();
            let mut buf = [0u8; 1];
            match s.read(&mut buf) {
                Ok(0) => {}
                Ok(_) => panic!("drained server still answered a request"),
                Err(_) => {}
            }
        }
    }
}

#[test]
fn full_queue_sheds_load_with_busy() {
    // One worker, queue capacity 1: the third concurrent request must be
    // shed with `busy` while the first still runs.
    let handle = serve(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        handlers: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    let (mut writer, mut reader) = connect(&handle);
    roundtrip(
        &mut writer,
        &mut reader,
        r#"{"op":"submit","builtin":"mult6"}"#,
    );

    // Saturate: several clients fire a slow optimize each, concurrently.
    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let handle = &handle;
                scope.spawn(move || {
                    let (mut w, mut r) = connect(handle);
                    let reply = roundtrip(
                        &mut w,
                        &mut r,
                        r#"{"op":"optimize","circuit":"builtin:mult6","n_target":2000}"#,
                    );
                    match reply.get("ok").and_then(Json::as_bool) {
                        Some(true) => "ok".to_string(),
                        _ => error_kind(&reply),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // With 1 worker and queue depth 1, at least one of four concurrent
    // slow requests must have been shed; shed replies are typed `busy`.
    assert!(
        outcomes.iter().any(|o| o == "busy"),
        "expected at least one busy rejection, got {outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|o| o == "ok"),
        "expected at least one success, got {outcomes:?}"
    );
    handle.shutdown();
}
