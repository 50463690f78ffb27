//! Analysis-as-a-service: a long-running daemon serving PROTEST
//! testability analysis over TCP.
//!
//! The cost profile of probabilistic testability analysis is front-loaded:
//! parsing the netlist, building the [`Analyzer`](protest_core::Analyzer)
//! (fault collapsing, AIG construction, levelization) and the first full
//! estimation pass dwarf any individual query. A CLI pays that price on
//! every invocation; a daemon pays it **once per circuit** and then
//! answers queries from warm state. This crate provides that daemon:
//!
//! * a **content-hash registry** — identical netlist text maps to one
//!   parsed circuit and one built analyzer, shared by all clients
//!   ([`registry`]);
//! * **warm session pools** — incremental
//!   [`AnalysisSession`](protest_core::AnalysisSession)s checked out per
//!   request and returned as they are, so a query pays only the
//!   dirty-cone cost of moving from the session's last point to its own
//!   ([`protest_core::SessionPool`]);
//! * a **bounded thread model** — an accept thread and N request
//!   handlers; a handler runs each analysis itself under one of M
//!   compute permits shared by every circuit, with a bounded line of
//!   permit waiters. Overload sheds typed `busy` replies instead of
//!   queueing unboundedly, and the thread count does not grow with the
//!   number of resident circuits ([`server`]);
//! * **observability** — per-endpoint p50/p99 latency with a queue-wait
//!   vs compute phase split, cache hit rates, pool and queue gauges via
//!   the `stats` endpoint and an optional periodic log line ([`metrics`]);
//!   plus span-level tracing of the full request lifecycle through the
//!   shared `protest_telemetry` crate (read → queue-wait → session
//!   checkout → compute → serialize), off by default and free when off;
//! * **robustness** — request deadlines cooperatively cancel in-flight
//!   analysis, job panics become typed `internal` replies with the
//!   session discarded, and an optional capacity cap evicts idle
//!   circuits LRU-first ([`registry`]).
//!
//! # Wire protocol
//!
//! Newline-delimited JSON over TCP: one request per line, one reply per
//! line, replies carry the client's `id` back verbatim (pipelining works
//! because replies come in request order per connection). No TLS, no
//! auth — this is a trusted-network analysis service, not an internet
//! endpoint.
//!
//! Every reply is `{"id":…,"ok":true,"result":{…}}` or
//! `{"id":…,"ok":false,"error":{"kind":…,"message":…}}`, where `kind` is
//! one of `parse`, `protocol`, `netlist`, `not_found`, `busy`, `timeout`,
//! `oversized`, `analysis`, `shutting_down`, `cancelled`, `internal`.
//! Malformed or oversized input never kills the connection (framing
//! resynchronizes at the next newline) and never takes the daemon down.
//!
//! Two robustness kinds deserve a word:
//!
//! * **`timeout`** — the request's deadline elapsed, either while it
//!   waited for a compute permit or while it computed. In the second
//!   case the in-flight analysis was *cooperatively stopped* at the
//!   engine's next poll point (`cancelled_work` in `stats`). The daemon
//!   answers both with `timeout`; `cancelled` stays a protocol kind but
//!   is not sent for a stopped request.
//! * **`internal`** — the daemon failed, not the request: the job
//!   panicked while executing the request. The panic is caught, the
//!   job's warm session is discarded instead of returned to the pool
//!   (`sessions_discarded`), and the handler goes on serving every
//!   circuit, so a retry succeeds.
//!
//! ## Endpoints
//!
//! **`submit`** registers a netlist (BENCH or PDL text, or a built-in by
//! name) and returns its content hash — the key every other endpoint
//! addresses the circuit by. Submitting the same text again is a cache
//! hit: no parse, no build.
//!
//! ```text
//! → {"id":1,"op":"submit","format":"bench","name":"c17","text":"INPUT(a)\n…"}
//! ← {"id":1,"ok":true,"result":{"circuit":"8c52…d1","name":"c17","inputs":5,"outputs":2,"gates":6,"cached":false}}
//! → {"id":2,"op":"submit","builtin":"comp24"}
//! ← {"id":2,"ok":true,"result":{"circuit":"builtin:comp24","name":"comp24","inputs":48,"outputs":3,"gates":103,"cached":false}}
//! ```
//!
//! **`analyze`** evaluates one input-probability vector: detection
//! probabilities per collapsed fault, optional signal probabilities,
//! test lengths `N(d, e)`, the hardest faults.
//!
//! ```text
//! → {"id":3,"op":"analyze","circuit":"builtin:comp24","prob":0.5,"testlen":[[1.0,0.95]],"hardest":2}
//! ← {"id":3,"ok":true,"result":{"circuit":"comp24","inputs":48,"faults":252,"detect_probs":[…],"testlen":[{"d":1,"e":0.95,"patterns":7106}],"hardest":[{"fault":"i37/H sa1","detection":0.0016,…},…]}}
//! ```
//!
//! **`optimize`** runs the Sec. 6 hill climber; **`tpi`** ranks or
//! commits test points; **`check`** runs the static lint / collapse /
//! redundancy report; **`simulate`** runs weighted-random fault
//! simulation:
//!
//! ```text
//! → {"id":4,"op":"optimize","circuit":"builtin:comp24","n_target":2000,"seed":1}
//! ← {"id":4,"ok":true,"result":{"probs":[…],"rounds":3,"evaluations":1289,"testlen":[…]}}
//! → {"id":5,"op":"simulate","circuit":"builtin:comp24","prob":0.5,"patterns":4096,"seed":7}
//! ← {"id":5,"ok":true,"result":{"total_faults":252,"detected":244,"coverage_percent":96.83}}
//! ```
//!
//! **`batch`** runs several of the above on ONE warm session checkout —
//! the cheapest way to sweep probability vectors:
//!
//! ```text
//! → {"id":6,"op":"batch","circuit":"builtin:comp24","requests":[{"op":"analyze","prob":0.4},{"op":"analyze","prob":0.45}]}
//! ← {"id":6,"ok":true,"result":{"results":[{"ok":true,"result":{…}},{"ok":true,"result":{…}}]}}
//! ```
//!
//! ## The `timing` flag
//!
//! Any circuit op (or `batch`) may set `"timing": true` to get the
//! daemon-side phase split of its own request echoed in the success
//! reply as a sibling `timing` object — microseconds spent waiting for
//! a compute permit, checking a session out of the circuit's pool
//! (on its first job, including building the pool), and actually
//! computing:
//!
//! ```text
//! → {"id":9,"op":"analyze","circuit":"builtin:comp24","timing":true}
//! ← {"id":9,"ok":true,"result":{…},"timing":{"queue_wait_us":41,"checkout_us":3,"compute_us":5120}}
//! ```
//!
//! The flag is ignored on `submit`, `stats` and `shutdown` (they take
//! no compute permit, so there are no phases to report) and on error
//! replies. Omitting it leaves the reply byte-for-byte what it always
//! was, so existing clients are unaffected.
//!
//! **`stats`** returns the metrics snapshot; **`shutdown`** starts a
//! graceful drain (in-flight and waiting requests still complete):
//!
//! ```text
//! → {"id":7,"op":"stats"}
//! ← {"id":7,"ok":true,"result":{"requests_total":6,"cache":{"hits":1,…},"endpoints":{…},…}}
//! → {"id":8,"op":"shutdown"}
//! ← {"id":8,"ok":true,"result":{"draining":true}}
//! ```
//!
//! # Fidelity
//!
//! Served results are **bit-identical** to the direct library API: the
//! JSON writer uses Rust's shortest-roundtrip float formatting, so every
//! `f64` survives serialize → parse with `to_bits` equality (proven by
//! the differential integration tests). The daemon adds caching and
//! transport, never approximation.
//!
//! # Example
//!
//! ```
//! use protest_serve::{serve, ServeConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let handle = serve(ServeConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! let mut replies = BufReader::new(conn.try_clone().unwrap());
//!
//! conn.write_all(b"{\"id\":1,\"op\":\"submit\",\"builtin\":\"c17\"}\n").unwrap();
//! let mut reply = String::new();
//! replies.read_line(&mut reply).unwrap();
//! assert!(reply.contains("\"ok\":true"));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod ops;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;

pub use json::Json;
pub use metrics::{Endpoint, Metrics};
pub use protocol::{ErrorKind, Request, WireError};
pub use registry::{JobOutcome, JobTiming, Registry};
pub use server::{serve, ServeConfig, ServerHandle};
