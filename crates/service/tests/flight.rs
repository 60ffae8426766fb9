//! Trace-propagation and flight-recorder end-to-end tests, isolated in
//! their own test binary: the deterministic fault plan is parsed from
//! `NQPV_FAULTS` once per process, so arming `worker_panic` here must
//! not leak into the main e2e suite.

use nqpv_service::{Client, Daemon, Json, ServeOptions};
use nqpv_telemetry::TraceContext;
use std::path::PathBuf;

#[test]
fn traced_submission_survives_an_injected_panic_and_dumps_flight() {
    // The first worker_panic call fires; the retry succeeds — the
    // verdict is still `verified` while the flight recorder keeps the
    // evidence of the crash.
    std::env::set_var("NQPV_FAULTS", "42:worker_panic*1");
    let flight_dir = std::env::temp_dir().join("nqpv_service_e2e_flight");
    let _ = std::fs::remove_dir_all(&flight_dir);

    let daemon = Daemon::start(ServeOptions {
        jobs: 1,
        flight_dir: Some(flight_dir.clone()),
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    let ctx = TraceContext::mint();
    let hex = ctx.to_hex();
    let id = client
        .submit_source_traced(
            "panicky",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
            Some(hex.clone()),
        )
        .unwrap();
    let verdict = &client.wait_verdicts(&[id]).unwrap()[0];
    assert_eq!(verdict.status, "verified", "{verdict:?}");
    assert_eq!(verdict.trace.as_deref(), Some(hex.as_str()), "{verdict:?}");

    // The daemon half of the trace is retrievable by job id, tagged with
    // the client-minted id, and shows the successful attempt ran as a
    // retry after waiting in the queue.
    let (name, trace_hex, events) = client.fetch_trace(id).unwrap();
    let events = events.to_string();
    assert_eq!(name, "panicky");
    assert_eq!(trace_hex, hex);
    for needle in ["queue_wait", "bin_place", "retry_attempt", "\"cat\":\"wp\""] {
        assert!(events.contains(needle), "missing {needle} in {events}");
    }

    // The caught panic left a parseable flight dump naming the trace id.
    let dumps: Vec<PathBuf> = std::fs::read_dir(&flight_dir)
        .expect("flight dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(dumps.len(), 1, "one panic, one dump: {dumps:?}");
    let dump = std::fs::read_to_string(&dumps[0]).unwrap();
    let parsed = Json::parse(&dump).expect("dump is valid JSON");
    assert_eq!(
        parsed.get("reason").and_then(Json::as_str),
        Some("panic"),
        "{dump}"
    );
    assert_eq!(
        parsed.get("trace_id").and_then(Json::as_str),
        Some(hex.as_str()),
        "{dump}"
    );
    assert!(
        parsed.get("events").and_then(Json::as_arr).is_some(),
        "{dump}"
    );

    // On-demand snapshots work over the wire too, and land in the same
    // directory: the reply and the written file are one snapshot.
    let (path, dump) = client.dump_flight().unwrap();
    let path = path.expect("daemon writes the dump under --flight-dir");
    assert_eq!(
        dump.get("reason").and_then(Json::as_str),
        Some("request"),
        "{dump}"
    );
    let written = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        Json::parse(&written).expect("written dump is valid JSON"),
        dump,
        "reply and file disagree"
    );

    // An untraced job yields no stored trace to fetch.
    let plain = client
        .submit_source(
            "plain",
            "def pf := proof [q] : { Pp[q] }; [q] *= H; { P0[q] } end",
            0,
        )
        .unwrap();
    assert_eq!(
        client.wait_verdicts(&[plain]).unwrap()[0].status,
        "verified"
    );
    let err = client.fetch_trace(plain).unwrap_err();
    assert!(err.to_string().contains("no trace"), "{err}");
    daemon.join();
}
