//! The `astro-trace` binary reads back what the telemetry emitter
//! writes: `phases` and `chrome` succeed on a ring dump and the Chrome
//! export validates; a file with no trace events is exit 1.

use astro_telemetry::trace;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_astro-trace");

#[test]
fn phases_and_chrome_round_trip_a_ring_dump_and_reject_a_traceless_file() {
    let dir = std::env::temp_dir().join(format!("astro_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let jsonl = dir.join("traces.jsonl");
    let chrome = dir.join("trace_chrome.json");

    trace::reset();
    for status in [200, 503] {
        let id = trace::mint();
        trace::start(id, "gateway./v1/score", None, astro_telemetry::elapsed_us());
        for name in ["recv", "queue_wait", "write"] {
            trace::phase_since_last(id, name);
        }
        trace::finish(id, status);
    }
    assert_eq!(trace::write_ring_jsonl(&jsonl).expect("write ring"), 2);

    let phases = Command::new(BIN).arg("phases").arg(&jsonl).output().expect("run phases");
    assert!(phases.status.success(), "{}", String::from_utf8_lossy(&phases.stderr));
    assert!(String::from_utf8_lossy(&phases.stdout).contains("queue_wait"));

    let export =
        Command::new(BIN).arg("chrome").arg(&jsonl).arg(&chrome).output().expect("run chrome");
    assert!(export.status.success(), "{}", String::from_utf8_lossy(&export.stderr));
    let traces = astro_trace::parse_jsonl(&std::fs::read_to_string(&jsonl).expect("jsonl")).traces;
    let written = std::fs::read_to_string(&chrome).expect("chrome file");
    let events =
        astro_trace::validate_chrome_json(&written, &traces).expect("chrome file validates");
    assert!(events >= traces.len());

    std::fs::write(&jsonl, "{\"event\":\"span\",\"t_us\":1}\n").expect("overwrite");
    let empty = Command::new(BIN).arg("phases").arg(&jsonl).output().expect("run on no traces");
    assert_eq!(empty.status.code(), Some(1), "{}", String::from_utf8_lossy(&empty.stderr));

    let _ = std::fs::remove_dir_all(&dir);
}
