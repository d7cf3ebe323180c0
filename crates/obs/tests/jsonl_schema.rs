//! Golden-file pin of the flight-recorder JSONL export schema.
//!
//! The JSONL log is an external interface: EXPERIMENTS.md documents it, the
//! conformance harness ships it as a failure artifact, and downstream
//! tooling parses it by field name. Renaming, reordering, or retyping a
//! field is a breaking change and must show up as a failing diff against
//! the committed golden file — not as a silent drift.
//!
//! If the change is intentional, regenerate the golden file by running this
//! test with `UPDATE_GOLDEN=1` and commit both.

use aqs_obs::{FlightRecorder, ObsConfig, QuantumObs, Recorder};
use aqs_time::{SimDuration, SimTime};

const GOLDEN_PATH: &str = "tests/golden/flight_jsonl.golden";
/// The same ring plus per-shard rollback lanes: the three sample lines and
/// the trailing `"event":"rollbacks"` summary line.
const ROLLBACK_GOLDEN_PATH: &str = "tests/golden/flight_jsonl_rollbacks.golden";

/// A recorder filled with fixed, hand-picked values: two nodes, three
/// quanta covering the interesting shapes (quiet, busy-with-stragglers,
/// floor-pinned).
fn fixed_recorder() -> FlightRecorder {
    let mut fr = FlightRecorder::new(2, ObsConfig::new().with_ring_capacity(8));
    fr.record_quantum(&QuantumObs {
        index: 0,
        start: SimTime::ZERO,
        len: SimDuration::from_micros(1),
        host_ns: 550_000,
        packets: 0,
        active_nodes: 0,
        stragglers: 0,
        max_straggler_delay: SimDuration::ZERO,
        barrier_wait_ns: &[0, 250],
        vt_lag_ns: &[0, 0],
    });
    fr.record_quantum(&QuantumObs {
        index: 1,
        start: SimTime::ZERO + SimDuration::from_micros(1),
        len: SimDuration::from_nanos(1_200),
        host_ns: 1_130_000,
        packets: 7,
        active_nodes: 2,
        stragglers: 2,
        max_straggler_delay: SimDuration::from_nanos(321),
        barrier_wait_ns: &[90, 0],
        vt_lag_ns: &[0, 880],
    });
    fr.record_quantum(&QuantumObs {
        index: 2,
        start: SimTime::ZERO + SimDuration::from_nanos(2_200),
        len: SimDuration::from_micros(1),
        host_ns: 1_690_000,
        packets: 1,
        active_nodes: 1,
        stragglers: 0,
        max_straggler_delay: SimDuration::ZERO,
        barrier_wait_ns: &[0, 0],
        vt_lag_ns: &[1_000, 0],
    });
    fr
}

/// [`fixed_recorder`] as a two-shard rollback run leaves it: one window's
/// per-shard checkpoint, rollback and wasted-sim lanes per quantum. Shard 1
/// ran the last window conservatively, so its checkpoint lane is zero there.
fn rollback_recorder() -> FlightRecorder {
    let mut fr = fixed_recorder();
    fr.record_shard_rollbacks(&[1, 1], &[0, 0], &[0, 0]);
    fr.record_shard_rollbacks(&[1, 1], &[2, 1], &[2_400, 1_200]);
    fr.record_shard_rollbacks(&[1, 0], &[0, 0], &[0, 0]);
    fr
}

/// Compares `got` with the committed golden file at `path`, or rewrites it
/// under `UPDATE_GOLDEN`.
fn assert_golden(path: &str, got: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file exists and is committed");
    assert_eq!(
        got, want,
        "flight-recorder JSONL schema drifted from {path}; if intentional, \
         rerun with UPDATE_GOLDEN=1, update EXPERIMENTS.md, and commit both"
    );
}

#[test]
fn jsonl_schema_matches_golden_file() {
    assert_golden(GOLDEN_PATH, &fixed_recorder().to_jsonl());
}

#[test]
fn rollback_summary_line_matches_golden_file() {
    let got = rollback_recorder().to_jsonl();
    let summary = got.lines().last().unwrap_or_default();
    assert!(summary.contains(r#""event":"rollbacks""#), "{summary}");
    assert_golden(ROLLBACK_GOLDEN_PATH, &got);
}

#[test]
fn golden_file_is_valid_jsonl_with_documented_fields() {
    // Belt and braces: the golden file itself must parse, with exactly the
    // documented field names in the documented order.
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists");
    let expected_fields = [
        "index",
        "start_ns",
        "len_ns",
        "host_ns",
        "packets",
        "active_nodes",
        "stragglers",
        "max_straggler_delay_ns",
        "barrier_wait_ns",
        "vt_lag_ns",
    ];
    let mut lines = 0;
    for line in want.lines() {
        lines += 1;
        let v: serde_json::Value = serde_json::from_str(line).expect("golden line parses");
        let serde_json::Value::Object(fields) = v else {
            panic!("golden line is not an object: {line}");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, expected_fields, "field names/order drifted");
    }
    assert_eq!(lines, 3, "golden file should hold the three fixed quanta");
}
