//! JSONL export of flight-recorder samples — the recorder's one export.
//!
//! The JSONL schema (one object per line, one line per quantum in the ring,
//! oldest first) is documented in the repository's EXPERIMENTS.md.

use crate::flight::FlightRecorder;
use serde_json::Value;

fn sample_value(s: &crate::QuantumObs<'_>) -> Value {
    Value::Object(vec![
        ("index".into(), Value::U64(s.index)),
        ("start_ns".into(), Value::U64(s.start.as_nanos())),
        ("len_ns".into(), Value::U64(s.len.as_nanos())),
        ("host_ns".into(), Value::U64(s.host_ns)),
        ("packets".into(), Value::U64(s.packets)),
        ("active_nodes".into(), Value::U64(s.active_nodes)),
        ("stragglers".into(), Value::U64(s.stragglers)),
        (
            "max_straggler_delay_ns".into(),
            Value::U64(s.max_straggler_delay.as_nanos()),
        ),
        (
            "barrier_wait_ns".into(),
            Value::Array(s.barrier_wait_ns.iter().map(|&v| Value::U64(v)).collect()),
        ),
        (
            "vt_lag_ns".into(),
            Value::Array(s.vt_lag_ns.iter().map(|&v| Value::U64(v)).collect()),
        ),
    ])
}

impl FlightRecorder {
    /// Renders the ring as JSON Lines: one object per retained quantum,
    /// oldest first. A run that used a rollback-capable engine (the shard
    /// rollback lanes are populated) appends one trailing
    /// `"event":"rollbacks"` object: the run's checkpoint, rollback, and
    /// wasted-sim totals — the sums of the per-shard lanes — and the lanes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.samples() {
            let line = serde_json::to_string(&sample_value(&s)).expect("sample serializes");
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(stats) = self.shard_rollback_stats() {
            let lane = |v: &[u64]| Value::Array(v.iter().map(|&x| Value::U64(x)).collect());
            let summary = Value::Object(vec![
                ("event".into(), Value::Str("rollbacks".into())),
                ("checkpoints".into(), Value::U64(stats.total_checkpoints())),
                ("rollbacks".into(), Value::U64(stats.total_rollbacks())),
                ("wasted_sim_ns".into(), Value::U64(stats.total_wasted_ns())),
                ("shard_checkpoints".into(), lane(stats.checkpoints)),
                ("shard_rollbacks".into(), lane(stats.rollbacks)),
                ("shard_wasted_ns".into(), lane(stats.wasted_ns)),
            ]);
            let line = serde_json::to_string(&summary).expect("summary serializes");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{FlightRecorder, ObsConfig, QuantumObs, Recorder};
    use aqs_time::{SimDuration, SimTime};

    fn recorded() -> FlightRecorder {
        let mut fr = FlightRecorder::new(2, ObsConfig::new());
        fr.record_quantum(&QuantumObs {
            index: 0,
            start: SimTime::ZERO,
            len: SimDuration::from_micros(1),
            host_ns: 550_000,
            packets: 7,
            active_nodes: 2,
            stragglers: 1,
            max_straggler_delay: SimDuration::from_nanos(123),
            barrier_wait_ns: &[40, 0],
            vt_lag_ns: &[0, 900],
        });
        fr
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let fr = recorded();
        let jsonl = fr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        let serde_json::Value::Object(fields) = v else {
            panic!("expected object");
        };
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("packets"), serde_json::Value::U64(7));
        assert_eq!(get("host_ns"), serde_json::Value::U64(550_000));
        assert_eq!(
            get("vt_lag_ns"),
            serde_json::Value::Array(vec![serde_json::Value::U64(0), serde_json::Value::U64(900)])
        );
    }

    #[test]
    fn rollback_runs_append_one_summary_line() {
        // Conservative runs (no shard lanes) must emit nothing extra.
        assert_eq!(recorded().to_jsonl().lines().count(), 1);

        let mut fr = recorded();
        fr.record_shard_rollbacks(&[1, 0], &[1, 0], &[3_000, 0]);
        let jsonl = fr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        let serde_json::Value::Object(fields) = v else {
            panic!("expected object");
        };
        let get = |k: &str| {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("event"), serde_json::Value::Str("rollbacks".into()));
        assert_eq!(get("rollbacks"), serde_json::Value::U64(1));
        assert_eq!(get("wasted_sim_ns"), serde_json::Value::U64(3_000));
        assert_eq!(
            get("shard_rollbacks"),
            serde_json::Value::Array(vec![serde_json::Value::U64(1), serde_json::Value::U64(0)])
        );
    }
}
