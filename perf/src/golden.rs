//! Correctness pins: for seed 42, `golden.json` holds each workload's
//! outcome digest, its packet count and its exact counters. For any other
//! seed a run checks self-consistency instead (every pass simulates what
//! the first did; in traced runs also M = 1 against M = 2 and recorded
//! against unrecorded; scenarios assert `cross_engine_identical`).

use crate::metrics::number;
use crate::workloads::Pass;
use serde_json::Value;
use std::path::Path;

/// The seed the pins were taken at (also the default seed).
pub const GOLDEN_SEED: u64 = 42;

/// Workloads whose `--smoke` inputs are smaller than the full ones and so
/// need pins of their own.
const CUT_BY_SMOKE: &[&str] = &["incast_256k", "paper_sweep"];

pub fn key(workload: &str, smoke: bool) -> String {
    if smoke && CUT_BY_SMOKE.contains(&workload) {
        format!("{workload}.smoke")
    } else {
        workload.to_string()
    }
}

pub struct Golden(Value);

impl Golden {
    pub fn load(perf_dir: &Path) -> Result<Self, String> {
        let path = perf_dir.join("golden.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("seed") != Some(&Value::U64(GOLDEN_SEED)) {
            return Err(format!(
                "{}: not pinned at seed {GOLDEN_SEED}",
                path.display()
            ));
        }
        Ok(Golden(doc))
    }

    /// Every way `pass` differs from the pin under `key`, one line each.
    pub fn mismatches(&self, key: &str, pass: &Pass) -> Vec<String> {
        let Some(pin) = self.0.get("workloads").and_then(|w| w.get(key)) else {
            return vec![format!("golden.json has no entry `{key}`")];
        };
        let mut out = Vec::new();
        let digest = format!("{:#018x}", pass.digest);
        if pin.get("digest") != Some(&Value::Str(digest.clone())) {
            out.push(format!("digest {digest}, pinned {:?}", pin.get("digest")));
        }
        if pin.get("packets") != Some(&Value::U64(pass.packets)) {
            out.push(format!(
                "packets {}, pinned {:?}",
                pass.packets,
                pin.get("packets")
            ));
        }
        for (name, value) in &pass.exact {
            let pinned = pin.get("exact").and_then(|e| e.get(name)).and_then(number);
            if pinned != Some(*value) {
                out.push(format!("{name} = {value}, pinned {pinned:?}"));
            }
        }
        out
    }
}

/// One workload's pin, as `golden.json` stores it.
pub fn entry(pass: &Pass) -> Value {
    Value::Object(vec![
        (
            "digest".to_string(),
            Value::Str(format!("{:#018x}", pass.digest)),
        ),
        ("packets".to_string(), Value::U64(pass.packets)),
        (
            "exact".to_string(),
            Value::Object(
                pass.exact
                    .iter()
                    .map(|(name, value)| (name.to_string(), Value::F64(*value)))
                    .collect(),
            ),
        ),
    ])
}

/// Writes `golden.json` from `(key, pass)` pairs taken at [`GOLDEN_SEED`].
pub fn write(perf_dir: &Path, entries: Vec<(String, Value)>) -> Result<(), String> {
    let doc = Value::Object(vec![
        ("seed".to_string(), Value::U64(GOLDEN_SEED)),
        ("workloads".to_string(), Value::Object(entries)),
    ]);
    let path = perf_dir.join("golden.json");
    let text = serde_json::to_string_pretty(&doc).expect("a value tree always renders");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass() -> Pass {
        Pass {
            parts: vec![0.5],
            packets: 7,
            ops: 1,
            failed: 0,
            digest: 0xabc,
            exact: vec![("cluster.quanta", 12.0), ("cluster.active_ratio", 0.125)],
            gauges: Vec::new(),
        }
    }

    #[test]
    fn a_pass_matches_its_own_pin_and_nothing_else() {
        let golden = Golden(Value::Object(vec![(
            "workloads".to_string(),
            Value::Object(vec![("w".to_string(), entry(&pass()))]),
        )]));
        assert!(golden.mismatches("w", &pass()).is_empty());
        let mut other = pass();
        other.digest ^= 1;
        other.exact[0].1 = 13.0;
        assert_eq!(golden.mismatches("w", &other).len(), 2);
        assert_eq!(golden.mismatches("missing", &pass()).len(), 1);
    }

    #[test]
    fn only_cut_workloads_get_a_smoke_key() {
        assert_eq!(key("incast_256k", true), "incast_256k.smoke");
        assert_eq!(key("incast_256k", false), "incast_256k");
        assert_eq!(key("burst_1k", true), "burst_1k");
    }
}
