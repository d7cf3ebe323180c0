//! Golden-file pin of [`FlightRecorder::render_summary`]'s text.
//!
//! The summary is the one caller of the histogram and log-y series
//! renderers, and no figure binary prints it, so `repro_output.txt` cannot
//! catch a drift in either. The recorded run is fixed: `ping_pong(2, 5, 64)`
//! under `dyn1` on the deterministic engine, whose host clock is modelled,
//! so every byte of the summary is a pure function of the run.
//!
//! If the change is intentional, regenerate the golden file by running this
//! test with `UPDATE_GOLDEN=1` and commit both.

use aqs_cluster::Sim;
use aqs_core::SyncConfig;
use aqs_obs::ObsConfig;
use aqs_workloads::ping_pong;

const GOLDEN_PATH: &str = "tests/golden/render_summary.golden";

#[test]
fn render_summary_matches_golden_file() {
    let spec = ping_pong(2, 5, 64);
    let report = Sim::new(spec.programs)
        .sync(SyncConfig::paper_dyn1())
        .record(ObsConfig::new())
        .run();
    let got = report.obs.expect("recording enabled").render_summary();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file exists and is committed");
    assert_eq!(
        got, want,
        "render_summary drifted from {GOLDEN_PATH}; if intentional, \
         rerun with UPDATE_GOLDEN=1 and commit both"
    );
}
