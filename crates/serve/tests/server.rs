//! End-to-end tests of the resident job server's fault envelope, all over
//! real TCP connections against an in-process server.

use aqs_serve::client::request;
use aqs_serve::protocol::{get_bool, get_str, get_u64, obj};
use aqs_serve::{ServeConfig, Server};
use serde_json::Value;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn tmp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "aqs-serve-test-{name}-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn start(name: &str, tweak: impl FnOnce(&mut ServeConfig)) -> (Server, String, PathBuf) {
    let mut cfg = ServeConfig {
        journal: tmp_journal(name),
        ..Default::default()
    };
    let journal = cfg.journal.clone();
    tweak(&mut cfg);
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr, journal)
}

fn submit_fields(extra: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![
        ("op", Value::Str("submit".to_string())),
        ("workload", Value::Str("pingpong".to_string())),
        ("nodes", Value::U64(2)),
        ("policy", Value::Str("dyn1".to_string())),
        ("seed", Value::U64(7)),
    ];
    fields.extend(extra);
    obj(fields)
}

fn wait_for(addr: &str, job: u64) -> Value {
    let resp = request(
        addr,
        &obj(vec![
            ("op", Value::Str("wait".to_string())),
            ("job", Value::U64(job)),
        ]),
    )
    .expect("wait round-trips");
    assert_eq!(get_bool(&resp, "ok"), Some(true), "wait failed: {resp:?}");
    resp.get("job_record")
        .cloned()
        .expect("wait returns the job record")
}

fn error_kind(record: &Value) -> String {
    let err = record.get("error").expect("failed job carries an error");
    get_str(err, "kind").expect("error has a kind").to_string()
}

/// Runs `f` on a thread of its own while this one stands watchdog: shutdown
/// blocks on a wake-up instead of polling a flag, so a missed wake-up is a
/// hang, and a hang must fail the test within 5 s rather than wedge the suite.
fn must_return(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(5)) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} did not return within 5 s"),
        // Sent, or dropped unsent by a panic in `f`: `join` tells which.
        _ => worker.join().expect("the watched closure panicked"),
    }
}

fn op(name: &str) -> Value {
    obj(vec![("op", Value::Str(name.to_string()))])
}

#[test]
fn stop_returns_when_no_client_ever_connected() {
    let (server, _, journal) = start("stop-untouched", |_| {});
    must_return("Server::stop() on an untouched server", move || {
        server.stop()
    });
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_shutdown_request_over_the_wire_returns_join() {
    let (server, addr, journal) = start("wire-shutdown", |_| {});
    must_return("Server::join() after a `shutdown` request", move || {
        let joiner = std::thread::spawn(move || server.join());
        let resp = request(&addr, &op("shutdown")).expect("shutdown round-trips");
        assert_eq!(get_bool(&resp, "ok"), Some(true), "{resp:?}");
        joiner.join().expect("join returns cleanly");
    });
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_silent_connection_does_not_block_stop() {
    let (server, addr, journal) = start("silent-client", |_| {});
    let silent = TcpStream::connect(&addr).expect("connects");
    // Connections are accepted in order, so once this request is answered
    // the silent one has its handler thread, parked in a read.
    let stats = request(&addr, &op("stats")).expect("stats round-trips");
    assert_eq!(get_bool(&stats, "ok"), Some(true));
    must_return("Server::stop() with a silent client attached", move || {
        server.stop()
    });
    drop(silent);
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_server_bound_to_the_wildcard_address_stops() {
    let (server, _, journal) = start("wildcard", |cfg| cfg.addr = "0.0.0.0:0".to_string());
    assert!(server.addr().ip().is_unspecified());
    let addr = format!("127.0.0.1:{}", server.addr().port());
    let stats = request(&addr, &op("stats")).expect("reachable over loopback");
    assert_eq!(get_bool(&stats, "ok"), Some(true));
    must_return("Server::stop() on a 0.0.0.0 bind", move || server.stop());
    let _ = std::fs::remove_file(journal);
}

#[test]
fn submit_and_wait_do_not_sit_out_a_poll_interval() {
    let (server, addr, journal) = start("latency", |_| {});
    // 17 quanta: the job itself stays small next to a poll interval even in
    // an unoptimized test build.
    let job = obj(vec![
        ("op", Value::Str("submit".to_string())),
        ("workload", Value::Str("pingpong".to_string())),
        ("nodes", Value::U64(2)),
        ("policy", Value::Str("fixed:1000".to_string())),
    ]);
    // Lower quartile of 40 sequential submit+wait round trips, two
    // connections each.
    let lower_quartile = || {
        let mut round_trips: Vec<Duration> = (0..40)
            .map(|_| {
                let sent = Instant::now();
                let resp = request(&addr, &job).expect("submit round-trips");
                let id = get_u64(&resp, "job").expect("submit accepted");
                let record = wait_for(&addr, id);
                let took = sent.elapsed();
                assert_eq!(get_str(&record, "state"), Some("done"));
                took
            })
            .collect();
        round_trips.sort();
        round_trips[round_trips.len() / 4]
    };
    // An accept loop that polls costs every round trip two intervals (2 × 5 ms
    // before the poll was removed), in every batch; the tests running beside
    // this one can slow a batch, not all three.
    let bound = Duration::from_millis(5);
    let mut best = Duration::MAX;
    for _ in 0..3 {
        best = best.min(lower_quartile());
        if best < bound {
            break;
        }
    }
    assert!(
        best < bound,
        "lower-quartile submit+wait round trip took {best:?}, expected under {bound:?}"
    );
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn healthy_job_matches_a_direct_run_bit_for_bit() {
    let (server, addr, journal) = start("healthy", |_| {});
    let resp = request(&addr, &submit_fields(vec![])).unwrap();
    assert_eq!(get_bool(&resp, "ok"), Some(true), "submit failed: {resp:?}");
    let job = get_u64(&resp, "job").unwrap();
    let record = wait_for(&addr, job);
    assert_eq!(get_str(&record, "state"), Some("done"));
    let outcome = record.get("outcome").unwrap();

    // The same case run directly, without the server or checkpointing.
    let case = aqs_serve::CaseJob {
        workload: "pingpong".to_string(),
        nodes: 2,
        policy: "dyn1".to_string(),
        seed: 7,
        scale: "tiny".to_string(),
        inject_panic: false,
    };
    let direct = aqs_serve::jobs::build_sim(&case).unwrap().run();
    assert_eq!(
        outcome,
        &aqs_serve::jobs::outcome_value(&direct),
        "server outcome diverged from a direct run"
    );
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_panicking_job_is_retried_then_fails_typed_and_the_server_survives() {
    let (server, addr, journal) = start("panic", |cfg| {
        cfg.max_attempts = 3;
        cfg.backoff_base_ms = 1;
    });
    let resp = request(
        &addr,
        &submit_fields(vec![("inject_panic", Value::Bool(true))]),
    )
    .unwrap();
    let job = get_u64(&resp, "job").unwrap();
    let record = wait_for(&addr, job);
    assert_eq!(get_str(&record, "state"), Some("failed"));
    assert_eq!(error_kind(&record), "panicked");
    assert_eq!(get_u64(&record, "attempts"), Some(3), "retries exhausted");
    let detail = get_str(record.get("error").unwrap(), "detail").unwrap();
    assert!(
        detail.contains("injected panic"),
        "failure record lost the panic message: {detail}"
    );

    // The server is still healthy: a fresh job on the same server runs.
    let resp = request(&addr, &submit_fields(vec![])).unwrap();
    let job = get_u64(&resp, "job").unwrap();
    let record = wait_for(&addr, job);
    assert_eq!(get_str(&record, "state"), Some("done"));
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_job_past_its_deadline_fails_with_a_typed_deadline_error() {
    let (server, addr, journal) = start("deadline", |cfg| {
        // One-quantum chunks make deadline checks frequent; `full`-scale
        // cg is long enough to blow a 30 ms budget many times over.
        cfg.chunk_quanta = 1;
    });
    let resp = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("submit".to_string())),
            ("workload", Value::Str("cg".to_string())),
            ("nodes", Value::U64(8)),
            ("policy", Value::Str("truth".to_string())),
            ("scale", Value::Str("full".to_string())),
            ("deadline_ms", Value::U64(30)),
        ]),
    )
    .unwrap();
    let job = get_u64(&resp, "job").unwrap();
    let record = wait_for(&addr, job);
    assert_eq!(get_str(&record, "state"), Some("failed"), "{record:?}");
    assert_eq!(error_kind(&record), "deadline_exceeded");
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn quota_and_queue_limits_shed_load_with_typed_rejections() {
    let (server, addr, journal) = start("quota", |cfg| {
        cfg.workers = 1;
        cfg.tenant_cap = 2;
        cfg.queue_cap = 3;
        // Slow jobs keep the queue occupied while the burst lands.
        cfg.chunk_quanta = 1;
    });
    let slow = |tenant: &str| {
        obj(vec![
            ("op", Value::Str("submit".to_string())),
            ("workload", Value::Str("cg".to_string())),
            ("nodes", Value::U64(8)),
            ("policy", Value::Str("truth".to_string())),
            ("scale", Value::Str("full".to_string())),
            ("tenant", Value::Str(tenant.to_string())),
            ("deadline_ms", Value::U64(2_000)),
        ])
    };
    // Tenant `a` fills its quota of 2.
    for _ in 0..2 {
        let r = request(&addr, &slow("a")).unwrap();
        assert_eq!(get_bool(&r, "ok"), Some(true), "{r:?}");
    }
    let r = request(&addr, &slow("a")).unwrap();
    assert_eq!(get_bool(&r, "ok"), Some(false));
    assert_eq!(
        get_str(r.get("error").unwrap(), "kind"),
        Some("quota_exceeded")
    );

    // Other tenants fill the queue; the next submission is shed.
    let mut last = None;
    for t in ["b", "c", "d", "e", "f"] {
        last = Some(request(&addr, &slow(t)).unwrap());
        if get_bool(last.as_ref().unwrap(), "ok") == Some(false) {
            break;
        }
    }
    let last = last.unwrap();
    assert_eq!(get_bool(&last, "ok"), Some(false), "burst was never shed");
    assert_eq!(
        get_str(last.get("error").unwrap(), "kind"),
        Some("overloaded")
    );

    // Typed rejections, not a wedged server: stats still answers.
    let stats = request(&addr, &op("stats")).unwrap();
    assert_eq!(get_bool(&stats, "ok"), Some(true));
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn unknown_jobs_and_malformed_requests_get_typed_rejections() {
    let (server, addr, journal) = start("badreq", |_| {});
    let r = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("status".to_string())),
            ("job", Value::U64(999)),
        ]),
    )
    .unwrap();
    assert_eq!(
        get_str(r.get("error").unwrap(), "kind"),
        Some("unknown_job")
    );
    let r = request(
        &addr,
        &obj(vec![("op", Value::Str("frobnicate".to_string()))]),
    )
    .unwrap();
    assert_eq!(
        get_str(r.get("error").unwrap(), "kind"),
        Some("bad_request")
    );
    let r = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("submit".to_string())),
            ("workload", Value::Str("no-such".to_string())),
        ]),
    )
    .unwrap();
    assert_eq!(
        get_str(r.get("error").unwrap(), "kind"),
        Some("bad_request")
    );
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_policy_no_engine_can_run_is_rejected_at_submit_on_a_connection_that_lives_on() {
    use std::io::{BufRead, BufReader, Write};
    let (server, addr, journal) = start("badpolicy", |_| {});
    // One connection for everything: a zero quantum used to be accepted and
    // then panic on every attempt; the overflowing one panicked right here,
    // inside submit, and took the connection thread with it.
    let stream = TcpStream::connect(&addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    let mut exchange = |req: Value| -> Value {
        let mut text = serde_json::to_string(&req).expect("serializes");
        text.push('\n');
        writer.write_all(text.as_bytes()).expect("request sent");
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("reply read") > 0,
            "closed"
        );
        serde_json::from_str(&line).expect("reply is JSON")
    };
    let policy = |p: &str| {
        obj(vec![
            ("op", Value::Str("submit".to_string())),
            ("workload", Value::Str("pingpong".to_string())),
            ("nodes", Value::U64(2)),
            ("policy", Value::Str(p.to_string())),
        ])
    };
    for (bad, why) in [
        ("fixed:0", "nonzero"),
        ("fixed:18446744073709551615", "overflows"),
        ("dyn:1:1000:0.5:0.02", "inc must be > 1"),
    ] {
        let r = exchange(policy(bad));
        assert_eq!(get_bool(&r, "ok"), Some(false), "{bad}: {r:?}");
        let err = r.get("error").expect("typed rejection");
        assert_eq!(get_str(err, "kind"), Some("bad_request"), "{bad}");
        let detail = get_str(err, "detail").expect("says why");
        assert!(detail.contains(why), "{bad}: {detail}");
    }
    // The same connection still answers, and the grammar is the CLI's and
    // the scenario reader's: `pred` and the long `dyn:` form run here too.
    for good in ["pred", "dyn:1:1000:1.03:0.02"] {
        let r = exchange(policy(good));
        assert_eq!(get_bool(&r, "ok"), Some(true), "{good}: {r:?}");
        let record = wait_for(&addr, get_u64(&r, "job").expect("job id"));
        assert_eq!(get_str(&record, "state"), Some("done"), "{good}");
    }
    server.stop();
    let _ = std::fs::remove_file(journal);
}

fn recovery_case() -> aqs_serve::CaseJob {
    aqs_serve::CaseJob {
        workload: "cg".to_string(),
        nodes: 4,
        policy: "dyn1".to_string(),
        seed: 11,
        scale: "mini".to_string(),
        inject_panic: false,
    }
}

/// Forges the journal a crashed server would leave behind: job 1 submitted
/// plus one mid-run snapshot record carrying `frame`, and no terminal
/// record. Using the journal API directly stands in for `kill -9` — nothing
/// after the snapshot ever reached disk.
fn forge_crashed_journal(journal: &Path, case: &aqs_serve::CaseJob, quanta: u64, frame: &[u8]) {
    let (mut j, initial) = aqs_serve::Journal::open(journal).unwrap();
    assert!(initial.is_empty());
    j.append(&obj(vec![
        ("ev", Value::Str("submit".to_string())),
        ("job", Value::U64(1)),
        ("tenant", Value::Str("default".to_string())),
        ("deadline_ms", Value::U64(0)),
        ("spec", aqs_serve::JobSpec::Case(case.clone()).to_value()),
    ]))
    .unwrap();
    j.append(&obj(vec![
        ("ev", Value::Str("snapshot".to_string())),
        ("job", Value::U64(1)),
        ("quanta", Value::U64(quanta)),
        ("bytes", Value::Str(aqs_serve::journal::to_hex(frame))),
    ]))
    .unwrap();
}

#[test]
fn recovery_resumes_from_the_journaled_snapshot_bit_identically() {
    let journal = tmp_journal("recover");
    let case = recovery_case();
    let snap = aqs_serve::jobs::build_sim(&case)
        .unwrap()
        .snapshot_at(40)
        .unwrap();
    forge_crashed_journal(&journal, &case, snap.quanta(), &snap.to_bytes());
    // Torn tail on top: the crash hit mid-append.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(&[0xAA; 7]).unwrap();
    }

    let cfg = ServeConfig {
        journal: journal.clone(),
        ..Default::default()
    };
    let server = Server::start(cfg).expect("recovery tolerates the torn tail");
    let addr = server.addr().to_string();
    let record = wait_for(&addr, 1);
    assert_eq!(get_str(&record, "state"), Some("done"), "{record:?}");
    let outcome = record.get("outcome").cloned().unwrap();

    let direct = aqs_serve::jobs::build_sim(&case).unwrap().run();
    assert_eq!(
        outcome,
        aqs_serve::jobs::outcome_value(&direct),
        "resumed run diverged from an uninterrupted one"
    );
    server.stop();

    // Terminal results survive yet another restart.
    let cfg = ServeConfig {
        journal: journal.clone(),
        ..Default::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr().to_string();
    let r = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("status".to_string())),
            ("job", Value::U64(1)),
        ]),
    )
    .unwrap();
    let record = r.get("job_record").unwrap();
    assert_eq!(get_str(record, "state"), Some("done"));
    assert_eq!(record.get("outcome"), Some(&outcome));
    server.stop();
    let _ = std::fs::remove_file(journal);
}

/// A journal written by the previous build carries frames of the previous
/// snapshot format. Such a frame is refused at decode, and the server
/// answers that by running the job again from quantum 0 — it must not fail
/// the job, and it must not resume from the cut.
#[test]
fn a_journaled_snapshot_of_the_previous_format_restarts_the_job_from_quantum_zero() {
    let journal = tmp_journal("old-frame");
    let case = recovery_case();
    let sim = aqs_serve::jobs::build_sim(&case).unwrap();
    // Only the header is forged: the version check comes before anything
    // reads the payload.
    let mut frame = sim.snapshot_at(40).unwrap().to_bytes();
    let previous = aqs_cluster::snapshot::SNAPSHOT_VERSION - 1;
    frame[8..12].copy_from_slice(&previous.to_le_bytes());
    assert!(matches!(
        aqs_cluster::SimSnapshot::from_bytes(&frame),
        Err(aqs_cluster::SimError::SnapshotFormat { .. })
    ));
    forge_crashed_journal(&journal, &case, 40, &frame);

    let chunk = 1_000;
    let cfg = ServeConfig {
        journal: journal.clone(),
        chunk_quanta: chunk,
        ..Default::default()
    };
    let server = Server::start(cfg).expect("recovery tolerates the old frame");
    let record = wait_for(&server.addr().to_string(), 1);
    assert_eq!(get_str(&record, "state"), Some("done"), "{record:?}");
    let direct = sim.run();
    assert!(direct.total_quanta > chunk, "the run outlasts one chunk");
    assert_eq!(
        record.get("outcome"),
        Some(&aqs_serve::jobs::outcome_value(&direct)),
        "restarted run diverged from an uninterrupted one"
    );
    server.stop();

    // Restarted, not resumed: the first cut the new server journaled is one
    // chunk from quantum 0, not one chunk past the forged cut.
    let (_, records) = aqs_serve::Journal::open(&journal).unwrap();
    let cuts: Vec<u64> = records
        .iter()
        .filter(|r| get_str(r, "ev") == Some("snapshot"))
        .filter_map(|r| get_u64(r, "quanta"))
        .collect();
    assert_eq!(cuts[..2], [40, chunk], "{cuts:?}");
    let _ = std::fs::remove_file(journal);
}

#[test]
fn a_failed_scenario_job_carries_the_scenario_error_in_its_record() {
    // A scenario file whose assertion cannot hold: max_sim_ms = 0.
    let mut scenario = std::env::temp_dir();
    scenario.push(format!(
        "aqs-serve-test-scenario-{}.toml",
        std::process::id()
    ));
    std::fs::write(
        &scenario,
        r#"
name = "doomed"
nodes = 2

[[phases]]
workload = "pingpong"
rounds = 5

[asserts]
max_sim_ms = 0
"#,
    )
    .unwrap();

    let (server, addr, journal) = start("scenario", |_| {});
    let resp = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("submit".to_string())),
            (
                "scenario",
                Value::Str(scenario.to_string_lossy().to_string()),
            ),
        ]),
    )
    .unwrap();
    assert_eq!(get_bool(&resp, "ok"), Some(true), "{resp:?}");
    let job = get_u64(&resp, "job").unwrap();
    let record = wait_for(&addr, job);
    assert_eq!(get_str(&record, "state"), Some("failed"));
    assert_eq!(error_kind(&record), "scenario");
    let detail = get_str(record.get("error").unwrap(), "detail").unwrap();
    assert!(
        detail.contains("doomed"),
        "failure record does not name the scenario: {detail}"
    );
    server.stop();
    let _ = std::fs::remove_file(journal);
    let _ = std::fs::remove_file(scenario);
}
