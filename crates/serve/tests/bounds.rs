//! The connection layer's bounds, held against clients that misbehave on
//! purpose. A test binary of its own: `/proc/self` then counts this
//! server's threads and memory and nothing else's.
#![cfg(target_os = "linux")]

use aqs_serve::client::request;
use aqs_serve::protocol::{get_bool, get_str, get_u64, obj};
use aqs_serve::server::{MAX_CONNECTIONS, MAX_LINE_BYTES};
use aqs_serve::{ServeConfig, Server};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The tests count process-wide threads and RSS, so they take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn start(name: &str) -> (Server, String, std::path::PathBuf) {
    let mut journal = std::env::temp_dir();
    journal.push(format!(
        "aqs-serve-bounds-{name}-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal);
    let server = Server::start(ServeConfig {
        journal: journal.clone(),
        ..Default::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr, journal)
}

/// Threads of this process named like the server's connection handlers.
fn conn_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "aqs-conn")
        .count()
}

/// Resident set size of this process, bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmRSS line");
    kib * 1024
}

fn op(name: &str) -> Value {
    obj(vec![("op", Value::Str(name.to_string()))])
}

/// One request line out, one response line back, on a connection kept open.
fn exchange(stream: &TcpStream, req: &Value) -> Value {
    let mut text = serde_json::to_string(req).expect("serializes");
    text.push('\n');
    (&mut &*stream)
        .write_all(text.as_bytes())
        .expect("request sent");
    read_reply(stream).expect("reply read")
}

/// One response line, or `None` at a close, a reset, or 10 s of silence.
fn read_reply(stream: &TcpStream) -> Option<Value> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout set");
    let mut line = String::new();
    match BufReader::new(stream).read_line(&mut line) {
        Ok(n) if n > 0 => Some(serde_json::from_str(&line).expect("reply is JSON")),
        _ => None,
    }
}

fn error_kind(reply: &Value) -> Option<&str> {
    get_str(reply.get("error")?, "kind")
}

/// Polls `stats` on `control` until the server reports `n` live handlers.
fn await_connections(control: &TcpStream, n: u64) -> Value {
    let started = Instant::now();
    loop {
        let stats = exchange(control, &op("stats"));
        assert_eq!(get_bool(&stats, "ok"), Some(true), "{stats:?}");
        if get_u64(&stats, "connections") == Some(n) {
            return stats;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "server never reported {n} connections: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn idle_clients_and_an_endless_line_leave_the_server_bounded_and_serving() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (server, addr, journal) = start("endless");
    let rss_before = rss_bytes();

    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&addr).expect("connects"))
        .collect();
    let control = TcpStream::connect(&addr).expect("connects");
    let stats = await_connections(&control, 65);
    assert_eq!(
        get_u64(&stats, "max_connections"),
        Some(MAX_CONNECTIONS as u64)
    );

    // A line that would be 64 MiB and never ends. The server reads one byte
    // past its limit, answers, and closes: the writer's next write fails.
    const ENDLESS: usize = 64 << 20;
    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connects");
            let chunk = vec![b'['; 64 << 10];
            let mut sent = 0;
            let mut refused = false;
            while sent < ENDLESS {
                match (&stream).write(&chunk) {
                    Ok(n) => sent += n,
                    Err(_) => {
                        refused = true;
                        break;
                    }
                }
            }
            (sent, refused, read_reply(&stream))
        })
    };

    // Meanwhile an ordinary client is served.
    let resp = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("submit".to_string())),
            ("workload", Value::Str("pingpong".to_string())),
            ("nodes", Value::U64(2)),
        ]),
    )
    .expect("submit round-trips");
    let job = get_u64(&resp, "job").expect("submit accepted");
    let waited = request(
        &addr,
        &obj(vec![
            ("op", Value::Str("wait".to_string())),
            ("job", Value::U64(job)),
        ]),
    )
    .expect("wait round-trips");
    let record = waited.get("job_record").expect("job record");
    assert_eq!(get_str(record, "state"), Some("done"), "{waited:?}");

    let mut most_threads = conn_threads();
    while !writer.is_finished() {
        most_threads = most_threads.max(conn_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    let (sent, refused, reply) = writer.join().expect("writer thread");
    assert!(refused && sent < ENDLESS, "wrote {sent} bytes unrefused");
    let reply = reply.expect("the refused writer still reads its answer");
    assert_eq!(error_kind(&reply), Some("bad_request"), "{reply:?}");
    let detail = get_str(reply.get("error").unwrap(), "detail").unwrap();
    assert!(detail.contains(&MAX_LINE_BYTES.to_string()), "{detail}");

    assert!(
        most_threads <= MAX_CONNECTIONS,
        "{most_threads} connection threads"
    );
    let grew = rss_bytes().saturating_sub(rss_before);
    assert!(grew < 16 << 20, "RSS grew by {grew} bytes");

    // Every idle client still holds its handler; the endless one let go.
    let stats = await_connections(&control, 65);
    assert_eq!(get_bool(&stats, "ok"), Some(true));
    drop(idle);
    drop(control);
    server.stop();
    let _ = std::fs::remove_file(journal);
}

#[test]
fn the_connection_past_the_cap_is_told_overloaded_until_a_slot_frees() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (server, addr, journal) = start("cap");

    // The control connection is one of the `MAX_CONNECTIONS` idle ones.
    let control = TcpStream::connect(&addr).expect("connects");
    let mut idle: Vec<TcpStream> = (1..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&addr).expect("connects"))
        .collect();
    let stats = await_connections(&control, MAX_CONNECTIONS as u64);
    assert_eq!(
        get_u64(&stats, "max_connections"),
        Some(MAX_CONNECTIONS as u64)
    );

    let extra = TcpStream::connect(&addr).expect("the listener still accepts");
    let reply = read_reply(&extra).expect("one line before the close");
    assert_eq!(error_kind(&reply), Some("overloaded"), "{reply:?}");
    assert!(read_reply(&extra).is_none(), "closed after the one line");
    assert!(conn_threads() <= MAX_CONNECTIONS);

    // A freed slot serves the next client. Its handler exits once it reads
    // the close, so the first tries may still be turned away.
    drop(idle.pop());
    let started = Instant::now();
    loop {
        match request(&addr, &op("stats")) {
            Ok(r) if get_bool(&r, "ok") == Some(true) => break,
            Ok(r) => assert_eq!(error_kind(&r), Some("overloaded"), "{r:?}"),
            Err(_) => {} // reset before the refusal was read
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "no request answered after a slot freed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(idle);
    drop(control);
    server.stop();
    let _ = std::fs::remove_file(journal);
}
