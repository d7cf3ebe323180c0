//! The resident job server.
//!
//! A fixed pool of worker threads drains a bounded queue of jobs submitted
//! over the JSONL protocol. The fault envelope:
//!
//! * **Panic isolation** — each execution attempt runs under
//!   `catch_unwind`; a panicking job is retried with exponential backoff up
//!   to the configured attempt budget, then fails with a typed `panicked`
//!   record. The worker, the queue, and every other job survive.
//! * **Deadlines** — each attempt fixes its deadline `Instant` when it
//!   starts; the checkpointed executor compares the clock against it
//!   between quantum chunks and fails the job with a typed
//!   `deadline_exceeded` record. Shutdown is read at the same check.
//! * **Load shedding** — a full queue rejects with `overloaded`, a tenant
//!   over its in-flight quota with `quota_exceeded`; both are typed
//!   protocol rejections, never dropped connections.
//! * **Bounded clients** — at most [`MAX_CONNECTIONS`] live connection
//!   handlers (the next connection gets one `overloaded` line and is
//!   closed), at most [`MAX_LINE_BYTES`] per request line (a longer one
//!   gets `bad_request` and the connection closes), and [`IDLE_TIMEOUT`]
//!   on every read and write. One client cannot make the server hold
//!   unbounded threads or memory.
//! * **Crash safety** — every submission, quantum-edge snapshot, retry,
//!   and terminal outcome is journaled write-ahead. After `kill -9`,
//!   startup replays the journal: finished jobs keep their results,
//!   unfinished case jobs resume from their last intact snapshot
//!   (bit-identical to an uninterrupted run), scenario jobs restart from
//!   scratch (they are deterministic, so a restart is safe — just slower).
//!
//! The accept thread blocks in `accept`: a connection is handed to its
//! handler the moment it arrives, with no poll interval between a
//! client's `connect` and the server noticing it. Nothing else can wake a
//! thread parked in `accept`, so shutdown raises the flag and then
//! connects once to the server's own address; the accept loop re-checks
//! the flag after every `accept`, drops that connection, and exits.
//!
//! No thread runs on a timer. Workers and `wait` handlers block on condition
//! variables that every state change and shutdown notify.

use crate::jobs::{run_case, run_scenario_job, JobError, JobSpec};
use crate::journal::{from_hex, to_hex, Journal};
use crate::protocol::{get_str, get_u64, obj, ok, reject, RejectKind};
use aqs_cluster::SimSnapshot;
use serde_json::Value;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Live connection handlers at most; the next connection is answered
/// with one `overloaded` line and closed.
pub const MAX_CONNECTIONS: usize = 128;

/// Nodes one case job may ask for: the largest cluster any gate or
/// benchmark builds (`incast_256k`). A `submit` asking for more, or for
/// fewer than two, is answered `bad_request`.
pub const MAX_CASE_NODES: usize = 262_144;

/// Bytes one request line may hold, newline excluded. A longer line is
/// answered `bad_request` and its connection closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read and write timeout on every connection: a client silent this long
/// is disconnected.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Server configuration. `Default` gives a loopback server on an
/// OS-assigned port with a journal in the system temp directory — tests
/// and smoke runs override what they need.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before `overloaded`.
    pub queue_cap: usize,
    /// Maximum in-flight (queued + running) jobs per tenant before
    /// `quota_exceeded`.
    pub tenant_cap: usize,
    /// Default per-attempt execution deadline, milliseconds; `0` disables.
    /// Submissions override per job via `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Execution attempts per job before a panic becomes terminal.
    pub max_attempts: u32,
    /// Base of the exponential retry backoff, milliseconds (attempt `k`
    /// waits `backoff_base_ms << (k-1)`).
    pub backoff_base_ms: u64,
    /// Quanta per execution chunk — the checkpoint (and deadline-check)
    /// granularity for case jobs.
    pub chunk_quanta: u64,
    /// Write-ahead journal path.
    pub journal: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let mut journal = std::env::temp_dir();
        journal.push(format!("aqs-serve-{}.journal", std::process::id()));
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            tenant_cap: 8,
            default_deadline_ms: 30_000,
            max_attempts: 3,
            backoff_base_ms: 20,
            chunk_quanta: 2_000,
            journal,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug)]
enum JobState {
    Queued,
    Running,
    Done(Value),
    Failed(Value),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

struct Job {
    id: u64,
    tenant: String,
    spec: JobSpec,
    deadline_ms: u64,
    state: JobState,
    attempts: u32,
    /// Last journaled quantum-edge snapshot (case jobs only).
    snapshot: Option<Vec<u8>>,
}

struct State {
    /// Every job ever accepted, in increasing id order (ids are assigned
    /// under this lock), so lookup is a binary search.
    jobs: Vec<Job>,
    queue: VecDeque<u64>,
    /// Queued + running jobs per tenant; a tenant at zero has no entry.
    in_flight: BTreeMap<String, usize>,
    next_id: u64,
    journal: Journal,
}

impl State {
    fn new(journal: Journal) -> State {
        State {
            jobs: Vec::new(),
            queue: VecDeque::new(),
            in_flight: BTreeMap::new(),
            next_id: 1,
            journal,
        }
    }

    fn index(&self, id: u64) -> Option<usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id).ok()
    }

    fn job(&self, id: u64) -> Option<&Job> {
        self.index(id).map(|i| &self.jobs[i])
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.index(id).map(|i| &mut self.jobs[i])
    }

    fn in_flight(&self, tenant: &str) -> usize {
        self.in_flight.get(tenant).copied().unwrap_or(0)
    }

    /// Accepts a new job as `Queued`. `id` must exceed every id pushed
    /// before it.
    fn push_job(&mut self, id: u64, tenant: String, spec: JobSpec, deadline_ms: u64) {
        debug_assert!(self.jobs.last().is_none_or(|j| j.id < id));
        *self.in_flight.entry(tenant.clone()).or_insert(0) += 1;
        self.jobs.push(Job {
            id,
            tenant,
            spec,
            deadline_ms,
            state: JobState::Queued,
            attempts: 0,
            snapshot: None,
        });
        self.next_id = id + 1;
    }

    /// Moves job `id` to `state`, keeping `in_flight` in step. A job that
    /// turns terminal also drops its last snapshot: only a retry or a
    /// resume reads it, and a finished job gets neither.
    fn set_state(&mut self, id: u64, state: JobState) {
        let Some(i) = self.index(id) else { return };
        let job = &mut self.jobs[i];
        if state.terminal() && !job.state.terminal() {
            job.snapshot = None;
            if let Some(n) = self.in_flight.get_mut(&job.tenant) {
                *n -= 1;
                if *n == 0 {
                    self.in_flight.remove(&job.tenant);
                }
            }
        }
        job.state = state;
    }
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    shutdown: AtomicBool,
    /// Live connection handlers, at most [`MAX_CONNECTIONS`].
    connections: AtomicUsize,
    /// Where a connection reaches this server's own listener.
    wake_addr: SocketAddr,
}

impl Inner {
    /// Poison-tolerant lock: a worker that panicked *outside*
    /// `catch_unwind` (a server bug, not a job panic) must not take the
    /// whole server down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Raises the flag that running attempts read at their next chunk edge,
    /// then wakes every thread parked on a condition variable. The flag is
    /// raised before the lock is taken, so a waiter that saw it down still
    /// held the lock and is parked by the time `notify_all` runs.
    fn begin_shutdown(&self) {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        drop(self.lock());
        self.work_cv.notify_all();
        self.done_cv.notify_all();
        if first {
            // The accept thread is parked in `accept`, and a connection is
            // the only thing that returns it; it re-checks `shutdown` first
            // and drops this one. A connect that fails means the thread is
            // not parked — the listener is gone, its backlog is full, or
            // `accept` itself is failing — and it sees the flag on its own.
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }
}

/// A running server. Dropping the handle does *not* stop it — call
/// [`Server::stop`] (tests) or [`Server::join`] (the CLI, which waits for
/// a `shutdown` request).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Opens (replaying) the journal, binds the listener, and spawns the
    /// worker pool and the accept loop.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let (journal, records) = Journal::open(&cfg.journal)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // A wildcard bind (`0.0.0.0:7171`) is not connectable everywhere;
        // loopback with the bound port always reaches it.
        let wake_ip = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };

        let mut state = State::new(journal);
        recover(&mut state, &records);

        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            wake_addr: SocketAddr::new(wake_ip, addr.port()),
        });

        let mut threads = Vec::new();
        for w in 0..cfg.workers.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("aqs-worker-{w}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name("aqs-accept".to_string())
                    .spawn(move || accept_loop(&inner, listener))?,
            );
        }
        Ok(Server {
            inner,
            addr,
            threads,
        })
    }

    /// The bound listen address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` request arrives and every thread has
    /// exited: the workers and the accept loop all run until
    /// shutdown, so joining them *is* the wait.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Initiates shutdown and joins every thread.
    pub fn stop(self) {
        self.inner.begin_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Rebuilds in-memory job state from replayed journal records. Unfinished
/// jobs are re-enqueued in submission order; terminal results are kept so
/// clients can still query them after a restart.
fn recover(state: &mut State, records: &[Value]) {
    for rec in records {
        let Some(ev) = get_str(rec, "ev") else {
            continue;
        };
        match ev {
            "submit" => {
                let Some(id) = get_u64(rec, "job") else {
                    continue;
                };
                let Some(spec_v) = rec.get("spec") else {
                    continue;
                };
                let Ok(spec) = JobSpec::from_value(spec_v) else {
                    continue;
                };
                // Ids only ever grow in a journal this server wrote; a
                // record that breaks that is not one of ours.
                if id < state.next_id {
                    continue;
                }
                state.push_job(
                    id,
                    get_str(rec, "tenant").unwrap_or("default").to_string(),
                    spec,
                    get_u64(rec, "deadline_ms").unwrap_or(0),
                );
            }
            "snapshot" => {
                let bytes = get_str(rec, "bytes").and_then(from_hex);
                if let (Some(id), Some(bytes)) = (get_u64(rec, "job"), bytes) {
                    if let Some(job) = state.job_mut(id) {
                        job.snapshot = Some(bytes);
                    }
                }
            }
            "retry" => {
                if let Some(job) = get_u64(rec, "job").and_then(|id| state.job_mut(id)) {
                    job.attempts = get_u64(rec, "attempt").unwrap_or(0) as u32;
                }
            }
            "done" => {
                if let Some(id) = get_u64(rec, "job") {
                    let outcome = rec.get("outcome").cloned().unwrap_or(Value::Null);
                    state.set_state(id, JobState::Done(outcome));
                }
            }
            "failed" => {
                if let Some(id) = get_u64(rec, "job") {
                    let error = rec.get("error").cloned().unwrap_or(Value::Null);
                    state.set_state(id, JobState::Failed(error));
                }
            }
            _ => {}
        }
    }
    for job in &state.jobs {
        if !job.state.terminal() {
            state.queue.push_back(job.id);
        }
    }
}

/// One worker: claim the queue head, execute an attempt under
/// `catch_unwind`, journal and record the outcome, repeat.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let claimed = {
            let mut st = inner.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        execute(inner, claimed);
    }
}

/// Runs one attempt of job `id` and applies the outcome.
fn execute(inner: &Arc<Inner>, id: u64) {
    let spec;
    let deadline_ms;
    let attempt;
    let from;
    {
        let mut st = inner.lock();
        st.set_state(id, JobState::Running);
        let Some(job) = st.job_mut(id) else { return };
        job.attempts += 1;
        attempt = job.attempts;
        spec = job.spec.clone();
        deadline_ms = job.deadline_ms;
        // Resume from the last journaled snapshot when one decodes; a
        // snapshot that does not (it cannot be corrupt — the journal is
        // checksummed — but the binary may have changed across a restart)
        // falls back to a fresh, equally deterministic run.
        from = job
            .snapshot
            .as_deref()
            .and_then(|b| SimSnapshot::from_bytes(b).ok());
    }

    // `None` when disabled, or so far out that `Instant` cannot hold it.
    let deadline = Instant::now()
        .checked_add(Duration::from_millis(deadline_ms))
        .filter(|_| deadline_ms > 0);
    let cancelled =
        || inner.shutdown.load(Ordering::SeqCst) || deadline.is_some_and(|d| Instant::now() >= d);
    let chunk = inner.cfg.chunk_quanta.max(1);
    let result = catch_unwind(AssertUnwindSafe(|| match &spec {
        JobSpec::Case(case) => run_case(case, from, chunk, deadline_ms, &cancelled, &mut |snap| {
            // Encode before taking the lock, so `status`/`wait`/`submit`
            // handlers never queue behind it.
            let bytes = snap.to_bytes();
            let rec = obj(vec![
                ("ev", Value::Str("snapshot".to_string())),
                ("job", Value::U64(id)),
                ("quanta", Value::U64(snap.quanta())),
                ("bytes", Value::Str(to_hex(&bytes))),
            ]);
            let mut st = inner.lock();
            st.journal
                .append(&rec)
                .map_err(|e| format!("journal append: {e}"))?;
            if let Some(job) = st.job_mut(id) {
                job.snapshot = Some(bytes);
            }
            Ok(())
        }),
        JobSpec::Scenario(s) => run_scenario_job(s),
    }));

    match result {
        Ok(Ok(outcome)) => finish(
            inner,
            id,
            "done",
            ("outcome", outcome.clone()),
            JobState::Done(outcome),
        ),
        Ok(Err(JobError::DeadlineExceeded { .. })) if inner.shutdown.load(Ordering::SeqCst) => {
            // Cancelled by shutdown, whatever the clock says: the job is
            // not at fault. Leave it non-terminal with no journal event,
            // so the next start resumes it from its last snapshot exactly
            // as after a crash.
            inner.lock().set_state(id, JobState::Queued);
        }
        Ok(Err(err)) => {
            // Typed errors are deterministic — retrying cannot change the
            // outcome, so they are terminal on the first attempt.
            let v = err.to_value();
            finish(
                inner,
                id,
                "failed",
                ("error", v.clone()),
                JobState::Failed(v),
            );
        }
        Err(panic) => {
            // `&panic` would unsize the Box itself into `dyn Any` and the
            // downcast would always miss — deref to the payload first.
            let detail = panic_message(panic.as_ref());
            if attempt < inner.cfg.max_attempts {
                let backoff =
                    Duration::from_millis(inner.cfg.backoff_base_ms << (attempt - 1).min(16));
                {
                    let mut st = inner.lock();
                    let rec = obj(vec![
                        ("ev", Value::Str("retry".to_string())),
                        ("job", Value::U64(id)),
                        ("attempt", Value::U64(attempt as u64)),
                        ("detail", Value::Str(detail.clone())),
                    ]);
                    let _ = st.journal.append(&rec);
                    st.set_state(id, JobState::Queued);
                }
                thread::sleep(backoff);
                let mut st = inner.lock();
                st.queue.push_back(id);
                drop(st);
                inner.work_cv.notify_one();
            } else {
                let v = JobError::Panicked {
                    detail: format!("{detail} ({attempt} attempts)"),
                }
                .to_value();
                finish(
                    inner,
                    id,
                    "failed",
                    ("error", v.clone()),
                    JobState::Failed(v),
                );
            }
        }
    }
}

/// Journals a terminal record, applies the state, and wakes waiters.
fn finish(inner: &Arc<Inner>, id: u64, ev: &str, field: (&str, Value), state: JobState) {
    let mut st = inner.lock();
    let rec = obj(vec![
        ("ev", Value::Str(ev.to_string())),
        ("job", Value::U64(id)),
        field,
    ]);
    let _ = st.journal.append(&rec);
    st.set_state(id, state);
    drop(st);
    inner.done_cv.notify_all();
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// A live connection handler's hold on one of [`MAX_CONNECTIONS`]; dropping
/// it (the handler returned, unwound, or was never spawned) gives it back.
struct ConnectionSlot(Arc<Inner>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accepts connections until shutdown; each connection gets its own
/// handler thread, up to [`MAX_CONNECTIONS`] at once. The thread blocks in
/// `accept`; [`Inner::begin_shutdown`] returns it with a connection of its
/// own, which is dropped here unanswered.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(IDLE_TIMEOUT));
                let _ = stream.set_write_timeout(Some(IDLE_TIMEOUT));
                // Only this thread adds, so the count cannot pass the cap.
                if inner.connections.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                    inner.connections.fetch_sub(1, Ordering::SeqCst);
                    let full = reject(
                        RejectKind::Overloaded,
                        format!("{MAX_CONNECTIONS} connections open"),
                    );
                    let _ = write_line(&mut &stream, &full);
                    continue;
                }
                let slot = ConnectionSlot(Arc::clone(inner));
                let _ = thread::Builder::new()
                    .name("aqs-conn".to_string())
                    .spawn(move || handle_connection(&slot.0, stream));
            }
            // Out of descriptors, or the peer reset before we got to it:
            // back off so a persistent error cannot spin this thread.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Writes one response line.
fn write_line(writer: &mut impl Write, response: &Value) -> std::io::Result<()> {
    let mut text = serde_json::to_string(response).map_err(std::io::Error::other)?;
    text.push('\n');
    writer.write_all(text.as_bytes())
}

/// One JSONL connection: a request per line, a response per line. A line
/// past [`MAX_LINE_BYTES`] is answered `bad_request` and ends the
/// connection unread; a read or write that idles past [`IDLE_TIMEOUT`]
/// ends it silently.
fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let mut reader = BufReader::new(&stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the limit tells a line of exactly `MAX_LINE_BYTES`
        // and its newline from a longer one.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_LINE_BYTES {
            let too_long = reject(
                RejectKind::BadRequest,
                format!("request line longer than {MAX_LINE_BYTES} bytes"),
            );
            let _ = write_line(&mut &stream, &too_long);
            break;
        }
        let response = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => match serde_json::from_str::<Value>(text) {
                Ok(req) => handle_request(inner, &req),
                Err(e) => reject(RejectKind::BadRequest, format!("request is not JSON: {e}")),
            },
            Err(e) => reject(RejectKind::BadRequest, format!("request is not UTF-8: {e}")),
        };
        if write_line(&mut &stream, &response).is_err() {
            break;
        }
    }
}

/// The job's wire record.
fn job_value(job: &Job) -> Value {
    let mut fields = vec![
        ("job", Value::U64(job.id)),
        ("tenant", Value::Str(job.tenant.clone())),
        ("label", Value::Str(job.spec.label())),
        ("state", Value::Str(job.state.name().to_string())),
        ("attempts", Value::U64(job.attempts as u64)),
    ];
    match &job.state {
        JobState::Done(outcome) => fields.push(("outcome", outcome.clone())),
        JobState::Failed(error) => fields.push(("error", error.clone())),
        _ => {}
    }
    obj(fields)
}

/// Dispatches one request to its handler.
fn handle_request(inner: &Arc<Inner>, req: &Value) -> Value {
    match get_str(req, "op") {
        Some("submit") => handle_submit(inner, req),
        Some("status") => with_job(inner, req, |job| ok(vec![("job_record", job_value(job))])),
        Some("wait") => handle_wait(inner, req),
        Some("list") => {
            let st = inner.lock();
            let jobs: Vec<Value> = st.jobs.iter().map(job_value).collect();
            ok(vec![("jobs", Value::Array(jobs))])
        }
        Some("stats") => handle_stats(inner),
        Some("shutdown") => {
            inner.begin_shutdown();
            ok(vec![("stopping", Value::Bool(true))])
        }
        Some(other) => reject(RejectKind::BadRequest, format!("unknown op `{other}`")),
        None => reject(RejectKind::BadRequest, "missing `op` field"),
    }
}

fn handle_submit(inner: &Arc<Inner>, req: &Value) -> Value {
    if inner.shutdown.load(Ordering::SeqCst) {
        return reject(RejectKind::ShuttingDown, "server is shutting down");
    }
    let spec = match JobSpec::from_value(req) {
        Ok(spec) => spec,
        Err(detail) => return reject(RejectKind::BadRequest, detail),
    };
    // Only a case job reaches the chunk edges where a deadline is read; the
    // server default still rides every job, unread on a scenario.
    if matches!(spec, JobSpec::Scenario(_)) && req.get("deadline_ms").is_some() {
        return reject(RejectKind::BadRequest, "deadline_ms bounds case jobs only");
    }
    let tenant = get_str(req, "tenant").unwrap_or("default").to_string();
    let deadline_ms = get_u64(req, "deadline_ms").unwrap_or(inner.cfg.default_deadline_ms);

    let mut st = inner.lock();
    if st.queue.len() >= inner.cfg.queue_cap {
        return reject(
            RejectKind::Overloaded,
            format!("queue full: {} jobs queued", st.queue.len()),
        );
    }
    if st.in_flight(&tenant) >= inner.cfg.tenant_cap {
        return reject(
            RejectKind::QuotaExceeded,
            format!(
                "tenant `{tenant}` already has {} jobs in flight",
                inner.cfg.tenant_cap
            ),
        );
    }
    let id = st.next_id;
    // Write-ahead: the submission is durable before it is accepted.
    let rec = obj(vec![
        ("ev", Value::Str("submit".to_string())),
        ("job", Value::U64(id)),
        ("tenant", Value::Str(tenant.clone())),
        ("deadline_ms", Value::U64(deadline_ms)),
        ("spec", spec.to_value()),
    ]);
    if let Err(e) = st.journal.append(&rec) {
        return reject(RejectKind::BadRequest, format!("journal append: {e}"));
    }
    st.push_job(id, tenant, spec, deadline_ms);
    st.queue.push_back(id);
    drop(st);
    inner.work_cv.notify_one();
    ok(vec![("job", Value::U64(id))])
}

fn with_job(inner: &Arc<Inner>, req: &Value, f: impl FnOnce(&Job) -> Value) -> Value {
    let Some(id) = get_u64(req, "job") else {
        return reject(RejectKind::BadRequest, "missing `job` field");
    };
    let st = inner.lock();
    match st.job(id) {
        Some(job) => f(job),
        None => reject(RejectKind::UnknownJob, format!("no job {id}")),
    }
}

fn handle_wait(inner: &Arc<Inner>, req: &Value) -> Value {
    let Some(id) = get_u64(req, "job") else {
        return reject(RejectKind::BadRequest, "missing `job` field");
    };
    let mut st = inner.lock();
    loop {
        match st.job(id) {
            None => return reject(RejectKind::UnknownJob, format!("no job {id}")),
            Some(job) if job.state.terminal() => return ok(vec![("job_record", job_value(job))]),
            Some(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return reject(RejectKind::ShuttingDown, "server is shutting down");
                }
                st = inner.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

fn handle_stats(inner: &Arc<Inner>) -> Value {
    let st = inner.lock();
    let mut counts = [0u64; 4];
    for job in &st.jobs {
        let i = match job.state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done(_) => 2,
            JobState::Failed(_) => 3,
        };
        counts[i] += 1;
    }
    ok(vec![
        ("queued", Value::U64(counts[0])),
        ("running", Value::U64(counts[1])),
        ("done", Value::U64(counts[2])),
        ("failed", Value::U64(counts[3])),
        (
            "connections",
            Value::U64(inner.connections.load(Ordering::SeqCst) as u64),
        ),
        ("max_connections", Value::U64(MAX_CONNECTIONS as u64)),
        (
            "tenants",
            Value::Object(
                st.in_flight
                    .iter()
                    .map(|(t, &n)| (t.clone(), Value::U64(n as u64)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::CaseJob;

    fn state(name: &str) -> (State, PathBuf) {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "aqs-serve-state-{name}-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).expect("journal opens");
        (State::new(journal), path)
    }

    fn spec() -> JobSpec {
        JobSpec::Case(CaseJob {
            workload: "pingpong".to_string(),
            nodes: 2,
            policy: "dyn1".to_string(),
            seed: 1,
            scale: "tiny".to_string(),
            inject_panic: false,
        })
    }

    #[test]
    fn a_terminal_job_releases_its_snapshot_quota_slot_and_running_entry() {
        let (mut st, path) = state("terminal");
        for id in [1, 2, 5] {
            st.push_job(id, "a".to_string(), spec(), 0);
        }
        st.push_job(9, "b".to_string(), spec(), 0);
        assert_eq!(st.next_id, 10);
        assert_eq!((st.in_flight("a"), st.in_flight("b")), (3, 1));
        assert!(st.job(3).is_none() && st.job(5).is_some());

        st.set_state(5, JobState::Running);
        st.set_state(9, JobState::Running);
        st.job_mut(5).expect("job 5").snapshot = Some(vec![0xAB; 64]);

        // A retry re-queues: still in flight, snapshot kept for the resume.
        st.set_state(5, JobState::Queued);
        assert_eq!(st.in_flight("a"), 3);
        assert!(st.job(5).expect("job 5").snapshot.is_some());

        st.set_state(5, JobState::Running);
        st.set_state(5, JobState::Done(Value::Null));
        assert_eq!(st.in_flight("a"), 2);
        assert!(st.job(5).expect("job 5").snapshot.is_none());

        st.set_state(9, JobState::Failed(Value::Null));
        assert_eq!(st.in_flight("b"), 0);
        assert!(!st.in_flight.contains_key("b"), "zero entries are dropped");
        // A duplicate terminal record (a replayed journal) must not
        // release the slot twice.
        st.set_state(5, JobState::Done(Value::Null));
        assert_eq!(st.in_flight("a"), 2);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn recovery_keeps_snapshots_of_unfinished_jobs_only() {
        let (mut st, path) = state("recover");
        let submit = |id: u64| {
            obj(vec![
                ("ev", Value::Str("submit".to_string())),
                ("job", Value::U64(id)),
                ("tenant", Value::Str("t".to_string())),
                ("spec", spec().to_value()),
            ])
        };
        let snapshot = |id: u64| {
            obj(vec![
                ("ev", Value::Str("snapshot".to_string())),
                ("job", Value::U64(id)),
                ("bytes", Value::Str(to_hex(&[1, 2, 3]))),
            ])
        };
        let records = vec![
            submit(1),
            submit(2),
            snapshot(1),
            snapshot(2),
            obj(vec![
                ("ev", Value::Str("done".to_string())),
                ("job", Value::U64(1)),
                ("outcome", Value::U64(7)),
            ]),
            // Not a record this server could have written: ids only grow.
            submit(2),
        ];
        recover(&mut st, &records);
        assert_eq!(st.jobs.len(), 2);
        assert!(st.job(1).expect("job 1").snapshot.is_none());
        assert_eq!(st.job(2).expect("job 2").snapshot, Some(vec![1, 2, 3]));
        assert_eq!(st.queue, VecDeque::from([2]));
        assert_eq!(st.in_flight("t"), 1);
        let _ = std::fs::remove_file(path);
    }
}
