//! The `semred` TCP server.
//!
//! A `TcpListener` accept loop feeding a **bounded** pool of worker
//! threads over a rendezvous channel: at most
//! [`ServerConfig::workers`] connections are served concurrently, and
//! further accepted connections wait in the channel (then the OS
//! listener backlog) rather than spawning unbounded threads.  Each
//! worker owns one connection at a time — request parsing, payload
//! reads, pattern execution, and response writes all happen on that
//! thread, which is the invariant the thread-local oracle routing in
//! [`crate::tenant`] relies on.
//!
//! Shutdown is cooperative: a `SHUTDOWN` request flips a flag and pokes
//! the listener with a loopback connection so the accept loop observes
//! it; the accept loop then shuts the read half of every live connection
//! (so workers waiting on idle clients see EOF and finish), closes the
//! channel, and joins the workers.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};

use semre::oracle::persist::{PersistConfig, PersistentAnswerStore};
use semre::{OracleSpec, SemRegexBuilder};

use crate::cache::{CacheEntry, PatternCache};
use crate::proto::{self, Request};
use crate::tenant::{bind_session, RoutedOracle, TenantRegistry};

/// Everything `semred` needs to come up.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads = max concurrent connections.
    pub workers: usize,
    /// Compiled-pattern LRU capacity.
    pub pattern_capacity: usize,
    /// Path of the persistent answer log; `None` disables persistence.
    pub answer_log: Option<PathBuf>,
    /// Durability / compaction knobs for the answer log.
    pub persist: PersistConfig,
    /// Max backend oracle questions per tenant (`None` = unlimited).
    pub budget: Option<u64>,
    /// Wall-clock ceiling per `SCAN` request (`None` = unlimited).  A
    /// scan that overruns is aborted at the next line boundary with an
    /// `ERR 2`, so one slow request cannot wedge a worker forever.
    pub request_timeout: Option<std::time::Duration>,
    /// Max requests one connection may issue (`None` = unlimited).  The
    /// request over the limit is answered with a final `ERR 2` line and
    /// the connection is closed cleanly — never hung.
    pub max_requests_per_conn: Option<u64>,
    /// Max bytes one connection may send — request lines plus payloads
    /// (`None` = unlimited).  Enforced before the oversized payload is
    /// read, with the same final-`ERR 2`-then-close discipline.
    pub max_bytes_per_conn: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            pattern_capacity: 64,
            answer_log: None,
            persist: PersistConfig::default(),
            budget: None,
            request_timeout: None,
            max_requests_per_conn: None,
            max_bytes_per_conn: None,
        }
    }
}

/// Shared server state: the pattern cache, the tenant registry (which
/// owns the persistent store), and global counters.
#[derive(Debug)]
struct DaemonState {
    addr: SocketAddr,
    patterns: Mutex<PatternCache>,
    tenants: TenantRegistry,
    requests: AtomicU64,
    shutdown: AtomicBool,
    /// Handles of the connections being served, keyed by a serial, so
    /// shutdown can end the reads of workers waiting on idle clients.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_connection: AtomicU64,
    request_timeout: Option<std::time::Duration>,
    max_requests_per_conn: Option<u64>,
    max_bytes_per_conn: Option<u64>,
}

impl DaemonState {
    fn lock_live(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.live
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Shuts the read half of every live connection: a worker blocked on
    /// an idle client reads EOF, while one mid-request still writes its
    /// response.  Called after the shutdown flag is set, so a connection
    /// registering later sees the flag instead (both under `live`).
    fn end_live_reads(&self) {
        for stream in self.lock_live().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A connection's entry in [`DaemonState::live`], removed on drop.
struct LiveConnection<'a> {
    state: &'a DaemonState,
    id: u64,
}

impl<'a> LiveConnection<'a> {
    /// Registers `stream`, or returns `None` when the server is already
    /// shutting down (the connection is then dropped unserved).
    fn register(state: &'a DaemonState, stream: &TcpStream) -> std::io::Result<Option<Self>> {
        let handle = stream.try_clone()?;
        let mut live = state.lock_live();
        if state.shutdown.load(SeqCst) {
            return Ok(None);
        }
        let id = state.next_connection.fetch_add(1, Relaxed);
        live.insert(id, handle);
        Ok(Some(LiveConnection { state, id }))
    }
}

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        self.state.lock_live().remove(&self.id);
    }
}

/// A bound, not-yet-running `semred` server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<DaemonState>,
    workers: usize,
}

/// A running server spawned on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    /// The address the server is listening on (with the real port).
    pub addr: SocketAddr,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Waits for the server to shut down.
    ///
    /// # Errors
    ///
    /// The accept loop's I/O error, if it died of one.
    ///
    /// # Panics
    ///
    /// Panics if the server thread panicked.
    pub fn join(self) -> std::io::Result<()> {
        self.join.join().expect("semred server thread panicked")
    }
}

impl Server {
    /// Binds the listener and opens (replaying) the answer log.
    ///
    /// # Errors
    ///
    /// Socket errors, and answer-log open errors (including a log file
    /// that is not an answer log — see
    /// [`PersistentAnswerStore::open`]).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let persist = match &config.answer_log {
            Some(path) => Some(Arc::new(PersistentAnswerStore::open_with(
                path,
                config.persist.clone(),
            )?)),
            None => None,
        };
        let state = Arc::new(DaemonState {
            addr,
            patterns: Mutex::new(PatternCache::new(config.pattern_capacity)),
            tenants: TenantRegistry::new(persist, config.budget),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
            next_connection: AtomicU64::new(0),
            request_timeout: config.request_timeout,
            max_requests_per_conn: config.max_requests_per_conn,
            max_bytes_per_conn: config.max_bytes_per_conn,
        });
        Ok(Server {
            listener,
            state,
            workers: config.workers.max(1),
        })
    }

    /// The bound address (the real port when the config asked for `0`).
    ///
    /// # Errors
    ///
    /// The socket's `local_addr` error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok(self.state.addr)
    }

    /// Serves until a `SHUTDOWN` request arrives.  Blocks the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O errors; per-connection errors only drop
    /// that connection.
    pub fn run(self) -> std::io::Result<()> {
        let (handoff, incoming) = mpsc::sync_channel::<TcpStream>(self.workers);
        let incoming = Arc::new(Mutex::new(incoming));
        let mut workers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let incoming = incoming.clone();
            let state = self.state.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("semred-worker-{i}"))
                    .spawn(move || loop {
                        let next = incoming.lock().expect("worker queue poisoned").recv();
                        let Ok(stream) = next else {
                            return; // channel closed: server is draining
                        };
                        // A connection that dies mid-request only costs
                        // itself; the worker moves on.
                        let _ = handle_connection(&state, stream);
                    })?,
            );
        }

        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Accept errors (e.g. EMFILE) are transient; only
                    // stop if shutdown was requested meanwhile.
                    if self.state.shutdown.load(SeqCst) {
                        break;
                    }
                    return Err(e);
                }
            };
            if self.state.shutdown.load(SeqCst) {
                // Either the shutdown wake-up connection or a late
                // client; both are dropped.
                drop(stream);
                break;
            }
            if handoff.send(stream).is_err() {
                break; // all workers gone
            }
        }
        self.state.end_live_reads();
        drop(handoff);
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(store) = self.state.tenants.persist() {
            let _ = store.sync();
        }
        Ok(())
    }

    /// Runs the server on a background thread; the returned handle has
    /// the bound address.
    ///
    /// # Errors
    ///
    /// Thread-spawn errors.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.state.addr;
        let join = std::thread::Builder::new()
            .name("semred-accept".to_owned())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, join })
    }
}

/// Serves one connection until EOF, `QUIT`, `SHUTDOWN`, or an I/O error.
fn handle_connection(state: &Arc<DaemonState>, stream: TcpStream) -> std::io::Result<()> {
    let Some(_live) = LiveConnection::register(state, &stream)? else {
        return Ok(()); // shutting down
    };
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Tenancy is per connection: `TENANT` renames, everyone starts as
    // "default".
    let mut tenant = "default".to_owned();
    let mut line = String::new();
    // Connection-level limits: both counters cover everything the peer
    // sent (request lines and payloads).  Exceeding a limit is a clean
    // refusal — one final `ERR 2` line, flush, close — so a limited
    // client always reads a parseable response, never a hang.
    let mut served: u64 = 0;
    let mut received: u64 = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // clean EOF
        }
        served += 1;
        received += line.len() as u64;
        if let Some(max) = state.max_requests_per_conn {
            if served > max {
                writeln!(
                    writer,
                    "ERR 2 connection limit: more than {max} request(s) on one connection"
                )?;
                writer.flush()?;
                return Ok(());
            }
        }
        if let Some(max) = state.max_bytes_per_conn {
            if received > max {
                writeln!(
                    writer,
                    "ERR 2 connection limit: more than {max} byte(s) on one connection"
                )?;
                writer.flush()?;
                return Ok(());
            }
        }
        state.requests.fetch_add(1, Relaxed);
        let request = match proto::parse_request(line.trim_end_matches('\n')) {
            Ok(request) => request,
            Err(message) => {
                // A parse error may precede an unread payload we cannot
                // locate; dropping the connection keeps the stream from
                // desynchronizing.
                writeln!(writer, "ERR 2 {message}")?;
                writer.flush()?;
                return Ok(());
            }
        };
        match request {
            Request::Quit => {
                writer.write_all(b"OK 0 bye\n")?;
                writer.flush()?;
                return Ok(());
            }
            Request::Shutdown => {
                state.shutdown.store(true, SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(state.addr);
                if let Some(store) = state.tenants.persist() {
                    let _ = store.sync();
                }
                writer.write_all(b"OK 0 bye\n")?;
                writer.flush()?;
                return Ok(());
            }
            Request::Ping => writer.write_all(b"OK 0 pong\n")?,
            Request::Tenant { name } => {
                tenant = name;
                writer.write_all(b"OK 0\n")?;
            }
            Request::Stats => {
                let payload = render_stats(state);
                writeln!(writer, "OK 0 {}", payload.len())?;
                writer.write_all(payload.as_bytes())?;
            }
            Request::Compile { spec, pattern } => match compile(state, &tenant, &spec, &pattern) {
                Ok((entry, cached)) => writeln!(
                    writer,
                    "OK 0 handle={} cache={}",
                    entry.handle,
                    if cached { "hit" } else { "new" }
                )?,
                Err(message) => writeln!(writer, "ERR 2 {message}")?,
            },
            Request::Match { handle, len }
            | Request::Find { handle, len }
            | Request::Scan { handle, len } => {
                // The payload counts against the byte limit *before* it
                // is read: refusing is closing, so the unread bytes can
                // never desynchronize a later request.
                received += len as u64;
                if let Some(max) = state.max_bytes_per_conn {
                    if received > max {
                        writeln!(
                            writer,
                            "ERR 2 connection limit: more than {max} byte(s) on one connection"
                        )?;
                        writer.flush()?;
                        return Ok(());
                    }
                }
                let mut payload = vec![0u8; len];
                reader.read_exact(&mut payload)?;
                match execute(state, &tenant, &request, handle, &payload) {
                    Ok(response) => writer.write_all(&response)?,
                    Err(message) => writeln!(writer, "ERR 2 {message}")?,
                }
            }
        }
        writer.flush()?;
    }
}

/// Resolves a `COMPILE`: parse the spec, get the tenant's session (the
/// compile-time ε-probes must route somewhere), and hit the LRU.
fn compile(
    state: &DaemonState,
    tenant: &str,
    spec_token: &str,
    pattern: &str,
) -> Result<(Arc<CacheEntry>, bool), String> {
    let spec = OracleSpec::parse(spec_token).map_err(|e| e.to_string())?;
    let spec_tag = spec.wire_token().map_err(|e| e.to_string())?;
    let session = state
        .tenants
        .session(tenant, &spec, &spec_tag)
        .map_err(|e| e.to_string())?;
    let _guard = bind_session(session);
    let mut patterns = state.patterns.lock().expect("pattern cache poisoned");
    patterns
        .get_or_compile(&spec, &spec_tag, pattern, || {
            SemRegexBuilder::new()
                .batched(true)
                .build_shared(pattern, Arc::new(RoutedOracle))
        })
        .map_err(|e| e.to_string())
}

/// Executes a payload-carrying request under the tenant's session.
fn execute(
    state: &Arc<DaemonState>,
    tenant: &str,
    request: &Request,
    handle: u64,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let entry = state
        .patterns
        .lock()
        .expect("pattern cache poisoned")
        .get(handle)
        .ok_or_else(|| format!("unknown handle {handle} (evicted or never compiled)"))?;
    if let Err(spent) = state.tenants.charge(tenant) {
        let budget = state.tenants.budget().unwrap_or(0);
        return Err(format!(
            "tenant {tenant} oracle budget exhausted ({spent}/{budget} backend questions)"
        ));
    }
    let session = state
        .tenants
        .session(tenant, &entry.spec, &entry.spec_tag)
        .map_err(|e| e.to_string())?;
    let _guard = bind_session(session);
    // A fault left over from an earlier request on this worker thread
    // must not leak into this one (a pending fault also suppresses
    // answer-store inserts).
    semre::clear_fault();
    let mut response = Vec::new();
    match request {
        Request::Match { .. } => {
            let status = i32::from(!entry.re.is_match(payload));
            check_fault()?;
            response.extend_from_slice(format!("OK {status}\n").as_bytes());
        }
        Request::Find { .. } => {
            let found = entry.re.find(payload);
            check_fault()?;
            match found {
                Some(found) => response.extend_from_slice(
                    format!("OK 0 {} {}\n", found.start(), found.end()).as_bytes(),
                ),
                None => response.extend_from_slice(b"OK 1\n"),
            }
        }
        Request::Scan { .. } => {
            // Same per-line membership semantics as one-shot `grepo`:
            // `scan_reader` splits exactly like `str::lines` and decides
            // each line on the batched plane.  The control is polled at
            // line boundaries: an admitted line always completes, then a
            // blown deadline or budget aborts with an `ERR 2` instead of
            // wedging the worker (or billing the tenant forever).
            let control = scan_control(state, tenant);
            let mut lines: u64 = 0;
            let mut matched: u64 = 0;
            let mut body = Vec::new();
            for verdict in entry.re.scan_reader(payload) {
                let verdict = verdict.map_err(|e| e.to_string())?;
                // The first line rides the request-start `charge()` (a
                // request admitted under budget does real work even if
                // that work crosses the line); every later line re-checks
                // at its boundary, so a long scan stops early instead of
                // spending to the end of the payload or wedging the
                // worker past its deadline.
                if lines > 0 {
                    if let Some(interrupt) = control.interrupted() {
                        if matches!(interrupt, semre::ScanInterrupt::Budget(_)) {
                            // One denial per aborted scan, like a refused
                            // request — not one per remaining line.
                            state.tenants.note_denial(tenant);
                        }
                        return Err(format!("scan aborted after {lines} line(s): {interrupt}"));
                    }
                }
                if let Err(fault) = check_fault() {
                    return Err(format!("line {}: {fault}", verdict.index));
                }
                lines += 1;
                if verdict.matched {
                    matched += 1;
                    body.extend_from_slice(&verdict.bytes);
                    body.push(b'\n');
                }
            }
            let status = i32::from(matched == 0);
            response.extend_from_slice(
                format!("OK {status} {lines} {matched} {}\n", body.len()).as_bytes(),
            );
            response.extend_from_slice(&body);
        }
        _ => unreachable!("execute only sees payload requests"),
    }
    Ok(response)
}

/// Surfaces a pending oracle fault as the request's error.  The daemon
/// has no degrade policy: a backend that failed even after retries makes
/// the verdict untrustworthy, and the client sees `ERR 2` (it can re-run
/// warm — every answered question is already in the store).
fn check_fault() -> Result<(), String> {
    match semre::take_fault() {
        None => Ok(()),
        Some(fault) => Err(fault.to_string()),
    }
}

/// The per-request [`ScanControl`](semre::ScanControl): the configured
/// request deadline plus a non-denying budget probe, so a scan whose
/// tenant crosses its budget mid-request stops at the next line instead
/// of running (and spending) to completion.
fn scan_control(state: &Arc<DaemonState>, tenant: &str) -> semre::ScanControl {
    let mut control = semre::ScanControl::none();
    if let Some(timeout) = state.request_timeout {
        control = control.with_timeout(timeout);
    }
    if state.tenants.budget().is_some() {
        let probe_state = state.clone();
        let probe_tenant = tenant.to_owned();
        control = control.with_budget(Arc::new(move || {
            probe_state.tenants.over_budget(&probe_tenant)
        }));
    }
    control
}

/// Renders the `STATS` payload: one server line, one store line (when
/// persistence is on), then one deterministic line per tenant.
fn render_stats(state: &DaemonState) -> String {
    let mut out = String::new();
    let patterns = state.patterns.lock().expect("pattern cache poisoned");
    let cache = patterns.stats();
    out.push_str(&format!(
        "requests={} patterns={} compiles={} cache_hits={} evictions={} tenants={} budget={}\n",
        state.requests.load(Relaxed),
        patterns.len(),
        cache.compiles,
        cache.hits,
        cache.evictions,
        state.tenants.len(),
        match state.tenants.budget() {
            Some(budget) => budget.to_string(),
            None => "none".to_owned(),
        },
    ));
    drop(patterns);
    if let Some(store) = state.tenants.persist() {
        let replay = store.replay_report();
        out.push_str(&format!(
            "store: entries={} replayed={} appended={} file_bytes={} compactions={} syncs={} write_errors={}\n",
            store.len(),
            replay.records,
            store.appended(),
            store.file_bytes(),
            store.compactions(),
            store.syncs(),
            store.write_errors(),
        ));
    }
    let rows = state.tenants.snapshot();
    // One aggregate tier-routing line when any tenant has a `tiered:`
    // session, merged by label across tenants — absent otherwise, so
    // flat-backend deployments keep their exact historical STATS shape.
    let mut tiers = semre::TierStats::default();
    for row in &rows {
        tiers.merge(&row.tiers);
    }
    if !tiers.tiers.is_empty() {
        out.push_str(&format!("tiers: {}\n", tiers.render()));
    }
    for row in rows {
        out.push_str(&format!(
            "tenant {}: submitted={} deduped={} persisted_hits={} backend_keys={} entries={} budget_denied={}\n",
            row.name,
            row.stats.keys_submitted,
            row.stats.keys_deduped,
            row.persisted_hits,
            row.stats.backend_keys,
            row.entries,
            row.budget_denied,
        ));
    }
    out
}
