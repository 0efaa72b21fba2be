//! The TCP/JSON-lines sweep server.
//!
//! # Connection layer
//!
//! A single poll loop owns the listener and every connection, all switched
//! to nonblocking mode: it accepts new sockets, reads complete request
//! lines into per-connection queues, and hands one line at a time per
//! connection to a **bounded handler pool** — so req/s scales with worker
//! threads (sized to the host's cores), not with connection count, and a
//! thousand idle connections cost a ready-list scan instead of a thousand
//! parked threads. Responses per connection stay in request order because a
//! connection never has more than one line in flight.
//!
//! # Serving path
//!
//! A `simulate` request probes the [`WarmCache`] under the structural
//! fingerprint of the platform it would build. On a hit it forks the blob
//! and serves its point(s) directly. On a miss it enters the
//! [`Coalescer`]: the first request for a warm key leads — loading the
//! spilled checkpoint from the [`DiskCache`] if one survives from an
//! earlier process, else running the warm-up and spilling it — while
//! every concurrent request for the same key registers its sweep cells
//! with the leader's batch and blocks. The batch closes one coalescing
//! window after the warm-up lands and the leader serves **all** gathered
//! cells in one [`serve_points`](mpsoc_platform::service::serve_points)
//! fan-out, so a duplicate-heavy mix of N concurrent misses costs one
//! warm-up plus one sweep.
//!
//! Cache hits, disk loads and coalesced batch results are all
//! byte-identical to cold runs: the warm state is a pure function of the
//! request key, restore is bit-exact, spill files are doubly checksummed
//! and fingerprint-checked (fail closed), and the fan-out runs the exact
//! tails the requests would run in isolation. CI drives this end to end
//! with the `loadgen` binary and diffs served tables against `repro`'s —
//! including across a server restart.

use crate::cache::{CacheStats, Lookup, WarmCache};
use crate::coalesce::{Coalescer, Joined, Lead};
use crate::persist::DiskCache;
use crate::protocol::{self, CacheOutcome, Command, PointResult, Simulate};
use mpsoc_platform::build_platform;
use mpsoc_platform::service::{self, SweepRequest, WarmState};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest request line the server buffers. A connection that sends more
/// without a newline gets one error response and is closed, so a client
/// can never grow a connection's buffer without bound. Real requests are
/// a few hundred bytes.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum number of warm checkpoints kept alive (LRU beyond that).
    pub cache_capacity: usize,
    /// Directory warm checkpoints are spilled to and lazily re-loaded from
    /// (`None` disables persistence). The `simserved` binary wires
    /// `MPSOC_CACHE_DIR` here.
    pub cache_dir: Option<PathBuf>,
    /// How long a batch lingers after its warm-up before closing to new
    /// cells. Zero still coalesces everything that arrives *during* the
    /// warm-up — the window only buys stragglers in.
    pub coalesce_window: Duration,
    /// Handler pool size; 0 sizes it from the host's cores.
    pub handlers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 8,
            cache_dir: None,
            coalesce_window: Duration::from_millis(2),
            handlers: 0,
        }
    }
}

/// The host's core count as the kernel sees it (1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn effective_handlers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    (host_cores() * 2).clamp(4, 32)
}

/// Counters the `stats` command reports (cache counters live in
/// [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Simulate requests served (one per request line, however many points
    /// it fanned out).
    pub requests: u64,
    /// Individual sweep points served.
    pub points: u64,
    /// Requests that failed with an error response.
    pub errors: u64,
    /// Actual warm-up simulations run (cache hits, disk loads and
    /// coalesced joins all avoid one).
    pub warm_ups: u64,
}

/// What a batch leader publishes to its riders: the shared warm state's
/// base run plus one served tail per gathered cell.
struct BatchResults {
    base_cycles: u64,
    cells: HashMap<u32, Result<u64, String>>,
}

struct Shared {
    cache: WarmCache<WarmState>,
    disk: Option<DiskCache>,
    coalescer: Coalescer<BatchResults>,
    running: AtomicBool,
    requests: AtomicU64,
    points: AtomicU64,
    errors: AtomicU64,
    warm_ups: AtomicU64,
    disk_hits: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    host_cores: usize,
}

impl Shared {
    fn stats_line(&self) -> String {
        let c = self.cache.stats();
        let d = self.disk.as_ref().map(DiskCache::stats).unwrap_or_default();
        format!(
            "{{\"id\":0,\"status\":\"ok\",\"stats\":{{\"requests\":{},\"points\":{},\"errors\":{},\
             \"warm_ups\":{},\"disk_hits\":{},\"batches\":{},\"coalesced\":{},\
             \"hits\":{},\"misses\":{},\"evictions\":{},\"stale_rejected\":{},\
             \"hit_rate\":{:.6},\"entries\":{},\"capacity\":{},\
             \"spill_loads\":{},\"spill_stores\":{},\"spill_rejected\":{}}}}}",
            self.requests.load(Ordering::Relaxed),
            self.points.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.warm_ups.load(Ordering::Relaxed),
            self.disk_hits.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
            self.coalesced.load(Ordering::Relaxed),
            c.hits,
            c.misses,
            c.evictions,
            c.stale_rejected,
            c.hit_rate(),
            self.cache.len(),
            self.cache.capacity(),
            d.loads,
            d.stores,
            d.rejected,
        )
    }
}

/// A bound sweep server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    handlers: usize,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors, and spill-directory creation errors when
    /// [`ServerConfig::cache_dir`] is set.
    pub fn bind(addr: &str, config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let disk = match &config.cache_dir {
            Some(dir) => Some(DiskCache::open(dir)?),
            None => None,
        };
        Ok(Server {
            listener,
            addr,
            handlers: effective_handlers(config.handlers),
            shared: Arc::new(Shared {
                cache: WarmCache::new(config.cache_capacity),
                disk,
                coalescer: Coalescer::new(config.coalesce_window),
                running: AtomicBool::new(true),
                requests: AtomicU64::new(0),
                points: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                warm_ups: AtomicU64::new(0),
                disk_hits: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                coalesced: AtomicU64::new(0),
                host_cores: host_cores(),
            }),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Runs the poll loop until a `shutdown` request arrives, drains the
    /// in-flight handlers, and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (done_tx, done_rx) = mpsc::channel();
        let pool = HandlerPool::spawn(self.handlers, Arc::clone(&self.shared), done_tx);
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id = 0u64;
        let mut fatal = None;

        'poll: loop {
            let running = self.shared.running.load(Ordering::SeqCst);
            let mut progressed = false;

            if running {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            // Replies are small and often pipelined; without
                            // TCP_NODELAY Nagle's algorithm holds each one
                            // until the previous one is acknowledged. A
                            // refusal only costs latency, so it is ignored.
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_ok() {
                                conns.insert(next_id, Conn::new(stream));
                                next_id += 1;
                                progressed = true;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => {
                            fatal = Some(e);
                            break 'poll;
                        }
                    }
                }
            }

            while let Ok(conn_id) = done_rx.try_recv() {
                if let Some(conn) = conns.get_mut(&conn_id) {
                    conn.busy = false;
                }
                progressed = true;
            }

            let mut dead = Vec::new();
            for (&conn_id, conn) in &mut conns {
                if !conn.closed {
                    progressed |= conn.fill();
                }
                if running && !conn.busy {
                    if conn.queued.is_empty() && conn.too_long {
                        // Every complete line before the oversized one has
                        // been answered; answer it and let the close below
                        // drop the connection.
                        conn.too_long = false;
                        self.shared.errors.fetch_add(1, Ordering::Relaxed);
                        let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                        let _ =
                            write_line(&mut conn.stream, &protocol::error_response(0, &message));
                        progressed = true;
                    } else if let Some(line) = conn.queued.pop_front() {
                        match conn.stream.try_clone() {
                            Ok(stream) => {
                                conn.busy = true;
                                progressed = true;
                                pool.submit(Job {
                                    conn: conn_id,
                                    stream,
                                    line,
                                });
                            }
                            Err(_) => conn.closed = true,
                        }
                    }
                }
                if conn.closed && !conn.busy && conn.queued.is_empty() {
                    dead.push(conn_id);
                }
            }
            for conn_id in dead {
                conns.remove(&conn_id);
                progressed = true;
            }

            if !running && conns.values().all(|c| !c.busy) {
                // Drained: every dispatched response (including the
                // shutdown acknowledgement) is out. Queued-but-undispatched
                // lines are dropped with their connections.
                break;
            }
            if !progressed {
                std::thread::sleep(Duration::from_micros(500));
            }
        }

        drop(conns);
        pool.join();
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// One nonblocking connection owned by the poll loop.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet terminated by a newline.
    buf: Vec<u8>,
    /// Complete request lines awaiting dispatch.
    queued: VecDeque<String>,
    /// A line from this connection is in the handler pool; its response
    /// must go out before the next line is dispatched (request order).
    busy: bool,
    /// EOF or a read error was seen; the connection is dropped once its
    /// in-flight work finishes.
    closed: bool,
    /// A line outgrew [`MAX_LINE_BYTES`]: reading stopped, and once the
    /// lines queued before it are answered the connection gets an error
    /// response and is closed.
    too_long: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            queued: VecDeque::new(),
            busy: false,
            closed: false,
            too_long: false,
        }
    }

    /// Drains whatever the socket has ready into complete request lines.
    /// Returns whether anything arrived.
    fn fill(&mut self) -> bool {
        let mut progressed = false;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    // Only the bytes just read can hold a newline: the
                    // buffered remainder was scanned when it arrived.
                    let mut scan = self.buf.len();
                    self.buf.extend_from_slice(&chunk[..n]);
                    let mut start = 0;
                    while let Some(offset) = self.buf[scan..].iter().position(|&b| b == b'\n') {
                        let end = scan + offset;
                        if end - start > MAX_LINE_BYTES {
                            break;
                        }
                        let text = String::from_utf8_lossy(&self.buf[start..end])
                            .trim()
                            .to_string();
                        if !text.is_empty() {
                            self.queued.push_back(text);
                        }
                        start = end + 1;
                        scan = start;
                    }
                    self.buf.drain(..start);
                    if self.buf.len() > MAX_LINE_BYTES {
                        self.buf = Vec::new();
                        self.too_long = true;
                        self.closed = true;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.closed = true;
                    break;
                }
            }
        }
        progressed
    }
}

struct Job {
    conn: u64,
    stream: TcpStream,
    line: String,
}

struct HandlerPool {
    jobs: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HandlerPool {
    fn spawn(count: usize, shared: Arc<Shared>, done: mpsc::Sender<u64>) -> HandlerPool {
        let (jobs, feed) = mpsc::channel::<Job>();
        let feed = Arc::new(Mutex::new(feed));
        let workers = (0..count.max(1))
            .map(|_| {
                let feed = Arc::clone(&feed);
                let shared = Arc::clone(&shared);
                let done = done.clone();
                std::thread::spawn(move || loop {
                    let job = { feed.lock().expect("job feed").recv() };
                    let Ok(mut job) = job else { break };
                    let (response, stop) = dispatch(&job.line, &shared);
                    // A broken connection only loses its own response.
                    let _ = write_line(&mut job.stream, &response);
                    if stop {
                        shared.running.store(false, Ordering::SeqCst);
                    }
                    let _ = done.send(job.conn);
                })
            })
            .collect();
        HandlerPool {
            jobs: Some(jobs),
            workers,
        }
    }

    fn submit(&self, job: Job) {
        let _ = self
            .jobs
            .as_ref()
            .expect("pool open until joined")
            .send(job);
    }

    fn join(mut self) {
        self.jobs = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Writes one response line to a nonblocking stream, spinning out
/// `WouldBlock` with short sleeps (responses are small; the socket buffer
/// almost always takes them whole).
fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Serves one request line; returns the response line and whether the
/// server should stop.
fn dispatch(line: &str, shared: &Shared) -> (String, bool) {
    match protocol::parse_command(line) {
        Err(message) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            (protocol::error_response(0, &message), false)
        }
        Ok(Command::Ping) => (protocol::ping_response(0), false),
        Ok(Command::Stats) => (shared.stats_line(), false),
        Ok(Command::Shutdown) => (
            "{\"id\":0,\"status\":\"ok\",\"shutdown\":true}".into(),
            true,
        ),
        Ok(Command::Simulate(sim)) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            match serve_simulate(shared, &sim) {
                Ok(response) => (response, false),
                Err(message) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    (protocol::error_response(sim.id, &message), false)
                }
            }
        }
    }
}

fn serve_simulate(shared: &Shared, sim: &Simulate) -> Result<String, String> {
    let started = Instant::now();
    // Fan-out workers past the host's cores only add contention, so
    // wire-requested job counts are clamped; results are identical for any
    // value by the kernel's determinism guarantee.
    let jobs = sim.jobs.clamp(1, shared.host_cores);
    let points = sim.points();
    // The fingerprint the cached blob must match: the one of the platform
    // this request would build. Building is wiring-only (no simulation).
    let expected = build_platform(&sim.req.base_spec())
        .map_err(|e| e.to_string())?
        .structural_fingerprint();
    let key = sim.req.warm_key();

    // Fast path: the warm state is already resident.
    if let Some(warm) = shared.cache.peek(&key, expected) {
        return serve_own_points(shared, sim, CacheOutcome::Hit, &warm, points, jobs, started);
    }
    if !sim.coalesce {
        let (warm, outcome) = warm_up(shared, &sim.req, &key, expected)?;
        return serve_own_points(shared, sim, outcome, &warm, points, jobs, started);
    }

    let cells: Vec<u32> = points.iter().map(|p| p.wait_states).collect();
    match shared.coalescer.join_or_lead(&key, &cells) {
        Joined::Lead(lead) => lead_batch(shared, sim, &key, &points, jobs, lead, expected, started),
        Joined::Results(Some(results)) => {
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            shared.cache.note_hit();
            let mut out = Vec::with_capacity(points.len());
            for point in &points {
                let cycles = results
                    .cells
                    .get(&point.wait_states)
                    .cloned()
                    .ok_or_else(|| "batch result missing a registered cell".to_string())??;
                out.push(PointResult {
                    wait_states: point.wait_states,
                    exec_cycles: cycles,
                });
            }
            shared.points.fetch_add(out.len() as u64, Ordering::Relaxed);
            Ok(protocol::simulate_response(
                sim.id,
                CacheOutcome::Hit,
                results.base_cycles,
                &out,
                started.elapsed().as_micros(),
            ))
        }
        Joined::Results(None) | Joined::Closed => {
            // The batch failed or closed under us; serve solo — by now the
            // warm state is cached (or the solo warm-up reports the error).
            let (warm, outcome) = warm_up(shared, &sim.req, &key, expected)?;
            serve_own_points(shared, sim, outcome, &warm, points, jobs, started)
        }
    }
}

/// Leads a coalesced batch: warm up (disk, cache or fresh), hold the
/// window, then serve every gathered cell in one fan-out and publish.
#[allow(clippy::too_many_arguments)]
fn lead_batch(
    shared: &Shared,
    sim: &Simulate,
    key: &str,
    points: &[SweepRequest],
    jobs: usize,
    lead: Lead<BatchResults>,
    expected: u64,
    started: Instant,
) -> Result<String, String> {
    shared.batches.fetch_add(1, Ordering::Relaxed);
    let (warm, outcome) = match warm_up(shared, &sim.req, key, expected) {
        Ok(pair) => pair,
        Err(message) => {
            shared.coalescer.abandon(lead);
            return Err(message);
        }
    };
    // The warm state is in the cache now, so stragglers that miss the
    // window peek it instead; lingering is only worth it after a real
    // warm-up, where joiners piled up behind a long computation.
    let batch_cells = match outcome {
        CacheOutcome::Miss => shared.coalescer.close(&lead),
        CacheOutcome::Hit => shared.coalescer.close_now(&lead),
    };
    let reqs: Vec<SweepRequest> = batch_cells
        .iter()
        .map(|&ws| SweepRequest {
            wait_states: ws,
            ..sim.req.clone()
        })
        .collect();
    let tails = service::serve_points(reqs, &warm, jobs);
    let cells: HashMap<u32, Result<u64, String>> = batch_cells
        .iter()
        .zip(tails)
        .map(|(&ws, tail)| (ws, tail.map_err(|e| e.to_string())))
        .collect();
    let results = shared.coalescer.publish(
        lead,
        BatchResults {
            base_cycles: warm.profile.base_cycles,
            cells,
        },
    );
    let mut out = Vec::with_capacity(points.len());
    for point in points {
        let cycles = results
            .cells
            .get(&point.wait_states)
            .cloned()
            .ok_or_else(|| "batch result missing the leader's cell".to_string())??;
        out.push(PointResult {
            wait_states: point.wait_states,
            exec_cycles: cycles,
        });
    }
    shared.points.fetch_add(out.len() as u64, Ordering::Relaxed);
    Ok(protocol::simulate_response(
        sim.id,
        outcome,
        warm.profile.base_cycles,
        &out,
        started.elapsed().as_micros(),
    ))
}

/// Obtains the warm state for a key: cache, then disk spill, then a fresh
/// warm-up (which is spilled for the next process). Concurrent callers for
/// the same key collapse onto one of these inside the cache.
fn warm_up(
    shared: &Shared,
    req: &SweepRequest,
    key: &str,
    expected: u64,
) -> Result<(Arc<WarmState>, CacheOutcome), String> {
    let from_disk = std::cell::Cell::new(false);
    let (warm, lookup) = shared
        .cache
        .get_or_compute(key, expected, || -> mpsoc_kernel::SimResult<WarmState> {
            if let Some(disk) = &shared.disk {
                if let Some(warm) = disk.load(key, expected) {
                    from_disk.set(true);
                    return Ok(warm);
                }
            }
            shared.warm_ups.fetch_add(1, Ordering::Relaxed);
            let warm = service::warm_state(req)?;
            if let Some(disk) = &shared.disk {
                disk.store(key, &warm);
            }
            Ok(warm)
        })
        .map_err(|e| e.to_string())?;
    if from_disk.get() {
        shared.disk_hits.fetch_add(1, Ordering::Relaxed);
    }
    // A disk load skips the warm-up, which is what "hit" means to clients
    // (and what the restart CI leg asserts); a fresh warm-up is the miss.
    let outcome = match lookup {
        Lookup::Hit => CacheOutcome::Hit,
        Lookup::Miss | Lookup::Stale if from_disk.get() => CacheOutcome::Hit,
        Lookup::Miss | Lookup::Stale => CacheOutcome::Miss,
    };
    Ok((warm, outcome))
}

/// Serves exactly the request's own points from a warm state.
fn serve_own_points(
    shared: &Shared,
    sim: &Simulate,
    outcome: CacheOutcome,
    warm: &WarmState,
    points: Vec<SweepRequest>,
    jobs: usize,
    started: Instant,
) -> Result<String, String> {
    let cells: Vec<u32> = points.iter().map(|p| p.wait_states).collect();
    let tails = service::serve_points(points, warm, jobs);
    let mut out = Vec::with_capacity(tails.len());
    for (ws, tail) in cells.into_iter().zip(tails) {
        out.push(PointResult {
            wait_states: ws,
            exec_cycles: tail.map_err(|e| e.to_string())?,
        });
    }
    shared.points.fetch_add(out.len() as u64, Ordering::Relaxed);
    Ok(protocol::simulate_response(
        sim.id,
        outcome,
        warm.profile.base_cycles,
        &out,
        started.elapsed().as_micros(),
    ))
}
