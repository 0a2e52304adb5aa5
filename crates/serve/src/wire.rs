//! Std-only TCP front end behind `dkcore serve` / `dkcore query`: a
//! backward-compatible line protocol (the default) plus a negotiated
//! **binary pipelined mode**, both answering every query from one pinned
//! epoch snapshot per request.
//!
//! # Text protocol (default)
//!
//! One UTF-8 command per line; every response starts with `OK` or `ERR`.
//! All answers are served from the latest published epoch, and every
//! `OK` response carries `epoch=<e>` so a client can correlate answers:
//!
//! | request | response |
//! |---------|----------|
//! | `HELLO` | `OK proto=2 epoch=<e> modes=text,binary` |
//! | `HELLO TEXT` | `OK proto=2 mode=text` (connection stays in line mode) |
//! | `HELLO BINARY` | `OK proto=2 mode=binary`, then the connection switches to binary framing |
//! | `EPOCH` | `OK epoch=<e> nodes=<n> edges=<m> kmax=<k>` |
//! | `CORENESS <v>` | `OK epoch=<e> coreness=<c> degree=<d>` |
//! | `MEMBERS <k>` | `OK epoch=<e> count=<c> members=<v1,v2,...>` |
//! | `MEMBERS <k> OFFSET <o> LIMIT <l>` | `OK epoch=<e> total=<t> offset=<o> count=<c> members=<...>` |
//! | `SUBGRAPH <k>` | `OK epoch=<e> nodes=<n> edges=<m>`, then `m` lines `u v` (original ids) |
//! | `HIST` | `OK epoch=<e> hist=<k:count,...>` (non-empty shells) |
//! | `TOPK <n>` | `OK epoch=<e> top=<v:c,...>` |
//! | `TOPK <n> OFFSET <o>` | `OK epoch=<e> offset=<o> top=<v:c,...>` (ranks `o..o+n`) |
//! | `HEALTH` | `OK epoch=<e> status=healthy` \| `status=degraded down=<shard>:<lag>,...` \| `status=writer-dead`, plus `exchange=rounds:<n>,p50us:<a>,p99us:<b>,util:<c>%` on the sharded backend |
//! | `METRICS` | `OK epoch=<e> lines=<n>`, then `n` Prometheus-style lines from the backend's metrics registry |
//! | `EVENTS [SINCE <s>] [LIMIT <n>]` | `OK epoch=<e> count=<c> last=<seq>`, then `c` flight-recorder event lines (`seq=.. ts_ms=.. kind=.. shard=.. epoch=.. a=.. b=..`), oldest first |
//! | `QUIT` | `OK bye`, connection closes |
//! | `SHUTDOWN` | `OK shutting-down`, server stops accepting |
//!
//! `OFFSET`/`LIMIT` are optional and may appear independently; either
//! one switches `MEMBERS` to the paginated response shape (`total=` is
//! the full k-core size, `count=` the page size). Pages concatenate to
//! exactly the unpaginated answer — a property pinned by the serve
//! oracle at every epoch under churn.
//!
//! `HEALTH` is answered from the live writer-health slot rather than a
//! pinned snapshot: queries keep succeeding against the last published
//! epoch even when the writer is dead or a partition has failed over,
//! so health is the one piece of state a client cannot infer from query
//! responses alone.
//!
//! Malformed input earns `ERR <reason>` and the connection stays open.
//!
//! # Binary framed mode
//!
//! Negotiated per connection with `HELLO BINARY`; after the `OK` ack
//! both directions speak length-prefixed frames (all integers
//! little-endian). Multiple requests may be in flight on one connection
//! — the server answers strictly in request order and echoes each
//! request's `req_id`, so a client can pipeline without ambiguity.
//! This framing is the intended seam for cross-process shard transport.
//!
//! Request frame: `u32 len`, then `len` bytes of payload:
//! `u32 req_id`, `u8 opcode`, opcode-specific args.
//!
//! | opcode | args |
//! |--------|------|
//! | 1 `EPOCH` | — |
//! | 2 `CORENESS` | `u32 v` |
//! | 3 `MEMBERS` | `u32 k`, `u64 offset`, `u64 limit` |
//! | 4 `SUBGRAPH` | `u32 k` |
//! | 5 `HIST` | — |
//! | 6 `TOPK` | `u64 n`, `u64 offset` |
//! | 7 `HEALTH` | — |
//! | 8 `QUIT` | — |
//! | 9 `METRICS` | — |
//! | 10 `EVENTS` | `u64 since`, `u64 limit` |
//!
//! Response frame: `u32 len`, then `u32 req_id`, `u8 status` (0 = OK,
//! 1 = ERR), `u64 epoch`, payload:
//!
//! | request | OK payload |
//! |---------|------------|
//! | `EPOCH` | `u64 nodes`, `u64 edges`, `u32 kmax` |
//! | `CORENESS` | `u32 coreness`, `u32 degree` |
//! | `MEMBERS` | `u64 total`, `u64 offset`, `u32 count`, `count × u32` ids |
//! | `SUBGRAPH` | `u64 nodes`, `u64 edges`, `edges × (u32, u32)` original-id endpoints |
//! | `HIST` | `u32 entries`, `entries × (u32 k, u64 count)` for all shells `0..=kmax` |
//! | `TOPK` | `u32 count`, `count × (u32 id, u32 coreness)` |
//! | `HEALTH` | UTF-8 status line (epoch field is the live writer epoch) |
//! | `METRICS` | UTF-8 Prometheus-style exposition text |
//! | `EVENTS` | UTF-8 text, one rendered event line per retained event after `since` |
//! | `QUIT` | empty, then the connection closes |
//!
//! An `ERR` payload is a UTF-8 message. Unknown opcodes earn `ERR` and
//! the connection stays open.
//!
//! # Response cache
//!
//! The server keeps a small cache keyed on `(epoch, query)` shared by
//! all connections and both modes. Because the epoch is part of the
//! key and every request pins one snapshot, a cached response can never
//! be served across an epoch flip — invalidation is free: entries for
//! dead epochs simply stop being hit and are evicted first when the
//! cache is full. Only `OK` responses to read-only bulk queries
//! (`EPOCH`, `MEMBERS`, `SUBGRAPH`, `HIST`, `TOPK`) are cached;
//! `CORENESS` point lookups are already O(1) and `HEALTH`, `METRICS`
//! and `EVENTS` reflect live, non-epoch state. [`WireServer::cache_stats`]
//! exposes hit/miss counters; the same numbers (plus evictions) appear
//! on the registry as `serve.wire.cache.*`.
//!
//! # Telemetry
//!
//! The server registers per-verb request counters and latency
//! histograms (`serve.wire.requests{verb=...}`,
//! `serve.wire.latency_us{verb=...}`) on the backend's
//! [`Telemetry`](dkcore_metrics::Telemetry) bundle, obtained through
//! [`SnapshotSource::telemetry`]. `METRICS` therefore exposes the whole
//! stack — publish/repair phases, exchange rounds, pool utilization,
//! wire traffic, cache behavior — from one registry, and `EVENTS`
//! replays the shared flight recorder (batch/publish/failover/
//! promotion/degraded/revive/eviction history). A backend whose bundle
//! is [`Telemetry::disabled`](dkcore_metrics::Telemetry::disabled)
//! skips request counting and timing entirely (one branch per request);
//! cache hit/miss counters remain live because `cache_stats()` predates
//! the registry.
//!
//! # Connections, flushing and limits
//!
//! Each accepted connection is served by its own thread; queries pin one
//! snapshot per request, so a multi-line `SUBGRAPH` answer is internally
//! consistent even while the writer publishes new epochs mid-response.
//!
//! Replies collect in an 8 KiB write buffer that is flushed only when
//! the read buffer holds no further complete request: no `\n` in text
//! mode, fewer bytes than the next length prefix announces in binary
//! mode. A pipelined burst is answered with one write, and the server
//! always flushes before it can block waiting for input. Both ends set
//! `TCP_NODELAY`, so a reply that spills past the write buffer is not
//! held back by Nagle's algorithm waiting for the peer's delayed ACK.
//!
//! Every limit is a constant:
//!
//! - At most 256 connections are served at once. One over the cap gets a
//!   single `ERR server busy` line and is closed; a slot frees when its
//!   connection thread ends, however it ends.
//! - A text request line holds at most 1 KiB before its `\n` (the longest
//!   legal line is 73 bytes). A longer one earns `ERR line too long` and
//!   ends the connection.
//! - A binary request frame announces at most 25 bytes, the size of
//!   `MEMBERS`, the largest legal request. A longer prefix ends the
//!   connection without allocating it. Reply frames may reach 64 MiB, the
//!   most [`BinaryWireClient`] reads; a larger answer is sent as an `ERR`
//!   reply instead.
//! - A request must arrive whole within 5 s of its first byte, and each
//!   reply write must make progress within 5 s; otherwise the connection
//!   ends. A connection idle between requests stays open.
//!
//! Request-side memory per connection is therefore fixed: an 8 KiB read
//! buffer, an 8 KiB write buffer and at most 1 KiB of line (25 bytes of
//! frame in binary mode), about 17 KiB, or about 4.3 MiB at the
//! connection cap, plus thread stacks. Reply sizes follow the answer,
//! never a length the client sent.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dkcore_graph::{Graph, NodeId};
use dkcore_metrics::{Counter, EventKind, Histogram, Telemetry};

use crate::view::{CoreQuery, CoreScan, SnapshotSource};

const OP_EPOCH: u8 = 1;
const OP_CORENESS: u8 = 2;
const OP_MEMBERS: u8 = 3;
const OP_SUBGRAPH: u8 = 4;
const OP_HIST: u8 = 5;
const OP_TOPK: u8 = 6;
const OP_HEALTH: u8 = 7;
const OP_QUIT: u8 = 8;
const OP_METRICS: u8 = 9;
const OP_EVENTS: u8 = 10;

/// Upper bound on a reply frame. Far above any legitimate answer: the
/// server sends a larger answer as an `ERR` reply, and the client drops
/// a connection announcing more rather than attempt the allocation.
const MAX_FRAME: usize = 64 << 20;

/// Upper bound on a request frame: `MEMBERS` (`u32 req_id`, `u8 opcode`,
/// `u32 k`, `u64 offset`, `u64 limit`), the largest legal request.
const MAX_REQUEST: usize = 25;

/// Upper bound on a text request line, excluding its `\n`. The longest
/// legal line, `MEMBERS` with three maximal numbers, is 73 bytes.
const MAX_LINE: usize = 1 << 10;

/// Connections served at once; one more is turned away.
const MAX_CONNECTIONS: usize = 256;

/// Time a request may take to arrive whole, from its first byte, and a
/// reply write may block without progress.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Read timeout of a connection socket: how often a blocked read checks
/// the stop flag and the request deadline.
const READ_TICK: Duration = Duration::from_millis(200);

/// Point-in-time statistics for a server's `(epoch, query)` response
/// cache, from [`WireServer::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Responses served from the cache without touching a snapshot.
    pub hits: u64,
    /// Responses computed against a snapshot (and, if eligible, cached).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// The cache table: `(epoch, canonical query key) -> encoded response`.
type CacheMap = HashMap<(u64, Vec<u8>), Arc<Vec<u8>>>;

/// Shared `(epoch, query-key) -> encoded response` cache. Staleness is
/// impossible by construction — the epoch is in the key and each lookup
/// uses the epoch of the snapshot pinned for that request.
///
/// Hit/miss/eviction counters live on the backend's metrics registry
/// (`serve.wire.cache.*`), so `METRICS` and [`WireServer::cache_stats`]
/// read the same numbers; evictions additionally leave a
/// `cache-evicted` event in the flight recorder.
#[derive(Debug)]
struct ResponseCache {
    entries: Mutex<CacheMap>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    tel: Telemetry,
}

impl ResponseCache {
    /// Entry bound: bulk-query working sets are a handful of hot
    /// queries per epoch, so a small table suffices.
    const CAPACITY: usize = 128;
    /// Bodies past this are streamed but not retained — one giant
    /// `SUBGRAPH` answer must not pin megabytes in the cache.
    const MAX_BODY: usize = 256 << 10;

    /// Registers the cache counters on `tel`'s registry. Hit/miss
    /// accounting is unconditional (not gated on `tel.enabled()`): the
    /// counters replace the cache's old private atomics, and
    /// `cache_stats()` must keep working even against an
    /// uninstrumented backend.
    fn new(tel: &Telemetry) -> Self {
        let r = tel.registry();
        ResponseCache {
            entries: Mutex::new(CacheMap::default()),
            hits: r.counter("serve.wire.cache.hits", &[]),
            misses: r.counter("serve.wire.cache.misses", &[]),
            evictions: r.counter("serve.wire.cache.evictions", &[]),
            tel: tel.clone(),
        }
    }

    /// A poisoned lock only means another connection thread panicked
    /// mid-insert; the map is always structurally valid, so recover it.
    fn lock(&self) -> MutexGuard<'_, CacheMap> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached body for `(epoch, key)`, or builds one.
    /// `build` returns the encoded body plus whether it is eligible for
    /// caching (error responses are cheap to recompute and never
    /// cached). The build runs outside the lock; a racing duplicate
    /// build is harmless.
    fn get_or_build(
        &self,
        epoch: u64,
        key: Vec<u8>,
        build: impl FnOnce() -> (Vec<u8>, bool),
    ) -> Arc<Vec<u8>> {
        if let Some(hit) = self.lock().get(&(epoch, key.clone())).cloned() {
            self.hits.inc();
            return hit;
        }
        self.misses.inc();
        let (body, cacheable) = build();
        let body = Arc::new(body);
        if cacheable && body.len() <= Self::MAX_BODY {
            let mut entries = self.lock();
            let before = entries.len();
            if entries.len() >= Self::CAPACITY {
                // Dead-epoch entries can never be hit again: evict them
                // first, then fall back to dropping an arbitrary entry.
                entries.retain(|&(e, _), _| e == epoch);
            }
            if entries.len() >= Self::CAPACITY {
                if let Some(victim) = entries.keys().next().cloned() {
                    entries.remove(&victim);
                }
            }
            let evicted = (before - entries.len()) as u64;
            if evicted > 0 {
                self.evictions.add(evicted);
                self.tel
                    .event(EventKind::CacheEvicted, 0, epoch, evicted, 0);
            }
            entries.insert((epoch, key), body.clone());
        }
        body
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            entries: self.lock().len(),
        }
    }
}

/// Per-verb request counters and latency histograms, registered once at
/// [`serve`] from the backend's [`Telemetry`] and shared by every
/// connection in both modes. Counting and timing are gated on
/// [`Telemetry::enabled`], so an uninstrumented backend pays one branch
/// per request.
#[derive(Debug)]
struct WireMetrics {
    tel: Telemetry,
    /// `(requests, latency_us)` handles, indexed parallel to [`VERBS`].
    verbs: Vec<(Counter, Histogram)>,
}

/// Verbs with dedicated wire metrics; the trailing `other` slot absorbs
/// unknown commands and unknown opcodes. Labels are lowercase to match
/// exposition convention.
const VERBS: [&str; 13] = [
    "epoch", "coreness", "members", "subgraph", "hist", "topk", "health", "hello", "metrics",
    "events", "quit", "shutdown", "other",
];

impl WireMetrics {
    fn register(tel: &Telemetry) -> Self {
        let r = tel.registry();
        let verbs = VERBS
            .iter()
            .map(|v| {
                (
                    r.counter("serve.wire.requests", &[("verb", v)]),
                    r.histogram("serve.wire.latency_us", &[("verb", v)]),
                )
            })
            .collect();
        WireMetrics {
            tel: tel.clone(),
            verbs,
        }
    }

    /// Index of an uppercased text verb (`other` slot when unknown).
    fn verb_index(verb: &str) -> usize {
        VERBS
            .iter()
            .position(|v| verb.eq_ignore_ascii_case(v))
            .unwrap_or(VERBS.len() - 1)
    }

    /// Index of a binary opcode (`other` slot when unknown).
    fn opcode_index(opcode: u8) -> usize {
        match opcode {
            OP_EPOCH => 0,
            OP_CORENESS => 1,
            OP_MEMBERS => 2,
            OP_SUBGRAPH => 3,
            OP_HIST => 4,
            OP_TOPK => 5,
            OP_HEALTH => 6,
            OP_QUIT => 10,
            OP_METRICS => 8,
            OP_EVENTS => 9,
            _ => VERBS.len() - 1,
        }
    }

    /// Counts one request and starts its latency clock. `None` (skip
    /// timing) when the backend is uninstrumented.
    fn start(&self, idx: usize) -> Option<(usize, Instant)> {
        if !self.tel.enabled() {
            return None;
        }
        self.verbs[idx].0.inc();
        Some((idx, Instant::now()))
    }

    /// Records the latency for a request started with
    /// [`start`](Self::start). Early-returning verbs (`QUIT`,
    /// `SHUTDOWN`, the `HELLO BINARY` upgrade) skip this — their
    /// request counter already ticked and their latency is not
    /// meaningful.
    fn finish(&self, timer: Option<(usize, Instant)>) {
        if let Some((idx, t0)) = timer {
            self.verbs[idx].1.record(t0.elapsed().as_micros() as u64);
        }
    }
}

/// A running wire server: accept loop plus per-connection threads.
///
/// Stops when [`shutdown`](Self::shutdown) is called or a client sends
/// `SHUTDOWN`. Dropping the server also shuts it down.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cache: Arc<ResponseCache>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// serving `handle`'s snapshots — either a single-writer
/// [`ServiceHandle`](crate::ServiceHandle) or a sharded
/// [`ShardedHandle`](crate::ShardedHandle); the protocol is identical.
///
/// Robustness contract (regression-tested here and by the
/// `wire_hostile` suite): no client behavior can wedge the listener or
/// grow a connection's memory past the bounds in the
/// [module docs](self). An abrupt disconnect mid-response surfaces as a
/// write-side `BrokenPipe`/`ConnectionReset` `io::Error` that ends only
/// that connection; so do an oversized request and a request or reply
/// stalled past the deadline. A panic inside a connection thread is
/// caught at the thread boundary (no shared state is held across
/// request handling, so nothing can be poisoned); a connection over the
/// cap is turned away without blocking the accept loop; and a
/// connection-thread *spawn* failure under resource exhaustion drops
/// that one connection instead of unwinding the accept loop.
///
/// # Errors
///
/// Returns the I/O error from binding the listener.
pub fn serve<S: SnapshotSource, A: ToSocketAddrs>(handle: S, addr: A) -> io::Result<WireServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let tel = handle.telemetry();
    let cache = Arc::new(ResponseCache::new(&tel));
    let wire_metrics = Arc::new(WireMetrics::register(&tel));
    let accept_stop = stop.clone();
    let accept_cache = cache.clone();
    let live = Arc::new(AtomicUsize::new(0));
    let accept_thread = std::thread::Builder::new()
        .name("dkcore-wire-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                // Only this loop takes slots, so the check cannot race
                // past the cap; connection threads only give them back.
                // The count publishes no other data: `Relaxed` suffices.
                if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                    refuse(&stream);
                    continue;
                }
                live.fetch_add(1, Ordering::Relaxed);
                let slot = Slot(live.clone());
                let handle = handle.clone();
                let stop = accept_stop.clone();
                let cache = accept_cache.clone();
                let wire_metrics = wire_metrics.clone();
                // Builder::spawn (not thread::spawn): a spawn failure under
                // fd/thread exhaustion must drop this connection (and its
                // slot, with the closure), not panic the accept loop and
                // silently wedge the listener.
                let spawned = std::thread::Builder::new()
                    .name("dkcore-wire-conn".into())
                    .spawn(move || {
                        let _slot = slot;
                        serve_contained(stream, &handle, &stop, &cache, &wire_metrics);
                    });
                drop(spawned); // Err(_) = connection dropped, listener lives on.
            }
        })?;
    Ok(WireServer {
        addr,
        stop,
        cache,
        accept_thread: Some(accept_thread),
    })
}

/// One connection slot under [`MAX_CONNECTIONS`], given back on drop:
/// when the connection thread ends, by any path, or with the closure of
/// a thread that failed to spawn.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Turns away a connection over the cap with one `ERR server busy`
/// line. The socket is non-blocking, so the accept loop never waits on
/// this client; a fresh socket's send buffer takes the line whole.
fn refuse(mut stream: &TcpStream) {
    if stream.set_nonblocking(true).is_ok() {
        let _ = stream.write_all(b"ERR server busy\n");
    }
}

/// Serves one connection on its own thread. Connection I/O errors end
/// that connection; a panic (always a bug, but contained) must not take
/// anything else with it — there is nothing to poison because each
/// request pins its own immutable snapshot. The payload is logged so
/// the bug is debuggable.
fn serve_contained<S: SnapshotSource>(
    stream: TcpStream,
    handle: &S,
    stop: &Arc<AtomicBool>,
    cache: &ResponseCache,
    wire: &WireMetrics,
) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = serve_connection(stream, handle, stop, cache, wire);
    }));
    if let Err(payload) = result {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        eprintln!("dkcore-wire: connection thread panicked (contained): {msg}");
    }
}

impl WireServer {
    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Whether the server has been asked to stop.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Hit/miss/occupancy counters for the `(epoch, query)` response
    /// cache shared by all of this server's connections.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Blocks until the server is asked to stop (via
    /// [`shutdown`](Self::shutdown) from another thread or a client's
    /// `SHUTDOWN` command).
    pub fn wait(&self) {
        while !self.is_shutdown() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops accepting connections and joins the accept loop. Idempotent.
    /// In-flight connections finish their current request and then see
    /// the stop flag at the next one.
    pub fn shutdown(&mut self) {
        request_stop(&self.stop, self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Sets the stop flag and nudges the accept loop out of `accept()` with
/// a throwaway connection.
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    if !stop.swap(true, Ordering::AcqRel) {
        let _ = TcpStream::connect(addr);
    }
}

/// Serves one client connection until `QUIT`, EOF, shutdown, or an I/O
/// error. Starts in text (line) mode; `HELLO BINARY` hands the
/// connection over to [`serve_binary`].
///
/// Every fully-received request is answered — even one that races with
/// shutdown — so a client never loses a response it was owed. The stop
/// flag is observed between requests via a read timeout, which also
/// lets *idle* connections wind down shortly after shutdown instead of
/// blocking in a read forever.
fn serve_connection<S: SnapshotSource>(
    stream: TcpStream,
    handle: &S,
    stop: &Arc<AtomicBool>,
    cache: &ResponseCache,
    wire: &WireMetrics,
) -> io::Result<()> {
    let peer_addr = stream.local_addr()?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(REQUEST_DEADLINE))?;
    let mut reader = RequestReader::new(&stream, stop);
    let mut writer = BufWriter::new(&stream);
    let mut line = Vec::new();
    loop {
        if !reader.holds_line() {
            writer.flush()?;
        }
        match reader.read_line(&mut line)? {
            Line::Request => {}
            Line::TooLong => {
                writer.write_all(b"ERR line too long\n")?;
                return writer.flush();
            }
            Line::End => return Ok(()),
        }
        let Ok(request) = std::str::from_utf8(&line) else {
            writer.write_all(b"ERR request is not UTF-8\n")?;
            continue;
        };
        let request = request.trim();
        if request.is_empty() {
            continue;
        }
        let mut parts = request.split_ascii_whitespace();
        let verb = parts.next().unwrap_or("").to_ascii_uppercase();
        let args: Vec<&str> = parts.collect();
        let timer = wire.start(WireMetrics::verb_index(&verb));
        match verb.as_str() {
            "QUIT" => {
                writeln!(writer, "OK bye")?;
                writer.flush()?;
                return Ok(());
            }
            "SHUTDOWN" => {
                writeln!(writer, "OK shutting-down")?;
                writer.flush()?;
                request_stop(stop, peer_addr);
                return Ok(());
            }
            // Health comes from the live writer-health slot, not a
            // pinned snapshot — it describes the writer, not an epoch's
            // query surface, so it is handled alongside the other
            // connection-level verbs.
            "HEALTH" => {
                let h = handle.health();
                // The sharded backend appends its exchange counters
                // after the (format-stable) status line.
                match &h.exchange {
                    Some(x) => writeln!(
                        writer,
                        "OK epoch={} {} {}",
                        h.epoch,
                        h.status_line(),
                        x.summary()
                    )?,
                    None => writeln!(writer, "OK epoch={} {}", h.epoch, h.status_line())?,
                }
            }
            // Exposition verbs read live telemetry state, not a pinned
            // snapshot, so — like HEALTH — they bypass the response
            // cache (caching them would also freeze the very counters
            // they report).
            "METRICS" => {
                let text = wire.tel.render_prometheus();
                writeln!(
                    writer,
                    "OK epoch={} lines={}",
                    handle.epoch(),
                    text.lines().count()
                )?;
                writer.write_all(text.as_bytes())?;
            }
            "EVENTS" => match parse_events_args(&args) {
                Ok((since, limit)) => {
                    let events = wire.tel.events_since(since, limit);
                    let last = events.last().map_or(since, |e| e.seq);
                    writeln!(
                        writer,
                        "OK epoch={} count={} last={last}",
                        handle.epoch(),
                        events.len()
                    )?;
                    for e in &events {
                        writeln!(writer, "{}", e.render())?;
                    }
                }
                Err(e) => writeln!(writer, "ERR {e}")?,
            },
            // Mode negotiation is connection-level state, not a query.
            "HELLO" => match args.first().map(|m| m.to_ascii_uppercase()).as_deref() {
                None => writeln!(
                    writer,
                    "OK proto=2 epoch={} modes=text,binary",
                    handle.epoch()
                )?,
                Some("TEXT") => writeln!(writer, "OK proto=2 mode=text")?,
                Some("BINARY") => {
                    writeln!(writer, "OK proto=2 mode=binary")?;
                    return serve_binary(&mut reader, &mut writer, handle, cache, wire);
                }
                Some(other) => {
                    writeln!(
                        writer,
                        "ERR HELLO: unknown mode {other:?}; modes: text,binary"
                    )?;
                }
            },
            _ => {
                let snap = handle.snapshot();
                let body = if matches!(
                    verb.as_str(),
                    "EPOCH" | "MEMBERS" | "SUBGRAPH" | "HIST" | "TOPK"
                ) {
                    let epoch = CoreQuery::epoch(&*snap);
                    cache.get_or_build(epoch, text_cache_key(&verb, &args), || {
                        let resp = answer_text(&verb, &args, &*snap);
                        let cacheable = resp.starts_with("OK");
                        (resp.into_bytes(), cacheable)
                    })
                } else {
                    Arc::new(answer_text(&verb, &args, &*snap).into_bytes())
                };
                writer.write_all(&body)?;
            }
        }
        wire.finish(timer);
    }
}

/// Canonical cache key for a text request: the uppercased verb and
/// uppercased argument tokens, space-joined — so `members 2 offset 0`
/// and `MEMBERS 2 OFFSET 0` share an entry.
fn text_cache_key(verb: &str, args: &[&str]) -> Vec<u8> {
    let mut key = String::from(verb);
    for a in args {
        key.push(' ');
        key.push_str(&a.to_ascii_uppercase());
    }
    key.into_bytes()
}

/// Answers one text query against a pinned snapshot (either backend),
/// returning the full newline-terminated response (header plus body
/// lines for `SUBGRAPH`). Writing to a `String` cannot fail, so the
/// result is infallible and cacheable as-is.
fn answer_text<V: CoreScan + ?Sized>(verb: &str, args: &[&str], snap: &V) -> String {
    let epoch = CoreQuery::epoch(snap);
    let mut out = String::new();
    match verb {
        "EPOCH" => {
            let _ = writeln!(
                out,
                "OK epoch={epoch} nodes={} edges={} kmax={}",
                snap.node_count(),
                snap.edge_count(),
                snap.max_coreness()
            );
        }
        "CORENESS" => match parse_u32_arg("CORENESS", args.first()) {
            Ok(v) => match snap.coreness(NodeId(v)).zip(snap.degree(NodeId(v))) {
                Some((c, d)) => {
                    let _ = writeln!(out, "OK epoch={epoch} coreness={c} degree={d}");
                }
                None => {
                    let _ = writeln!(out, "ERR node {v} out of range");
                }
            },
            Err(e) => {
                let _ = writeln!(out, "ERR {e}");
            }
        },
        "MEMBERS" => match parse_members_args(args) {
            Ok((k, None)) => {
                let ids: Vec<String> = CoreScan::members(snap, k, 0, usize::MAX)
                    .map(|v| v.0.to_string())
                    .collect();
                let _ = writeln!(
                    out,
                    "OK epoch={epoch} count={} members={}",
                    ids.len(),
                    ids.join(",")
                );
            }
            Ok((k, Some((offset, limit)))) => {
                let ids: Vec<String> = CoreScan::members(snap, k, offset, limit)
                    .map(|v| v.0.to_string())
                    .collect();
                let _ = writeln!(
                    out,
                    "OK epoch={epoch} total={} offset={offset} count={} members={}",
                    snap.kcore_size(k),
                    ids.len(),
                    ids.join(",")
                );
            }
            Err(e) => {
                let _ = writeln!(out, "ERR {e}");
            }
        },
        "SUBGRAPH" => match parse_u32_arg("SUBGRAPH", args.first()) {
            Ok(k) => {
                let cached = subgraph(snap, k);
                let (sub, back) = &*cached;
                let _ = writeln!(
                    out,
                    "OK epoch={epoch} nodes={} edges={}",
                    sub.node_count(),
                    sub.edge_count()
                );
                for (u, v) in sub.edges() {
                    let _ = writeln!(out, "{} {}", back[u.index()], back[v.index()]);
                }
            }
            Err(e) => {
                let _ = writeln!(out, "ERR {e}");
            }
        },
        "HIST" => {
            let shells: Vec<String> = CoreScan::shell_sizes(snap)
                .enumerate()
                .filter(|&(_, c)| c > 0)
                .map(|(k, c)| format!("{k}:{c}"))
                .collect();
            let _ = writeln!(out, "OK epoch={epoch} hist={}", shells.join(","));
        }
        "TOPK" => match parse_topk_args(args) {
            Ok((n, None)) => {
                let pairs: Vec<String> = CoreScan::top(snap, 0, n as usize)
                    .map(|(v, c)| format!("{}:{c}", v.0))
                    .collect();
                let _ = writeln!(out, "OK epoch={epoch} top={}", pairs.join(","));
            }
            Ok((n, Some(offset))) => {
                let pairs: Vec<String> = CoreScan::top(snap, offset, n as usize)
                    .map(|(v, c)| format!("{}:{c}", v.0))
                    .collect();
                let _ = writeln!(
                    out,
                    "OK epoch={epoch} offset={offset} top={}",
                    pairs.join(",")
                );
            }
            Err(e) => {
                let _ = writeln!(out, "ERR {e}");
            }
        },
        other => {
            let _ = writeln!(
                out,
                "ERR unknown command {other:?}; known: HELLO EPOCH CORENESS MEMBERS SUBGRAPH HIST TOPK HEALTH METRICS EVENTS QUIT SHUTDOWN"
            );
        }
    }
    out
}

/// The memoized k-core subgraph for `k`. Every `k` past the top shell
/// has the same empty answer, so they share one memo entry: a client
/// cannot grow the snapshot's memo by asking for many large `k`s.
fn subgraph<V: CoreScan + ?Sized>(snap: &V, k: u32) -> Arc<(Graph, Vec<NodeId>)> {
    snap.kcore_subgraph_cached(k.min(snap.max_coreness().saturating_add(1)))
}

/// Parses a required leading `u32` argument with the legacy error
/// wording (`<verb> requires an argument` / `not a number`).
fn parse_u32_arg(name: &str, token: Option<&&str>) -> Result<u32, String> {
    let token = token.ok_or_else(|| format!("{name} requires an argument"))?;
    token
        .parse::<u32>()
        .map_err(|_| format!("{name}: {token:?} is not a number"))
}

/// Parses `MEMBERS <k> [OFFSET <o>] [LIMIT <l>]`. Returns the page
/// bounds only when at least one pagination keyword appeared, so the
/// caller can keep the legacy response shape for plain `MEMBERS <k>`.
fn parse_members_args(args: &[&str]) -> Result<(u32, Option<(usize, usize)>), String> {
    let k = parse_u32_arg("MEMBERS", args.first())?;
    let mut offset: Option<usize> = None;
    let mut limit: Option<usize> = None;
    let mut rest = args[1..].iter();
    while let Some(tok) = rest.next() {
        let slot = if tok.eq_ignore_ascii_case("OFFSET") {
            &mut offset
        } else if tok.eq_ignore_ascii_case("LIMIT") {
            &mut limit
        } else {
            return Err(format!("MEMBERS: unexpected argument {tok:?}"));
        };
        let val = rest
            .next()
            .ok_or_else(|| format!("{} requires an argument", tok.to_ascii_uppercase()))?;
        *slot = Some(
            val.parse::<usize>()
                .map_err(|_| format!("{}: {val:?} is not a number", tok.to_ascii_uppercase()))?,
        );
    }
    if offset.is_none() && limit.is_none() {
        return Ok((k, None));
    }
    Ok((k, Some((offset.unwrap_or(0), limit.unwrap_or(usize::MAX)))))
}

/// Parses `EVENTS [SINCE <s>] [LIMIT <n>]`. Defaults replay the whole
/// retained window: everything after seq 0, no count bound.
fn parse_events_args(args: &[&str]) -> Result<(u64, usize), String> {
    let mut since = 0u64;
    let mut limit = usize::MAX;
    let mut rest = args.iter();
    while let Some(tok) = rest.next() {
        if !tok.eq_ignore_ascii_case("SINCE") && !tok.eq_ignore_ascii_case("LIMIT") {
            return Err(format!("EVENTS: unexpected argument {tok:?}"));
        }
        let val = rest
            .next()
            .ok_or_else(|| format!("{} requires an argument", tok.to_ascii_uppercase()))?;
        if tok.eq_ignore_ascii_case("SINCE") {
            since = val
                .parse::<u64>()
                .map_err(|_| format!("SINCE: {val:?} is not a number"))?;
        } else {
            limit = val
                .parse::<usize>()
                .map_err(|_| format!("LIMIT: {val:?} is not a number"))?;
        }
    }
    Ok((since, limit))
}

/// Parses `TOPK <n> [OFFSET <o>]`; like `MEMBERS`, the offset's
/// presence selects the paginated response shape.
fn parse_topk_args(args: &[&str]) -> Result<(u32, Option<usize>), String> {
    let n = parse_u32_arg("TOPK", args.first())?;
    match args[1..] {
        [] => Ok((n, None)),
        [kw, val] if kw.eq_ignore_ascii_case("OFFSET") => {
            let offset = val
                .parse::<usize>()
                .map_err(|_| format!("OFFSET: {val:?} is not a number"))?;
            Ok((n, Some(offset)))
        }
        [kw] if kw.eq_ignore_ascii_case("OFFSET") => Err("OFFSET requires an argument".into()),
        [tok, ..] => Err(format!("TOPK: unexpected argument {tok:?}")),
    }
}

// ---------------------------------------------------------------------
// Request reading, both modes
// ---------------------------------------------------------------------

/// The read side of one connection: the socket behind an 8 KiB buffer,
/// the server's stop flag and the request deadline. Nothing here is
/// sized by what the client sends.
struct RequestReader<'a> {
    inner: BufReader<&'a TcpStream>,
    stop: &'a AtomicBool,
    /// When the request being read was first found buffered; `None`
    /// between requests, which may idle as long as they like.
    started: Option<Instant>,
}

/// What [`RequestReader::fill`] found.
enum Fill {
    /// Request bytes are buffered.
    Data,
    /// The client closed its side.
    Eof,
    /// The stop flag was raised while the reader waited.
    Stop,
}

/// One outcome of [`RequestReader::read_line`].
enum Line {
    /// A request line, its `\n` stripped (or unterminated at EOF).
    Request,
    /// The line ran past [`MAX_LINE`] bytes.
    TooLong,
    /// EOF or the stop flag, with no request pending.
    End,
}

impl<'a> RequestReader<'a> {
    fn new(stream: &'a TcpStream, stop: &'a AtomicBool) -> Self {
        RequestReader {
            inner: BufReader::new(stream),
            stop,
            started: None,
        }
    }

    /// Waits until a byte is buffered, reading the socket only when the
    /// buffer is empty. A wait checks the stop flag every [`READ_TICK`];
    /// once a request has begun, every call checks its deadline, so a
    /// client trickling bytes cannot hold a request open either.
    fn fill(&mut self) -> io::Result<Fill> {
        loop {
            if self.started.is_some_and(|t| t.elapsed() > REQUEST_DEADLINE) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request deadline passed",
                ));
            }
            match self.inner.fill_buf() {
                Ok([]) => return Ok(Fill::Eof),
                Ok(_) => {
                    self.started.get_or_insert_with(Instant::now);
                    return Ok(Fill::Data);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if self.stop.load(Ordering::Acquire) {
                        return Ok(Fill::Stop);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether a whole request line is already buffered.
    fn holds_line(&self) -> bool {
        self.inner.buffer().contains(&b'\n')
    }

    /// Reads the next request line into `line`, without its `\n`,
    /// holding at most [`MAX_LINE`] bytes of it. At the stop flag a
    /// partial line is dropped; at EOF it is still a request.
    fn read_line(&mut self, line: &mut Vec<u8>) -> io::Result<Line> {
        line.clear();
        self.started = None;
        loop {
            match self.fill()? {
                Fill::Data => {}
                Fill::Eof if !line.is_empty() => return Ok(Line::Request),
                Fill::Eof | Fill::Stop => return Ok(Line::End),
            }
            let buf = self.inner.buffer();
            let newline = buf.iter().position(|&b| b == b'\n');
            let chunk = &buf[..newline.unwrap_or(buf.len())];
            if line.len() + chunk.len() > MAX_LINE {
                return Ok(Line::TooLong);
            }
            line.extend_from_slice(chunk);
            let used = chunk.len() + usize::from(newline.is_some());
            self.inner.consume(used);
            if newline.is_some() {
                return Ok(Line::Request);
            }
        }
    }

    /// Whether the whole next request frame, of a legal length, is
    /// already buffered.
    fn holds_frame(&self) -> bool {
        let buf = self.inner.buffer();
        buf.first_chunk::<4>().is_some_and(|prefix| {
            let len = usize::try_from(u32::from_le_bytes(*prefix)).unwrap_or(usize::MAX);
            len <= MAX_REQUEST && buf.len() >= 4 + len
        })
    }

    /// Reads the next request frame into `frame` and returns its
    /// payload. `Ok(None)` ends the connection cleanly: EOF at a frame
    /// boundary, or the stop flag (a torn frame at shutdown is dropped).
    /// A length prefix past [`MAX_REQUEST`] is an `InvalidData` error,
    /// raised before any of the frame is read.
    fn read_frame<'f>(&mut self, frame: &'f mut [u8; MAX_REQUEST]) -> io::Result<Option<&'f [u8]>> {
        self.started = None;
        let mut prefix = [0u8; 4];
        if !self.read_exact(&mut prefix)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(prefix);
        let Some(payload) = usize::try_from(len).ok().and_then(|n| frame.get_mut(..n)) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request frame of {len} bytes exceeds {MAX_REQUEST}"),
            ));
        };
        if !self.read_exact(payload)? {
            return Ok(None);
        }
        Ok(Some(&*payload))
    }

    /// Fills `buf` with the next bytes of the current request. `Ok(false)`
    /// is a clean end: EOF before the request's first byte, or the stop
    /// flag. EOF inside the request is an `UnexpectedEof` error: the peer
    /// violated the framing.
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<bool> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.fill()? {
                Fill::Data => filled += self.inner.read(&mut buf[filled..])?,
                Fill::Eof if self.started.is_none() => return Ok(false),
                Fill::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Fill::Stop => return Ok(false),
            }
        }
        Ok(true)
    }
}

// ---------------------------------------------------------------------
// Binary framed mode: server side
// ---------------------------------------------------------------------

/// Bytes of a reply frame before its payload: `u32 req_id`, `u8 status`,
/// `u64 epoch`.
const REPLY_HEADER: usize = 13;

/// Encodes a response body: `u8 status`, `u64 epoch`, payload. The
/// `req_id` is *not* part of the body so cached bodies can be replayed
/// under any request id. A payload too large for a [`MAX_FRAME`] reply
/// becomes an `ERR` body: the client would refuse the frame.
fn encode_body(status: u8, epoch: u64, payload: &[u8]) -> Vec<u8> {
    if REPLY_HEADER + payload.len() > MAX_FRAME {
        let msg = format!(
            "reply of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
            payload.len()
        );
        return encode_body(1, epoch, msg.as_bytes());
    }
    let mut body = Vec::with_capacity(9 + payload.len());
    body.push(status);
    put_u64(&mut body, epoch);
    body.extend_from_slice(payload);
    body
}

/// Writes one response frame: `u32 len`, `u32 req_id`, body.
fn write_frame<W: Write>(w: &mut W, req_id: u32, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(4 + body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply frame over 4 GiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&req_id.to_le_bytes())?;
    w.write_all(body)
}

/// Serves the binary framed mode after `HELLO BINARY`. Frames are
/// answered strictly in arrival order (responses carry the request's
/// `req_id`), each from its own pinned snapshot; a client may keep any
/// number of requests in flight.
fn serve_binary<S: SnapshotSource>(
    reader: &mut RequestReader<'_>,
    writer: &mut BufWriter<&TcpStream>,
    handle: &S,
    cache: &ResponseCache,
    wire: &WireMetrics,
) -> io::Result<()> {
    let mut frame = [0u8; MAX_REQUEST];
    loop {
        if !reader.holds_frame() {
            writer.flush()?;
        }
        let Some(payload) = reader.read_frame(&mut frame)? else {
            return Ok(());
        };
        let mut cur = Decoder { buf: payload };
        let (Ok(req_id), Ok(opcode)) = (cur.u32(), cur.u8()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request frame of {} bytes has no header", payload.len()),
            ));
        };
        let args = cur.buf;
        let timer = wire.start(WireMetrics::opcode_index(opcode));
        match opcode {
            OP_QUIT => {
                let body = encode_body(0, handle.epoch(), &[]);
                write_frame(writer, req_id, &body)?;
                writer.flush()?;
                return Ok(());
            }
            OP_HEALTH => {
                let h = handle.health();
                let line = match &h.exchange {
                    Some(x) => format!("{} {}", h.status_line(), x.summary()),
                    None => h.status_line(),
                };
                let body = encode_body(0, h.epoch, line.as_bytes());
                write_frame(writer, req_id, &body)?;
            }
            // Exposition opcodes mirror the text verbs: live telemetry
            // state as a UTF-8 payload, uncached.
            OP_METRICS => {
                let body = if args.is_empty() {
                    let text = wire.tel.render_prometheus();
                    encode_body(0, handle.epoch(), text.as_bytes())
                } else {
                    let msg = format!("{} trailing bytes after arguments", args.len());
                    encode_body(1, handle.epoch(), msg.as_bytes())
                };
                write_frame(writer, req_id, &body)?;
            }
            OP_EVENTS => {
                let mut cur = Decoder { buf: args };
                let parsed = cur.u64().and_then(|since| {
                    let limit = cur.u64()?;
                    cur.finish()?;
                    Ok((since, limit))
                });
                let body = match parsed {
                    Ok((since, limit)) => {
                        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
                        let events = wire.tel.events_since(since, limit);
                        let mut text = String::new();
                        for e in &events {
                            let _ = writeln!(text, "{}", e.render());
                        }
                        encode_body(0, handle.epoch(), text.as_bytes())
                    }
                    Err(msg) => encode_body(1, handle.epoch(), msg.as_bytes()),
                };
                write_frame(writer, req_id, &body)?;
            }
            _ => {
                let snap = handle.snapshot();
                let body = if matches!(
                    opcode,
                    OP_EPOCH | OP_MEMBERS | OP_SUBGRAPH | OP_HIST | OP_TOPK
                ) {
                    let epoch = CoreQuery::epoch(&*snap);
                    let mut key = Vec::with_capacity(1 + args.len());
                    key.push(opcode);
                    key.extend_from_slice(args);
                    cache.get_or_build(epoch, key, || {
                        let (status, epoch, payload) = answer_binary(opcode, args, &*snap);
                        (encode_body(status, epoch, &payload), status == 0)
                    })
                } else {
                    let (status, epoch, payload) = answer_binary(opcode, args, &*snap);
                    Arc::new(encode_body(status, epoch, &payload))
                };
                write_frame(writer, req_id, &body)?;
            }
        }
        wire.finish(timer);
    }
}

/// Answers one binary query against a pinned snapshot: returns
/// `(status, epoch, payload)` per the response table in the module
/// docs. Malformed args and unknown opcodes become `ERR` frames, never
/// connection errors — the framing itself was valid.
fn answer_binary<V: CoreScan + ?Sized>(opcode: u8, args: &[u8], snap: &V) -> (u8, u64, Vec<u8>) {
    let epoch = CoreQuery::epoch(snap);
    match answer_binary_ok(opcode, args, snap) {
        Ok(payload) => (0, epoch, payload),
        Err(msg) => (1, epoch, msg.into_bytes()),
    }
}

fn answer_binary_ok<V: CoreScan + ?Sized>(
    opcode: u8,
    args: &[u8],
    snap: &V,
) -> Result<Vec<u8>, String> {
    let mut cur = Decoder { buf: args };
    let mut payload = Vec::new();
    match opcode {
        OP_EPOCH => {
            cur.finish()?;
            put_u64(&mut payload, snap.node_count() as u64);
            put_u64(&mut payload, snap.edge_count() as u64);
            put_u32(&mut payload, snap.max_coreness());
        }
        OP_CORENESS => {
            let v = cur.u32()?;
            cur.finish()?;
            let (c, d) = snap
                .coreness(NodeId(v))
                .zip(snap.degree(NodeId(v)))
                .ok_or_else(|| format!("node {v} out of range"))?;
            put_u32(&mut payload, c);
            put_u32(&mut payload, d);
        }
        OP_MEMBERS => {
            let k = cur.u32()?;
            let offset = cur.u64()?;
            let limit = cur.u64()?;
            cur.finish()?;
            let offset_us = usize::try_from(offset).unwrap_or(usize::MAX);
            let limit_us = usize::try_from(limit).unwrap_or(usize::MAX);
            let ids: Vec<u32> = CoreScan::members(snap, k, offset_us, limit_us)
                .map(|v| v.0)
                .collect();
            put_u64(&mut payload, snap.kcore_size(k) as u64);
            put_u64(&mut payload, offset);
            put_u32(&mut payload, ids.len() as u32);
            for id in ids {
                put_u32(&mut payload, id);
            }
        }
        OP_SUBGRAPH => {
            let k = cur.u32()?;
            cur.finish()?;
            let cached = subgraph(snap, k);
            let (sub, back) = &*cached;
            put_u64(&mut payload, sub.node_count() as u64);
            put_u64(&mut payload, sub.edge_count() as u64);
            for (u, v) in sub.edges() {
                put_u32(&mut payload, back[u.index()].0);
                put_u32(&mut payload, back[v.index()].0);
            }
        }
        OP_HIST => {
            cur.finish()?;
            let shells: Vec<usize> = CoreScan::shell_sizes(snap).collect();
            put_u32(&mut payload, shells.len() as u32);
            for (k, c) in shells.into_iter().enumerate() {
                put_u32(&mut payload, k as u32);
                put_u64(&mut payload, c as u64);
            }
        }
        OP_TOPK => {
            let n = cur.u64()?;
            let offset = cur.u64()?;
            cur.finish()?;
            let n_us = usize::try_from(n).unwrap_or(usize::MAX);
            let offset_us = usize::try_from(offset).unwrap_or(usize::MAX);
            let pairs: Vec<(u32, u32)> = CoreScan::top(snap, offset_us, n_us)
                .map(|(v, c)| (v.0, c))
                .collect();
            put_u32(&mut payload, pairs.len() as u32);
            for (id, c) in pairs {
                put_u32(&mut payload, id);
                put_u32(&mut payload, c);
            }
        }
        other => return Err(format!("unknown opcode {other}")),
    }
    Ok(payload)
}

/// Little-endian append helpers for frame payloads.
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian cursor over a frame's argument/payload bytes.
struct Decoder<'a> {
    /// The bytes not yet decoded.
    buf: &'a [u8],
}

impl Decoder<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (bytes, rest) = self.buf.split_first_chunk::<N>().ok_or("truncated frame")?;
        self.buf = rest;
        Ok(*bytes)
    }

    fn u8(&mut self) -> Result<u8, String> {
        self.take().map(|[b]| b)
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.take().map(u64::from_le_bytes)
    }

    fn finish(&self) -> Result<(), String> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after arguments", self.buf.len()))
        }
    }
}

/// Client-side robustness knobs: per-operation I/O timeouts and a
/// bounded reconnect-and-retry loop with exponential backoff.
///
/// Without timeouts a hung or mid-shutdown server blocks the client in
/// `read` forever; without retry a transient refusal (server still
/// binding, listener backlog full) is a hard failure. The defaults are
/// tuned for an interactive CLI: fail within a few seconds, never hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (≥ 1); each attempt reconnects fresh.
    pub attempts: u32,
    /// Read/write timeout applied to every socket operation.
    pub io_timeout: Duration,
    /// Base backoff between attempts; attempt `n` waits `base << (n-1)`
    /// (capped at 16× base).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            io_timeout: Duration::from_secs(5),
            backoff: Duration::from_millis(100),
        }
    }
}

/// Transient error kinds worth a reconnect: the server may be starting
/// up, shutting down one connection, or briefly stalled. Anything else
/// (e.g. a malformed-response `InvalidData`) fails immediately.
fn is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
    )
}

/// Blocking line-protocol client, for the CLI and tests. Upgrade to the
/// framed mode with [`into_binary`](Self::into_binary).
#[derive(Debug)]
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl WireClient {
    /// Connects to a running [`WireServer`] with no I/O timeouts (reads
    /// block indefinitely). Prefer [`connect_with`](Self::connect_with)
    /// anywhere a hung server must not hang the caller.
    ///
    /// # Errors
    ///
    /// Returns the underlying connection error.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Connects with `policy.io_timeout` applied to every subsequent
    /// read and write, so a stalled server surfaces as a
    /// `TimedOut`/`WouldBlock` error instead of blocking forever. The
    /// connect itself is a single attempt — the retry loop lives in
    /// [`request_retrying`](Self::request_retrying).
    ///
    /// # Errors
    ///
    /// Returns the underlying connection or socket-option error.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, policy: &RetryPolicy) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(policy.io_timeout))?;
        stream.set_write_timeout(Some(policy.io_timeout))?;
        Ok(WireClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// One-shot request with bounded retry: connect fresh, send
    /// `command`, read the one-line response; on a transient failure
    /// (timeout, refused/reset/aborted connection, broken pipe,
    /// unexpected EOF) back off exponentially and try again, up to
    /// `policy.attempts` total attempts. Reconnecting per attempt is
    /// deliberate — after a timeout the old connection's response could
    /// still arrive later and would desynchronize a reused stream.
    ///
    /// # Errors
    ///
    /// Returns the last transient error once attempts are exhausted, or
    /// the first non-retryable error immediately.
    pub fn request_retrying<A: ToSocketAddrs>(
        addr: A,
        command: &str,
        policy: &RetryPolicy,
    ) -> io::Result<String> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff * (1u32 << (attempt - 1).min(4)));
            }
            match Self::connect_with(&addr, policy).and_then(|mut c| c.request(command)) {
                Ok(response) => return Ok(response),
                Err(e) if is_retryable(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connection attempts made")))
    }

    /// Sends one command line and returns the one-line response.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, including an unexpected EOF.
    pub fn request(&mut self, command: &str) -> io::Result<String> {
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Sends one command and reads a header line plus, when the header
    /// is `OK ... edges=<m>` for a `SUBGRAPH` request, `m` follow-up
    /// lines. Returns all lines, header first.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, including an unexpected EOF mid-body.
    pub fn request_subgraph(&mut self, k: u32) -> io::Result<Vec<String>> {
        writeln!(self.writer, "SUBGRAPH {k}")?;
        self.writer.flush()?;
        let header = self.read_line()?;
        let mut lines = vec![header.clone()];
        if header.starts_with("OK") {
            let edges: usize = header
                .split_ascii_whitespace()
                .find_map(|t| t.strip_prefix("edges="))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "malformed SUBGRAPH header")
                })?;
            for _ in 0..edges {
                lines.push(self.read_line()?);
            }
        }
        Ok(lines)
    }

    /// Sends `METRICS` and returns all response lines, header first
    /// (`OK epoch=<e> lines=<n>` plus `n` Prometheus-style lines).
    ///
    /// # Errors
    ///
    /// Returns I/O errors, including an unexpected EOF mid-body.
    pub fn request_metrics(&mut self) -> io::Result<Vec<String>> {
        self.request_block("METRICS", "lines=")
    }

    /// Sends `EVENTS [SINCE since] [LIMIT limit]` and returns all
    /// response lines, header first (`OK epoch=<e> count=<c> last=<s>`
    /// plus `c` rendered event lines). Pass `since = 0` and
    /// `limit = None` to replay the whole retained window.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, including an unexpected EOF mid-body.
    pub fn request_events(&mut self, since: u64, limit: Option<u64>) -> io::Result<Vec<String>> {
        let command = match limit {
            Some(l) => format!("EVENTS SINCE {since} LIMIT {l}"),
            None => format!("EVENTS SINCE {since}"),
        };
        self.request_block(&command, "count=")
    }

    /// Sends `command` and reads a header line plus, when the header is
    /// `OK`, the number of follow-up lines announced by its
    /// `<count_field><n>` token. Returns all lines, header first.
    fn request_block(&mut self, command: &str, count_field: &str) -> io::Result<Vec<String>> {
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        let header = self.read_line()?;
        let mut lines = vec![header.clone()];
        if header.starts_with("OK") {
            let count: usize = header
                .split_ascii_whitespace()
                .find_map(|t| t.strip_prefix(count_field))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed header for {command:?}"),
                    )
                })?;
            for _ in 0..count {
                lines.push(self.read_line()?);
            }
        }
        Ok(lines)
    }

    /// Negotiates the binary framed mode (`HELLO BINARY`) and returns a
    /// [`BinaryWireClient`] over the same connection.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` if the server refuses the
    /// upgrade (e.g. an older server that does not know `HELLO`).
    pub fn into_binary(mut self) -> io::Result<BinaryWireClient> {
        let ack = self.request("HELLO BINARY")?;
        if ack != "OK proto=2 mode=binary" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("binary negotiation refused: {ack}"),
            ));
        }
        Ok(BinaryWireClient {
            reader: self.reader,
            writer: self.writer,
            next_id: 1,
        })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

// ---------------------------------------------------------------------
// Binary framed mode: client side
// ---------------------------------------------------------------------

/// A request in the binary framed mode; see the opcode table in the
/// module docs for the exact encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinRequest {
    /// Graph-level epoch summary (nodes, edges, kmax).
    Epoch,
    /// Point coreness + degree lookup for one node.
    Coreness(u32),
    /// Paginated k-core membership page. `limit = u64::MAX` means "to
    /// the end".
    Members {
        /// Core threshold.
        k: u32,
        /// Rank of the first member to return.
        offset: u64,
        /// Maximum members in the page.
        limit: u64,
    },
    /// Induced k-core subgraph edge list (original ids).
    Subgraph(u32),
    /// Full shell-size histogram for shells `0..=kmax`.
    Hist,
    /// Top nodes by coreness, ranks `offset..offset+n`.
    TopK {
        /// Page size.
        n: u64,
        /// Rank of the first entry to return.
        offset: u64,
    },
    /// Live writer health (not served from a pinned snapshot).
    Health,
    /// Prometheus-style metrics exposition (UTF-8 payload, live state).
    Metrics,
    /// Flight-recorder replay: events after `since`, at most `limit`
    /// (`u64::MAX` = unbounded), one rendered line each in the UTF-8
    /// payload.
    Events {
        /// Replay events with sequence numbers strictly greater than
        /// this.
        since: u64,
        /// Maximum events to return.
        limit: u64,
    },
    /// Close the connection after an empty `OK` acknowledgement.
    Quit,
}

impl BinRequest {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            BinRequest::Epoch => buf.push(OP_EPOCH),
            BinRequest::Coreness(v) => {
                buf.push(OP_CORENESS);
                put_u32(buf, v);
            }
            BinRequest::Members { k, offset, limit } => {
                buf.push(OP_MEMBERS);
                put_u32(buf, k);
                put_u64(buf, offset);
                put_u64(buf, limit);
            }
            BinRequest::Subgraph(k) => {
                buf.push(OP_SUBGRAPH);
                put_u32(buf, k);
            }
            BinRequest::Hist => buf.push(OP_HIST),
            BinRequest::TopK { n, offset } => {
                buf.push(OP_TOPK);
                put_u64(buf, n);
                put_u64(buf, offset);
            }
            BinRequest::Health => buf.push(OP_HEALTH),
            BinRequest::Metrics => buf.push(OP_METRICS),
            BinRequest::Events { since, limit } => {
                buf.push(OP_EVENTS);
                put_u64(buf, since);
                put_u64(buf, limit);
            }
            BinRequest::Quit => buf.push(OP_QUIT),
        }
    }
}

/// One decoded binary response frame. The typed accessors return
/// `None` when the frame is an error or the payload does not match the
/// expected shape; [`text`](Self::text) reads `ERR` messages and
/// `HEALTH` status lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinResponse {
    /// Echo of the request's id — pipelined clients match on this.
    pub req_id: u32,
    /// `true` for an `OK` (status 0) frame.
    pub ok: bool,
    /// Epoch the answer was computed against.
    pub epoch: u64,
    /// Raw opcode-specific payload; prefer the typed accessors.
    pub payload: Vec<u8>,
}

impl BinResponse {
    /// Decodes an `EPOCH` payload as `(nodes, edges, kmax)`.
    pub fn epoch_info(&self) -> Option<(u64, u64, u32)> {
        let mut cur = self.ok_decoder()?;
        let out = (cur.u64().ok()?, cur.u64().ok()?, cur.u32().ok()?);
        cur.finish().ok()?;
        Some(out)
    }

    /// Decodes a `CORENESS` payload as `(coreness, degree)`.
    pub fn coreness(&self) -> Option<(u32, u32)> {
        let mut cur = self.ok_decoder()?;
        let out = (cur.u32().ok()?, cur.u32().ok()?);
        cur.finish().ok()?;
        Some(out)
    }

    /// Decodes a `MEMBERS` payload as `(total, offset, ids)`.
    pub fn members(&self) -> Option<(u64, u64, Vec<u32>)> {
        let mut cur = self.ok_decoder()?;
        let total = cur.u64().ok()?;
        let offset = cur.u64().ok()?;
        let count = cur.u32().ok()?;
        let mut ids = Vec::with_capacity(count as usize);
        for _ in 0..count {
            ids.push(cur.u32().ok()?);
        }
        cur.finish().ok()?;
        Some((total, offset, ids))
    }

    /// Decodes a `SUBGRAPH` payload as `(nodes, original-id edges)`.
    pub fn subgraph(&self) -> Option<(u64, Vec<(u32, u32)>)> {
        let mut cur = self.ok_decoder()?;
        let nodes = cur.u64().ok()?;
        let edges = cur.u64().ok()?;
        let mut list = Vec::with_capacity(usize::try_from(edges).ok()?);
        for _ in 0..edges {
            list.push((cur.u32().ok()?, cur.u32().ok()?));
        }
        cur.finish().ok()?;
        Some((nodes, list))
    }

    /// Decodes a `HIST` payload as `(shell, count)` entries.
    pub fn hist(&self) -> Option<Vec<(u32, u64)>> {
        let mut cur = self.ok_decoder()?;
        let entries = cur.u32().ok()?;
        let mut out = Vec::with_capacity(entries as usize);
        for _ in 0..entries {
            out.push((cur.u32().ok()?, cur.u64().ok()?));
        }
        cur.finish().ok()?;
        Some(out)
    }

    /// Decodes a `TOPK` payload as `(id, coreness)` pairs.
    pub fn top(&self) -> Option<Vec<(u32, u32)>> {
        let mut cur = self.ok_decoder()?;
        let count = cur.u32().ok()?;
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push((cur.u32().ok()?, cur.u32().ok()?));
        }
        cur.finish().ok()?;
        Some(out)
    }

    /// The payload as UTF-8 text: an `ERR` message, or a `HEALTH`
    /// status line.
    pub fn text(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }

    fn ok_decoder(&self) -> Option<Decoder<'_>> {
        self.ok.then_some(Decoder { buf: &self.payload })
    }
}

/// Pipelined client for the binary framed mode, created by
/// [`WireClient::into_binary`]. [`send`](Self::send) only buffers;
/// [`recv`](Self::recv) flushes and reads one frame — so any number of
/// requests can be in flight, answered strictly in send order.
#[derive(Debug)]
pub struct BinaryWireClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
}

impl BinaryWireClient {
    /// Buffers one request frame (no flush) and returns its `req_id`.
    ///
    /// # Errors
    ///
    /// Returns write-side I/O errors.
    pub fn send(&mut self, req: &BinRequest) -> io::Result<u32> {
        let req_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let mut payload = Vec::with_capacity(MAX_REQUEST);
        payload.extend_from_slice(&req_id.to_le_bytes());
        req.encode(&mut payload);
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "request frame over 4 GiB"))?;
        self.writer.write_all(&len.to_le_bytes())?;
        self.writer.write_all(&payload)?;
        Ok(req_id)
    }

    /// Flushes any buffered requests and reads the next response frame.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` on a malformed frame.
    pub fn recv(&mut self) -> io::Result<BinResponse> {
        self.writer.flush()?;
        let mut len_buf = [0u8; 4];
        self.reader.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response frame length {len}"),
            ));
        }
        let mut frame = vec![0u8; len];
        self.reader.read_exact(&mut frame)?;
        let mut cur = Decoder { buf: &frame };
        let header = (cur.u32(), cur.u8(), cur.u64());
        let (Ok(req_id), Ok(status), Ok(epoch)) = header else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response frame length {len}"),
            ));
        };
        Ok(BinResponse {
            req_id,
            ok: status == 0,
            epoch,
            payload: cur.buf.to_vec(),
        })
    }

    /// Sends one request and reads its response, checking the `req_id`
    /// echo.
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` if the response answers a
    /// different request (a pipelining protocol violation).
    pub fn roundtrip(&mut self, req: &BinRequest) -> io::Result<BinResponse> {
        let id = self.send(req)?;
        let resp = self.recv()?;
        if resp.req_id != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response for req {} while awaiting {id}", resp.req_id),
            ));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreService;
    use dkcore::stream::EdgeBatch;
    use dkcore_graph::generators::path;
    use dkcore_graph::Graph;

    fn service_on_cycle() -> (CoreService, WireServer) {
        let mut svc = CoreService::new(&path(6));
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(5)); // epoch 1: a 6-cycle, all coreness 2
        svc.apply_batch(&b).unwrap();
        let server = serve(svc.handle(), "127.0.0.1:0").unwrap();
        (svc, server)
    }

    #[test]
    fn full_query_conversation() {
        let (_svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("EPOCH").unwrap(),
            "OK epoch=1 nodes=6 edges=6 kmax=2"
        );
        assert_eq!(
            c.request("CORENESS 3").unwrap(),
            "OK epoch=1 coreness=2 degree=2"
        );
        assert_eq!(
            c.request("MEMBERS 2").unwrap(),
            "OK epoch=1 count=6 members=0,1,2,3,4,5"
        );
        assert_eq!(c.request("HIST").unwrap(), "OK epoch=1 hist=2:6");
        assert_eq!(c.request("TOPK 2").unwrap(), "OK epoch=1 top=0:2,1:2");
        let sub = c.request_subgraph(2).unwrap();
        assert_eq!(sub[0], "OK epoch=1 nodes=6 edges=6");
        assert_eq!(sub.len(), 7);
        // The body lines are valid original-id edges of the cycle.
        let edges: Vec<(u32, u32)> = sub[1..]
            .iter()
            .map(|l| {
                let mut it = l.split_ascii_whitespace();
                (
                    it.next().unwrap().parse().unwrap(),
                    it.next().unwrap().parse().unwrap(),
                )
            })
            .collect();
        let rebuilt = Graph::from_edges(6, edges).unwrap();
        assert!(rebuilt.nodes().all(|u| rebuilt.degree(u) == 2));
        assert_eq!(c.request("QUIT").unwrap(), "OK bye");
    }

    #[test]
    fn error_paths_keep_the_connection_open() {
        let (_svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("CORENESS 99").unwrap(),
            "ERR node 99 out of range"
        );
        assert!(c.request("CORENESS").unwrap().starts_with("ERR"));
        assert!(c.request("CORENESS xyz").unwrap().starts_with("ERR"));
        assert!(c.request("FROBNICATE 1").unwrap().starts_with("ERR"));
        assert!(c
            .request("MEMBERS 2 SIDEWAYS 3")
            .unwrap()
            .starts_with("ERR"));
        assert!(c.request("MEMBERS 2 OFFSET").unwrap().starts_with("ERR"));
        assert!(c.request("TOPK 2 OFFSET x").unwrap().starts_with("ERR"));
        assert!(c.request("HELLO MORSE").unwrap().starts_with("ERR"));
        c.writer.write_all(b"CORENESS \xff\n").unwrap();
        c.writer.flush().unwrap();
        assert_eq!(c.read_line().unwrap(), "ERR request is not UTF-8");
        // Still serving after all those errors.
        assert!(c.request("EPOCH").unwrap().starts_with("OK epoch=1"));
    }

    #[test]
    fn concurrent_clients_see_consistent_epochs() {
        let (mut svc, server) = service_on_cycle();
        let addr = server.local_addr();
        let readers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = WireClient::connect(addr).unwrap();
                    for _ in 0..20 {
                        let r = c.request("EPOCH").unwrap();
                        assert!(r.starts_with("OK epoch="), "{r}");
                        let h = c.request("HIST").unwrap();
                        assert!(h.starts_with("OK epoch="), "{h}");
                    }
                })
            })
            .collect();
        // Writer churns concurrently.
        for (u, v) in [(1u32, 4u32), (2, 5), (0, 3)] {
            let mut b = EdgeBatch::new();
            b.insert(NodeId(u), NodeId(v));
            svc.apply_batch(&b).unwrap();
        }
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let (_svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(c.request("SHUTDOWN").unwrap(), "OK shutting-down");
        server.wait(); // returns because the client stopped the server
        assert!(server.is_shutdown());
    }

    #[test]
    fn requests_racing_shutdown_are_still_answered() {
        // An already-open connection must never lose a response it is
        // owed: after another client shuts the server down, a request on
        // the surviving connection is still answered (the connection
        // then winds down at its next idle read).
        let (_svc, server) = service_on_cycle();
        let mut a = WireClient::connect(server.local_addr()).unwrap();
        assert!(a.request("EPOCH").unwrap().starts_with("OK"));
        let mut b = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(b.request("SHUTDOWN").unwrap(), "OK shutting-down");
        server.wait();
        assert_eq!(a.request("HIST").unwrap(), "OK epoch=1 hist=2:6");
    }

    #[test]
    fn killing_a_client_mid_subgraph_leaves_the_listener_healthy() {
        // A client that requests a large multi-line SUBGRAPH response and
        // disconnects abruptly mid-body produces a write-side
        // BrokenPipe/ConnectionReset in its connection thread. That must
        // end *only* that connection: the listener keeps accepting and
        // other clients get complete, correct answers.
        use dkcore_graph::generators::gnp;
        use std::io::Read as _;

        let g = gnp(600, 0.05, 42); // thousands of body lines
        let svc = crate::CoreService::new(&g);
        let server = serve(svc.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        for round in 0..4 {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(b"SUBGRAPH 0\n").unwrap();
            raw.flush().unwrap();
            // Read a few bytes of the header so the server is committed to
            // streaming the body, then kill the connection outright.
            let mut buf = [0u8; 16];
            let n = raw.read(&mut buf).unwrap();
            assert!(n > 0, "round {round}: server started responding");
            raw.shutdown(std::net::Shutdown::Both).ok();
            drop(raw); // server's in-flight body writes now fail

            // The listener must still serve full conversations.
            let mut c = WireClient::connect(addr).unwrap();
            let e = c.request("EPOCH").unwrap();
            assert!(e.starts_with("OK epoch=0"), "round {round}: {e}");
            let sub = c.request_subgraph(1).unwrap();
            assert!(sub[0].starts_with("OK epoch=0"), "round {round}");
            assert_eq!(c.request("QUIT").unwrap(), "OK bye");
        }
        assert!(
            !server.is_shutdown(),
            "client kills must not stop the server"
        );
    }

    #[test]
    fn sharded_backend_serves_the_same_protocol() {
        use crate::ShardedCoreService;

        let mut svc = ShardedCoreService::new(&path(6), 2);
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(5)); // epoch 1: a 6-cycle, all coreness 2
        svc.apply_batch(&b).unwrap();
        let server = serve(svc.handle(), "127.0.0.1:0").unwrap();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("EPOCH").unwrap(),
            "OK epoch=1 nodes=6 edges=6 kmax=2"
        );
        assert_eq!(
            c.request("CORENESS 3").unwrap(),
            "OK epoch=1 coreness=2 degree=2"
        );
        assert_eq!(
            c.request("MEMBERS 2").unwrap(),
            "OK epoch=1 count=6 members=0,1,2,3,4,5"
        );
        assert_eq!(c.request("HIST").unwrap(), "OK epoch=1 hist=2:6");
        assert_eq!(c.request("TOPK 2").unwrap(), "OK epoch=1 top=0:2,1:2");
        let sub = c.request_subgraph(2).unwrap();
        assert_eq!(sub[0], "OK epoch=1 nodes=6 edges=6");
        // The sharded backend speaks the binary mode too.
        let mut bin = WireClient::connect(server.local_addr())
            .unwrap()
            .into_binary()
            .unwrap();
        let r = bin.roundtrip(&BinRequest::Members {
            k: 2,
            offset: 0,
            limit: u64::MAX,
        });
        let (total, _, ids) = r.unwrap().members().unwrap();
        assert_eq!(total, 6);
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(c.request("QUIT").unwrap(), "OK bye");
    }

    #[test]
    fn health_verb_reports_healthy_and_degraded_states() {
        // Single-writer backend: healthy after a publish.
        let (_svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(c.request("HEALTH").unwrap(), "OK epoch=1 status=healthy");

        // Sharded backend with no replicas: killing a primary leaves the
        // partition down, and HEALTH names it while queries keep
        // answering from the last consistent epoch.
        use crate::{ShardedConfig, ShardedCoreService};
        let mut svc = ShardedCoreService::with_config(&path(6), 2, ShardedConfig::default());
        let mut b = EdgeBatch::new();
        b.insert(NodeId(0), NodeId(5));
        svc.apply_batch(&b).unwrap();
        assert!(!svc.kill_primary(0), "no replica: partition goes down");
        let mut b = EdgeBatch::new();
        b.insert(NodeId(1), NodeId(4));
        svc.apply_batch(&b).unwrap(); // deferred: lag of 1
        let server = serve(svc.handle(), "127.0.0.1:0").unwrap();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        // Status line is format-stable; the sharded backend appends its
        // exchange counters (timing-dependent, so matched structurally).
        let health = c.request("HEALTH").unwrap();
        assert!(
            health.starts_with("OK epoch=1 status=degraded down=0:1 exchange=rounds:"),
            "unexpected HEALTH response: {health}"
        );
        assert!(health.contains(",util:"), "missing utilization: {health}");
        assert!(c.request("EPOCH").unwrap().starts_with("OK epoch=1"));
    }

    #[test]
    fn stalled_server_requests_fail_within_the_timeout() {
        // Regression: a server that accepts but never responds used to
        // block `dkcore query` forever. With a RetryPolicy the request
        // must fail with a transient error in bounded time.
        use std::time::Instant;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = std::thread::spawn(move || {
            // Accept every connection and hold it open, never replying.
            let mut held = Vec::new();
            while let Ok((s, _)) = listener.accept() {
                held.push(s);
                if held.len() >= 3 {
                    break;
                }
            }
            held
        });

        let policy = RetryPolicy {
            attempts: 2,
            io_timeout: Duration::from_millis(100),
            backoff: Duration::from_millis(10),
        };
        let t0 = Instant::now();
        let err = WireClient::request_retrying(addr, "EPOCH", &policy).unwrap_err();
        assert!(is_retryable(&err), "stall must surface as transient: {err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "bounded time, not a hang"
        );
        drop(stall); // detach: the holder thread ends with the test process
    }

    #[test]
    fn retrying_request_survives_a_transient_connection_drop() {
        // First accepted connection is dropped before any response
        // (client sees EOF/reset); the second is answered. The retry
        // loop must reconnect and succeed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (first, _) = listener.accept().unwrap();
            drop(first); // transient failure
            let (second, _) = listener.accept().unwrap();
            let mut r = BufReader::new(second.try_clone().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            assert_eq!(line.trim(), "EPOCH");
            let mut w = BufWriter::new(second);
            writeln!(w, "OK epoch=7 nodes=0 edges=0 kmax=0").unwrap();
            w.flush().unwrap();
        });

        let policy = RetryPolicy {
            attempts: 3,
            io_timeout: Duration::from_secs(2),
            backoff: Duration::from_millis(10),
        };
        let r = WireClient::request_retrying(addr, "EPOCH", &policy).unwrap();
        assert_eq!(r, "OK epoch=7 nodes=0 edges=0 kmax=0");
        fake.join().unwrap();
    }

    #[test]
    fn explicit_shutdown_is_idempotent() {
        let (_svc, mut server) = service_on_cycle();
        assert!(!server.is_shutdown());
        server.shutdown();
        assert!(server.is_shutdown());
        server.shutdown(); // second call is a no-op
        assert!(WireClient::connect(server.local_addr())
            .and_then(|mut c| c.request("EPOCH"))
            .is_err());
    }

    #[test]
    fn hello_negotiation_and_paginated_text_verbs() {
        let (_svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        assert_eq!(
            c.request("HELLO").unwrap(),
            "OK proto=2 epoch=1 modes=text,binary"
        );
        assert_eq!(c.request("HELLO TEXT").unwrap(), "OK proto=2 mode=text");
        // Paginated MEMBERS: total is the full k-core size, count the page.
        assert_eq!(
            c.request("MEMBERS 2 OFFSET 2 LIMIT 2").unwrap(),
            "OK epoch=1 total=6 offset=2 count=2 members=2,3"
        );
        assert_eq!(
            c.request("MEMBERS 2 OFFSET 5").unwrap(),
            "OK epoch=1 total=6 offset=5 count=1 members=5"
        );
        assert_eq!(
            c.request("MEMBERS 2 LIMIT 3").unwrap(),
            "OK epoch=1 total=6 offset=0 count=3 members=0,1,2"
        );
        // Past-the-end page is empty, not an error.
        assert_eq!(
            c.request("MEMBERS 2 OFFSET 9 LIMIT 3").unwrap(),
            "OK epoch=1 total=6 offset=9 count=0 members="
        );
        // Pages concatenate to the unpaginated answer.
        let full = c.request("MEMBERS 2").unwrap();
        let full_ids = full.split("members=").nth(1).unwrap().to_string();
        let mut pages = Vec::new();
        for o in (0..6).step_by(2) {
            let page = c.request(&format!("MEMBERS 2 OFFSET {o} LIMIT 2")).unwrap();
            pages.push(page.split("members=").nth(1).unwrap().to_string());
        }
        assert_eq!(pages.join(","), full_ids);
        // Paginated TOPK yields ranks offset..offset+n.
        assert_eq!(
            c.request("TOPK 2 OFFSET 1").unwrap(),
            "OK epoch=1 offset=1 top=1:2,2:2"
        );
        assert_eq!(
            c.request("TOPK 10 OFFSET 5").unwrap(),
            "OK epoch=1 offset=5 top=5:2"
        );
    }

    #[test]
    fn binary_mode_matches_text_answers() {
        let (_svc, server) = service_on_cycle();
        let mut bin = WireClient::connect(server.local_addr())
            .unwrap()
            .into_binary()
            .unwrap();

        let r = bin.roundtrip(&BinRequest::Epoch).unwrap();
        assert!(r.ok);
        assert_eq!(r.epoch, 1);
        assert_eq!(r.epoch_info().unwrap(), (6, 6, 2));

        let r = bin.roundtrip(&BinRequest::Coreness(3)).unwrap();
        assert_eq!(r.coreness().unwrap(), (2, 2));
        let r = bin.roundtrip(&BinRequest::Coreness(99)).unwrap();
        assert!(!r.ok);
        assert_eq!(r.text().unwrap(), "node 99 out of range");

        let r = bin
            .roundtrip(&BinRequest::Members {
                k: 2,
                offset: 0,
                limit: u64::MAX,
            })
            .unwrap();
        assert_eq!(r.members().unwrap(), (6, 0, vec![0, 1, 2, 3, 4, 5]));
        let r = bin
            .roundtrip(&BinRequest::Members {
                k: 2,
                offset: 2,
                limit: 2,
            })
            .unwrap();
        assert_eq!(r.members().unwrap(), (6, 2, vec![2, 3]));

        let r = bin.roundtrip(&BinRequest::Hist).unwrap();
        assert_eq!(r.hist().unwrap(), vec![(0, 0), (1, 0), (2, 6)]);

        let r = bin
            .roundtrip(&BinRequest::TopK { n: 2, offset: 0 })
            .unwrap();
        assert_eq!(r.top().unwrap(), vec![(0, 2), (1, 2)]);
        let r = bin
            .roundtrip(&BinRequest::TopK { n: 2, offset: 1 })
            .unwrap();
        assert_eq!(r.top().unwrap(), vec![(1, 2), (2, 2)]);

        let r = bin.roundtrip(&BinRequest::Subgraph(2)).unwrap();
        let (nodes, edges) = r.subgraph().unwrap();
        assert_eq!(nodes, 6);
        assert_eq!(edges.len(), 6);
        let rebuilt = Graph::from_edges(6, edges).unwrap();
        assert!(rebuilt.nodes().all(|u| rebuilt.degree(u) == 2));

        let r = bin.roundtrip(&BinRequest::Health).unwrap();
        assert!(r.ok);
        assert_eq!(r.text().unwrap(), "status=healthy");

        let r = bin.roundtrip(&BinRequest::Quit).unwrap();
        assert!(r.ok);
        assert!(r.payload.is_empty());
        assert!(bin.recv().is_err(), "connection closes after QUIT");
    }

    #[test]
    fn pipelined_binary_requests_are_answered_in_send_order() {
        let (_svc, server) = service_on_cycle();
        let mut bin = WireClient::connect(server.local_addr())
            .unwrap()
            .into_binary()
            .unwrap();
        // Queue many heterogeneous requests without reading a single
        // response, then drain: every response must echo its request id
        // in send order and decode correctly.
        let mut expected = Vec::new();
        for round in 0..8u32 {
            expected.push((bin.send(&BinRequest::Epoch).unwrap(), 0u8));
            expected.push((bin.send(&BinRequest::Coreness(round % 6)).unwrap(), 1));
            expected.push((
                bin.send(&BinRequest::Members {
                    k: 2,
                    offset: u64::from(round),
                    limit: 2,
                })
                .unwrap(),
                2,
            ));
            expected.push((
                bin.send(&BinRequest::TopK {
                    n: 3,
                    offset: u64::from(round),
                })
                .unwrap(),
                3,
            ));
        }
        for (id, kind) in expected {
            let r = bin.recv().unwrap();
            assert_eq!(r.req_id, id, "responses arrive in send order");
            assert!(r.ok);
            assert_eq!(r.epoch, 1);
            match kind {
                0 => assert_eq!(r.epoch_info().unwrap(), (6, 6, 2)),
                1 => assert_eq!(r.coreness().unwrap().0, 2),
                2 => assert!(r.members().is_some()),
                _ => assert!(r.top().is_some()),
            }
        }
    }

    #[test]
    fn response_cache_hits_within_an_epoch_and_refreshes_across_flips() {
        let (mut svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        let first = c.request("MEMBERS 2 OFFSET 0 LIMIT 3").unwrap();
        let baseline = server.cache_stats();
        assert!(baseline.misses >= 1);
        // Same query again (case-insensitively canonicalized): a hit.
        let second = c.request("members 2 offset 0 limit 3").unwrap();
        assert_eq!(first, second);
        let hit = server.cache_stats();
        assert_eq!(hit.hits, baseline.hits + 1);
        assert_eq!(hit.misses, baseline.misses);
        // CORENESS is never cached.
        c.request("CORENESS 3").unwrap();
        c.request("CORENESS 3").unwrap();
        assert_eq!(server.cache_stats().hits, hit.hits);

        // Publish a new epoch: the same query must be answered fresh —
        // the epoch in the key makes stale hits impossible.
        let mut b = EdgeBatch::new();
        b.insert(NodeId(1), NodeId(4));
        svc.apply_batch(&b).unwrap();
        let after = c.request("MEMBERS 2 OFFSET 0 LIMIT 3").unwrap();
        assert!(after.starts_with("OK epoch=2 "), "{after}");
        let flipped = server.cache_stats();
        assert_eq!(flipped.hits, hit.hits, "no stale hit across the flip");
        assert!(flipped.misses > hit.misses);

        // The binary mode shares the same cache: a repeated framed
        // MEMBERS is a hit, and its epoch is the fresh one.
        let mut bin = WireClient::connect(server.local_addr())
            .unwrap()
            .into_binary()
            .unwrap();
        let req = BinRequest::Members {
            k: 2,
            offset: 0,
            limit: 3,
        };
        let r1 = bin.roundtrip(&req).unwrap();
        let r2 = bin.roundtrip(&req).unwrap();
        assert_eq!(r1.epoch, 2);
        assert_eq!(r1.members(), r2.members());
        let binned = server.cache_stats();
        assert!(binned.hits > flipped.hits);
    }

    #[test]
    fn metrics_and_events_expose_live_telemetry_over_text() {
        let (_svc, server) = service_on_cycle();
        let mut c = WireClient::connect(server.local_addr()).unwrap();
        c.request("EPOCH").unwrap(); // tick one per-verb counter + a cache miss

        let lines = c.request_metrics().unwrap();
        let header = &lines[0];
        assert!(header.starts_with("OK epoch=1 lines="), "{header}");
        assert_eq!(
            lines.len() - 1,
            header
                .split_ascii_whitespace()
                .find_map(|t| t.strip_prefix("lines="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap(),
            "header announces the exact body length"
        );
        let body = lines[1..].join("\n");
        // One exposition covers the whole stack: publish path, wire
        // per-verb counters, and cache counters from the same registry.
        assert!(body.contains("serve_publish_batches 1"), "{body}");
        assert!(
            body.contains("serve_wire_requests{verb=\"epoch\"} 1"),
            "{body}"
        );
        assert!(body.contains("serve_wire_cache_misses 1"), "{body}");

        // The flight recorder holds the batch-applied/epoch-published
        // pair from the one publish; SINCE and LIMIT page through it.
        let all = c.request_events(0, None).unwrap();
        assert!(
            all[0].starts_with("OK epoch=1 count=2 last=2"),
            "{:?}",
            all[0]
        );
        assert!(
            all[1].contains("kind=batch-applied shard=0 epoch=1"),
            "{:?}",
            all[1]
        );
        assert!(
            all[2].contains("kind=epoch-published shard=0 epoch=1"),
            "{:?}",
            all[2]
        );
        let page = c.request_events(0, Some(1)).unwrap();
        assert!(
            page[0].starts_with("OK epoch=1 count=1 last=1"),
            "{:?}",
            page[0]
        );
        let rest = c.request_events(1, None).unwrap();
        assert!(
            rest[0].starts_with("OK epoch=1 count=1 last=2"),
            "{:?}",
            rest[0]
        );
        assert_eq!(rest[1], all[2], "cursor-style resume replays the tail");
        let empty = c.request_events(2, None).unwrap();
        assert_eq!(empty[0], "OK epoch=1 count=0 last=2".to_string());

        // Malformed arguments earn ERR and the connection stays open.
        assert!(c
            .request("EVENTS SINCE")
            .unwrap()
            .starts_with("ERR SINCE requires an argument"));
        assert!(c
            .request("EVENTS BOGUS 3")
            .unwrap()
            .starts_with("ERR EVENTS: unexpected argument"));
        assert!(c.request("EPOCH").unwrap().starts_with("OK epoch=1"));
    }

    #[test]
    fn binary_metrics_and_events_mirror_the_text_verbs() {
        let (_svc, server) = service_on_cycle();
        let mut bin = WireClient::connect(server.local_addr())
            .unwrap()
            .into_binary()
            .unwrap();

        let m = bin.roundtrip(&BinRequest::Metrics).unwrap();
        assert!(m.ok);
        assert_eq!(m.epoch, 1);
        let text = m.text().unwrap();
        assert!(
            text.contains("# TYPE serve_wire_requests counter"),
            "{text}"
        );
        assert!(text.contains("serve_publish_batches 1"), "{text}");

        let all = bin
            .roundtrip(&BinRequest::Events {
                since: 0,
                limit: u64::MAX,
            })
            .unwrap();
        assert!(all.ok);
        let body = all.text().unwrap();
        assert_eq!(body.lines().count(), 2, "{body}");
        assert!(body.lines().all(|l| l.starts_with("seq=")), "{body}");
        assert!(body.contains("kind=batch-applied"), "{body}");

        // SINCE paging matches the text semantics.
        let tail = bin
            .roundtrip(&BinRequest::Events {
                since: 1,
                limit: u64::MAX,
            })
            .unwrap();
        assert_eq!(tail.text().unwrap().lines().count(), 1);
        let limited = bin
            .roundtrip(&BinRequest::Events { since: 0, limit: 1 })
            .unwrap();
        assert!(limited.text().unwrap().contains("seq=1 "));

        // A truncated EVENTS frame is an ERR response, not a dropped
        // connection.
        let mut payload = Vec::new();
        payload.extend_from_slice(&99u32.to_le_bytes());
        payload.push(OP_EVENTS);
        put_u64(&mut payload, 0); // missing the limit argument
        bin.writer
            .write_all(&u32::try_from(payload.len()).unwrap().to_le_bytes())
            .unwrap();
        bin.writer.write_all(&payload).unwrap();
        bin.writer.flush().unwrap();
        let err = bin.recv().unwrap();
        assert!(!err.ok);
        assert_eq!(err.req_id, 99);
        assert!(err.text().unwrap().contains("truncated frame"));
        assert!(bin.roundtrip(&BinRequest::Epoch).unwrap().ok);
    }

    #[test]
    fn pipelined_bursts_are_answered_without_a_delayed_ack_stall() {
        // A burst's replies must leave together. Flushed one by one
        // under Nagle, every reply after the first waits for the
        // client's delayed ACK: about 40 ms a burst.
        let (_svc, server) = service_on_cycle();
        let mut bin = WireClient::connect(server.local_addr())
            .unwrap()
            .into_binary()
            .unwrap();
        let mut round_trips: Vec<Duration> = (0..50u32)
            .map(|burst| {
                let t0 = Instant::now();
                let ids: Vec<u32> = (0..8)
                    .map(|i| bin.send(&BinRequest::Coreness((burst + i) % 6)).unwrap())
                    .collect();
                for id in ids {
                    let r = bin.recv().unwrap();
                    assert_eq!(r.req_id, id);
                    assert_eq!(r.coreness(), Some((2, 2)));
                }
                t0.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "median burst round trip {median:?}"
        );
    }

    #[test]
    fn a_partial_request_does_not_hold_back_the_replies_before_it() {
        // The server must flush before it blocks on the rest of a
        // request; otherwise a client that waits for the first reply
        // before finishing the second deadlocks. Reads time out after
        // 1 s, so a held reply fails the test instead of hanging it.
        let (_svc, server) = service_on_cycle();
        let policy = RetryPolicy {
            io_timeout: Duration::from_secs(1),
            ..RetryPolicy::default()
        };

        let mut text = WireClient::connect_with(server.local_addr(), &policy).unwrap();
        text.writer.write_all(b"CORENESS 3\nHI").unwrap();
        text.writer.flush().unwrap();
        assert_eq!(text.read_line().unwrap(), "OK epoch=1 coreness=2 degree=2");
        text.writer.write_all(b"ST\n").unwrap();
        text.writer.flush().unwrap();
        assert_eq!(text.read_line().unwrap(), "OK epoch=1 hist=2:6");

        let mut bin = WireClient::connect_with(server.local_addr(), &policy)
            .unwrap()
            .into_binary()
            .unwrap();
        let frame = |req_id: u32, v: u32| {
            let mut f = Vec::new();
            put_u32(&mut f, 9);
            put_u32(&mut f, req_id);
            f.push(OP_CORENESS);
            put_u32(&mut f, v);
            f
        };
        let second = frame(2, 4);
        bin.writer.write_all(&frame(1, 3)).unwrap();
        bin.writer.write_all(&second[..6]).unwrap();
        let r = bin.recv().unwrap();
        assert_eq!((r.req_id, r.coreness()), (1, Some((2, 2))));
        bin.writer.write_all(&second[6..]).unwrap();
        let r = bin.recv().unwrap();
        assert_eq!((r.req_id, r.coreness()), (2, Some((2, 2))));
    }

    #[test]
    fn a_reply_past_the_frame_cap_becomes_an_err_reply() {
        // The payload is never touched on this path, so the zeroed
        // allocation stays unbacked.
        let huge = vec![0u8; MAX_FRAME - REPLY_HEADER + 1];
        let body = encode_body(0, 7, &huge);
        let mut cur = Decoder { buf: &body };
        assert_eq!(cur.u8(), Ok(1), "status ERR");
        assert_eq!(cur.u64(), Ok(7), "epoch kept");
        let msg = std::str::from_utf8(cur.buf).unwrap();
        assert!(msg.contains("exceeds the 67108864-byte frame cap"), "{msg}");
        let fits = vec![0u8; 8];
        assert_eq!(encode_body(0, 7, &fits).len(), 9 + 8);
    }
}
