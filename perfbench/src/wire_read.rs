//! The wire part of a run: `CoreService` behind `wire::serve` on
//! loopback. An open-loop writer applies the service's next churn
//! batches at a fixed rate while one query thread sends paced bursts of
//! pipelined requests over one binary connection. The part runs in
//! slices spread over the run, on one connection throughout.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dkcore_graph::NodeId;
use dkcore_serve::{
    BinRequest, BinResponse, BinaryWireClient, CoreSnapshot, ServiceHandle, WireClient, WireServer,
};
use rand::prelude::*;

use crate::churn::{overhead_pct, Churned, Log, Single, StopOnDrop, Writer};
use crate::inputs::{sleep_until, subseed};
use crate::stats::{median, percentile, ratio, Series};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Writer period: 10 batches per second, open loop.
const WRITE_PERIOD: Duration = Duration::from_millis(100);
/// Pipelined requests per burst.
const BURST: usize = 8;
/// A burst starts this long after the previous one started, or once
/// all its replies are in if that is later: 1,000 queries/s offered.
const BURST_PERIOD: Duration = Duration::from_millis(8);
/// `MEMBERS` page size and `TOPK` size.
const PAGE: u64 = 100;
const TOP: u64 = 10;
const QUERY_SALT: u64 = 0x0E7;

/// One verb of the query mix: the server's label for it, and the names
/// of its client series, in-process span and series, and metrics.
struct Verb {
    label: &'static str,
    client: &'static str,
    span: &'static str,
    series: &'static str,
    /// Nanoseconds per unit of the in-process series.
    scale: f64,
    unit: &'static str,
    snapshot_p50: &'static str,
    client_p50: &'static str,
    server_mean: &'static str,
    wait_p50: &'static str,
}

const VERBS: [Verb; 4] = [
    Verb {
        label: "coreness",
        client: "wire.coreness.client_us",
        span: "snapshot.coreness",
        series: "snapshot.coreness_ns",
        scale: 1.0,
        unit: "ns",
        snapshot_p50: "snapshot.coreness_ns_p50",
        client_p50: "wire.coreness.client_us_p50",
        server_mean: "wire.coreness.server_us_mean",
        wait_p50: "wire.coreness.wait_us_p50",
    },
    Verb {
        label: "members",
        client: "wire.members.client_us",
        span: "snapshot.members_page",
        series: "snapshot.members_page_us",
        scale: 1e3,
        unit: "us",
        snapshot_p50: "snapshot.members_page_us_p50",
        client_p50: "wire.members.client_us_p50",
        server_mean: "wire.members.server_us_mean",
        wait_p50: "wire.members.wait_us_p50",
    },
    Verb {
        label: "topk",
        client: "wire.topk.client_us",
        span: "snapshot.top_page",
        series: "snapshot.top_page_us",
        scale: 1e3,
        unit: "us",
        snapshot_p50: "snapshot.top_page_us_p50",
        client_p50: "wire.topk.client_us_p50",
        server_mean: "wire.topk.server_us_mean",
        wait_p50: "wire.topk.wait_us_p50",
    },
    Verb {
        label: "hist",
        client: "wire.hist.client_us",
        span: "snapshot.histogram",
        series: "snapshot.histogram_us",
        scale: 1e3,
        unit: "us",
        snapshot_p50: "snapshot.histogram_us_p50",
        client_p50: "wire.hist.client_us_p50",
        server_mean: "wire.hist.server_us_mean",
        wait_p50: "wire.hist.wait_us_p50",
    },
];

fn verb(req: &BinRequest) -> &'static Verb {
    &VERBS[match req {
        BinRequest::Coreness(_) => 0,
        BinRequest::Members { .. } => 1,
        BinRequest::TopK { .. } => 2,
        _ => 3,
    }]
}

/// The seeded query mix: about 85% `CORENESS` on random nodes, 10%
/// `MEMBERS k` pages, 4% `TOPK 10` and 1% `HIST`.
struct QueryMix {
    rng: StdRng,
    nodes: u32,
    /// Pages in each k-core of the initial graph, indexed by k.
    pages: Vec<u64>,
}

impl QueryMix {
    fn next(&mut self) -> BinRequest {
        match self.rng.random_range(0..100u32) {
            0..85 => BinRequest::Coreness(self.rng.random_range(0..self.nodes)),
            85..95 => {
                let k = self.rng.random_range(1..self.pages.len() as u32);
                let page = self.rng.random_range(0..self.pages[k as usize].max(1));
                BinRequest::Members {
                    k,
                    offset: page * PAGE,
                    limit: PAGE,
                }
            }
            95..99 => BinRequest::TopK { n: TOP, offset: 0 },
            _ => BinRequest::Hist,
        }
    }
}

/// Answers the request in-process, as the server should have.
fn expected(req: &BinRequest, s: &CoreSnapshot) -> Reply {
    match *req {
        BinRequest::Coreness(v) => Reply::Coreness(
            s.coreness(NodeId(v)).unwrap_or(u32::MAX),
            s.degree(NodeId(v)).unwrap_or(u32::MAX),
        ),
        BinRequest::Members { k, offset, limit } => Reply::Members(
            s.kcore_size(k) as u64,
            s.kcore_members_page(k, offset as usize, limit as usize)
                .map(|v| v.0)
                .collect(),
        ),
        BinRequest::TopK { n, offset } => Reply::Top(
            s.top_page(offset as usize, n as usize)
                .map(|(v, c)| (v.0, c))
                .collect(),
        ),
        _ => Reply::Hist(
            s.histogram()
                .iter()
                .enumerate()
                .map(|(k, &c)| (k as u32, c as u64))
                .collect(),
        ),
    }
}

/// A decoded reply, comparable with [`expected`].
#[derive(Debug, PartialEq, Eq)]
enum Reply {
    Coreness(u32, u32),
    Members(u64, Vec<u32>),
    Top(Vec<(u32, u32)>),
    Hist(Vec<(u32, u64)>),
}

fn decode(req: &BinRequest, r: &BinResponse) -> Option<Reply> {
    Some(match req {
        BinRequest::Coreness(_) => {
            let (c, d) = r.coreness()?;
            Reply::Coreness(c, d)
        }
        BinRequest::Members { .. } => {
            let (total, _, ids) = r.members()?;
            Reply::Members(total, ids)
        }
        BinRequest::TopK { .. } => Reply::Top(r.top()?),
        _ => Reply::Hist(r.hist()?),
    })
}

/// What the query thread saw, over all slices.
struct QueryLog {
    log: Log,
    /// `(read_ns, epoch)` per reply, in order.
    answers: Vec<(u64, u64)>,
    /// `(epoch, request, reply)` of replies not yet checked.
    pending: Vec<(u64, BinRequest, Option<Reply>)>,
    /// Highest reply epoch seen on the connection.
    last_epoch: u64,
    /// Bursts sent.
    bursts: u64,
    /// Seconds the query thread ran.
    busy_s: f64,
}

/// Snapshots pinned by the writer at every epoch it publishes, until the
/// query thread has checked every reply at that epoch.
type Pins = Mutex<BTreeMap<u64, Arc<CoreSnapshot>>>;

/// Checks each pending reply whose epoch is pinned against the
/// in-process answer at that epoch, then unpins every epoch no reply can
/// name any more: replies on one connection never go back in epoch.
fn check_pending(pins: &Pins, q: &mut QueryLog, seen: u64) {
    let mut map = pins.lock().expect("pin map lock");
    let tally = &mut q.log.tally;
    q.pending
        .retain(|(epoch, req, reply)| match map.get(epoch) {
            Some(snap) => {
                tally.check(reply.as_ref() == Some(&expected(req, snap)));
                false
            }
            None => true,
        });
    let oldest = q.pending.iter().map(|p| p.0).fold(seen, u64::min);
    map.retain(|&e, _| e >= oldest);
}

/// The wire part of a run: the server, the query thread's connection
/// and mix, and what the writer and the query thread recorded.
pub(crate) struct WirePart {
    server: WireServer,
    /// `None` once the connection has failed.
    client: Option<BinaryWireClient>,
    mix: QueryMix,
    q: QueryLog,
    log: Log,
    pins: Pins,
    batches: usize,
}

impl WirePart {
    /// Connects the query thread's one binary connection to `server`,
    /// which serves `s`.
    pub(crate) fn new(args: &Args, server: WireServer, s: &Churned<Single>) -> Self {
        let initial = s.w.handle().snapshot();
        let pages: Vec<u64> = (0..=initial.max_coreness())
            .map(|k| (initial.kcore_size(k) as u64).div_ceil(PAGE))
            .collect();
        let mix = QueryMix {
            rng: StdRng::seed_from_u64(subseed(args.seed, QUERY_SALT)),
            nodes: initial.node_count() as u32,
            pages,
        };
        let mut q = QueryLog {
            log: Log::new(args.origin),
            answers: Vec::new(),
            pending: Vec::new(),
            last_epoch: 0,
            bursts: 0,
            busy_s: 0.0,
        };
        let client = match WireClient::connect(server.local_addr()).and_then(|c| c.into_binary()) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("query connection failed: {e}");
                q.log.tally.error();
                None
            }
        };
        WirePart {
            server,
            client,
            mix,
            q,
            log: Log::new(args.origin),
            pins: Mutex::new(BTreeMap::new()),
            batches: 0,
        }
    }

    /// Runs one slice: the writer applies one batch every
    /// [`WRITE_PERIOD`] for `seconds`, open loop, while the query thread
    /// sends bursts until it has seen the last one.
    pub(crate) fn slice(&mut self, args: &Args, s: &mut Churned<Single>, seconds: f64) {
        let handle = s.w.handle();
        let WirePart {
            client,
            mix,
            q,
            log,
            pins,
            batches,
            ..
        } = self;
        pins.get_mut()
            .expect("pin map lock")
            .insert(s.epoch, handle.snapshot());
        let stop = AtomicU64::new(u64::MAX);
        let pins = &*pins;
        std::thread::scope(|scope| {
            let (reader, stop_at) = (handle.clone(), &stop);
            let t = scope.spawn(move || {
                if let Some(c) = client.as_mut() {
                    if let Err(e) = bursts(c, &reader, stop_at, pins, args.trace, mix, q) {
                        eprintln!("query connection failed: {e}");
                        q.log.tally.error();
                        *client = None;
                    }
                }
            });
            let guard = StopOnDrop(&stop);
            let t0 = Instant::now();
            // Open loop: a fixed number of batches, each due on schedule.
            let count = (seconds / WRITE_PERIOD.as_secs_f64()).ceil() as usize;
            for i in 0..count {
                let late = sleep_until(t0 + WRITE_PERIOD * i as u32);
                log.series.push("gen.writer_late_ms", late as f64 / 1e6);
                let traced = args.trace && *batches % 2 == 0;
                let Some((epoch, _)) = s.apply_next(traced, false, log) else {
                    break;
                };
                pins.lock()
                    .expect("pin map lock")
                    .insert(epoch, handle.snapshot());
                *batches += 1;
            }
            stop.store(s.epoch, Ordering::SeqCst);
            drop(guard);
            t.join().expect("query thread");
        });
    }

    /// Shuts the server down, checks what is left and reports the part's
    /// metrics.
    pub(crate) fn finish(self, s: &Churned<Single>) -> Outcome {
        let WirePart {
            mut server,
            mut q,
            log,
            pins,
            batches,
            ..
        } = self;
        let cache = server.cache_stats();
        server.shutdown();
        check_pending(&pins, &mut q, 0);
        let mut tally = log.tally;
        tally.check(s.w.final_check());
        tally.merge(&q.log.tally);
        for _ in &q.pending {
            tally.check(false); // a reply at an epoch the writer never published
        }
        let rate = ratio(q.answers.len() as f64, q.busy_s);
        let mut tracer = log.tracer;
        tracer.absorb(q.log.tracer);
        let mut series = log.series;
        series.absorb(q.log.series);
        let mut out = Outcome::new(tally, tracer);
        let client = series.get("wire.client_us");
        let e = &mut out.e2e;
        e.put("query_us_p50", percentile(client, 50.0), "us");
        e.put("query_us_p99", percentile(client, 99.0), "us");
        e.put("queries_per_s", rate, "1/s");

        // Per-verb client times are medians: `HIST` is 1% of the mix, too
        // few replies for the percentile rule's ten samples beyond the
        // p50. Server times are means from the histogram's exact sum and
        // count; its quantiles are bucket bounds, which repeat from run
        // to run.
        let l = &mut out.layers;
        let registry = s.w.telemetry().registry();
        let mut waits = Vec::new();
        for v in &VERBS {
            let server = registry
                .histogram("serve.wire.latency_us", &[("verb", v.label)])
                .snapshot();
            let server_mean = ratio(server.sum as f64, server.count as f64);
            let client = series.get(v.client);
            let client_p50 = median(client);
            l.put(v.snapshot_p50, median(series.get(v.series)), v.unit);
            l.put(v.client_p50, client_p50, "us");
            l.put(v.server_mean, server_mean, "us");
            l.put(
                v.wait_p50,
                client_p50.zip(server_mean).map(|(c, s)| c - s),
                "us",
            );
            if let Some(s) = server_mean {
                waits.extend(client.iter().map(|c| c - s));
            }
        }
        l.put("wire.wait_us_p50", percentile(&waits, 50.0), "us");
        let lookups = cache.hits + cache.misses;
        l.put(
            "wire.cache_hit_ratio",
            ratio(cache.hits as f64, lookups as f64),
            "ratio",
        );
        l.put("wire.cache_lookups", Some(lookups as f64), "count");
        l.put(
            "gen.writer_late_ms_p90",
            percentile(series.get("gen.writer_late_ms"), 90.0),
            "ms",
        );
        l.put(
            "gen.query_late_us_p90",
            percentile(series.get("gen.query_late_us"), 90.0),
            "us",
        );
        l.put(
            "trace.query_overhead_pct",
            overhead_pct(
                series.get("wire.client_us.traced"),
                series.get("wire.client_us.untraced"),
            ),
            "%",
        );
        println!(
            "  wire: {batches} batches, {} replies at {:.1}/s, cache {} hits / {} lookups",
            q.answers.len(),
            rate.unwrap_or(0.0),
            cache.hits,
            lookups
        );
        out
    }
}

/// One slice of the query thread: bursts of [`BURST`] pipelined
/// requests paced by [`BURST_PERIOD`], until it has seen the writer's
/// last epoch.
fn bursts(
    client: &mut BinaryWireClient,
    handle: &ServiceHandle,
    stop: &AtomicU64,
    pins: &Pins,
    trace: bool,
    mix: &mut QueryMix,
    q: &mut QueryLog,
) -> io::Result<()> {
    let first = Instant::now();
    let mut due = first;
    let mut stop_seen: Option<Instant> = None;
    loop {
        let late = sleep_until(due);
        q.log.series.push("gen.query_late_us", late as f64 / 1e3);
        let started = Instant::now();
        let burst = q.bursts;
        q.bursts += 1;
        let traced = trace && burst.is_multiple_of(2);
        let reqs: Vec<BinRequest> = (0..BURST).map(|_| mix.next()).collect();
        let mut ids = Vec::with_capacity(BURST);
        for r in &reqs {
            ids.push(client.send(r)?);
        }
        let t: &mut Tracer = &mut q.log.tracer;
        let sent = t.now_ns();
        let root = traced.then(|| t.open("wire.burst", None));
        for (req, id) in reqs.iter().zip(ids) {
            let resp = client.recv()?;
            let read = q.log.tracer.now_ns();
            let us = (read - sent) as f64 / 1e3;
            let ok = resp.req_id == id && resp.ok && resp.epoch >= q.last_epoch;
            q.last_epoch = q.last_epoch.max(resp.epoch);
            // A bad status, id or epoch order fails the check as a
            // missing reply.
            let reply = if ok { decode(req, &resp) } else { None };
            q.answers.push((read, resp.epoch));
            q.pending.push((resp.epoch, *req, reply));
            let s: &mut Series = &mut q.log.series;
            s.push("wire.client_us", us);
            s.push(verb(req).client, us);
            s.push(
                if traced {
                    "wire.client_us.traced"
                } else {
                    "wire.client_us.untraced"
                },
                us,
            );
            if let Some(root) = root {
                q.log.tracer.record(
                    "wire.request",
                    u64::from(resp.req_id),
                    Some(root),
                    sent,
                    read,
                );
            }
        }
        if let Some(root) = root {
            q.log.tracer.close(root, burst);
            mirror(handle, &reqs, &mut q.log);
        }
        let seen = q.last_epoch;
        check_pending(pins, q, seen);
        due = (started + BURST_PERIOD).max(Instant::now());
        let fin = stop.load(Ordering::SeqCst);
        if q.last_epoch >= fin {
            break;
        }
        if fin != u64::MAX {
            let seen = *stop_seen.get_or_insert_with(Instant::now);
            if seen.elapsed() > Duration::from_secs(5) {
                q.log.tally.error();
                break;
            }
        }
    }
    q.busy_s += first.elapsed().as_secs_f64();
    Ok(())
}

/// Times the burst's queries in-process on a freshly pinned snapshot:
/// the server's share of the wire time, without the socket.
fn mirror(handle: &ServiceHandle, reqs: &[BinRequest], log: &mut Log) {
    let snap = handle.snapshot();
    for req in reqs {
        let v = verb(req);
        let t = &mut log.tracer;
        let a = t.now_ns();
        std::hint::black_box(expected(req, &snap));
        let b = t.now_ns();
        t.record(v.span, snap.epoch(), None, a, b);
        log.series.push(v.series, (b - a) as f64 / v.scale);
    }
}
