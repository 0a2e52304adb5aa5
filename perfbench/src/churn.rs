//! The churn and sharded parts of a run: a closed-loop writer applies
//! the next batches of a stationary churn stream to a service while one
//! in-process reader pins snapshots at a fixed rate and runs the read
//! mix. A part runs in slices spread over the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dkcore::seq::batagelj_zaversnik;
use dkcore::stream::EdgeBatch;
use dkcore_graph::{Graph, NodeId};
use dkcore_serve::{
    CoreQuery, CoreScan, CoreService, PublishReport, ShardedConfig, ShardedCoreService,
    ShardedPublishReport, SnapshotSource,
};
use rand::prelude::*;

use crate::inputs::{self, sleep_until, subseed};
use crate::stats::{freshness_ns, mean, median, percentile, ratio, Series, Tally};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Mutations per batch.
const BATCH: usize = 32;
/// Forward batches per churn cycle of the single-writer service; the
/// cycle is twice as long.
const SINGLE_FORWARD: usize = 125;
/// Forward batches per churn cycle of the sharded service, whose batches
/// take several times longer.
const SHARDED_FORWARD: usize = 20;
/// Longest a writer slice may run, however few batches it has applied.
const SLICE_CAP: Duration = Duration::from_secs(60);
/// Reader pin period: 1,000 pins per second.
const PIN_PERIOD: Duration = Duration::from_millis(1);
/// Point lookups per pinned snapshot in the read mix.
const LOOKUPS_PER_PIN: usize = 64;
/// A fresh BZ pass is timed on every this-many traced batches.
const BZ_EVERY: usize = 4;

/// Salts that split the run's seed into independent input streams.
const CHURN_SALT: u64 = 0xC4A;
const SHARDED_SALT: u64 = 0x5C4A;
/// Reader key salts of the churn and sharded parts.
pub const READER_SALT: u64 = 0x4EA;
pub const SHARDED_READER_SALT: u64 = 0x54EA;

/// The single-writer service's churn cycle on `g`.
pub fn single_cycle(g: &Graph, seed: u64) -> Vec<EdgeBatch> {
    inputs::churn_cycle(g, SINGLE_FORWARD, BATCH, subseed(seed, CHURN_SALT))
}

/// The sharded service's churn cycle on `g`.
pub fn sharded_cycle(g: &Graph, seed: u64) -> Vec<EdgeBatch> {
    inputs::churn_cycle(g, SHARDED_FORWARD, BATCH, subseed(seed, SHARDED_SALT))
}

/// A service under churn, as the writer loop drives it.
pub(crate) trait Writer {
    type Handle: SnapshotSource;

    /// Span name of the reader's pin.
    const PIN_SPAN: &'static str;

    /// Batches the part applies at least, however long they take.
    const MIN_BATCHES: usize;

    /// Whether traced batches time a fresh BZ pass on the current graph.
    const FRESH_BZ: bool;

    fn handle(&self) -> Self::Handle;

    /// Applies one batch and returns the epoch it published.
    fn apply(&mut self, batch: &EdgeBatch) -> Result<u64, String>;

    /// Series [`counts`](Self::counts) records.
    const COUNTS: &'static [&'static str];

    /// Records the last batch's work counts (every batch).
    fn counts(&self, s: &mut Series);

    /// The epoch the service has published last.
    fn epoch(&self) -> u64 {
        CoreQuery::epoch(&*self.handle().snapshot())
    }

    /// Records the last batch's layer times as the program reports
    /// them (traced batches).
    fn times(&self, s: &mut Series);

    /// Calls the benchmark makes before a traced batch to time layers
    /// below the service; returns whether the batch validated.
    fn pre_apply(
        &self,
        _batch: &EdgeBatch,
        _t: &mut Tracer,
        _parent: usize,
        _s: &mut Series,
    ) -> bool {
        true
    }

    /// The current graph, for a fresh BZ pass.
    fn graph(&self) -> Graph;

    /// Whether the last published epoch equals fresh BZ on its graph.
    fn final_check(&self) -> bool;

    /// Metrics derived from the series the part recorded, the batches'
    /// freshness in milliseconds, the reader's traced pins in
    /// microseconds and the writer's mutations per second.
    fn report(
        &self,
        s: &Series,
        fresh: &[f64],
        pin_us: &[f64],
        mutations_per_s: Option<f64>,
        out: &mut Outcome,
    );
}

/// The single-writer service.
pub(crate) struct Single {
    svc: CoreService,
    last: Option<PublishReport>,
}

impl Single {
    pub(crate) fn new(svc: CoreService) -> Self {
        Single { svc, last: None }
    }

    pub(crate) fn telemetry(&self) -> &dkcore_metrics::Telemetry {
        self.svc.telemetry()
    }
}

impl Writer for Single {
    type Handle = dkcore_serve::ServiceHandle;
    const PIN_SPAN: &'static str = "service.pin";
    // Enough for a p90 with ten samples beyond it.
    const MIN_BATCHES: usize = 100;
    const FRESH_BZ: bool = true;
    const COUNTS: &'static [&'static str] = &["stream.candidates", "stream.changed"];

    fn handle(&self) -> Self::Handle {
        self.svc.handle()
    }

    fn apply(&mut self, batch: &EdgeBatch) -> Result<u64, String> {
        let r = self.svc.apply_batch(batch).map_err(|e| e.to_string())?;
        self.last = Some(r);
        Ok(r.epoch)
    }

    fn counts(&self, s: &mut Series) {
        let r = self.last.expect("a batch was applied");
        s.push("stream.candidates", r.stats.candidates as f64);
        s.push("stream.changed", r.stats.changed as f64);
    }

    fn times(&self, s: &mut Series) {
        let r = self.last.expect("a batch was applied");
        let p = self.svc.stream().last_phase_times();
        s.push("service.publish_us", r.publish_micros);
        s.push("stream.removal_us", p.removal_us as f64);
        s.push("stream.region_us", p.region_us as f64);
        s.push("stream.insert_us", p.insert_us as f64);
        s.push("stream.export_us", p.export_us as f64);
    }

    fn pre_apply(&self, batch: &EdgeBatch, t: &mut Tracer, parent: usize, s: &mut Series) -> bool {
        let core = self.svc.stream();
        let a = t.now_ns();
        let ok = batch
            .validate_against(core.node_count(), |u, v| core.has_edge(u, v))
            .is_ok();
        let b = t.now_ns();
        t.record("stream.validate", 0, Some(parent), a, b);
        s.push("stream.validate_us", (b - a) as f64 / 1e3);
        ok
    }

    fn graph(&self) -> Graph {
        self.svc.stream().to_graph()
    }

    fn final_check(&self) -> bool {
        let snap = self.svc.handle().snapshot();
        snap.values() == batagelj_zaversnik(snap.graph()).as_slice()
    }

    fn report(
        &self,
        s: &Series,
        fresh: &[f64],
        pin_us: &[f64],
        mutations_per_s: Option<f64>,
        out: &mut Outcome,
    ) {
        // No p50s: batch times are bimodal on both graphs (on gnp, about
        // 13 and 20 ms), so the median sits near the gap between the
        // modes and jumps from one to the other between runs (16.5 and
        // 23 ms in one set of ten seeds, a spread of 0.25). The mean,
        // as mutations per second, moves smoothly.
        let batch = s.get("batch_ms");
        let e = &mut out.e2e;
        e.put("batch_ms_p90", percentile(batch, 90.0), "ms");
        e.put("freshness_ms_p90", percentile(fresh, 90.0), "ms");
        e.put("mutations_per_s", mutations_per_s, "1/s");
        let l = &mut out.layers;
        l.put("seq.bz_ms", median(s.get("seq.bz_ms")), "ms");
        l.put("service.pin_us_p99", percentile(pin_us, 99.0), "us");
        l.put(
            "gen.reader_late_us_p99",
            percentile(s.get("gen.reader_late_us"), 99.0),
            "us",
        );
        l.put(
            "trace.batch_overhead_pct",
            overhead_pct(s.get("batch_ms.traced"), batch),
            "%",
        );
        // Means, not medians: the phases of one call add up to the
        // call, and only means keep that sum. `PhaseTimes` also counts
        // whole microseconds, so a median would repeat to the digit.
        let avg = |name| mean(s.get(name));
        l.put("stream.validate_us_mean", avg("stream.validate_us"), "us");
        l.put("stream.removal_us_mean", avg("stream.removal_us"), "us");
        l.put("stream.region_us_mean", avg("stream.region_us"), "us");
        l.put("stream.insert_us_mean", avg("stream.insert_us"), "us");
        l.put("stream.export_us_mean", avg("stream.export_us"), "us");
        put_work_counts(s, out);
        out.layers
            .put("service.publish_us_mean", avg("service.publish_us"), "us");
        // Share of the traced batch time the named layers account for.
        let parts: Option<f64> = [
            "stream.validate_us",
            "stream.removal_us",
            "stream.region_us",
            "stream.insert_us",
            "stream.export_us",
            "service.publish_us",
        ]
        .iter()
        .map(|n| avg(n))
        .sum();
        let batch_us = avg("batch_ms.traced").map(|ms| ms * 1e3);
        out.layers.put(
            "trace.batch_covered_pct",
            parts.zip(batch_us).and_then(|(p, b)| ratio(100.0 * p, b)),
            "%",
        );
    }
}

/// Candidates and changed nodes per batch, and their ratio with its
/// base, averaged over every batch of the run's whole cycles.
fn put_work_counts(s: &Series, out: &mut Outcome) {
    let cand = s.get("stream.candidates");
    let changed = s.get("stream.changed");
    let l = &mut out.layers;
    l.put("stream.candidates_per_batch", mean(cand), "count");
    l.put("stream.changed_per_batch", mean(changed), "count");
    l.put(
        "stream.candidates_per_changed",
        ratio(cand.iter().sum(), changed.iter().sum()),
        "count",
    );
}

/// The 2-shard service: modulo assignment, pooled exchange, no replicas
/// and no fault plan.
pub(crate) struct Sharded {
    svc: ShardedCoreService,
    last: Option<ShardedPublishReport>,
}

impl Sharded {
    pub(crate) fn new(g: &Graph) -> Self {
        Sharded {
            svc: ShardedCoreService::with_config(g, 2, ShardedConfig::default()),
            last: None,
        }
    }
}

impl Writer for Sharded {
    type Handle = dkcore_serve::ShardedHandle;
    const PIN_SPAN: &'static str = "sharded.pin";
    // Enough for a p50 with ten samples beyond it, twice over. No p90:
    // every exchange round waits for both pool workers, which share the
    // two cores with the coordinator and the reader, so a short host
    // stall lands in the tail.
    const MIN_BATCHES: usize = 40;
    const FRESH_BZ: bool = false;
    const COUNTS: &'static [&'static str] =
        &["sharded.messages", "sharded.rounds", "sharded.changed"];

    fn handle(&self) -> Self::Handle {
        self.svc.handle()
    }

    fn apply(&mut self, batch: &EdgeBatch) -> Result<u64, String> {
        let r = self.svc.apply_batch(batch).map_err(|e| e.to_string())?;
        if r.deferred {
            return Err(format!("batch deferred at epoch {}", r.epoch));
        }
        self.last = Some(r);
        Ok(r.epoch)
    }

    fn counts(&self, s: &mut Series) {
        let r = self.last.expect("a batch was applied");
        s.push("sharded.messages", r.messages as f64);
        s.push("sharded.rounds", f64::from(r.rounds));
        s.push("sharded.changed", r.changed as f64);
    }

    fn times(&self, s: &mut Series) {
        let r = self.last.expect("a batch was applied");
        s.push("sharded.repair_us", r.repair_micros);
        s.push("sharded.publish_us", r.publish_micros);
        s.push("sharded.round_us", r.round_us_p50);
        s.push("sharded.worker_busy_pct", r.worker_busy_pct);
    }

    fn graph(&self) -> Graph {
        self.svc.handle().snapshot().graph().clone()
    }

    fn final_check(&self) -> bool {
        let snap = self.svc.handle().snapshot();
        snap.values() == batagelj_zaversnik(snap.graph()).as_slice()
    }

    fn report(
        &self,
        s: &Series,
        fresh: &[f64],
        pin_us: &[f64],
        _mutations_per_s: Option<f64>,
        out: &mut Outcome,
    ) {
        let batch = s.get("batch_ms");
        let msgs = s.get("sharded.messages");
        let changed = s.get("sharded.changed");
        let e = &mut out.e2e;
        e.put("sharded_batch_ms_p50", percentile(batch, 50.0), "ms");
        e.put("sharded_freshness_ms_p50", percentile(fresh, 50.0), "ms");
        let l = &mut out.layers;
        l.put("sharded.border_msgs_per_batch", mean(msgs), "count");
        l.put("sharded.pin_us_p99", percentile(pin_us, 99.0), "us");
        l.put(
            "gen.sharded_reader_late_us_p99",
            percentile(s.get("gen.reader_late_us"), 99.0),
            "us",
        );
        l.put(
            "trace.sharded_overhead_pct",
            overhead_pct(s.get("batch_ms.traced"), batch),
            "%",
        );
        let p50 = |name| percentile(s.get(name), 50.0);
        l.put("sharded.repair_us_p50", p50("sharded.repair_us"), "us");
        l.put("sharded.publish_us_p50", p50("sharded.publish_us"), "us");
        l.put(
            "sharded.rounds_per_batch",
            mean(s.get("sharded.rounds")),
            "count",
        );
        l.put("sharded.round_us_p50", p50("sharded.round_us"), "us");
        l.put("sharded.changed_per_batch", mean(changed), "count");
        l.put(
            "sharded.messages_per_changed",
            ratio(msgs.iter().sum(), changed.iter().sum()),
            "count",
        );
        l.put(
            "sharded.worker_busy_pct",
            p50("sharded.worker_busy_pct"),
            "%",
        );
    }
}

/// Spans, samples and operation counts of one thread.
pub(crate) struct Log {
    pub(crate) tracer: Tracer,
    pub(crate) series: Series,
    pub(crate) tally: Tally,
}

impl Log {
    pub(crate) fn new(origin: Instant) -> Self {
        Log {
            tracer: Tracer::new(origin),
            series: Series::default(),
            tally: Tally::default(),
        }
    }
}

/// Sets the reader's stop epoch when the writer leaves by panicking, so
/// the scoped reader never waits forever.
pub(crate) struct StopOnDrop<'a>(pub(crate) &'a AtomicU64);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(0, Ordering::SeqCst);
        }
    }
}

/// Applies one batch and records its call time (`batch_ms`, or
/// `batch_ms.traced`). A traced batch also gets spans,
/// the benchmark's own validation call, the layer times the program
/// reports and, when `bz`, a fresh BZ pass on the current graph.
/// Returns the published epoch and the call's start, or `None` when the
/// batch failed.
fn apply_one<W: Writer>(
    w: &mut W,
    b: &EdgeBatch,
    traced: bool,
    bz: bool,
    log: &mut Log,
) -> Option<(u64, u64)> {
    let root = traced.then(|| log.tracer.open("writer.batch", None));
    if let Some(root) = root {
        if !w.pre_apply(b, &mut log.tracer, root, &mut log.series) {
            log.tally.error();
            return None;
        }
    }
    let a = log.tracer.now_ns();
    let applied = w.apply(b);
    let z = log.tracer.now_ns();
    let epoch = match applied {
        Ok(e) => e,
        Err(e) => {
            eprintln!("batch failed: {e}");
            log.tally.error();
            return None;
        }
    };
    let ms = (z - a) as f64 / 1e6;
    let Some(root) = root else {
        log.series.push("batch_ms", ms);
        return Some((epoch, a));
    };
    log.tracer
        .record("service.apply_batch", epoch, Some(root), a, z);
    log.tracer.close(root, epoch);
    log.series.push("batch_ms.traced", ms);
    w.times(&mut log.series);
    if bz {
        let current = w.graph();
        let t = log.tracer.now_ns();
        std::hint::black_box(batagelj_zaversnik(&current));
        let u = log.tracer.now_ns();
        log.tracer.record("seq.bz", epoch, None, t, u);
        log.series.push("seq.bz_ms", (u - t) as f64 / 1e6);
    }
    Some((epoch, a))
}

/// A service and the stationary churn stream cycling through it. Every
/// part that writes to the service takes the stream's next batch from
/// here, so the graph always matches the stream's position, and work
/// counts are kept per stream so that they can be averaged over whole
/// cycles.
pub(crate) struct Churned<W> {
    pub(crate) w: W,
    cycle: Vec<EdgeBatch>,
    applied: usize,
    /// Mutations in the batches applied.
    mutations: usize,
    /// The epoch the last batch published.
    pub(crate) epoch: u64,
    counts: Series,
}

impl<W: Writer> Churned<W> {
    pub(crate) fn new(w: W, cycle: Vec<EdgeBatch>) -> Self {
        let epoch = w.epoch();
        Churned {
            w,
            cycle,
            applied: 0,
            mutations: 0,
            epoch,
            counts: Series::default(),
        }
    }

    /// Applies the stream's next batch (see [`apply_one`]) and checks
    /// that it published the next epoch.
    pub(crate) fn apply_next(
        &mut self,
        traced: bool,
        bz: bool,
        log: &mut Log,
    ) -> Option<(u64, u64)> {
        let b = &self.cycle[self.applied % self.cycle.len()];
        let (epoch, start) = apply_one(&mut self.w, b, traced, bz, log)?;
        self.applied += 1;
        self.mutations += b.len();
        self.w.counts(&mut self.counts);
        log.tally.check(epoch == self.epoch + 1);
        self.epoch = epoch;
        Some((epoch, start))
    }

    /// Work counts of every batch of the stream's whole cycles, or of
    /// every batch when not one cycle is whole. Whole cycles repeat
    /// exactly, so their average does too.
    fn whole_cycle_counts(&self) -> Series {
        let whole = self.applied / self.cycle.len() * self.cycle.len();
        let keep = if whole == 0 { self.applied } else { whole };
        let mut s = Series::default();
        for name in W::COUNTS {
            for &v in self.counts.get(name).iter().take(keep) {
                s.push(name, v);
            }
        }
        s
    }
}

/// What the reader saw.
struct ReaderLog {
    log: Log,
    /// `(answered_ns, epoch)` per pin, in order.
    answers: Vec<(u64, u64)>,
}

/// The churn part, or the sharded part, of a run: the writer's and the
/// reader's records over all its slices.
pub(crate) struct ChurnPart {
    log: Log,
    reader: ReaderLog,
    rng: StdRng,
    /// `(epoch, submitted_ns)` per batch.
    batches: Vec<(u64, u64)>,
    /// Mutations in those batches.
    mutations: usize,
    writer_s: f64,
}

impl ChurnPart {
    /// A part whose reader draws its keys from `salt`.
    pub(crate) fn new(args: &Args, salt: u64) -> Self {
        ChurnPart {
            log: Log::new(args.origin),
            reader: ReaderLog {
                log: Log::new(args.origin),
                answers: Vec::new(),
            },
            rng: StdRng::seed_from_u64(subseed(args.seed, salt)),
            batches: Vec::new(),
            mutations: 0,
            writer_s: 0.0,
        }
    }

    /// Runs one slice: the writer applies the stream's next batches,
    /// closed loop, for `seconds` and until the part has applied
    /// `min_batches` in all, while the reader pins until it has seen the
    /// last one.
    pub(crate) fn slice<W: Writer>(
        &mut self,
        args: &Args,
        s: &mut Churned<W>,
        seconds: f64,
        min_batches: usize,
    ) {
        let stop = AtomicU64::new(u64::MAX);
        let handle = s.w.handle();
        let ChurnPart {
            log,
            reader,
            rng,
            batches,
            mutations,
            writer_s,
        } = self;
        let applied_before = s.mutations;
        std::thread::scope(|scope| {
            let r = scope.spawn(|| read::<_, W>(handle, &stop, args.trace, rng, reader));
            let guard = StopOnDrop(&stop);
            let window = Instant::now();
            loop {
                let i = batches.len();
                let traced = args.trace && i % 2 == 0;
                let bz = W::FRESH_BZ && traced && (i / 2) % BZ_EVERY == 0;
                let Some(batch) = s.apply_next(traced, bz, log) else {
                    break;
                };
                batches.push(batch);
                let elapsed = window.elapsed();
                if (elapsed.as_secs_f64() >= seconds && batches.len() >= min_batches)
                    || elapsed >= SLICE_CAP
                {
                    break;
                }
            }
            *writer_s += window.elapsed().as_secs_f64();
            *mutations += s.mutations - applied_before;
            stop.store(s.epoch, Ordering::SeqCst);
            drop(guard);
            r.join().expect("reader thread");
        });
    }

    /// Checks the service's last epoch and reports the part's metrics.
    pub(crate) fn finish<W: Writer>(self, s: &Churned<W>) -> Outcome {
        let mut tally = self.log.tally;
        tally.check(s.w.final_check());
        tally.merge(&self.reader.log.tally);
        let mut tracer = self.log.tracer;
        tracer.absorb(self.reader.log.tracer);
        let mut series = self.log.series;
        series.absorb(self.reader.log.series);
        series.absorb(s.whole_cycle_counts());
        let fresh: Vec<f64> = freshness_ns(&self.batches, &self.reader.answers)
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
        let pin_us: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == W::PIN_SPAN)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        let mutations_per_s = ratio(self.mutations as f64, self.writer_s);
        let mut out = Outcome::new(tally, tracer);
        s.w.report(&series, &fresh, &pin_us, mutations_per_s, &mut out);
        println!(
            "  {}: {} batches in {:.1} s, reader: {} pins",
            W::PIN_SPAN,
            self.batches.len(),
            self.writer_s,
            self.reader.answers.len()
        );
        out
    }
}

/// Median traced call time over median untraced call time, minus one,
/// in percent.
pub(crate) fn overhead_pct(traced: &[f64], untraced: &[f64]) -> Option<f64> {
    let t = median(traced)?;
    let u = median(untraced)?;
    ratio(100.0 * (t - u), u)
}

/// The in-process reader: pins a snapshot every [`PIN_PERIOD`], open
/// loop, and runs the read mix on it until it has seen the writer's
/// last epoch.
fn read<S: SnapshotSource, W: Writer>(
    handle: S,
    stop: &AtomicU64,
    trace: bool,
    rng: &mut StdRng,
    r: &mut ReaderLog,
) {
    let log = &mut r.log;
    let t0 = Instant::now();
    let mut last_epoch = 0u64;
    let mut stop_seen: Option<Instant> = None;
    for i in 0u64.. {
        let due = t0 + PIN_PERIOD * u32::try_from(i).unwrap_or(u32::MAX);
        let late = sleep_until(due);
        log.series.push("gen.reader_late_us", late as f64 / 1e3);
        let traced = trace && i % 2 == 0;
        let t = &mut log.tracer;
        let a = t.now_ns();
        let snap = handle.snapshot();
        let b = t.now_ns();
        let epoch = CoreQuery::epoch(&*snap);
        let n = snap.node_count() as u32;
        let mut ok = epoch >= last_epoch;
        last_epoch = last_epoch.max(epoch);
        for _ in 0..LOOKUPS_PER_PIN {
            let v = rng.random_range(0..n);
            ok &= std::hint::black_box(snap.coreness(NodeId(v))).is_some();
        }
        let c = t.now_ns();
        let mut hist = None;
        if i % 16 == 0 {
            ok &= snap.shell_sizes().sum::<usize>() == n as usize;
            std::hint::black_box(snap.kcore_size(2));
            hist = Some(t.now_ns());
        }
        let mut top = None;
        if i % 64 == 0 {
            ok &= snap.top(0, 8).count() == 8.min(n as usize);
            top = Some(t.now_ns());
        }
        let z = t.now_ns();
        r.answers.push((z, epoch));
        log.tally.check(ok);
        if traced {
            let root = t.record("reader.pin", epoch, None, a, z);
            t.record(W::PIN_SPAN, epoch, Some(root), a, b);
            t.record("snapshot.coreness", epoch, Some(root), b, c);
            if let Some(h) = hist {
                t.record("snapshot.histogram", epoch, Some(root), c, h);
            }
            if let Some(tp) = top {
                let from = hist.unwrap_or(c);
                t.record("snapshot.top_page", epoch, Some(root), from, tp);
            }
        }
        let fin = stop.load(Ordering::SeqCst);
        if last_epoch >= fin {
            break;
        }
        if fin != u64::MAX {
            // The writer has stopped and its last epoch is published,
            // so it must show up within a few pins.
            let seen = *stop_seen.get_or_insert_with(Instant::now);
            if seen.elapsed() > Duration::from_secs(5) {
                log.tally.error();
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_cycles_repeat_their_counts_and_keep_the_graph_stationary() {
        let g = dkcore_graph::generators::gnp(300, 8.0 / 300.0, 5);
        let cycle = inputs::churn_cycle(&g, 3, 4, 9);
        assert_eq!(cycle.len(), 6);
        let mut s = Churned::new(Single::new(CoreService::new(&g)), cycle);
        let mut log = Log::new(Instant::now());
        let mean_after =
            |s: &Churned<Single>| mean(s.whole_cycle_counts().get("stream.candidates"));
        for _ in 0..6 {
            s.apply_next(false, false, &mut log).expect("a valid batch");
        }
        let one_cycle = mean_after(&s);
        for _ in 0..9 {
            s.apply_next(false, false, &mut log).expect("a valid batch");
        }
        // 15 batches: two whole cycles, whose mean is one cycle's.
        assert_eq!(s.whole_cycle_counts().get("stream.candidates").len(), 12);
        assert_eq!(mean_after(&s), one_cycle);
        for _ in 0..3 {
            s.apply_next(false, false, &mut log).expect("a valid batch");
        }
        assert_eq!(s.epoch, 18);
        assert_eq!(log.tally.failed(), 0);
        assert_eq!(s.w.graph().edge_count(), g.edge_count());
        assert!(s.w.final_check());
    }
}
