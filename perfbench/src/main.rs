//! End-to-end and per-layer benchmark of the dkcore serving stack and
//! the live one-to-many runtime. See `README.md` beside this crate for
//! the workloads, the metrics and why each was chosen.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <gnp|web> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is a graph family. Every run sets up the whole stack on
//! the workload's graph and drives it in four parts: churn on
//! `CoreService` with an in-process reader, paced queries over the TCP
//! wire, churn on a 2-shard `ShardedCoreService`, and whole
//! decompositions by the live runtime. The parts take turns in short
//! slices, so each one's samples span the whole run. With `--trace 0`
//! the last line of
//! standard output is a JSON object holding every end-to-end metric;
//! with `--trace 1` it holds every per-layer metric of a traced run, and
//! the spans are written to `traces/<workload>-seed<n>.jsonl` under this
//! crate. The exit code is nonzero when any answer was wrong.

mod churn;
mod decompose;
mod inputs;
mod stats;
mod trace;
mod wire_read;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dkcore_graph::Graph;
use dkcore_serve::{serve, CoreService, WireServer};

use crate::churn::{ChurnPart, Churned, Sharded, Single, Writer};
use crate::decompose::DecomposePart;
use crate::inputs::{EdgeList, Family};
use crate::stats::Tally;
use crate::trace::Tracer;
use crate::wire_read::WirePart;

/// End-to-end metrics, printed by `--trace 0` in this order.
pub const E2E: &[&str] = &[
    "setup_s",
    "batch_ms_p90",
    "freshness_ms_p90",
    "mutations_per_s",
    "query_us_p50",
    "query_us_p99",
    "queries_per_s",
    "sharded_batch_ms_p50",
    "sharded_freshness_ms_p50",
    "decompose_ms",
    "estimates_per_node",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by `--trace 1` in this order.
pub const LAYERS: &[&str] = &[
    "graph.build_ms",
    "seq.bz_ms",
    "stream.validate_us_mean",
    "stream.removal_us_mean",
    "stream.region_us_mean",
    "stream.insert_us_mean",
    "stream.export_us_mean",
    "stream.candidates_per_batch",
    "stream.changed_per_batch",
    "stream.candidates_per_changed",
    "service.publish_us_mean",
    "service.pin_us_p99",
    "trace.batch_covered_pct",
    "snapshot.coreness_ns_p50",
    "snapshot.members_page_us_p50",
    "snapshot.top_page_us_p50",
    "snapshot.histogram_us_p50",
    "wire.coreness.client_us_p50",
    "wire.coreness.server_us_mean",
    "wire.coreness.wait_us_p50",
    "wire.members.client_us_p50",
    "wire.members.server_us_mean",
    "wire.members.wait_us_p50",
    "wire.topk.client_us_p50",
    "wire.topk.server_us_mean",
    "wire.topk.wait_us_p50",
    "wire.hist.client_us_p50",
    "wire.hist.server_us_mean",
    "wire.hist.wait_us_p50",
    "wire.wait_us_p50",
    "wire.cache_hit_ratio",
    "wire.cache_lookups",
    "sharded.repair_us_p50",
    "sharded.publish_us_p50",
    "sharded.rounds_per_batch",
    "sharded.round_us_p50",
    "sharded.changed_per_batch",
    "sharded.border_msgs_per_batch",
    "sharded.messages_per_changed",
    "sharded.worker_busy_pct",
    "sharded.pin_us_p99",
    "runtime.rounds",
    "runtime.setup_ms",
    "runtime.round_us",
    "runtime.messages",
    "runtime.estimates_sent",
    "gen.reader_late_us_p99",
    "gen.sharded_reader_late_us_p99",
    "gen.writer_late_ms_p90",
    "gen.query_late_us_p90",
    "trace.batch_overhead_pct",
    "trace.query_overhead_pct",
    "trace.sharded_overhead_pct",
    "trace.decompose_overhead_pct",
    "trace.spans",
];

/// Rounds of slices: in every round each part runs once, for its share
/// of the round, in the order below.
const ROUNDS: usize = 8;
/// Shares of the measured window given to each part.
const CHURN_SHARE: f64 = 0.30;
const WIRE_SHARE: f64 = 0.35;
const SHARDED_SHARE: f64 = 0.20;
const DECOMPOSE_SHARE: f64 = 0.15;

/// Set-ups are timed back to back before the measured window, at least
/// this many and for at least this long, so that short set-ups repeat
/// often enough for their median to hold still. The last one is kept
/// and measured. (Set-ups timed after the window ran about 40% slower
/// than those before it, in a heap the run had churned, and a median
/// over both groups fell between them.)
const SETUP_MIN_SAMPLES: usize = 21;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Upper bound on set-up samples.
const SETUP_MAX_SAMPLES: usize = 200;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measured window, in seconds; within a part, the
    /// part's share of it.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Time origin of every span in the run.
    pub origin: Instant,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad(&"expected 0 or 1")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds {seconds}: must be positive"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            origin: Instant::now(),
        })
    }
}

/// One reported metric; `None` when the run's samples could not
/// support it.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

/// Metrics in the order they are reported.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds the metric `name`, measured in `unit`.
    pub fn put(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    /// The metrics named in `names`, in that order, and the names that
    /// have no value.
    fn select(&self, names: &[&str]) -> (Metrics, Vec<String>) {
        let mut picked = Metrics::default();
        let mut missing = Vec::new();
        for &name in names {
            match self.0.iter().find(|m| m.name == name) {
                Some(m) => {
                    if m.value.is_none() {
                        missing.push(name.to_string());
                    }
                    picked.0.push(m.clone());
                }
                None => missing.push(name.to_string()),
            }
        }
        (picked, missing)
    }
}

/// What a workload run measured and checked.
pub struct Outcome {
    /// End-to-end metrics (meaningful on untraced runs).
    pub e2e: Metrics,
    /// Per-layer metrics (meaningful on traced runs).
    pub layers: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(tally: Tally, tracer: Tracer) -> Self {
        Outcome {
            e2e: Metrics::default(),
            layers: Metrics::default(),
            tally,
            tracer,
        }
    }

    /// Adds a later part's metrics, operations and spans.
    fn absorb(&mut self, part: Outcome) {
        self.e2e.0.extend(part.e2e.0);
        self.layers.0.extend(part.layers.0);
        self.tally.merge(&part.tally);
        self.tracer.absorb(part.tracer);
    }
}

/// The whole stack a run serves from, started from one edge list: the
/// single-writer service behind the wire server, the 2-shard service,
/// and the graph the live runtime decomposes.
struct Stack {
    graph: Graph,
    single: Single,
    server: WireServer,
    sharded: Sharded,
}

impl Stack {
    fn start(graph: Graph) -> Stack {
        let single = Single::new(CoreService::new(&graph));
        let server = serve(single.handle(), "127.0.0.1:0").expect("bind a loopback port");
        let sharded = Sharded::new(&graph);
        Stack {
            graph,
            single,
            server,
            sharded,
        }
    }
}

/// Runs the workload on `family`'s graph: set-up, then [`ROUNDS`] rounds
/// of the four parts' slices. The churn and wire parts write to the same
/// service and take turns on its one churn stream.
fn run(args: &Args, family: Family) -> Outcome {
    let (g, list) = family.graph(args.seed);
    let single_cycle = churn::single_cycle(&g, args.seed);
    let sharded_cycle = churn::sharded_cycle(&g, args.seed);
    drop(g);
    let mut setup = Setup::default();
    let Stack {
        graph,
        single,
        server,
        sharded,
    } = setup.run(&list, Stack::start);
    let mut single = Churned::new(single, single_cycle);
    let mut sharded = Churned::new(sharded, sharded_cycle);
    let mut churn = ChurnPart::new(args, churn::READER_SALT);
    let mut wire = WirePart::new(args, server, &single);
    let mut shard = ChurnPart::new(args, churn::SHARDED_READER_SALT);
    let mut dec = DecomposePart::new(args, &graph);
    let round = args.seconds / ROUNDS as f64;
    for r in 0..ROUNDS {
        // The last round tops every part up to its fewest operations.
        let last = r + 1 == ROUNDS;
        let min = |n: usize| if last { n } else { 0 };
        churn.slice(
            args,
            &mut single,
            CHURN_SHARE * round,
            min(Single::MIN_BATCHES),
        );
        wire.slice(args, &mut single, WIRE_SHARE * round);
        shard.slice(
            args,
            &mut sharded,
            SHARDED_SHARE * round,
            min(Sharded::MIN_BATCHES),
        );
        dec.slice(
            args,
            &graph,
            DECOMPOSE_SHARE * round,
            min(decompose::MIN_CALLS),
        );
    }
    let mut out = churn.finish(&single);
    out.absorb(wire.finish(&single));
    out.absorb(shard.finish(&sharded));
    out.absorb(dec.finish(graph.node_count()));
    setup.report(&mut out);
    out
}

/// Set-up times: from handing over the edge list to the program being
/// ready, and the graph build within it.
#[derive(Debug, Default)]
pub struct Setup {
    /// Whole set-ups, in seconds.
    pub total_s: Vec<f64>,
    /// `Graph::from_edges` within each set-up, in milliseconds.
    pub graph_ms: Vec<f64>,
}

impl Setup {
    fn once<T>(&mut self, list: &EdgeList, start: &impl Fn(Graph) -> T) -> T {
        let t0 = Instant::now();
        let g = list.build();
        self.graph_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ready = start(g);
        self.total_s.push(t0.elapsed().as_secs_f64());
        ready
    }

    /// Times set-ups back to back and returns the last, dropping each
    /// earlier one before the next starts.
    pub fn run<T>(&mut self, list: &EdgeList, start: impl Fn(Graph) -> T) -> T {
        let t0 = Instant::now();
        let mut ready = self.once(list, &start);
        loop {
            let count = self.total_s.len();
            let long_enough = t0.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
            if count >= SETUP_MAX_SAMPLES || (count >= SETUP_MIN_SAMPLES && long_enough) {
                return ready;
            }
            drop(ready);
            ready = self.once(list, &start);
        }
    }

    /// Reports `setup_s` and `graph.build_ms`.
    pub fn report(&self, out: &mut Outcome) {
        out.e2e.put("setup_s", stats::median(&self.total_s), "s");
        out.layers
            .put("graph.build_ms", stats::median(&self.graph_ms), "ms");
    }
}

fn json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted,
        tally.failed()
    );
    let mut first = true;
    for m in &metrics.0 {
        let Some(v) = m.value.filter(|v| v.is_finite()) else {
            continue;
        };
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(family) = Family::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = run(&args, family);
    out.e2e.put("peak_rss_mb", inputs::peak_rss_mb(), "MB");
    out.layers.put(
        "trace.spans",
        Some(out.tracer.spans().len() as f64),
        "count",
    );
    let (shown, missing) = if args.trace {
        out.layers.select(LAYERS)
    } else {
        out.e2e.select(E2E)
    };
    for m in &shown.0 {
        match m.value {
            Some(v) => println!("  {:<32} {v:>14.4} {}", m.name, m.unit),
            None => println!("  {:<32} {:>14} (too few samples)", m.name, "-"),
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {}", missing.join(", "));
    }
    if args.trace {
        for (name, count, dur_us, self_us) in out.tracer.summary() {
            println!("  span {name:<28} n={count:<7} p50 {dur_us:>11.1}us self {self_us:>11.1}us");
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                out.tally.error();
            }
        }
    }
    let t = out.tally;
    println!(
        "  operations: {} attempted, {} errors, {} wrong ({:.4}% failed)",
        t.attempted,
        t.errors,
        t.wrong,
        100.0 * t.failure_share()
    );
    let correct = t.failed() == 0 && t.attempted > 0;
    println!("{}", json(correct, &t, &shown));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = parse("--workload web --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.trace), ("web", 7, true));
        assert!(parse("--workload x --seed 7 --seconds 20").is_err());
        assert!(parse("--workload x --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 7 --seconds 5 --trace 2").is_err());
        assert!(parse("--workload x --seed -1 --seconds 5 --trace 0").is_err());
    }

    #[test]
    fn result_line_skips_refused_metrics() {
        let mut m = Metrics::default();
        m.put("a_ms", Some(1.5), "ms");
        m.put("b_ms", None, "ms");
        m.put("c", Some(2.0), "count");
        let t = Tally {
            attempted: 3,
            errors: 0,
            wrong: 1,
        };
        assert_eq!(
            json(false, &t, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"c\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn select_keeps_the_listed_order_and_names_what_is_missing() {
        let mut m = Metrics::default();
        m.put("b", Some(2.0), "ms");
        m.put("a", Some(1.0), "ms");
        m.put("c", None, "ms");
        let (picked, missing) = m.select(&["a", "b", "c", "d"]);
        let names: Vec<&str> = picked.0.iter().map(|m| m.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(missing, ["c", "d"]);
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = manifest.find(&format!("\"{key}\"")).expect("section");
            let end = manifest[start..].find(']').expect("section end") + start;
            manifest[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("quoted name")].to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), E2E);
        assert_eq!(section("per_layer"), LAYERS);
    }
}
