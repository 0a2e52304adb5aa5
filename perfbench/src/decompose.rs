//! The decompose part of a run: repeated whole decompositions by the
//! live one-to-many runtime with 2 hosts (point-to-point dissemination,
//! modulo assignment).

use std::time::Instant;

use dkcore::one_to_many::{Assignment, HostProtocol};
use dkcore::seq::batagelj_zaversnik;
use dkcore_graph::Graph;
use dkcore_runtime::{Runtime, RuntimeConfig};

use crate::churn::{overhead_pct, Log};
use crate::stats::{median, ratio};
use crate::{Args, Outcome};

/// Hosts of the live runtime.
const HOSTS: usize = 2;
/// Decompositions per run, at least, however long they take.
pub const MIN_CALLS: usize = 5;

/// The decompose part of a run: what its calls recorded, over all
/// slices.
pub(crate) struct DecomposePart {
    log: Log,
    config: RuntimeConfig,
    runtime: Runtime,
    truth: Vec<u32>,
    calls: usize,
    busy_s: f64,
}

impl DecomposePart {
    pub(crate) fn new(args: &Args, g: &Graph) -> Self {
        let config = RuntimeConfig::with_hosts(HOSTS);
        DecomposePart {
            log: Log::new(args.origin),
            runtime: Runtime::new(config.clone()),
            config,
            truth: batagelj_zaversnik(g),
            calls: 0,
            busy_s: 0.0,
        }
    }

    /// Runs one slice on `g`: at least one call, and more while the next
    /// would likely end within `seconds`, until the part has made
    /// `min_calls` in all. The runtime builds its hosts inside every
    /// timed `run` call.
    pub(crate) fn slice(&mut self, args: &Args, g: &Graph, seconds: f64, min_calls: usize) {
        let log = &mut self.log;
        let window = Instant::now();
        loop {
            let i = self.calls;
            self.calls += 1;
            let traced = args.trace && i.is_multiple_of(2);
            let root = traced.then(|| log.tracer.open("decompose", None));
            if let Some(root) = root {
                // The calls `run` starts with, timed on their own.
                let a = log.tracer.now_ns();
                let assignment = Assignment::new(g, HOSTS, &self.config.assignment);
                let hosts = HostProtocol::for_assignment(g, &assignment, self.config.protocol);
                std::hint::black_box(hosts);
                let b = log.tracer.now_ns();
                log.tracer
                    .record("runtime.setup", i as u64, Some(root), a, b);
                log.series.push("runtime.setup_ms", (b - a) as f64 / 1e6);
            }
            let a = log.tracer.now_ns();
            let result = self.runtime.run(g);
            let z = log.tracer.now_ns();
            log.tally
                .check(result.converged && result.coreness == self.truth);
            let ms = (z - a) as f64 / 1e6;
            log.series.push("rounds", f64::from(result.rounds));
            log.series.push("messages", result.messages as f64);
            log.series
                .push("estimates_sent", result.estimates_sent as f64);
            if let Some(root) = root {
                log.tracer.record("runtime.run", i as u64, Some(root), a, z);
                log.tracer.close(root, i as u64);
                log.series.push("decompose_ms.traced", ms);
            } else {
                log.series.push("decompose_ms", ms);
            }
            // Stop when the next call would likely end past the slice.
            let typical = ["decompose_ms", "decompose_ms.traced"]
                .iter()
                .filter_map(|name| median(log.series.get(name)))
                .fold(0.0, f64::max)
                / 1e3;
            let elapsed = window.elapsed().as_secs_f64();
            if self.calls >= min_calls && elapsed + typical > seconds {
                break;
            }
        }
        self.busy_s += window.elapsed().as_secs_f64();
    }

    /// Reports the part's metrics; `nodes` is the graph's node count.
    pub(crate) fn finish(self, nodes: usize) -> Outcome {
        let s = &self.log.series;
        let rounds = median(s.get("rounds"));
        let decompose_ms = median(s.get("decompose_ms"));
        let estimates = median(s.get("estimates_sent"));
        let setup_ms = median(s.get("runtime.setup_ms"));
        let traced_ms = median(s.get("decompose_ms.traced"));
        let overhead = overhead_pct(s.get("decompose_ms.traced"), s.get("decompose_ms"));
        let messages = median(s.get("messages"));
        let mut out = Outcome::new(self.log.tally, self.log.tracer);
        let e = &mut out.e2e;
        e.put("decompose_ms", decompose_ms, "ms");
        e.put(
            "estimates_per_node",
            estimates.and_then(|x| ratio(x, nodes as f64)),
            "count",
        );
        let l = &mut out.layers;
        l.put("runtime.rounds", rounds, "count");
        l.put("runtime.setup_ms", setup_ms, "ms");
        l.put(
            "runtime.round_us",
            traced_ms
                .zip(setup_ms)
                .zip(rounds)
                .and_then(|((d, st), r)| ratio(1e3 * (d - st), r)),
            "us",
        );
        l.put("runtime.messages", messages, "count");
        l.put("runtime.estimates_sent", estimates, "count");
        l.put("trace.decompose_overhead_pct", overhead, "%");
        println!("  decompose: {} calls in {:.1} s", self.calls, self.busy_s);
        out
    }
}
