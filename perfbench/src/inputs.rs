//! Seeded inputs and process-level measurements shared by the
//! workloads.

use std::time::Instant;

use dkcore::stream::EdgeBatch;
use dkcore_data::{by_name, churn_stream, ChurnWorkload};
use dkcore_graph::{generators, Graph};

/// A graph as the program receives it: a node count and an edge list.
pub struct EdgeList {
    /// Number of nodes.
    pub nodes: usize,
    /// Undirected edges, each listed once.
    pub edges: Vec<(u32, u32)>,
}

impl EdgeList {
    fn of(g: &Graph) -> Self {
        EdgeList {
            nodes: g.node_count(),
            edges: g.edges().map(|(u, v)| (u.0, v.0)).collect(),
        }
    }

    /// Hands the edge list to the program.
    pub fn build(&self) -> Graph {
        Graph::from_edges(self.nodes, self.edges.iter().copied())
            .expect("generated edge lists are valid")
    }
}

/// Nodes of every workload's graph. Both families have the same size
/// and about the same mean degree, so a difference between the
/// workloads comes from the shape of the graph.
pub const NODES: usize = 20_000;
/// Mean degree of the gnp graph; `berkstan-like` has about the same.
const MEAN_DEGREE: f64 = 12.0;

/// The graph family a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `G(n, p)`: nearly every node has the same coreness.
    Gnp,
    /// The `berkstan-like` web analog: a wide spread of coreness values.
    Web,
}

impl Family {
    /// The workload of this name.
    pub fn named(name: &str) -> Option<Family> {
        match name {
            "gnp" => Some(Family::Gnp),
            "web" => Some(Family::Web),
            _ => None,
        }
    }

    /// The family's graph with [`NODES`] nodes, as generated for `seed`.
    pub fn graph(self, seed: u64) -> (Graph, EdgeList) {
        let g = match self {
            Family::Gnp => generators::gnp(NODES, MEAN_DEGREE / NODES as f64, seed),
            Family::Web => by_name("berkstan-like")
                .expect("berkstan-like is in the catalog")
                .build_scaled(NODES, seed),
        };
        let list = EdgeList::of(&g);
        (g, list)
    }
}

/// A stationary churn cycle: `forward` batches of `batch_size`
/// `Mixed { insert_pct: 55 }` mutations, then their inverses in reverse
/// order, so the graph is back where it started after every cycle and
/// the cycle can repeat for as long as a run lasts.
pub fn churn_cycle(g: &Graph, forward: usize, batch_size: usize, seed: u64) -> Vec<EdgeBatch> {
    let mut cycle = churn_stream(
        g,
        ChurnWorkload::Mixed { insert_pct: 55 },
        forward,
        batch_size,
        seed,
    );
    let undo: Vec<EdgeBatch> = cycle.iter().rev().map(EdgeBatch::inverse).collect();
    cycle.extend(undo);
    cycle
}

/// Derives an independent stream seed for one use of the run's seed.
pub fn subseed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// Peak resident memory of this process in MiB, from the kernel's
/// `VmHWM` line for the process itself.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sleeps until `due`; returns how late the caller woke, in
/// nanoseconds.
pub fn sleep_until(due: Instant) -> u64 {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    u64::try_from(Instant::now().saturating_duration_since(due).as_nanos()).unwrap_or(u64::MAX)
}
