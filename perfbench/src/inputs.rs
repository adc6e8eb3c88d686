//! Workload inputs: the dataset file the daemon serves (Table II Facebook
//! x1.0 from its `osn_gen` profile, written as a v1 `.oscg` or as a 4-shard
//! v2 `.oscg`) and the request cycle sent to it, derived from `--seed`.
//!
//! The network is pinned to one generator seed, as the paper's datasets
//! are fixed networks: with a network per `--seed`, the graph-to-graph
//! spread of campaign latency and redemption rate (12-15% between seeds) is
//! wider than any bound the benchmark could gate on. `--seed` drives the
//! requests: the campaigns' evaluation worlds and the order of the cycle.

use osn_gen::DatasetProfile;
use osn_graph::binary;
use osn_graph::shard::{write_sharded_oscg_atomic, ShardPlan};
use std::path::{Path, PathBuf};

/// Budget multipliers the campaigns cycle through.
const BUDGET_CYCLE: [f64; 3] = [0.5, 1.0, 2.0];
/// Worlds of a campaign's final evaluation (`eval_worlds=`). The default 64
/// leaves the reported rate with a 6-7% spread between evaluation seeds,
/// wider than the bound on `redemption_rate_mean`; the deployment itself
/// does not depend on it.
pub const EVAL_WORLDS: usize = 1024;
/// Shards of the sharded workload's v2 file.
const SHARDS: usize = 4;
/// Generator seed of the network.
const NETWORK_SEED: u64 = 42;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `CAMPAIGN algo=s3ca estimator=mc` on the v1 file.
    S3caMc,
    /// `CAMPAIGN algo=s3ca estimator=sketch` on the 4-shard v2 file.
    S3caSketch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::S3caMc, Workload::S3caSketch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S3caMc => "s3ca_mc",
            Workload::S3caSketch => "s3ca_sketch",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload's file is the partitioned (v2) layout.
    pub fn sharded(self) -> bool {
        self == Workload::S3caSketch
    }

    fn estimator(self) -> &'static str {
        match self {
            Workload::S3caMc => "mc",
            Workload::S3caSketch => "sketch",
        }
    }
}

/// `(verb, body)` of a request line.
pub fn split(line: &str) -> (&str, &str) {
    line.split_once(' ').unwrap_or((line, ""))
}

/// Identity of a generated input.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nodes: usize,
    pub edges: usize,
    pub shards: usize,
    pub file_bytes: u64,
    /// FNV-1a-64 over the file's bytes.
    pub checksum: u64,
}

/// A workload's generated inputs.
pub struct Inputs {
    pub workload: Workload,
    pub path: PathBuf,
    pub fingerprint: Fingerprint,
    /// The distinct request lines of the cycle.
    pub requests: Vec<String>,
    /// Seeds the order in which the cycle is sent ([`cycle_index`]).
    pub order_seed: u64,
}

impl Inputs {
    /// Index into `requests` of the `seq`-th request sent.
    pub fn request_index(&self, seq: usize) -> usize {
        cycle_index(seq, self.requests.len(), self.order_seed)
    }
}

/// The cycle is sent in blocks of `len` requests, each block in its own
/// seeded random order. A fixed order would let the two closed loops lock
/// into one pairing of cheap and expensive requests for seconds at a time.
pub fn cycle_index(seq: usize, len: usize, seed: u64) -> usize {
    let block = (seq / len) as u64;
    let mut rng = SplitMix64(seed ^ 0x0D3E_0D3E ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[seq % len]
}

/// Generate the network, write it under `dir` in the workload's layout, and
/// derive the request cycle from `seed`.
pub fn build(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let inst = DatasetProfile::Facebook
        .generate(1.0, NETWORK_SEED)
        .map_err(|e| format!("generating Facebook: {e}"))?;
    let path = dir.join(format!("{}.oscg", workload.name()));
    let workload_block = Some((&inst.data, inst.budget));
    let write_err = |e| format!("writing {}: {e}", path.display());
    let shards = if workload.sharded() {
        let g = &inst.graph;
        let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), SHARDS);
        write_sharded_oscg_atomic(&path, g, workload_block, &plan).map_err(write_err)?;
        plan.shard_count()
    } else {
        binary::write_oscg_atomic(&path, &inst.graph, workload_block).map_err(write_err)?;
        1
    };
    let bytes =
        std::fs::read(&path).map_err(|e| format!("reading back {}: {e}", path.display()))?;
    let fingerprint = Fingerprint {
        nodes: inst.graph.node_count(),
        edges: inst.graph.edge_count(),
        shards,
        file_bytes: bytes.len() as u64,
        checksum: fnv1a(&bytes),
    };
    let requests = BUDGET_CYCLE
        .iter()
        .map(|b| {
            format!(
                "CAMPAIGN algo=s3ca estimator={} budget={b} eval_worlds={EVAL_WORLDS} seed={seed}",
                workload.estimator()
            )
        })
        .collect();
    Ok(Inputs {
        workload,
        path,
        fingerprint,
        requests,
        order_seed: seed,
    })
}

/// Byte-wise FNV-1a-64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: a tiny seeded generator, so request derivation depends on
/// nothing but `--seed`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn every_block_of_the_cycle_sends_each_request_once() {
        for len in [1, 3, 32] {
            for block in 0..20 {
                let mut seen: Vec<usize> = (0..len)
                    .map(|k| cycle_index(block * len + k, len, 7))
                    .collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..len).collect::<Vec<_>>());
            }
        }
        let order = |seed| (0..30).map(|s| cycle_index(s, 3, seed)).collect::<Vec<_>>();
        assert_eq!(order(5), order(5), "same seed, same order");
        assert_ne!(order(5), order(6));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
