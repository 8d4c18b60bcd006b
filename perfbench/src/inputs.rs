//! Workload inputs: the three paper-scale topologies, the simulated
//! snapshot feeds, and their wire encoding.
//!
//! Topologies are fixed per workload (their generator seeds are
//! constants below); `--seed` drives everything the program is fed on
//! top of them: the congestion scenarios, the probe sampling, and the
//! churn choices. The same seed therefore always yields the same rows.

use bytes::Bytes;
use losstomo_netsim::{
    simulate_run, CongestionDynamics, CongestionScenario, ProbeConfig, Snapshot,
};
use losstomo_topology::gen::{
    planetlab::{self, PlanetLabParams},
    tree::{self, TreeParams},
    waxman::{self, WaxmanParams},
    GeneratedTopology,
};
use losstomo_topology::{compute_paths, flutter, reduce, ReducedTopology};
use losstomo_wire::{BatchEncoder, WireEncodeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator seed of the paper-scale PlanetLab mesh.
pub const PLANETLAB_SEED: u64 = 23;
/// Generator seed of the paper-scale tree.
pub const TREE_SEED: u64 = 11;
/// Generator seed of the paper-scale Waxman mesh (dense Phase-2 path).
pub const WAXMAN_SEED: u64 = 2;

/// Wire options of every encoded batch: CRC off, set in code so the
/// `LOSSTOMO_WIRE_CRC` knob cannot change what is measured.
pub const WIRE_OPTS: WireEncodeOptions = WireEncodeOptions { crc: false };

/// Routes beacon→destination paths, drops fluttering pairs and reduces
/// to the routing matrix (Assumption T.2).
pub fn prepare(topo: &GeneratedTopology) -> ReducedTopology {
    let mut paths = compute_paths(&topo.graph, &topo.beacons, &topo.destinations);
    flutter::remove_fluttering_paths(&mut paths);
    reduce(&topo.graph, &paths)
}

/// The topology a workload runs on, at the given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// PlanetLab-like mesh: 60 sites behind a 15-router core (paper),
    /// 12 sites behind 5 routers (quick).
    PlanetLab,
    /// Section-6.1 tree: 1000 nodes (paper), 150 (quick).
    Tree,
    /// BRITE-like Waxman mesh: 1000 nodes, 50 hosts (paper), 150 nodes
    /// and 14 hosts (quick).
    Waxman,
}

impl Topo {
    /// Generates and reduces the topology.
    pub fn build(self, quick: bool) -> ReducedTopology {
        let topo = match self {
            Topo::PlanetLab => {
                let params = if quick {
                    PlanetLabParams {
                        sites: 12,
                        core_routers: 5,
                        ..PlanetLabParams::default()
                    }
                } else {
                    PlanetLabParams {
                        sites: 60,
                        core_routers: 15,
                        ..PlanetLabParams::default()
                    }
                };
                planetlab::generate(params, &mut StdRng::seed_from_u64(PLANETLAB_SEED))
            }
            Topo::Tree => {
                let params = if quick {
                    TreeParams {
                        nodes: 150,
                        max_branching: 6,
                    }
                } else {
                    TreeParams::default()
                };
                tree::generate(params, &mut StdRng::seed_from_u64(TREE_SEED))
            }
            Topo::Waxman => {
                let params = if quick {
                    WaxmanParams {
                        nodes: 150,
                        hosts: 14,
                        ..WaxmanParams::default()
                    }
                } else {
                    WaxmanParams::default()
                };
                waxman::generate(params, &mut StdRng::seed_from_u64(WAXMAN_SEED))
            }
        };
        prepare(&topo)
    }
}

/// Simulates `n` consecutive snapshots of one tenant's feed: a fresh
/// congestion scenario (10 % of links) evolving under `dynamics`.
pub fn simulate_feed(
    red: &ReducedTopology,
    seed: u64,
    n: usize,
    dynamics: CongestionDynamics,
    probes: u32,
) -> Vec<Snapshot> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scenario = CongestionScenario::draw(red.num_links(), 0.1, dynamics, &mut rng);
    let probe = ProbeConfig {
        probes_per_snapshot: probes,
        ..ProbeConfig::default()
    };
    simulate_run(red, &mut scenario, &probe, n, &mut rng).snapshots
}

/// Encodes one wire batch: frame `t` carries `rows[t]` for tenant `t`,
/// starting at sequence `base_seq[t]`.
pub fn encode_batch(rows: &[Vec<&[f64]>], base_seq: &[u64]) -> Bytes {
    let mut enc = BatchEncoder::new(WIRE_OPTS);
    for (t, tenant_rows) in rows.iter().enumerate() {
        let paths = u32::try_from(tenant_rows[0].len()).expect("path count fits u32");
        enc.begin_frame(t as u32, base_seq[t], paths);
        for row in tenant_rows {
            enc.push_row(row);
        }
        enc.end_frame();
    }
    enc.finish()
}

/// Ground truth of a snapshot: which links netsim drew congested.
pub fn truth(snap: &Snapshot) -> Vec<bool> {
    snap.link_truth.iter().map(|l| l.congested).collect()
}
