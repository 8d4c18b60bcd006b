//! `ingest-planetlab`: 4 tenants on the paper-scale PlanetLab mesh at
//! the full pair budget, each with a sliding window and a slow refresh
//! cadence. Wire batches of `ROWS` rows per tenant go through
//! `Fleet::spawn_demux`, one batch in flight at a time (a closed loop
//! with one client): one operation is one batch, from send until all
//! its rows are drained.
//!
//! The traced run times, per operation, how long the consumer waited on
//! the demux, and then replays the same batch through the synchronous
//! service edge of a shadow fleet built identically (`WireBatch::parse`
//! then `Fleet::ingest_wire_batch`, each in a span) and through a
//! standalone `StreamingCovariance` per tenant (the Welford layer, one
//! span per row). The shadow fleet's congested sets must equal the
//! production fleet's.

use crate::checks::{self, bits, Verdict};
use crate::inputs::{self, Topo};
use crate::refresh::Shadow;
use crate::trace::Tracer;
use crate::{Corrupt, Outcome, RunCfg};
use bytes::Bytes;
use losstomo_core::{OnlineConfig, PairBudget, StreamingCovariance, WindowMode};
use losstomo_fleet::{
    DemuxConfig, DemuxHandle, Fleet, FleetConfig, FleetEvent, FleetEventKind, TenantId,
    WireIngestMode,
};
use losstomo_netsim::{CongestionDynamics, Snapshot};
use losstomo_topology::ReducedTopology;
use losstomo_wire::WireBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const TENANTS: usize = 4;
/// Rows per tenant per batch.
const ROWS: usize = 10;
/// Sliding-window length, in rows.
const WINDOW: usize = 100;
/// Distinct simulated snapshots per tenant (cycled).
const DISTINCT: usize = WINDOW;

fn online_config() -> OnlineConfig {
    OnlineConfig {
        window: WindowMode::Sliding(WINDOW),
        // The manual-refresh sentinel: ingest only accumulates, and the
        // operator refreshes on a timer of their own.
        refresh_every: usize::MAX,
        pair_budget: PairBudget::Full,
        ..OnlineConfig::default()
    }
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        // Room for every row of one batch: with one batch in flight the
        // queues never fill.
        queue_capacity: 2 * ROWS,
        workers: Some(1),
        pair_budget: PairBudget::Full,
        ..FleetConfig::default()
    }
}

struct State {
    red: ReducedTopology,
    rows: Vec<Vec<Vec<f64>>>,
    fleet: Fleet,
    ids: Vec<TenantId>,
    demux: DemuxHandle,
    /// Traced run only: the synchronous-edge shadow fleet and the
    /// standalone Welford accumulators.
    shadow: Option<(Fleet, Vec<StreamingCovariance>)>,
    /// Batches sent so far (warm-up included).
    batches: usize,
    events: Vec<FleetEvent>,
}

impl State {
    /// Row `g` (global, per tenant) of tenant `t`'s feed.
    fn row(&self, t: usize, g: usize) -> &[f64] {
        &self.rows[t][g % DISTINCT]
    }

    /// Encodes batch `b`: rows `b·ROWS ..` of every tenant.
    fn encode(&self, b: usize) -> Bytes {
        let refs: Vec<Vec<&[f64]>> = (0..TENANTS)
            .map(|t| (0..ROWS).map(|r| self.row(t, b * ROWS + r)).collect())
            .collect();
        inputs::encode_batch(&refs, &[(b * ROWS) as u64; TENANTS])
    }

    fn ingested(&self) -> u64 {
        self.ids
            .iter()
            .map(|&id| self.fleet.stats(id).ingested)
            .sum()
    }
}

/// Sends batch `b` through the demux and drains until every row is
/// ingested. Returns the time spent in polls that ingested nothing (the
/// consumer waiting on the demux), in seconds, or `None` if the demux
/// thread is gone.
fn send_and_drain(st: &mut State, bytes: Bytes) -> Option<f64> {
    if !st.demux.send(bytes) {
        return None;
    }
    st.batches += 1;
    let want = (st.batches * ROWS * TENANTS) as u64;
    let mut idle = 0.0;
    let mut seen = st.ingested();
    loop {
        let t0 = Instant::now();
        st.fleet.poll_events_into(&mut st.events);
        let now = st.ingested();
        if now >= want {
            return Some(idle);
        }
        if now == seen {
            std::thread::yield_now();
            idle += t0.elapsed().as_secs_f64();
        }
        seen = now;
    }
}

/// Replays batch `bytes` through the shadow fleet's synchronous edge
/// and the standalone Welford accumulators. Returns the traced
/// milliseconds that decompose the operation.
fn shadow_batch(
    st: &mut State,
    bytes: &Bytes,
    op: u64,
    tr: &mut Tracer,
    verdict: &mut Verdict,
) -> f64 {
    let Some((fleet, covs)) = st.shadow.as_mut() else {
        return 0.0;
    };
    let (parsed, parse_s) = tr.time("wire.parse", op, || WireBatch::parse(bytes.clone()));
    let Ok(batch) = parsed else {
        verdict.record(
            "shadow parse",
            Err("pre-encoded batch failed to parse".into()),
        );
        return 0.0;
    };
    let (report, ingest_s) = tr.time("fleet.ingest_wire_batch", op, || {
        fleet.ingest_wire_batch(&batch, WireIngestMode::ZeroCopy)
    });
    verdict.record(
        "shadow edge",
        if report.accepted == ROWS * TENANTS && report.rejections.is_empty() {
            Ok(())
        } else {
            Err(format!("{} rejections", report.rejections.len()))
        },
    );
    tr.count(
        "fleet.backpressure_drains",
        op,
        report.backpressure_drains as f64,
    );
    for (t, cov) in covs.iter_mut().enumerate() {
        let frame = batch.frame(t);
        for r in 0..frame.row_count() {
            let evicts = cov.len() == WINDOW;
            let row = frame.row_bytes(r);
            let open = tr.begin("core.streaming.ingest_row", op);
            cov.ingest_wire(&row);
            tr.end(open);
            tr.count(
                "core.streaming.pair_updates_per_row",
                op,
                (cov.pairs().len() * (1 + usize::from(evicts))) as f64,
            );
        }
    }
    (parse_s + ingest_s) * 1e3
}

/// One cold refresh of tenant 0's current window, staged (traced run
/// only, after the timed phase): the refresh a slow-cadence tenant pays
/// on its timer, decomposed like `refresh-tree`'s. Also
/// times one full-width Phase-2 rank check, the unit the cold
/// paper-order bisection repeats.
fn refresh_probe(st: &State, total: usize, op: u64, tr: &mut Tracer, verdict: &mut Verdict) {
    let rows: Vec<&[f64]> = (total - WINDOW..total).map(|g| st.row(0, g)).collect();
    let batch = WireBatch::parse(inputs::encode_batch(&[rows], &[(total - WINDOW) as u64]))
        .expect("probe batch parses");
    let mut shadow = Shadow::new(&st.red, online_config());
    for r in 0..WINDOW {
        if !shadow.ingest(&batch.frame(0).row_bytes(r), verdict) {
            return;
        }
    }
    shadow.refresh_staged(op, tr, verdict);
    let dense = st.red.matrix.to_dense();
    let open = tr.begin("linalg.rank", op);
    let rank = losstomo_linalg::rank(&dense);
    tr.end(open);
    tr.count("linalg.rank_of_r", op, rank as f64);
}

fn setup(cfg: &RunCfg, tr: &mut Tracer) -> State {
    let (red, _) = tr.time("topology.prepare", 0, || Topo::PlanetLab.build(cfg.quick));
    let (feeds, _) = tr.time("netsim.simulate", 0, || {
        (0..TENANTS)
            .map(|t| {
                inputs::simulate_feed(
                    &red,
                    cfg.seed.wrapping_mul(1000).wrapping_add(100 + t as u64),
                    DISTINCT,
                    CongestionDynamics::Markov {
                        stay_congested: 0.9,
                    },
                    100,
                )
            })
            .collect::<Vec<_>>()
    });
    let rows = feeds
        .iter()
        .map(|f| f.iter().map(Snapshot::log_rates).collect())
        .collect();
    let mut fleet = Fleet::new(fleet_config());
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| {
            tr.time("fleet.add_tenant", 0, || {
                fleet.add_tenant(format!("planetlab-{t}"), &red, online_config())
            })
            .0
        })
        .collect();
    let shadow = tr.enabled().then(|| {
        let mut shadow = Fleet::new(fleet_config());
        for t in 0..TENANTS {
            shadow.add_tenant(format!("planetlab-{t}"), &red, online_config());
        }
        let pairs = fleet.estimator(ids[0]).augmented().pair_indices();
        let covs = (0..TENANTS)
            .map(|_| {
                StreamingCovariance::new(
                    red.num_paths(),
                    pairs.clone(),
                    WindowMode::Sliding(WINDOW),
                )
            })
            .collect();
        (shadow, covs)
    });
    let demux = fleet.spawn_demux(DemuxConfig::default());
    let mut st = State {
        red,
        rows,
        fleet,
        ids,
        demux,
        shadow,
        batches: 0,
        events: Vec::new(),
    };
    // Warm-up: fill every window through the same path.
    let warm_batches = WINDOW.div_ceil(ROWS);
    let mut encoded = Vec::new();
    let (_, _) = tr.time("wire.encode", 0, || {
        encoded = (0..warm_batches).map(|b| st.encode(b)).collect();
    });
    let open = tr.begin("core.streaming.warmup", 0);
    let mut verdict = Verdict::default();
    for bytes in encoded {
        send_and_drain(&mut st, bytes.clone()).expect("demux thread alive");
        shadow_batch(&mut st, &bytes, 0, tr, &mut verdict);
    }
    tr.end(open);
    assert!(verdict.ok(), "warm-up: {:?}", verdict.failure);
    assert_eq!(
        checks::poll_rejections(&st.demux),
        0,
        "warm-up rows rejected"
    );
    st
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let mut setups = Vec::new();
    let mut state: Option<State> = None;
    for _ in 0..cfg.setup_reps {
        if let Some(old) = state.take() {
            old.demux.finish();
        }
        let t0 = Instant::now();
        state = Some(setup(cfg, tr));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut st = state.expect("at least one set-up");
    let mut out = Outcome::new(setups);
    let aug_rows = st.fleet.estimator(st.ids[0]).augmented().num_rows();
    out.info("tenants", TENANTS);
    out.info("paths", st.red.num_paths());
    out.info("links", st.red.num_links());
    out.info("augmented_rows", aug_rows);
    out.info("rows_per_tenant_per_batch", ROWS);
    out.info("window", WINDOW);
    out.info("refresh_every", "manual");

    let mut verdict = Verdict::default();
    let mut latencies = Vec::new();
    let mut rejected_total = 0u64;
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        op += 1;
        let bytes = st.encode(st.batches);
        st.events.clear();
        // ---- the operation -------------------------------------------
        let batch_span = tr.begin("fleet.batch", op);
        let t0 = Instant::now();
        let drained = send_and_drain(&mut st, bytes.clone());
        let dt = t0.elapsed().as_secs_f64();
        tr.end(batch_span);
        let Some(idle) = drained else {
            out.attempted += 1;
            out.failed += 1;
            break;
        };
        // ---- after the operation --------------------------------------
        out.attempted += 1;
        let mut rejected = checks::poll_rejections(&st.demux);
        if cfg.corrupt == Some(Corrupt::Rejection) && op == 1 {
            rejected += 1;
        }
        rejected_total += rejected;
        let errors = st.events.iter().any(|e| {
            matches!(
                e.kind,
                FleetEventKind::EstimatorError { .. } | FleetEventKind::TenantQuarantined { .. }
            )
        });
        if rejected > 0 || errors {
            out.failed += 1;
            continue;
        }
        latencies.push(dt);
        if tr.enabled() {
            tr.count("fleet.idle_wait_ms", op, idle * 1e3);
            let staged_ms = shadow_batch(&mut st, &bytes, op, tr, &mut verdict);
            tr.count("fleet.op_unaccounted_ms", op, dt * 1e3 - staged_ms);
            if let Some((shadow, _)) = &st.shadow {
                let same = st
                    .ids
                    .iter()
                    .all(|&id| shadow.stats(id) == st.fleet.stats(id));
                verdict.record(
                    "shadow ≡ fleet",
                    if same {
                        Ok(())
                    } else {
                        Err(format!("op {op}: tenant stats differ"))
                    },
                );
            }
        }
    }
    let total = st.batches * ROWS;
    if let Some((shadow, covs)) = &st.shadow {
        // The staged replay carried the same state: its covariances
        // match the production tenant's bit for bit.
        let want = bits(
            &st.fleet
                .estimator(st.ids[0])
                .covariance()
                .exact_covariances(),
        );
        let same = bits(&shadow.estimator(st.ids[0]).covariance().exact_covariances()) == want
            && bits(&covs[0].exact_covariances()) == want;
        verdict.record(
            "staged ≡ fleet covariances",
            if same {
                Ok(())
            } else {
                Err("staged covariances differ".into())
            },
        );
        refresh_probe(&st, total, op + 1, tr, &mut verdict);
    }
    // Covariances of every tenant's window against a two-pass replay of
    // the rows sent.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc0fe);
    for t in 0..TENANTS {
        let est = st.fleet.estimator(st.ids[t]);
        let rows: Vec<&[f64]> = (total - WINDOW..total).map(|g| st.row(t, g)).collect();
        let pairs = est.augmented().pair_indices();
        let mut reported = est.covariance().exact_covariances();
        let sample: Vec<usize> = (0..32).map(|_| rng.gen_range(0..pairs.len())).collect();
        if cfg.corrupt == Some(Corrupt::Covariance) {
            reported[sample[0]] += 1e-3;
        }
        verdict.record(
            "two-pass covariance",
            checks::check_covariances(&rows, &pairs, &reported, &sample),
        );
    }
    let sent = (st.batches * ROWS * TENANTS) as u64;
    let (stats, rest) = st.demux.finish();
    rejected_total += rest.iter().map(checks::ack_rejections).sum::<u64>();
    verdict.record(
        "sent = accepted + rejected",
        checks::check_accounting(
            sent,
            stats.rows_accepted,
            stats.rows_rejected.max(rejected_total),
        ),
    );
    out.info("batches", st.batches);
    out.latencies = latencies;
    out.rows_per_op = (ROWS * TENANTS) as f64;
    out.verdict = verdict;
    out
}
