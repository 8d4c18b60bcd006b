//! `refresh-tree`: 2 tenants on the paper tree, `Sliding(50)` window,
//! a refresh on every snapshot, Markov congestion dynamics. Each round
//! sends one wire row per tenant through the demux thread and drains
//! the fleet until the round's congested-set events are out, then calls
//! `Fleet::query`. Each tenant gets one route swap through
//! `Fleet::update_topology`, early enough for its window to flush
//! before the run ends. One operation is one round.
//!
//! The traced run keeps, per tenant, a standalone shadow
//! `OnlineEstimator` fed the same rows (fleet ≡ standalone), and times
//! its `refresh()` and `estimate()`. Each refresh is then staged
//! through the public functions it is made of — the exact window
//! replay, the cached Phase-1 solve, the hinted paper-order selection
//! and the `R*` factorisation — with the same carried state, and the
//! staged outputs must match the production estimator bit for bit.

use crate::checks::{self, bits, Location, Verdict};
use crate::inputs::{self, Topo};
use crate::trace::Tracer;
use crate::{Corrupt, Outcome, RunCfg};
use bytes::Bytes;
use losstomo_core::lia::{select_paper_order_hinted, variance_order};
use losstomo_core::{
    estimate_variances_scratch, GramCache, OnlineConfig, OnlineEstimator, PairBudget,
    Phase1Scratch, RankView, WindowMode,
};
use losstomo_fleet::{
    DemuxConfig, DemuxHandle, Fleet, FleetConfig, FleetEvent, FleetEventKind, TenantId,
};
use losstomo_linalg::PivotedQr;
use losstomo_netsim::{CongestionDynamics, Snapshot, DEFAULT_LOSS_THRESHOLD};
use losstomo_topology::{PathId, ReducedTopology, TopologyDelta};
use losstomo_wire::WireBatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const TENANTS: usize = 2;
const WINDOW: usize = 50;
/// Distinct post-warm-up snapshots per tenant (cycled).
const DISTINCT: usize = 150;
/// Round at which tenant `t` gets its route swap.
const CHURN_AT: [usize; TENANTS] = [10, 30];
/// Deep checks (covariances, Phase-1 residual, link rates) run every
/// this many rounds.
const CHECK_EVERY: usize = 10;

/// One tenant's feed and route swap.
struct TenantFeed {
    snaps: Vec<Snapshot>,
    rows: Vec<Vec<f64>>,
    /// The two paths whose routes are swapped.
    swap: (usize, usize),
}

impl TenantFeed {
    /// Snapshot index of round `r` (`None` = warm-up round `w`).
    fn index(&self, round: Option<usize>, w: usize) -> usize {
        round.map_or(w, |r| WINDOW + r % DISTINCT)
    }

    /// The row as sent: after the swap, paths `p` and `q` trade
    /// measurements, because they trade routes.
    fn row(&self, idx: usize, swapped: bool) -> Vec<f64> {
        let mut row = self.rows[idx].clone();
        if swapped {
            row.swap(self.swap.0, self.swap.1);
        }
        row
    }
}

/// The route swap: paths `p` and `q` exchange their link sets.
fn swap_delta(red: &ReducedTopology, (p, q): (usize, usize)) -> TopologyDelta {
    TopologyDelta::new()
        .reroute_path(PathId(p as u32), red.matrix.row(q).to_vec())
        .reroute_path(PathId(q as u32), red.matrix.row(p).to_vec())
}

/// Picks two paths with different routes.
fn pick_swap(red: &ReducedTopology, rng: &mut StdRng) -> (usize, usize) {
    let n = red.num_paths();
    loop {
        let (p, q) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if p != q && red.matrix.row(p) != red.matrix.row(q) {
            return (p, q);
        }
    }
}

/// The staged copy of one tenant's refresh pipeline (traced run only).
pub struct Shadow {
    est: OnlineEstimator,
    gram: GramCache,
    phase1: Phase1Scratch,
    view: RankView,
    hint: Option<usize>,
    order: Vec<usize>,
    kept: Vec<usize>,
    qr: Option<PivotedQr>,
}

impl Shadow {
    pub fn new(red: &ReducedTopology, online: OnlineConfig) -> Shadow {
        let est = OnlineEstimator::new(
            red,
            OnlineConfig {
                refresh_every: usize::MAX,
                ..online
            },
        );
        Shadow {
            view: RankView::new(red, online.lia.dispatch),
            est,
            gram: GramCache::new(),
            phase1: Phase1Scratch::new(),
            hint: None,
            order: Vec::new(),
            kept: Vec::new(),
            qr: None,
        }
    }

    fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<(), String> {
        self.est.apply_delta(delta).map_err(|e| e.to_string())?;
        // The routing changed: the staged Phase-1 cache restarts (its
        // counts are integers, so a fresh cache gives the same bits) and
        // the Phase-2 memo is dropped, as the estimator does.
        self.gram = GramCache::new();
        self.phase1 = Phase1Scratch::new();
        self.view = RankView::new(self.est.topology(), self.est.config().lia.dispatch);
        self.order.clear();
        self.kept.clear();
        self.qr = None;
        Ok(())
    }

    /// Ingests one row (no refresh: the shadow refreshes explicitly).
    pub fn ingest(&mut self, row: &Bytes, verdict: &mut Verdict) -> bool {
        match self.est.ingest_wire_row(row) {
            Ok(_) => true,
            Err(e) => {
                verdict.record("shadow ingest", Err(e.to_string()));
                false
            }
        }
    }

    /// Times `refresh()`, then stages it through the public calls it is
    /// made of, with the same carried state (Gram cache, Phase-1
    /// workspace, selection hint, Phase-2 memo), and checks the staged
    /// outputs against the refreshed estimator bit for bit. Returns the
    /// refresh time in seconds.
    pub fn refresh_staged(&mut self, op: u64, tr: &mut Tracer, verdict: &mut Verdict) -> f64 {
        let (refreshed, refresh_s) = tr.time("core.streaming.refresh", op, || self.est.refresh());
        let grace = self.est.variances().is_none() || !self.est.covariance().is_churn_free();
        if let Err(e) = &refreshed {
            if !grace {
                verdict.record("shadow refresh", Err(e.to_string()));
            }
        }
        let (sigmas, replay_s) = tr.time("core.covariance.replay", op, || {
            self.est.covariance().exact_covariances()
        });
        let (var, p1_s) = tr.time("core.variance.phase1", op, || {
            estimate_variances_scratch(
                self.est.topology(),
                self.est.augmented(),
                &sigmas,
                &self.est.config().variance,
                &mut self.gram,
                &mut self.phase1,
            )
        });
        let (Ok(var), Ok(())) = (&var, &refreshed) else {
            return refresh_s;
        };
        let open = tr.begin("core.lia.phase2", op);
        let t0 = Instant::now();
        let order = variance_order(&var.v);
        if order != self.order || self.qr.is_none() {
            let (kept, cut) =
                select_paper_order_hinted(self.est.topology(), &self.view, &order, self.hint);
            self.hint = Some(cut);
            if kept != self.kept || self.qr.is_none() {
                if let RankView::Dense(dense) = &self.view {
                    self.qr = PivotedQr::new(&dense.select_columns(&kept)).ok();
                }
                self.kept = kept;
            }
            self.order = order;
        }
        let p2_s = t0.elapsed().as_secs_f64();
        tr.end(open);
        let want = self.est.variances().expect("refresh succeeded");
        verdict.record(
            "staged ≡ refresh()",
            if bits(&var.v) == bits(&want.v) && self.kept == self.est.kept_columns() {
                Ok(())
            } else {
                Err(format!("op {op}: staged Phase 1/2 differ from refresh()"))
            },
        );
        tr.count(
            "core.streaming.refresh_unaccounted_ms",
            op,
            (refresh_s - (replay_s + p1_s + p2_s)) * 1e3,
        );
        refresh_s
    }

    /// Ingests one row, refreshes (staged) and estimates with spans,
    /// and checks the shadow against the production tenant `prod`.
    /// Returns the traced time (ms) of the tenant's refresh and
    /// estimate.
    fn step(
        &mut self,
        row: &Bytes,
        y: &[f64],
        prod: &OnlineEstimator,
        op: u64,
        tr: &mut Tracer,
        verdict: &mut Verdict,
    ) -> f64 {
        if !self.ingest(row, verdict) || self.est.covariance().len() < 2 {
            return 0.0;
        }
        let mut traced_s = self.refresh_staged(op, tr, verdict);
        if self.est.variances().is_some() {
            let (est, est_s) = tr.time("core.streaming.estimate", op, || self.est.estimate(y));
            traced_s += est_s;
            match est {
                Ok(est) => {
                    let staged = self
                        .qr
                        .as_ref()
                        .and_then(|qr| qr.solve_least_squares(y).ok());
                    let same_rates = staged.is_none_or(|x| {
                        let t: Vec<f64> = x.iter().map(|v| v.exp().clamp(0.0, 1.0)).collect();
                        let mine: Vec<f64> =
                            self.kept.iter().map(|&k| est.transmission[k]).collect();
                        bits(&t) == bits(&mine)
                    });
                    let same_prod = bits(&self.est.variances().expect("warm").v)
                        == bits(&prod.variances().map_or(Vec::new(), |v| v.v.clone()))
                        && est.congested_links(DEFAULT_LOSS_THRESHOLD) == prod.congested_links();
                    verdict.record(
                        "shadow ≡ fleet tenant",
                        if same_rates && same_prod {
                            Ok(())
                        } else {
                            Err(format!(
                                "op {op}: shadow estimate differs from the fleet tenant"
                            ))
                        },
                    );
                }
                Err(e) => verdict.record("shadow estimate", Err(e.to_string())),
            }
        }
        traced_s * 1e3
    }
}

struct State {
    red: ReducedTopology,
    feeds: Vec<TenantFeed>,
    deltas: Vec<TopologyDelta>,
    /// Pre-encoded warm-up rounds, then timed rounds.
    warm: Vec<Bytes>,
    rounds: Vec<Bytes>,
    fleet: Fleet,
    ids: Vec<TenantId>,
    demux: DemuxHandle,
    shadows: Vec<Shadow>,
    events: Vec<FleetEvent>,
    /// Demux rejections seen so far.
    rejected: u64,
}

fn online_config() -> OnlineConfig {
    OnlineConfig {
        window: WindowMode::Sliding(WINDOW),
        refresh_every: 1,
        pair_budget: PairBudget::Full,
        ..OnlineConfig::default()
    }
}

/// Sends one pre-encoded round and drains the fleet until every tenant
/// has ingested `want` rows. Returns false if the demux thread is gone.
fn send_and_drain(st: &mut State, batch: &Bytes, want: u64) -> bool {
    if !st.demux.send(batch.clone()) {
        return false;
    }
    loop {
        st.fleet.poll_events_into(&mut st.events);
        if st.ids.iter().all(|&id| st.fleet.stats(id).ingested >= want) {
            return true;
        }
        std::thread::yield_now();
    }
}

fn setup(cfg: &RunCfg, tr: &mut Tracer, max_rounds: usize) -> State {
    let (red, _) = tr.time("topology.prepare", 0, || Topo::Tree.build(cfg.quick));
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(31).wrapping_add(5));
    let (snaps, _) = tr.time("netsim.simulate", 0, || {
        (0..TENANTS)
            .map(|t| {
                inputs::simulate_feed(
                    &red,
                    cfg.seed.wrapping_mul(1000).wrapping_add(t as u64),
                    WINDOW + DISTINCT,
                    CongestionDynamics::Markov {
                        stay_congested: 0.9,
                    },
                    1000,
                )
            })
            .collect::<Vec<_>>()
    });
    let feeds: Vec<TenantFeed> = snaps
        .into_iter()
        .map(|snaps| TenantFeed {
            rows: snaps.iter().map(Snapshot::log_rates).collect(),
            snaps,
            swap: pick_swap(&red, &mut rng),
        })
        .collect();
    let deltas: Vec<TopologyDelta> = feeds.iter().map(|f| swap_delta(&red, f.swap)).collect();
    let ((warm, rounds), _) = tr.time("wire.encode", 0, || {
        let encode = |round: Option<usize>, w: usize| {
            let rows: Vec<Vec<f64>> = feeds
                .iter()
                .enumerate()
                .map(|(t, f)| f.row(f.index(round, w), round.is_some_and(|r| r >= CHURN_AT[t])))
                .collect();
            let refs: Vec<Vec<&[f64]>> = rows.iter().map(|r| vec![r.as_slice()]).collect();
            let seq = round.map_or(w, |r| WINDOW + r) as u64;
            inputs::encode_batch(&refs, &[seq; TENANTS])
        };
        let warm: Vec<Bytes> = (0..WINDOW).map(|w| encode(None, w)).collect();
        let rounds: Vec<Bytes> = (0..max_rounds).map(|r| encode(Some(r), 0)).collect();
        (warm, rounds)
    });
    let mut fleet = Fleet::new(FleetConfig {
        queue_capacity: 64,
        workers: Some(1),
        pair_budget: PairBudget::Full,
        ..FleetConfig::default()
    });
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| {
            tr.time("fleet.add_tenant", 0, || {
                fleet.add_tenant(format!("tree-{t}"), &red, online_config())
            })
            .0
        })
        .collect();
    let shadows = if tr.enabled() {
        (0..TENANTS)
            .map(|_| Shadow::new(&red, online_config()))
            .collect()
    } else {
        Vec::new()
    };
    let demux = fleet.spawn_demux(DemuxConfig::default());
    let mut st = State {
        red,
        feeds,
        deltas,
        warm,
        rounds,
        fleet,
        ids,
        demux,
        shadows,
        events: Vec::new(),
        rejected: 0,
    };
    let open = tr.begin("core.streaming.warmup", 0);
    let mut verdict = Verdict::default();
    for w in 0..WINDOW {
        let batch = st.warm[w].clone();
        assert!(
            send_and_drain(&mut st, &batch, (w + 1) as u64),
            "demux thread alive"
        );
        shadow_round(&mut st, &batch, None, w, 0, tr, &mut verdict);
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

/// Feeds the round's rows to the shadows (traced run only); returns
/// the traced milliseconds of the round's refreshes and estimates.
fn shadow_round(
    st: &mut State,
    batch: &Bytes,
    round: Option<usize>,
    w: usize,
    op: u64,
    tr: &mut Tracer,
    verdict: &mut Verdict,
) -> f64 {
    if st.shadows.is_empty() {
        return 0.0;
    }
    let parsed = WireBatch::parse(batch.clone()).expect("pre-encoded batch parses");
    let mut traced_ms = 0.0;
    for (t, (f, shadow)) in st.feeds.iter().zip(st.shadows.iter_mut()).enumerate() {
        let y = f.row(f.index(round, w), round.is_some_and(|r| r >= CHURN_AT[t]));
        let prod = st.fleet.estimator(st.ids[t]);
        traced_ms += shadow.step(&parsed.frame(t).row_bytes(0), &y, prod, op, tr, verdict);
    }
    traced_ms
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    // Rounds pre-encoded: enough for 25 ms rounds over the whole run.
    let max_rounds = if cfg.quick {
        120
    } else {
        (cfg.seconds * 40.0) as usize + 60
    };
    let mut setups = Vec::new();
    let mut state: Option<State> = None;
    for _ in 0..cfg.setup_reps {
        if let Some(old) = state.take() {
            old.demux.finish();
        }
        let t0 = Instant::now();
        state = Some(setup(cfg, tr, max_rounds));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut st = state.expect("at least one set-up");
    let mut out = Outcome::new(setups);
    out.info("tenants", TENANTS);
    out.info("paths", st.red.num_paths());
    out.info("links", st.red.num_links());
    out.info(
        "augmented_rows",
        st.fleet.estimator(st.ids[0]).augmented().num_rows(),
    );
    out.info("window", WINDOW);

    let mut verdict = Verdict::default();
    let mut location = Location::default();
    let mut latencies = Vec::new();
    let mut prev_kept: Vec<Vec<usize>> = st
        .ids
        .iter()
        .map(|&id| st.fleet.estimator(id).kept_columns().to_vec())
        .collect();
    let mut sample_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    let start = Instant::now();
    let mut round = 0usize;
    while round < st.rounds.len() && (round == 0 || start.elapsed().as_secs_f64() < cfg.seconds) {
        let op = round as u64 + 1;
        let want = (WINDOW + round + 1) as u64;
        let batch = st.rounds[round].clone();
        st.events.clear();
        let mut failed = false;
        let mut churn_ms = 0.0;
        // ---- the operation -------------------------------------------
        let round_span = tr.begin("fleet.round", op);
        let t0 = Instant::now();
        // Rounds in `CHURN_AT` are distinct: at most one swap a round.
        let churning = CHURN_AT.iter().position(|&at| at == round);
        if let Some(t) = churning {
            let (res, dt) = tr.time("topology.churn_apply", op, || {
                st.fleet.update_topology(st.ids[t], &st.deltas[t])
            });
            churn_ms = dt * 1e3;
            match res {
                Ok(events) => st.events.extend(events),
                Err(e) => {
                    eprintln!("round {round}: churn rejected: {e}");
                    failed = true;
                }
            }
        }
        if !send_and_drain(&mut st, &batch, want) {
            tr.end(round_span);
            eprintln!("round {round}: demux thread gone");
            out.attempted += 1;
            out.failed += 1;
            break;
        }
        let (report, query_s) = tr.time("fleet.query", op, || st.fleet.query());
        let dt = t0.elapsed().as_secs_f64();
        tr.end(round_span);
        // ---- after the operation: accounting and checks ---------------
        out.attempted += 1;
        let mut rejected = checks::poll_rejections(&st.demux);
        if cfg.corrupt == Some(Corrupt::Rejection) && round == 0 {
            rejected += 1;
        }
        st.rejected += rejected;
        failed |= rejected > 0;
        failed |= st.events.iter().any(|e| {
            matches!(
                e.kind,
                FleetEventKind::EstimatorError { .. } | FleetEventKind::TenantQuarantined { .. }
            )
        });
        if failed {
            out.failed += 1;
            round += 1;
            continue;
        }
        latencies.push(dt);
        let deep = round.is_multiple_of(CHECK_EVERY);
        for (t, prev) in prev_kept.iter_mut().enumerate() {
            let f = &st.feeds[t];
            let idx = f.index(Some(round), 0);
            let truth = inputs::truth(&f.snaps[idx]);
            let congested = &report.tenants[t].congested;
            if cfg.corrupt == Some(Corrupt::Location) {
                let complement: Vec<usize> = (0..truth.len()).filter(|&k| !truth[k]).collect();
                location.add(&truth, &complement);
            } else {
                location.add(&truth, congested);
            }
            let est = st.fleet.estimator(st.ids[t]);
            if est.kept_columns() != prev.as_slice() {
                tr.count("core.streaming.kept_set_changes", op, 1.0);
                *prev = est.kept_columns().to_vec();
            }
            if deep {
                deep_checks(cfg, &st, t, round, congested, &mut sample_rng, &mut verdict);
            }
        }
        if tr.enabled() {
            if let Some(t) = churning {
                let res = st.shadows[t].apply_delta(&st.deltas[t]);
                verdict.record("shadow churn", res);
            }
            let traced = shadow_round(&mut st, &batch, Some(round), 0, op, tr, &mut verdict);
            let staged_ms = traced + query_s * 1e3 + churn_ms;
            tr.count("fleet.op_unaccounted_ms", op, dt * 1e3 - staged_ms);
        }
        round += 1;
    }
    let (stats, rest) = st.demux.finish();
    let rejected = stats
        .rows_rejected
        .max(st.rejected + rest.iter().map(checks::ack_rejections).sum::<u64>());
    let sent = ((WINDOW + round) * TENANTS) as u64;
    verdict.record(
        "sent = accepted + rejected",
        checks::check_accounting(sent, stats.rows_accepted, rejected),
    );
    let (floor, ceiling) = (0.3, 0.75);
    verdict.record("DR/FPR", location.check(floor, ceiling));
    out.info("rounds", round);
    out.info("dr", format!("{:.4}", location.dr()));
    out.info("fpr", format!("{:.4}", location.fpr()));
    out.latencies = latencies;
    out.rows_per_op = TENANTS as f64;
    out.verdict = verdict;
    out
}

/// Covariances, Phase-1 residual and link rates of tenant `t` after
/// round `round`, against the rows the benchmark sent.
fn deep_checks(
    cfg: &RunCfg,
    st: &State,
    t: usize,
    round: usize,
    congested: &[usize],
    rng: &mut StdRng,
    verdict: &mut Verdict,
) {
    let est = st.fleet.estimator(st.ids[t]);
    let f = &st.feeds[t];
    let y = f.row(f.index(Some(round), 0), round >= CHURN_AT[t]);
    match est.estimate(&y) {
        Ok(mut rates) => {
            if cfg.corrupt == Some(Corrupt::Congested) {
                let k = congested.first().copied().unwrap_or(0);
                rates.transmission[k] = if congested.is_empty() { 0.5 } else { 1.0 };
            }
            verdict.record(
                "link rates",
                checks::check_rates(&rates.transmission, congested, DEFAULT_LOSS_THRESHOLD),
            );
        }
        Err(e) => verdict.record("link rates", Err(e.to_string())),
    }
    if !est.staleness().is_flushed() {
        // Pre-churn rows still in the window: the two-pass replay over
        // the sent rows does not apply until it flushes.
        return;
    }
    // The window: the last WINDOW rows sent to this tenant.
    let total = WINDOW + round + 1;
    let window: Vec<Vec<f64>> = (total - WINDOW..total)
        .map(|g| {
            if g < WINDOW {
                f.row(g, false)
            } else {
                let r = g - WINDOW;
                f.row(f.index(Some(r), 0), r >= CHURN_AT[t])
            }
        })
        .collect();
    let rows: Vec<&[f64]> = window.iter().map(Vec::as_slice).collect();
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
    let Some(var) = est.variances() else {
        verdict.record("phase-1 residual", Err("no variances".into()));
        return;
    };
    let mut v = var.v.clone();
    if cfg.corrupt == Some(Corrupt::Variance) {
        let k = v.len() / 2;
        v[k] += 0.1;
    }
    let sigmas = checks::two_pass_all(&rows, est.augmented());
    verdict.record(
        "phase-1 residual",
        checks::check_phase1(est.augmented(), &sigmas, &v, var.used_rows),
    );
}
