//! `batch-mesh`: LIA `LossEstimator::estimate` on the paper-scale
//! Waxman mesh, from 50 centred training snapshots plus one evaluation
//! row. One operation is one estimate. No streaming, fleet or wire code
//! runs.
//!
//! The traced run follows each production estimate with the same
//! pipeline staged through the public functions `LiaEstimator` calls —
//! `AugmentedSystem::build`, `apply_budget`, `pair_covariances`,
//! `estimate_variances_from_sigmas`, `infer_link_rates` — and requires
//! the staged outputs to match the production ones bit for bit.

use crate::checks::{self, bits, Location, Verdict};
use crate::inputs::{self, Topo};
use crate::trace::Tracer;
use crate::{Corrupt, Outcome, RunCfg};
use losstomo_core::lia::dense_phase2_max_cols;
use losstomo_core::{
    apply_budget, build_estimator, estimate_variances_from_sigmas, infer_link_rates,
    AugmentedSystem, CenteredMeasurements, EstimatorKind, LiaConfig, PairBudget, VarianceConfig,
};
use losstomo_netsim::{CongestionDynamics, MeasurementSet, DEFAULT_LOSS_THRESHOLD};
use std::time::Instant;

/// Training snapshots per estimate (the paper's `m`).
const TRAIN: usize = 50;

struct Inputs {
    red: losstomo_topology::ReducedTopology,
    rows: Vec<Vec<f64>>,
    centered: CenteredMeasurements,
    y: Vec<f64>,
    truth: Vec<bool>,
}

fn setup(cfg: &RunCfg, tr: &mut Tracer) -> Inputs {
    let (red, _) = tr.time("topology.prepare", 0, || Topo::Waxman.build(cfg.quick));
    let (snaps, _) = tr.time("netsim.simulate", 0, || {
        inputs::simulate_feed(
            &red,
            cfg.seed.wrapping_mul(7919).wrapping_add(1),
            TRAIN + 1,
            CongestionDynamics::Fixed,
            1000,
        )
    });
    let train = MeasurementSet {
        snapshots: snaps[..TRAIN].to_vec(),
    };
    let eval = &snaps[TRAIN];
    Inputs {
        rows: train.log_rate_rows(),
        centered: CenteredMeasurements::new(&train),
        y: eval.log_rates(),
        truth: inputs::truth(eval),
        red,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    // Set up `setup_reps` times and keep the last; `setup_s` is the
    // median.
    let mut setups = Vec::new();
    let mut inp = None;
    for _ in 0..cfg.setup_reps {
        let t0 = Instant::now();
        inp = Some(setup(cfg, tr));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inp = inp.expect("at least one set-up");
    let red = &inp.red;
    let mut out = Outcome::new(setups);
    out.info("paths", red.num_paths());
    out.info("links", red.num_links());
    out.info("dense_phase2_max_cols", dense_phase2_max_cols());
    out.info("training_snapshots", TRAIN);

    let lia = LiaConfig::default();
    let variance = VarianceConfig::default();
    let estimator = build_estimator(EstimatorKind::Lia, lia, variance, PairBudget::Full);
    let mut verdict = Verdict::default();
    let mut location = Location::default();
    let mut first: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut latencies = Vec::new();
    let mut aug_rows = 0usize;
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        op += 1;
        let open = tr.begin("core.estimator.estimate", op);
        let t0 = Instant::now();
        let result = estimator.estimate(red, &inp.centered, &inp.y);
        let dt = t0.elapsed().as_secs_f64();
        tr.end(open);
        out.attempted += 1;
        let mut res = match result {
            Ok(res) => res,
            Err(e) => {
                out.failed += 1;
                eprintln!("estimate {op} failed: {e}");
                continue;
            }
        };
        latencies.push(dt);
        if cfg.corrupt == Some(Corrupt::Variance) {
            let k = res.diagnostics.variances.len() / 2;
            res.diagnostics.variances[k] += 0.1;
        }
        let congested = res.congested_links(DEFAULT_LOSS_THRESHOLD);
        if cfg.corrupt == Some(Corrupt::Congested) {
            let k = congested.first().copied().unwrap_or(0);
            res.estimate.transmission[k] = if congested.is_empty() { 0.5 } else { 1.0 };
        }
        match &first {
            // Every estimate runs on the same inputs: the first is
            // checked in full, the rest must repeat it bit for bit.
            Some((v, t)) => verdict.record(
                "repeatability",
                if bits(v) == bits(&res.diagnostics.variances)
                    && bits(t) == bits(&res.estimate.transmission)
                {
                    Ok(())
                } else {
                    Err(format!("estimate {op} differs from estimate 1"))
                },
            ),
            None => {
                let rows: Vec<&[f64]> = inp.rows.iter().map(Vec::as_slice).collect();
                let aug = AugmentedSystem::build(red);
                aug_rows = aug.num_rows();
                let sigmas = checks::two_pass_all(&rows, &aug);
                verdict.record(
                    "phase-1 residual",
                    checks::check_phase1(
                        &aug,
                        &sigmas,
                        &res.diagnostics.variances,
                        res.diagnostics.rows_used,
                    ),
                );
                verdict.record(
                    "link rates",
                    checks::check_rates(
                        &res.estimate.transmission,
                        &congested,
                        DEFAULT_LOSS_THRESHOLD,
                    ),
                );
                location.add(&inp.truth, &congested);
                first = Some((
                    res.diagnostics.variances.clone(),
                    res.estimate.transmission.clone(),
                ));
            }
        }
        tr.count(
            "core.variance.dropped_rows",
            op,
            res.diagnostics.dropped_rows as f64,
        );
        tr.count("core.lia.kept_columns", op, res.estimate.kept_count as f64);
        if tr.enabled() {
            staged(red, &inp, &res, op, dt, tr, &mut verdict);
        }
    }
    out.info("augmented_rows", aug_rows);
    let (floor, ceiling) = (0.5, 0.3);
    verdict.record("DR/FPR", location.check(floor, ceiling));
    out.info("dr", format!("{:.4}", location.dr()));
    out.info("fpr", format!("{:.4}", location.fpr()));
    out.latencies = latencies;
    out.rows_per_op = (TRAIN + 1) as f64;
    out.verdict = verdict;
    out
}

/// The traced decomposition of one estimate: the same public calls
/// `LiaEstimator::estimate` makes, in order, each in its own span.
fn staged(
    red: &losstomo_topology::ReducedTopology,
    inp: &Inputs,
    prod: &losstomo_core::EstimatorOutput,
    op: u64,
    op_s: f64,
    tr: &mut Tracer,
    verdict: &mut Verdict,
) {
    let (aug, build_s) = tr.time("core.augmented.build", op, || AugmentedSystem::build(red));
    // `apply_budget` at the full budget has no span of its own: its
    // time lands in the unaccounted gap.
    let (aug, _selection) = apply_budget(aug, PairBudget::Full);
    let (sigmas, pairs_s) = tr.time("core.covariance.pairs", op, || {
        inp.centered.pair_covariances(&aug.pair_indices())
    });
    let (var, p1_s) = tr.time("core.variance.phase1", op, || {
        estimate_variances_from_sigmas(red, &aug, &sigmas, &VarianceConfig::default())
    });
    let Ok(var) = var else {
        verdict.record("staged phase 1", Err("staged Phase 1 failed".into()));
        return;
    };
    let (est, p2_s) = tr.time("core.lia.phase2", op, || {
        infer_link_rates(red, &var.v, &inp.y, &LiaConfig::default())
    });
    let Ok(est) = est else {
        verdict.record("staged phase 2", Err("staged Phase 2 failed".into()));
        return;
    };
    verdict.record(
        "staged ≡ estimate()",
        if bits(&var.v) == bits(&prod.diagnostics.variances)
            && bits(&est.transmission) == bits(&prod.estimate.transmission)
        {
            Ok(())
        } else {
            Err("staged Phase 1/2 outputs differ from estimate()".into())
        },
    );
    let staged_s = build_s + pairs_s + p1_s + p2_s;
    tr.count("core.estimator.unaccounted_ms", op, (op_s - staged_s) * 1e3);
}
