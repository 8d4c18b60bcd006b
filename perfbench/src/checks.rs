//! Correctness checks, computed apart from the program.
//!
//! Every check reads only what a user of the service reads — congested
//! sets, link rates, variances, exact covariances, demux acks and stats
//! — and recomputes what it compares them against from the rows the
//! benchmark itself generated. None reads running state inside the
//! estimator.

use losstomo_core::AugmentedSystem;
use losstomo_fleet::{DemuxAck, DemuxHandle};

/// Pooled detection / false-positive tally (the paper's DR and FPR)
/// over many diagnosed sets.
#[derive(Debug, Default, Clone, Copy)]
pub struct Location {
    /// Truly congested links that were diagnosed congested.
    pub hits: u64,
    /// Truly congested links.
    pub truth: u64,
    /// Links diagnosed congested.
    pub diagnosed: u64,
}

impl Location {
    /// Adds one diagnosed set (`congested`, ascending link ids) against
    /// the links netsim drew congested.
    pub fn add(&mut self, truth: &[bool], congested: &[usize]) {
        self.truth += truth.iter().filter(|&&t| t).count() as u64;
        self.diagnosed += congested.len() as u64;
        self.hits += congested.iter().filter(|&&k| truth[k]).count() as u64;
    }

    /// Detection rate: share of truly congested links found.
    pub fn dr(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.hits as f64 / self.truth as f64
        }
    }

    /// False-positive rate: share of diagnosed links not congested.
    pub fn fpr(&self) -> f64 {
        if self.diagnosed == 0 {
            0.0
        } else {
            (self.diagnosed - self.hits) as f64 / self.diagnosed as f64
        }
    }

    /// Checks the pooled rates against a DR floor and an FPR ceiling.
    pub fn check(&self, dr_floor: f64, fpr_ceiling: f64) -> Result<(), String> {
        if self.truth == 0 {
            return Err("no congested link in any checked snapshot".into());
        }
        if self.dr() < dr_floor || self.fpr() > fpr_ceiling {
            return Err(format!(
                "DR {:.3} (floor {dr_floor}) / FPR {:.3} (ceiling {fpr_ceiling}) over {} congested links",
                self.dr(),
                self.fpr(),
                self.truth
            ));
        }
        Ok(())
    }
}

/// Two-pass sample covariance (`m − 1` denominator) of paths `i` and
/// `j` over `rows`: means first, then the centred cross products.
pub fn two_pass_cov(rows: &[&[f64]], i: usize, j: usize) -> f64 {
    let m = rows.len() as f64;
    let (mi, mj) = rows
        .iter()
        .fold((0.0, 0.0), |(a, b), r| (a + r[i], b + r[j]));
    let (mi, mj) = (mi / m, mj / m);
    rows.iter().map(|r| (r[i] - mi) * (r[j] - mj)).sum::<f64>() / (m - 1.0)
}

/// Two-pass covariances of every augmented pair over `rows`.
pub fn two_pass_all(rows: &[&[f64]], aug: &AugmentedSystem) -> Vec<f64> {
    let m = rows.len();
    let n = rows[0].len();
    let mut mean = vec![0.0; n];
    for r in rows {
        for (acc, v) in mean.iter_mut().zip(r.iter()) {
            *acc += v;
        }
    }
    for v in &mut mean {
        *v /= m as f64;
    }
    // Path-major centred deviations, so each pair is one dot product.
    let mut dev = vec![0.0; n * m];
    for (t, r) in rows.iter().enumerate() {
        for i in 0..n {
            dev[i * m + t] = r[i] - mean[i];
        }
    }
    aug.iter()
        .map(|((a, b), _)| {
            let (a, b) = (a.0 as usize, b.0 as usize);
            let da = &dev[a * m..(a + 1) * m];
            let db = &dev[b * m..(b + 1) * m];
            da.iter().zip(db).map(|(x, y)| x * y).sum::<f64>() / (m as f64 - 1.0)
        })
        .collect()
}

/// Compares reported covariances against the two-pass values for
/// `sample` pair indices: `|reported − two-pass| ≤ 1e-9 · √(σ_ii σ_jj)`.
pub fn check_covariances(
    rows: &[&[f64]],
    pairs: &[(usize, usize)],
    reported: &[f64],
    sample: &[usize],
) -> Result<(), String> {
    for &r in sample {
        let (i, j) = pairs[r];
        let want = two_pass_cov(rows, i, j);
        let scale = (two_pass_cov(rows, i, i) * two_pass_cov(rows, j, j)).sqrt();
        let tol = 1e-9 * scale.max(1e-300);
        if (reported[r] - want).abs() > tol {
            return Err(format!(
                "pair {r} ({i},{j}): reported covariance {:e}, two-pass {want:e}",
                reported[r]
            ));
        }
    }
    Ok(())
}

/// Relative tolerance of the Phase-1 normal-equation residual check.
pub const PHASE1_RESIDUAL_TOL: f64 = 1e-6;

/// The Phase-1 normal-equation residual `‖Aᵀ(Σ* − A v)‖∞ / ‖AᵀΣ*‖∞`
/// over the rows Phase 1 used, recomputed from the augmented rows.
/// `used_rows` is what the estimate reports: all rows (the paper's
/// all-rows fallback) or the rows with non-negative covariance.
pub fn phase1_residual(
    aug: &AugmentedSystem,
    sigmas: &[f64],
    v: &[f64],
    used_rows: usize,
) -> Result<f64, String> {
    let all = used_rows == aug.num_rows();
    let mut resid = vec![0.0; v.len()];
    let mut atb = vec![0.0; v.len()];
    let mut used = 0usize;
    for ((_, links), &s) in aug.iter().zip(sigmas) {
        if !all && s < 0.0 {
            continue;
        }
        used += 1;
        let e = s - links.iter().map(|&k| v[k]).sum::<f64>();
        for &k in links {
            resid[k] += e;
            atb[k] += s;
        }
    }
    if used != used_rows {
        return Err(format!(
            "estimate reports {used_rows} Phase-1 rows, the two-pass covariances keep {used}"
        ));
    }
    let max = |x: &[f64]| x.iter().fold(0.0f64, |m, &a| m.max(a.abs()));
    Ok(max(&resid) / max(&atb).max(1e-300))
}

/// [`phase1_residual`] against [`PHASE1_RESIDUAL_TOL`].
pub fn check_phase1(
    aug: &AugmentedSystem,
    sigmas: &[f64],
    v: &[f64],
    used_rows: usize,
) -> Result<(), String> {
    let r = phase1_residual(aug, sigmas, v, used_rows)?;
    if r > PHASE1_RESIDUAL_TOL {
        return Err(format!(
            "Phase-1 normal-equation residual {r:e} exceeds {PHASE1_RESIDUAL_TOL:e}"
        ));
    }
    Ok(())
}

/// Link rates must be transmission probabilities, and a link reported
/// congested must have loss above the threshold.
pub fn check_rates(
    transmission: &[f64],
    congested: &[usize],
    threshold: f64,
) -> Result<(), String> {
    if let Some(k) = transmission
        .iter()
        .position(|t| !(t.is_finite() && (0.0..=1.0).contains(t)))
    {
        return Err(format!(
            "link {k} has transmission rate {}",
            transmission[k]
        ));
    }
    let from_rates: Vec<usize> = (0..transmission.len())
        .filter(|&k| 1.0 - transmission[k] > threshold)
        .collect();
    if from_rates != congested {
        return Err("congested set disagrees with the link rates".into());
    }
    Ok(())
}

/// The accounting identity of the service edge: every row sent was
/// either accepted or rejected, and none was rejected.
pub fn check_accounting(sent: u64, accepted: u64, rejected: u64) -> Result<(), String> {
    if sent != accepted + rejected {
        return Err(format!(
            "sent {sent} rows, demux accounted {accepted} accepted + {rejected} rejected"
        ));
    }
    if rejected != 0 {
        return Err(format!("{rejected} of {sent} rows rejected"));
    }
    Ok(())
}

/// Rejections carried by one demux acknowledgement (a malformed batch
/// counts as one).
pub fn ack_rejections(ack: &DemuxAck) -> u64 {
    match ack {
        DemuxAck::Frame { rejections, .. } => rejections.len() as u64,
        DemuxAck::MalformedBatch { .. } => 1,
    }
}

/// Drains the pending demux acknowledgements; returns their rejections.
pub fn poll_rejections(demux: &DemuxHandle) -> u64 {
    let mut rejected = 0;
    while let Some(ack) = demux.try_ack() {
        rejected += ack_rejections(&ack);
    }
    rejected
}

/// The bit patterns of `v`, for exact comparisons.
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Collects the first failure of many checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Checks run.
    pub checked: usize,
    /// The first failure, if any.
    pub failure: Option<String>,
}

impl Verdict {
    /// Records one check's outcome.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = outcome {
            if self.failure.is_none() {
                self.failure = Some(format!("{what}: {e}"));
            }
        }
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}
