//! perfbench — the end-to-end benchmark of the losstomo service.
//!
//! ```text
//! perfbench --workload <ingest-planetlab|refresh-tree|batch-mesh>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! One run sets the workload up, drives it in a closed loop for
//! `--seconds`, checks the program's outputs, and prints one JSON
//! object as its last line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). `--self-check` runs a quick size of every
//! workload and shows that each correctness check rejects a corrupted
//! output. See `README.md` beside this file.

mod batch;
mod checks;
mod envelope;
mod ingest;
mod inputs;
mod refresh;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use trace::{median, quantile, Tracer};

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Workload seed: drives every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Reduced topologies and feeds (self-check only).
    pub quick: bool,
    /// How many times set-up runs (its median is `setup_s`).
    pub setup_reps: usize,
    /// Output to corrupt before the checks see it (self-check only).
    pub corrupt: Option<Corrupt>,
}

/// A deliberately corrupted output, to show the checks reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// One link variance shifted.
    Variance,
    /// One reported covariance shifted.
    Covariance,
    /// One link's rate moved without its congested set following.
    Congested,
    /// One demux rejection invented.
    Rejection,
    /// Diagnosed sets replaced by the complement of the truth.
    Location,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (counted in `attempted`).
    pub failed: u64,
    /// Correctness of the outputs of the operations that did not fail.
    pub verdict: checks::Verdict,
    /// Set-up durations, seconds.
    pub setups: Vec<f64>,
    /// Per-operation latencies of the successful operations, seconds.
    pub latencies: Vec<f64>,
    /// Snapshot rows one operation carries from input to result.
    pub rows_per_op: f64,
    /// Input sizes and run facts for the envelope.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    fn new(setups: Vec<f64>) -> Outcome {
        Outcome {
            setups,
            ..Outcome::default()
        }
    }

    fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["ingest-planetlab", "refresh-tree", "batch-mesh"];

/// Per-layer metrics printed by every traced run, with their units. A
/// layer a workload does not run reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.prepare_s", "s"),
    ("netsim.simulate_s", "s"),
    ("wire.encode_s", "s"),
    ("fleet.add_tenant_s", "s"),
    ("core.streaming.warmup_s", "s"),
    ("wire.parse_ms", "ms"),
    ("fleet.ingest_wire_batch_ms", "ms"),
    ("core.streaming.ingest_row_us", "us"),
    ("core.streaming.pair_updates_per_row", "count"),
    ("fleet.backpressure_drains", "count"),
    ("fleet.idle_wait_ms", "ms"),
    ("fleet.op_unaccounted_ms", "ms"),
    ("core.streaming.refresh_ms_p50", "ms"),
    ("core.streaming.refresh_ms_p90", "ms"),
    ("core.streaming.refresh_unaccounted_ms", "ms"),
    ("core.covariance.replay_ms", "ms"),
    ("core.variance.phase1_ms", "ms"),
    ("core.lia.phase2_ms", "ms"),
    ("core.streaming.estimate_ms", "ms"),
    ("fleet.query_ms", "ms"),
    ("core.streaming.kept_set_changes", "count"),
    ("topology.churn_apply_ms", "ms"),
    ("core.augmented.build_ms", "ms"),
    ("core.covariance.pairs_ms", "ms"),
    ("core.estimator.unaccounted_ms", "ms"),
    ("core.variance.dropped_rows", "count"),
    ("core.lia.kept_columns", "count"),
];

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn run_workload(name: &str, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    match name {
        "ingest-planetlab" => ingest::run(cfg, tr),
        "refresh-tree" => refresh::run(cfg, tr),
        "batch-mesh" => batch::run(cfg, tr),
        _ => unreachable!("workload names are checked before dispatch"),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let busy: f64 = out.latencies.iter().sum();
    let rows = out.rows_per_op * out.latencies.len() as f64;
    let ms: Vec<f64> = out.latencies.iter().map(|s| s * 1e3).collect();
    vec![
        ("setup_s", median(&out.setups), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "rows_per_s",
            if busy > 0.0 { rows / busy } else { 0.0 },
            "rows/s",
        ),
        ("latency_p50_ms", median(&ms), "ms"),
        ("latency_p90_ms", quantile(&ms, 0.9), "ms"),
    ]
}

/// Per-layer metrics from the traced run's spans and counts.
fn per_layer(out: &Outcome, tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let span_med = |name: &str| median(&tr.durations_ms(name, false));
    let count_med = |name: &str| median(&tr.counts(name));
    let count_sum = |name: &str| tr.counts(name).iter().fold(0.0, |a, b| a + b);
    let setup_s = |name: &str| {
        // Set-up spans carry operation id 0; every set-up records the
        // same spans, so report the per-set-up median like `setup_s`.
        let reps = out.setups.len().max(1);
        let d = tr.durations_ms(name, true);
        if d.is_empty() {
            return 0.0;
        }
        let per: Vec<f64> = d
            .chunks(d.len().div_ceil(reps).max(1))
            .map(|c| c.iter().sum::<f64>())
            .collect();
        median(&per) / 1e3
    };
    let refresh = tr.durations_ms("core.streaming.refresh", false);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "topology.prepare_s" => setup_s("topology.prepare"),
                "netsim.simulate_s" => setup_s("netsim.simulate"),
                "wire.encode_s" => setup_s("wire.encode"),
                "fleet.add_tenant_s" => setup_s("fleet.add_tenant"),
                "core.streaming.warmup_s" => setup_s("core.streaming.warmup"),
                "wire.parse_ms" => span_med("wire.parse"),
                "fleet.ingest_wire_batch_ms" => span_med("fleet.ingest_wire_batch"),
                "core.streaming.ingest_row_us" => span_med("core.streaming.ingest_row") * 1e3,
                "core.streaming.pair_updates_per_row" => count_med(name),
                "fleet.backpressure_drains" => count_sum(name),
                "fleet.idle_wait_ms" => count_med(name),
                "fleet.op_unaccounted_ms" => count_med(name),
                "core.streaming.refresh_ms_p50" => median(&refresh),
                "core.streaming.refresh_ms_p90" => quantile(&refresh, 0.9),
                "core.streaming.refresh_unaccounted_ms" => count_med(name),
                "core.covariance.replay_ms" => span_med("core.covariance.replay"),
                "core.variance.phase1_ms" => span_med("core.variance.phase1"),
                "core.lia.phase2_ms" => span_med("core.lia.phase2"),
                "core.streaming.estimate_ms" => span_med("core.streaming.estimate"),
                "fleet.query_ms" => span_med("fleet.query"),
                "core.streaming.kept_set_changes" => count_sum(name),
                "topology.churn_apply_ms" => span_med("topology.churn_apply"),
                "core.augmented.build_ms" => span_med("core.augmented.build"),
                "core.covariance.pairs_ms" => span_med("core.covariance.pairs"),
                "core.estimator.unaccounted_ms" => count_med(name),
                "core.variance.dropped_rows" => count_med(name),
                "core.lia.kept_columns" => count_med(name),
                _ => unreachable!("every per-layer metric has a source"),
            };
            (name, v, unit)
        })
        .collect()
}

fn result_line(out: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        out.verdict.ok() && out.attempted > 0,
        out.attempted,
        out.failed
    )
}

/// Quick sizes of every workload, clean and with each corrupted
/// output: the clean runs must pass every check, the corrupted ones
/// must be rejected.
fn self_check() -> bool {
    let cases: &[(&str, Option<Corrupt>)] = &[
        ("ingest-planetlab", None),
        ("ingest-planetlab", Some(Corrupt::Covariance)),
        ("ingest-planetlab", Some(Corrupt::Rejection)),
        ("refresh-tree", None),
        ("refresh-tree", Some(Corrupt::Variance)),
        ("refresh-tree", Some(Corrupt::Covariance)),
        ("refresh-tree", Some(Corrupt::Congested)),
        ("refresh-tree", Some(Corrupt::Location)),
        ("refresh-tree", Some(Corrupt::Rejection)),
        ("batch-mesh", None),
        ("batch-mesh", Some(Corrupt::Variance)),
        ("batch-mesh", Some(Corrupt::Congested)),
    ];
    let mut all_ok = true;
    for &(name, corrupt) in cases {
        for trace in [false, true] {
            if corrupt.is_some() && trace {
                continue;
            }
            let cfg = RunCfg {
                seed: 3,
                seconds: 1.0,
                quick: true,
                setup_reps: 1,
                corrupt,
            };
            let mut tr = Tracer::new(trace);
            let out = run_workload(name, &cfg, &mut tr);
            let want_ok = corrupt.is_none();
            let ok = out.verdict.ok() && out.failed == 0;
            let pass = ok == want_ok;
            all_ok &= pass;
            println!(
                "{} {name:<17} trace={} corrupt={:<10} attempted={:<4} failed={} checks={} {}",
                if pass { "ok  " } else { "FAIL" },
                u8::from(trace),
                corrupt.map_or("-".to_string(), |c| format!("{c:?}")),
                out.attempted,
                out.failed,
                out.verdict.checked,
                out.verdict.failure.as_deref().unwrap_or("")
            );
        }
    }
    all_ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    envelope::pin_knobs();
    if args.iter().any(|a| a == "--self-check") {
        let ok = self_check();
        println!("self-check: {}", if ok { "passed" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let workload = arg(&args, "--workload").unwrap_or_else(|| fail("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        fail(&format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail("--seed <n> is required"));
    let seconds: f64 = arg(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0)
        .unwrap_or_else(|| fail("--seconds <s> is required"));
    let trace = match arg(&args, "--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => fail(&format!("--trace takes 0 or 1, got {other:?}")),
    };
    let cfg = RunCfg {
        seed,
        seconds,
        quick: false,
        setup_reps: if workload == "refresh-tree" { 1 } else { 3 },
        corrupt: None,
    };
    let threads = envelope::cap_threads(&workload);
    let mut tr = Tracer::new(trace);
    let out = run_workload(&workload, &cfg, &mut tr);
    println!(
        "envelope {}",
        envelope::describe(&workload, &cfg, threads, trace, &out)
    );
    if let Some(f) = &out.verdict.failure {
        println!("check failed: {f}");
    }
    let dir = PathBuf::from(".perfbench_out");
    let metrics = if trace {
        let path = dir.join(format!("trace-{workload}-seed{seed}.jsonl"));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        per_layer(&out, &tr)
    } else {
        // Per-operation latencies, in order, for looking at drift
        // within a run.
        let ops: String = out
            .latencies
            .iter()
            .map(|s| format!("{:.3}\n", s * 1e3))
            .collect();
        let path = dir.join(format!("ops-{workload}-seed{seed}.txt"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, ops)) {
            eprintln!("could not write {}: {e}", path.display());
        }
        end_to_end(&out)
    };
    println!("{}", result_line(&out, &metrics));
}
