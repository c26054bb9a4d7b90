//! End-to-end and per-layer benchmark of the paper's pre-training step
//! and its int8 deployment.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and reports
//! the end-to-end metrics; with `--trace 1` it runs the same work
//! untraced and then traced, checks both agree, and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it carries the run manifest and the figures
//! that are not metrics. See `perfbench/README.md`.

mod infer;
mod pretrain;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use cq_core::SimclrTrainer;
use cq_data::Dataset;
use cq_infer::IntEncoder;
use cq_models::plan::{backbone_plan, encoder_plan};
use cq_models::Encoder;
use cq_nn::NnError;

use crate::infer::{EvalSet, InferLog, Parity};
use crate::pretrain::{Recomposed, StepCounts, TrainLog};
use crate::spans::Tracer;
use crate::stats::{median, tail, Tally};
use crate::workload::{Job, Kind, Workload, EVAL_BATCH, WORKLOADS};

#[global_allocator]
static ALLOC: cq_obs::alloc::CountingAlloc = cq_obs::alloc::CountingAlloc::system();

/// Set-ups per untraced run, each in a fresh process so that each pays
/// the one-time costs (pool spawn, allocator growth); `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;

/// Passes over the test split in a pre-training workload's traced
/// deployment probe.
const PROBE_PASSES: usize = 2;

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set the workload up, print the seconds it took and exit: how the
    /// run times its cold set-ups in child processes.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&v).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{v}` (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(num(&v)?),
            "--seconds" => seconds = Some(num(&v)?.max(1)),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{v}`")),
                })
            }
            "--setup-only" => {
                setup_only = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--setup-only: expected 0 or 1, got `{v}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run prints: its metrics, its output checks, and the figures
/// that are not metrics.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
    details: Vec<(&'static str, String)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Default runtime settings, and the workload's pool size. The pool
    // reads CQ_THREADS once, at its first use, which is after this.
    std::env::set_var("CQ_THREADS", args.workload.threads.to_string());
    std::env::remove_var("CQ_OBS");
    std::env::remove_var("CQ_FUSION");

    let job = Job::new(args.workload, args.seed);
    if args.setup_only {
        match setup_seconds(&job) {
            Ok(secs) => println!("{secs}"),
            Err(e) => {
                eprintln!("perfbench: {} set-up: {e}", args.workload.name);
                std::process::exit(1);
            }
        }
        return;
    }
    let run = match (args.workload.kind, args.trace) {
        (Kind::Pretrain, false) => pretrain_e2e(&args, &job),
        (Kind::Pretrain, true) => pretrain_layers(&job, args.seconds),
        (Kind::Infer, false) => infer_e2e(&args, &job),
        (Kind::Infer, true) => infer_layers(&job, args.seconds),
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            std::process::exit(1);
        }
    };
    println!("{}", details_line(&args, &job, &report));
    println!("{}", result_line(&report));
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A pre-training workload after set-up: data generated, trainer built,
/// warm-up paid.
struct PretrainReady {
    train: Dataset,
    test: Dataset,
    trainer: SimclrTrainer,
}

/// Generates the data, builds the trainer, and runs one step of a
/// throwaway trainer of the same shapes on its own seed, so pool spawn
/// and allocator growth are paid before timing without touching the
/// timed trajectory.
fn pretrain_setup(job: &Job) -> Result<PretrainReady, NnError> {
    let (train, test) = job.datasets();
    let trainer = SimclrTrainer::new(pretrain::fresh_encoder(job)?, job.cfg.clone())?;
    let mut warm_cfg = job.cfg.clone();
    warm_cfg.seed ^= 0x5EED_5EED;
    let mut warm = SimclrTrainer::new(Encoder::new(&job.enc_cfg, warm_cfg.seed)?, warm_cfg)?;
    let batch = job
        .loader()
        .make_batch(&train, &(0..job.cfg.batch_size).collect::<Vec<_>>());
    warm.step(&batch, job.cfg.lr)?;
    Ok(PretrainReady {
        train,
        test,
        trainer,
    })
}

/// The infer workload after set-up: the 1-epoch SimCLR pretrain done,
/// converted to int8, both arms warmed on one batch.
struct InferReady {
    pretrain: TrainLog,
    encoder: Encoder,
    int: IntEncoder,
    set: EvalSet,
    train: Dataset,
    convert_ms: f64,
}

fn infer_setup(job: &Job) -> Result<InferReady, NnError> {
    let (train, test) = job.datasets();
    let mut trainer = SimclrTrainer::new(pretrain::fresh_encoder(job)?, job.cfg.clone())?;
    let log = pretrain::run_untraced(job, &train, &mut trainer, job.cfg.epochs, usize::MAX);
    let mut encoder = trainer.into_encoder();
    let t0 = Instant::now();
    let int = IntEncoder::from_encoder(&encoder).map_err(infer_err)?;
    let convert_ms = t0.elapsed().as_secs_f64() * 1e3;
    let set = EvalSet::new(&test, EVAL_BATCH)?;
    let warm = EvalSet {
        batches: set.batches[..1].to_vec(),
    };
    infer::run(&mut encoder, &int, &warm, 1, &mut Tracer::off());
    Ok(InferReady {
        pretrain: log,
        encoder,
        int,
        set,
        train,
        convert_ms,
    })
}

fn infer_err(e: cq_infer::InferError) -> NnError {
    NnError::Param(format!("int8 conversion: {e}"))
}

/// Seconds one set-up of `job` takes; the set-up is dropped.
fn setup_seconds(job: &Job) -> Result<f64, NnError> {
    let t0 = Instant::now();
    match job.workload.kind {
        Kind::Pretrain => drop(pretrain_setup(job)?),
        Kind::Infer => drop(infer_setup(job)?),
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Times `SETUP_REPS` cold set-ups: `SETUP_REPS - 1` in child processes
/// of this binary (`--setup-only 1`), one after another, then this
/// process's own, which it returns with the median and every sample in
/// seconds.
fn timed_setups<T>(
    args: &Args,
    setup: impl Fn() -> Result<T, NnError>,
) -> Result<(T, f64, Vec<f64>), NnError> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        secs.push(child_setup_seconds(args)?);
    }
    let t0 = Instant::now();
    let ready = setup()?;
    secs.push(t0.elapsed().as_secs_f64());
    Ok((ready, median(&secs), secs))
}

/// Runs one `--setup-only` child to completion and reads its seconds.
fn child_setup_seconds(args: &Args) -> Result<f64, NnError> {
    let fail = |why: String| NnError::Param(format!("set-up child: {why}"));
    let exe = std::env::current_exe().map_err(|e| fail(e.to_string()))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-only", "1"])
        .output()
        .map_err(|e| fail(e.to_string()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(fail(format!(
            "{}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))),
    }
}

// ---------------------------------------------------------------------
// Untraced runs: end-to-end metrics
// ---------------------------------------------------------------------

fn peak_rss_mb() -> Result<f64, NnError> {
    cq_obs::alloc::peak_rss_kb()
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| NnError::Param("peak RSS needs /proc/self/status".into()))
}

fn latency_metrics(
    samples_ms: &[f64],
    details: &mut Vec<(&'static str, String)>,
) -> Result<[Metric; 2], NnError> {
    let t = tail(samples_ms).ok_or_else(|| {
        NnError::Param(format!(
            "{} latency samples are too few for a tail percentile",
            samples_ms.len()
        ))
    })?;
    details.push(("step_ms_tail_pct", format!("{:.1}", t.pct)));
    details.push(("step_samples", t.n.to_string()));
    Ok([
        ("step_ms_p50", median(samples_ms), "ms"),
        ("step_ms_tail", t.value, "ms"),
    ])
}

fn pretrain_e2e(args: &Args, job: &Job) -> Result<Report, NnError> {
    let (mut ready, setup_s, setup_all) = timed_setups(args, || pretrain_setup(job))?;
    let epochs = job.workload.units(args.seconds);
    let log = pretrain::run_untraced(job, &ready.train, &mut ready.trainer, epochs, usize::MAX);

    // Output checks: losses in NT-Xent's range, and the first step
    // replays bit-identically on a fresh trainer.
    let mut fresh = SimclrTrainer::new(pretrain::fresh_encoder(job)?, job.cfg.clone())?;
    let replay = pretrain::run_untraced(job, &ready.train, &mut fresh, 1, 1);
    let replay_ok = matches!(
        (replay.losses.first(), log.losses.first()),
        (Some(Some(a)), Some(Some(b))) if a.to_bits() == b.to_bits()
    );
    let range_ok = log.losses_in_range(job.max_loss());

    let mut details = vec![
        ("epochs", epochs.to_string()),
        ("steps", log.losses.len().to_string()),
        ("setup_s_samples", fmt_list(&setup_all)),
        ("first_step_replay_bitwise", replay_ok.to_string()),
        ("losses_in_range", range_ok.to_string()),
        ("fail_rate", log.tally.fail_rate().to_string()),
    ];
    let [p50, p_tail] = latency_metrics(&log.step_ms, &mut details)?;
    Ok(Report {
        correct: replay_ok && range_ok,
        tally: log.tally,
        metrics: vec![
            ("imgs_per_s", log.samples as f64 / log.wall_s, "1/s"),
            p50,
            p_tail,
            (
                "final_loss",
                f64::from(log.final_loss().unwrap_or(f32::NAN)),
                "nat",
            ),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("setup_s", setup_s, "s"),
        ],
        details,
    })
}

fn infer_e2e(args: &Args, job: &Job) -> Result<Report, NnError> {
    let (mut ready, setup_s, setup_all) = timed_setups(args, || infer_setup(job))?;
    let passes = job.workload.units(args.seconds);
    let log = infer::run(
        &mut ready.encoder,
        &ready.int,
        &ready.set,
        passes,
        &mut Tracer::off(),
    );
    let (parity, mut tally) = check_parity(&mut ready, &log, job.cfg.seed)?;
    let range_ok = ready.pretrain.losses_in_range(job.max_loss());
    tally.merge(ready.pretrain.tally);

    let int8_s: f64 = log.int8_ms.iter().sum::<f64>() / 1e3;
    let f32_s: f64 = log.f32_ms.iter().sum::<f64>() / 1e3;
    let int8_ips = log.images as f64 / int8_s;
    let f32_ips = log.images as f64 / f32_s;
    let mut details = vec![
        ("passes", passes.to_string()),
        ("setup_s_samples", fmt_list(&setup_all)),
        ("f32_eval_imgs_per_s", format!("{f32_ips:.3}")),
        ("int8_over_f32", format!("{:.4}", int8_ips / f32_ips)),
        ("f32_over_int8", format!("{:.4}", f32_ips / int8_ips)),
        ("convert_ms", format!("{:.3}", ready.convert_ms)),
        ("losses_in_range", range_ok.to_string()),
        ("fail_rate", tally.fail_rate().to_string()),
    ];
    push_parity(&mut details, parity);
    let [p50, p_tail] = latency_metrics(&log.int8_ms, &mut details)?;
    Ok(Report {
        correct: parity.is_some_and(|p| p.pass()) && range_ok,
        tally,
        metrics: vec![
            ("imgs_per_s", int8_ips, "1/s"),
            p50,
            p_tail,
            (
                "final_loss",
                f64::from(ready.pretrain.final_loss().unwrap_or(f32::NAN)),
                "nat",
            ),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
            ("setup_s", setup_s, "s"),
        ],
        details,
    })
}

/// Parity of the run's int8 output and the deployment loop's tally, in
/// which a parity miss fails every int8 batch.
fn check_parity(
    ready: &mut InferReady,
    log: &InferLog,
    seed: u64,
) -> Result<(Option<Parity>, Tally), NnError> {
    let parity = infer::parity(&mut ready.encoder, &ready.int, &ready.set, log, seed)?;
    let mut int8 = log.int8_tally;
    if !parity.is_some_and(|p| p.pass()) {
        int8.failed = int8.attempted;
    }
    let mut tally = log.f32_tally;
    tally.merge(int8);
    Ok((parity, tally))
}

fn push_parity(details: &mut Vec<(&'static str, String)>, parity: Option<Parity>) {
    let p = parity.map_or([f32::NAN; 4], |p| {
        [
            p.split_knn_agreement,
            p.split_rel_err,
            p.clustered_knn_agreement,
            p.clustered_rel_err,
        ]
    });
    details.push(("int8_knn_agreement", format!("{:.4}", p[0])));
    details.push(("int8_rel_err", format!("{:.4}", p[1])));
    details.push(("int8_clustered_knn_agreement", format!("{:.4}", p[2])));
    details.push(("int8_clustered_rel_err", format!("{:.4}", p[3])));
    details.push(("parity_pass", parity.is_some_and(|p| p.pass()).to_string()));
}

// ---------------------------------------------------------------------
// Traced runs: per-layer metrics
// ---------------------------------------------------------------------

/// Per-layer metrics from one tracer's spans and the traced steps'
/// counters.
fn layer_metrics(
    job: &Job,
    tracer: &Tracer,
    counts: StepCounts,
    overhead_pct: f64,
    coverage: f64,
    convert_ms: f64,
) -> Result<Vec<Metric>, NnError> {
    let by = spans::by_name(tracer.spans());
    let stat = |n: &str| by.get(n).copied().unwrap_or_default();
    let steps = counts.steps.max(1) as f64;
    let per_step = |n: &str| stat(n).total_ns as f64 / steps / 1e6;
    let spec = |e: cq_nn::spec::SpecError| NnError::Param(e.to_string());
    let fwd_flops = encoder_plan(&job.enc_cfg)
        .map_err(spec)?
        .0
        .flops(&job.train_input())
        .map_err(spec)? as f64;
    let s = job.proto.data.image_size;
    let eval_flops = backbone_plan(job.enc_cfg.arch, job.enc_cfg.width)
        .map_err(spec)?
        .0
        .flops(&[EVAL_BATCH, 3, s, s])
        .map_err(spec)? as f64;
    let gflops = |flops: f64, ms: f64| flops / (ms * 1e-3) / 1e9;
    let (fwd, bwd) = (stat("models.fwd"), stat("models.bwd"));
    let int8 = stat("infer.int8_fwd");
    Ok(vec![
        ("data.epoch_ms", stat("data.epoch").mean_ms(), "ms"),
        ("models.fwd_ms", fwd.mean_ms(), "ms"),
        ("models.bwd_ms", bwd.mean_ms(), "ms"),
        (
            "models.fwd_calls_per_step",
            fwd.count as f64 / steps,
            "count",
        ),
        (
            "models.fwd_gflops",
            gflops(fwd_flops, fwd.mean_ms()),
            "GFLOP/s",
        ),
        (
            "models.bwd_gflops",
            gflops(2.0 * fwd_flops, bwd.mean_ms()),
            "GFLOP/s",
        ),
        ("core.loss_ms", per_step("core.loss"), "ms"),
        ("nn.optim_ms", per_step("nn.optim"), "ms"),
        (
            "tensor.pool_jobs_per_step",
            counts.pool_jobs as f64 / steps,
            "count",
        ),
        (
            "tensor.pool_chunks_per_step",
            counts.pool_chunks as f64 / steps,
            "count",
        ),
        ("mem.allocs_per_step", counts.allocs as f64 / steps, "count"),
        (
            "models.eval_fwd_ms",
            stat("models.eval_fwd").mean_ms(),
            "ms",
        ),
        ("infer.int8_fwd_ms", int8.mean_ms(), "ms"),
        (
            "infer.int8_gops",
            gflops(eval_flops, int8.mean_ms()),
            "GOP/s",
        ),
        ("infer.convert_ms", convert_ms, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
        ("trace.coverage", coverage, "share"),
    ])
}

fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    100.0 * (traced_s / untraced_s - 1.0)
}

fn pretrain_layers(job: &Job, seconds: u64) -> Result<Report, NnError> {
    let mut ready = pretrain_setup(job)?;
    // Untraced, then traced, over the same half-length run, so the
    // traced run costs what an untraced one does.
    let epochs = job.workload.units(seconds).div_ceil(2).max(1);
    let plain = pretrain::run_untraced(job, &ready.train, &mut ready.trainer, epochs, usize::MAX);
    drop(ready.trainer);
    let mut tracer = Tracer::new();
    let mut counts = StepCounts::default();
    let mut state = Recomposed::new(job)?;
    let traced = pretrain::run_traced(
        job,
        &ready.train,
        &mut state,
        epochs,
        &mut tracer,
        &mut counts,
    );
    let coverage = spans::coverage(tracer.spans(), "train.step");
    let bitwise = traced.same_losses(&plain);
    let range_ok = traced.losses_in_range(job.max_loss());

    // Deployment probe on the trained encoder, for the layers only the
    // infer path runs.
    let g = tracer.next_group();
    let t0 = Instant::now();
    let int = tracer
        .time("infer.convert", g, || {
            IntEncoder::from_encoder(&state.encoder)
        })
        .map_err(infer_err)?;
    let convert_ms = t0.elapsed().as_secs_f64() * 1e3;
    let set = EvalSet::new(&ready.test, EVAL_BATCH)?;
    let probe = infer::run(&mut state.encoder, &int, &set, PROBE_PASSES, &mut tracer);

    let metrics = layer_metrics(
        job,
        &tracer,
        counts,
        overhead_pct(plain.wall_s, traced.wall_s),
        coverage,
        convert_ms,
    )?;
    let mut tally = traced.tally;
    tally.merge(probe.f32_tally);
    tally.merge(probe.int8_tally);
    let details = vec![
        ("epochs", epochs.to_string()),
        ("steps", traced.losses.len().to_string()),
        ("traced_losses_bitwise", bitwise.to_string()),
        ("losses_in_range", range_ok.to_string()),
        ("bwd_flops_convention", "2x forward".to_string()),
        ("fail_rate", tally.fail_rate().to_string()),
        ("spans_file", write_spans(job, &tracer)),
    ];
    Ok(Report {
        correct: bitwise && range_ok,
        tally,
        metrics,
        details,
    })
}

fn infer_layers(job: &Job, seconds: u64) -> Result<Report, NnError> {
    let mut ready = infer_setup(job)?;
    let mut tracer = Tracer::new();
    let mut counts = StepCounts::default();
    let mut state = Recomposed::new(job)?;
    let traced_pre = pretrain::run_traced(
        job,
        &ready.train,
        &mut state,
        job.cfg.epochs,
        &mut tracer,
        &mut counts,
    );
    let bitwise = traced_pre.same_losses(&ready.pretrain);
    let range_ok = traced_pre.losses_in_range(job.max_loss());

    let passes = job.workload.units(seconds).div_ceil(2).max(1);
    let plain = infer::run(
        &mut ready.encoder,
        &ready.int,
        &ready.set,
        passes,
        &mut Tracer::off(),
    );
    let traced = infer::run(
        &mut ready.encoder,
        &ready.int,
        &ready.set,
        passes,
        &mut tracer,
    );
    let coverage = spans::coverage(tracer.spans(), "infer.batch");
    let (parity, mut tally) = check_parity(&mut ready, &traced, job.cfg.seed)?;
    tally.merge(traced_pre.tally);

    let metrics = layer_metrics(
        job,
        &tracer,
        counts,
        overhead_pct(plain.wall_s, traced.wall_s),
        coverage,
        ready.convert_ms,
    )?;
    let mut details = vec![
        ("passes", passes.to_string()),
        ("traced_losses_bitwise", bitwise.to_string()),
        ("losses_in_range", range_ok.to_string()),
        ("bwd_flops_convention", "2x forward".to_string()),
        ("fail_rate", tally.fail_rate().to_string()),
        ("spans_file", write_spans(job, &tracer)),
    ];
    push_parity(&mut details, parity);
    Ok(Report {
        correct: bitwise && range_ok && parity.is_some_and(|p| p.pass()),
        tally,
        metrics,
        details,
    })
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// Writes the spans as JSON lines under the build directory
/// (`CARGO_TARGET_DIR`, else `perfbench/target`), returning the path or
/// the reason it was not written.
fn write_spans(job: &Job, tracer: &Tracer) -> String {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-spans");
    let path = dir.join(format!("{}-seed{}.jsonl", job.workload.name, job.cfg.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("not written: {e}"),
    }
}

fn fmt_list(xs: &[f64]) -> String {
    let v: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    v.join(" ")
}

/// JSON string escaping for the few free-text fields.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite number as JSON; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// First `model name` of /proc/cpuinfo, as the kernels bench records it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The line before the result: run manifest (machine fingerprint, git
/// revision, workload configuration, seed) and the run's other figures.
fn details_line(args: &Args, job: &Job, report: &Report) -> String {
    let w = job.workload;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut s = String::from("{\"manifest\": {");
    let _ = write!(
        s,
        "\"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpu\": \"{}\", \"threads\": {threads}, \
         \"threads_effective\": {}, \"simd\": \"{}\"}}, ",
        std::env::consts::OS,
        std::env::consts::ARCH,
        esc(&cpu_model()),
        cq_tensor::par::num_threads(),
        cq_tensor::gemm::simd_level_name(),
    );
    let _ = write!(s, "\"git_revision\": \"{}\", ", esc(&git_revision()));
    let _ = write!(
        s,
        "\"workload\": {{\"name\": \"{}\", \"arch\": \"{:?}\", \"width\": {}, \"pipeline\": \"{}\", \
         \"precisions\": \"{}\", \"dataset\": \"{}\", \"train_images\": {}, \"test_images\": {}, \
         \"image_size\": {}, \"batch\": {}, \"pretrain_epochs\": {}, \"cq_threads\": {}}}, ",
        w.name,
        w.arch,
        job.enc_cfg.width,
        job.cfg.pipeline,
        w.precisions.map_or("none".into(), |(lo, hi)| format!("{lo}-{hi}")),
        esc(&job.proto.data.name),
        job.proto.data.train_size,
        job.proto.data.test_size,
        job.proto.data.image_size,
        job.cfg.batch_size,
        job.cfg.epochs,
        w.threads,
    );
    let _ = write!(
        s,
        "\"seed\": {}, \"seconds\": {}, \"trace\": {}}}, \"details\": {{",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let fields: Vec<String> = report
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect();
    s.push_str(&fields.join(", "));
    s.push_str("}}");
    s
}

/// The result object the driver reads from the last line.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}
