//! The pre-training loop, untraced through `SimclrTrainer::step` and
//! traced as the same step recomposed from the layer crates' public
//! calls with a span around each.

use std::time::Instant;

use cq_core::{nt_xent, Pipeline, SimclrTrainer};
use cq_data::Dataset;
use cq_models::Encoder;
use cq_nn::{ForwardCtx, NnError, Sgd, SgdConfig};
use cq_quant::QuantConfig;
use cq_tensor::CqRng;
use rand::SeedableRng;

use crate::spans::Tracer;
use crate::stats::{step_loss, Tally};
use crate::workload::Job;

/// What one pass of the training loop measured.
#[derive(Debug, Default)]
pub struct TrainLog {
    /// Per-step loss; `None` for a failed step.
    pub losses: Vec<Option<f32>>,
    /// Per-step wall time, milliseconds.
    pub step_ms: Vec<f64>,
    /// Wall time over all epochs, loader included, seconds.
    pub wall_s: f64,
    /// Two-view samples trained on.
    pub samples: usize,
    /// Steps attempted and failed.
    pub tally: Tally,
}

impl TrainLog {
    fn push(&mut self, r: &Result<Option<(f32, f32)>, NnError>, t0: Instant) {
        self.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let loss = step_loss(r);
        self.tally.record(loss.is_some());
        self.losses.push(loss);
    }

    /// Loss of the last step that succeeded.
    pub fn final_loss(&self) -> Option<f32> {
        self.losses.iter().rev().find_map(|l| *l)
    }

    /// Whether every successful step's loss lies in `(0, max]`.
    pub fn losses_in_range(&self, max: f32) -> bool {
        self.losses.iter().flatten().all(|&l| l > 0.0 && l <= max)
    }

    /// Whether two logs report bit-identical per-step losses.
    pub fn same_losses(&self, other: &TrainLog) -> bool {
        let bits = |l: &TrainLog| -> Vec<Option<u32>> {
            l.losses.iter().map(|x| x.map(f32::to_bits)).collect()
        };
        bits(self) == bits(other)
    }
}

/// A freshly initialised encoder for the job: the untraced trainer and
/// the traced recomposition start from this same state.
pub fn fresh_encoder(job: &Job) -> Result<Encoder, NnError> {
    Encoder::new(&job.enc_cfg, job.cfg.seed)
}

/// Runs `epochs` epochs through `SimclrTrainer::step`, stopping early
/// after `max_steps` steps, timing each step and the whole loop (loader
/// included).
pub fn run_untraced(
    job: &Job,
    train: &Dataset,
    trainer: &mut SimclrTrainer,
    epochs: usize,
    max_steps: usize,
) -> TrainLog {
    let mut loader = job.loader();
    let sched = job.schedule(loader.batches_per_epoch(train));
    let mut log = TrainLog::default();
    let mut step = 0;
    let start = Instant::now();
    for _ in 0..epochs {
        if step >= max_steps {
            break;
        }
        let batches = loader.epoch(train);
        for batch in batches.iter().take(max_steps - step) {
            let lr = sched.lr_at(step);
            let t0 = Instant::now();
            let r = trainer.step(batch, lr);
            log.push(&r, t0);
            step += 1;
        }
        log.samples += batches.len() * job.cfg.batch_size;
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log
}

/// Per-step counters read around each traced step.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepCounts {
    /// Steps counted.
    pub steps: u64,
    /// Pool dispatches (`cq_tensor::par::pool_stats().jobs` delta).
    pub pool_jobs: u64,
    /// Pool chunks executed.
    pub pool_chunks: u64,
    /// Allocation calls (`cq_obs::alloc::alloc_calls` delta).
    pub allocs: u64,
}

/// The recomposed step's own state: what `TrainLoop` keeps privately.
pub struct Recomposed {
    /// The encoder being trained.
    pub encoder: Encoder,
    opt: Sgd,
    rng: CqRng,
}

impl Recomposed {
    /// State equal to a fresh `SimclrTrainer` for the job: same encoder
    /// init, zero SGD velocity, engine RNG seeded from `cfg.seed`.
    pub fn new(job: &Job) -> Result<Recomposed, NnError> {
        let encoder = fresh_encoder(job)?;
        let opt = Sgd::new(
            encoder.params(),
            SgdConfig {
                lr: job.cfg.lr,
                momentum: job.cfg.momentum,
                weight_decay: job.cfg.weight_decay,
                nesterov: false,
            },
        );
        Ok(Recomposed {
            encoder,
            opt,
            rng: CqRng::seed_from_u64(job.cfg.seed),
        })
    }
}

/// Runs `epochs` epochs of the recomposed step under `tracer`, with a
/// `data.epoch` span per loader epoch and a `train.step` span per step
/// holding its layer spans.
pub fn run_traced(
    job: &Job,
    train: &Dataset,
    state: &mut Recomposed,
    epochs: usize,
    tracer: &mut Tracer,
    counts: &mut StepCounts,
) -> TrainLog {
    let mut loader = job.loader();
    let sched = job.schedule(loader.batches_per_epoch(train));
    let mut log = TrainLog::default();
    let mut step = 0;
    let start = Instant::now();
    for _ in 0..epochs {
        let g = tracer.next_group();
        let batches = tracer.time("data.epoch", g, || loader.epoch(train));
        for batch in &batches {
            let lr = sched.lr_at(step);
            let g = tracer.next_group();
            let t0 = Instant::now();
            let root = tracer.begin("train.step", g);
            let pool0 = cq_tensor::par::pool_stats();
            let alloc0 = cq_obs::alloc::alloc_calls().unwrap_or(0);
            let r = traced_step(job, state, batch, lr, tracer, g);
            let pool1 = cq_tensor::par::pool_stats();
            let alloc1 = cq_obs::alloc::alloc_calls().unwrap_or(0);
            tracer.end(root);
            log.push(&r, t0);
            counts.steps += 1;
            counts.pool_jobs += pool1.jobs - pool0.jobs;
            counts.pool_chunks += pool1.chunks - pool0.chunks;
            counts.allocs += alloc1 - alloc0;
            step += 1;
        }
        log.samples += batches.len() * job.cfg.batch_size;
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log
}

/// One SimCLR step of `job`'s pipeline, in the order `SimclrTrainer::step`
/// runs it: zero grads, precision draw, forwards, NT-Xent terms and
/// branch-gradient sums, backwards, then the explosion check and SGD.
/// Returns `Ok(None)` for a step skipped as exploded, as the trainer does.
fn traced_step(
    job: &Job,
    st: &mut Recomposed,
    batch: &cq_data::TwoViewBatch,
    lr: f32,
    tr: &mut Tracer,
    g: u64,
) -> Result<Option<(f32, f32)>, NnError> {
    let cfg = &job.cfg;
    let temp = cfg.temperature;
    let enc = &mut st.encoder;
    let mut gs = tr.time("nn.zero_grads", g, || enc.params().zero_grads());
    let loss = match cfg.pipeline {
        Pipeline::Baseline => {
            let ctx = ForwardCtx::train();
            let o1 = tr.time("models.fwd", g, || enc.forward(&batch.view1, &ctx))?;
            let o2 = tr.time("models.fwd", g, || enc.forward(&batch.view2, &ctx))?;
            let pl = tr.time("core.loss", g, || {
                nt_xent(&o1.projection, &o2.projection, temp)
            })?;
            tr.time("models.bwd", g, || {
                enc.backward_projection(&o1.trace, &pl.grad_a, &mut gs)
            })?;
            tr.time("models.bwd", g, || {
                enc.backward_projection(&o2.trace, &pl.grad_b, &mut gs)
            })?;
            pl.loss
        }
        Pipeline::CqC => {
            let set = cfg
                .precision_set
                .as_ref()
                .ok_or_else(|| NnError::Param("CQ-C needs a precision set".into()))?;
            let (q1, q2) = tr.time("quant.sample_pair", g, || set.sample_pair(&mut st.rng));
            let qctx = |p| {
                ForwardCtx::train().with_quant(QuantConfig::uniform(p).with_mode(cfg.quant_mode))
            };
            let (c1, c2) = (qctx(q1), qctx(q2));
            let f1 = tr.time("models.fwd", g, || enc.forward(&batch.view1, &c1))?;
            let f2 = tr.time("models.fwd", g, || enc.forward(&batch.view1, &c2))?;
            let f1p = tr.time("models.fwd", g, || enc.forward(&batch.view2, &c1))?;
            let f2p = tr.time("models.fwd", g, || enc.forward(&batch.view2, &c2))?;
            // Eq. 9: view terms plus cross-precision terms; each branch's
            // two gradients are summed before its single backward walk.
            let (loss, d) = tr.time("core.loss", g, || -> Result<_, NnError> {
                let t1 = nt_xent(&f1.projection, &f1p.projection, temp)?;
                let t2 = nt_xent(&f2.projection, &f2p.projection, temp)?;
                let t3 = nt_xent(&f1.projection, &f2.projection, temp)?;
                let t4 = nt_xent(&f1p.projection, &f2p.projection, temp)?;
                let d = [
                    t1.grad_a.add(&t3.grad_a)?,
                    t2.grad_a.add(&t3.grad_b)?,
                    t1.grad_b.add(&t4.grad_a)?,
                    t2.grad_b.add(&t4.grad_b)?,
                ];
                Ok((t1.loss + t2.loss + t3.loss + t4.loss, d))
            })?;
            for (f, dz) in [&f1, &f2, &f1p, &f2p].into_iter().zip(&d) {
                tr.time("models.bwd", g, || {
                    enc.backward_projection(&f.trace, dz, &mut gs)
                })?;
            }
            loss
        }
        other => {
            return Err(NnError::Param(format!(
                "pipeline {other} is not a benchmark workload"
            )))
        }
    };
    tr.time("nn.optim", g, || {
        let norm = gs.global_norm();
        if !loss.is_finite() || !gs.is_finite() || norm > cfg.explosion_threshold {
            return Ok(None);
        }
        st.opt.step(enc.params_mut(), &gs, lr)?;
        Ok(Some((loss, norm)))
    })
}
