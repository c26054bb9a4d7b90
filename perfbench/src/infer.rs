//! The deployment loop: the test split through the f32 eval path and the
//! int8 program, batch by batch with the arms interleaved.

use std::time::Instant;

use cq_bench::parity::{
    clustered_batch, feature_parity, KNN_AGREEMENT_MIN, PARITY_CLUSTERS, PARITY_PER_CLUSTER,
    REL_ERR_MAX,
};
use cq_data::Dataset;
use cq_infer::IntEncoder;
use cq_models::Encoder;
use cq_nn::{ForwardCtx, NnError};
use cq_quant::{Precision, QuantConfig, QuantMode};
use cq_tensor::Tensor;

use crate::spans::Tracer;
use crate::stats::Tally;

/// The test split snapped to the 8-bit grid as a deployment camera would
/// deliver it, cut into equal batches.
pub struct EvalSet {
    /// `(images, labels)` per batch.
    pub batches: Vec<(Tensor, Vec<usize>)>,
}

impl EvalSet {
    /// Snaps the whole split at once (one range, as `pilot --infer`
    /// does), then cuts it into batches of `batch` images.
    pub fn new(test: &Dataset, batch: usize) -> Result<EvalSet, NnError> {
        let idx: Vec<usize> = (0..test.len()).collect();
        let (x, labels) = test.batch(&idx);
        let dims = x.dims().to_vec();
        let mut pixels = x.into_vec();
        cq_quant::fake_quant_into(&mut pixels, Precision::Bits(8), QuantMode::Round);
        let per = dims[1..].iter().product::<usize>();
        let mut batches = Vec::new();
        for (i, chunk) in pixels.chunks(batch * per).enumerate() {
            let n = chunk.len() / per;
            let mut d = dims.clone();
            d[0] = n;
            let l = labels[i * batch..i * batch + n].to_vec();
            batches.push((Tensor::from_vec(chunk.to_vec(), &d)?, l));
        }
        Ok(EvalSet { batches })
    }

    /// Images in one pass over the split.
    pub fn images(&self) -> usize {
        self.batches.iter().map(|(x, _)| x.dims()[0]).sum()
    }
}

/// What the deployment loop measured.
#[derive(Debug, Default)]
pub struct InferLog {
    /// Per-batch f32 eval forward times, milliseconds.
    pub f32_ms: Vec<f64>,
    /// Per-batch int8 forward times, milliseconds.
    pub int8_ms: Vec<f64>,
    /// Images per arm.
    pub images: usize,
    /// Wall time over all passes, both arms, seconds.
    pub wall_s: f64,
    /// f32 batch forwards attempted and failed.
    pub f32_tally: Tally,
    /// Int8 batch forwards attempted and failed.
    pub int8_tally: Tally,
    /// Int8 features of the last pass, one tensor per batch.
    pub int8_features: Vec<Tensor>,
}

/// Runs `passes` passes over `set`. Each batch runs the f32 arm, then the
/// int8 arm, inside an `infer.batch` span, so the arms strictly alternate
/// and every call of an arm follows a call of the other. (Letting either
/// arm go first made an arm sometimes follow itself, which split its
/// latencies into two modes the median jumped between.)
pub fn run(
    enc: &mut Encoder,
    int: &IntEncoder,
    set: &EvalSet,
    passes: usize,
    tr: &mut Tracer,
) -> InferLog {
    let eval = ForwardCtx::eval();
    let mut log = InferLog::default();
    let start = Instant::now();
    for pass in 0..passes {
        let last = pass + 1 == passes;
        for (x, _) in &set.batches {
            let g = tr.next_group();
            let root = tr.begin("infer.batch", g);
            let t0 = Instant::now();
            let r = tr.time("models.eval_fwd", g, || enc.features(x, &eval));
            log.f32_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.f32_tally
                .record(r.as_ref().is_ok_and(Tensor::is_finite));
            let t0 = Instant::now();
            let r = tr.time("infer.int8_fwd", g, || int.features(x));
            log.int8_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.int8_tally
                .record(r.as_ref().is_ok_and(Tensor::is_finite));
            if let (true, Ok(h)) = (last, r) {
                log.int8_features.push(h);
            }
            tr.end(root);
        }
        log.images += set.images();
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log
}

/// Int8-vs-fake-quant parity: on the run's own output (the test split)
/// and on the parity harness's clustered batch.
#[derive(Debug, Clone, Copy)]
pub struct Parity {
    /// Relative max-abs feature error on the test split.
    pub split_rel_err: f32,
    /// Leave-one-out 1-NN agreement on the test split (reported, not
    /// gated: see [`Parity::pass`]).
    pub split_knn_agreement: f32,
    /// Relative max-abs feature error on the clustered batch.
    pub clustered_rel_err: f32,
    /// Leave-one-out 1-NN agreement on the clustered batch.
    pub clustered_knn_agreement: f32,
}

impl Parity {
    /// Whether parity meets the harness's public bars: the error bar on
    /// both inputs, the agreement bar on the clustered batch it was set
    /// for. On the test split 1-NN agreement of a 1-epoch encoder is
    /// chaotic: even the f32 path and its own 8-bit fake-quant agree on
    /// only 79-92% of neighbours across seeds, so a few flips there say
    /// nothing about the int8 program.
    pub fn pass(&self) -> bool {
        self.split_rel_err <= REL_ERR_MAX
            && self.clustered_rel_err <= REL_ERR_MAX
            && self.clustered_knn_agreement >= KNN_AGREEMENT_MIN
    }
}

/// Compares int8 features against the 8-bit fake-quant f32 reference:
/// `log`'s last-pass features on the same test batches, and a fresh pass
/// over the clustered batch `cq_bench::parity` builds from `seed`.
/// `None` when a batch's int8 forward failed, so there is nothing to
/// compare.
pub fn parity(
    enc: &mut Encoder,
    int: &IntEncoder,
    set: &EvalSet,
    log: &InferLog,
    seed: u64,
) -> Result<Option<Parity>, NnError> {
    if log.int8_features.len() != set.batches.len() {
        return Ok(None);
    }
    let fake8 = ForwardCtx::eval().with_quant(QuantConfig::uniform(Precision::Bits(8)));
    let (mut int_all, mut ref_all, mut labels) = (Vec::new(), Vec::new(), Vec::new());
    for ((x, l), h) in set.batches.iter().zip(&log.int8_features) {
        ref_all.extend_from_slice(enc.features(x, &fake8)?.as_slice());
        int_all.extend_from_slice(h.as_slice());
        labels.extend_from_slice(l);
    }
    let d = enc.feat_dim();
    let n = labels.len();
    let (_, split_rel_err, split_knn_agreement) = feature_parity(
        &Tensor::from_vec(int_all, &[n, d])?,
        &Tensor::from_vec(ref_all, &[n, d])?,
        &labels,
    );
    let (x, labels) = clustered_batch(PARITY_CLUSTERS, PARITY_PER_CLUSTER, seed);
    let Ok(int_features) = int.features(&x) else {
        return Ok(None);
    };
    let (_, clustered_rel_err, clustered_knn_agreement) =
        feature_parity(&int_features, &enc.features(&x, &fake8)?, &labels);
    Ok(Some(Parity {
        split_rel_err,
        split_knn_agreement,
        clustered_rel_err,
        clustered_knn_agreement,
    }))
}
