//! The [`Layer`] trait and its two containers: [`Sequential`] (a chain)
//! and [`Residual`] (a chain joined by a skip branch).

use cq_tensor::Tensor;

use crate::{Cache, ForwardCtx, GradSet, ParamSet, Result};

/// A differentiable network module with trace-based forward/backward.
///
/// `forward` takes `&mut self` so stateful layers (BatchNorm running
/// statistics) can update themselves in training mode; everything needed
/// by `backward` is returned in the [`Cache`], so several forward traces
/// of the same layer can be alive at once — the property Contrastive
/// Quant's multi-branch steps rely on.
pub trait Layer: Send {
    /// Runs the layer on `x`, returning the output and the trace needed by
    /// [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Returns an error for inputs of unexpected shape.
    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)>;

    /// Backpropagates `dy` through the trace, accumulating parameter
    /// gradients into `gs` and returning the input gradient.
    ///
    /// # Errors
    ///
    /// Returns an error if `cache` was produced by a different layer or
    /// shapes are inconsistent.
    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor>;

    /// Non-parameter state tensors (e.g. BatchNorm running statistics),
    /// in a deterministic traversal order. Used for checkpointing and for
    /// copying state into a BYOL target network.
    fn state_tensors(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable access to the tensors of [`Layer::state_tensors`], in the
    /// same order.
    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Short type name used by diagnostics (the numerics sanitizer labels
    /// violations with it). Override in concrete layers.
    fn layer_kind(&self) -> &'static str {
        "layer"
    }

    /// Records this layer's work onto a lazy elementwise chain instead of
    /// executing eagerly. Fusable layers (activations, BatchNorm) push an
    /// op group and return `Ok(true)`; the default `Ok(false)` makes the
    /// [`crate::graph::Recorder`] materialize the chain and fall back to
    /// [`Layer::forward`].
    ///
    /// # Errors
    ///
    /// Returns an error for inputs of unexpected shape, exactly as
    /// [`Layer::forward`] would.
    fn record(&mut self, rec: &mut crate::graph::Recorder<'_>) -> Result<bool> {
        let _ = rec;
        Ok(false)
    }
}

/// A chain of layers applied in order.
///
/// # Example
///
/// ```
/// use cq_nn::{Sequential, Linear, Relu, ParamSet, ForwardCtx, Layer};
/// use cq_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut ps = ParamSet::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut mlp = Sequential::new();
/// mlp.push(Linear::new(&mut ps, "fc1", 4, 8, true, &mut rng));
/// mlp.push(Relu::new());
/// mlp.push(Linear::new(&mut ps, "fc2", 8, 2, true, &mut rng));
/// let (y, _) = mlp.forward(&ps, &Tensor::ones(&[5, 4]), &ForwardCtx::eval())?;
/// assert_eq!(y.dims(), &[5, 2]);
/// # Ok::<(), cq_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer (for dynamically built networks).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Splits the chain at `at`: `self` keeps layers `[0, at)` and the
    /// returned chain holds the rest, in order.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Sequential {
        Sequential {
            layers: self.layers.split_off(at),
        }
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs only the first `n_layers` layers (e.g. a backbone without its
    /// final pooling, for dense prediction heads). The returned cache is
    /// accepted by [`Layer::backward`], which walks exactly the layers the
    /// cache covers.
    ///
    /// # Errors
    ///
    /// Returns an error if `n_layers` exceeds the chain length or a child
    /// layer fails.
    pub fn forward_upto(
        &mut self,
        ps: &ParamSet,
        x: &Tensor,
        ctx: &ForwardCtx,
        n_layers: usize,
    ) -> Result<(Tensor, Cache)> {
        if n_layers > self.layers.len() {
            return Err(crate::NnError::Param(format!(
                "forward_upto: {} layers requested, chain has {}",
                n_layers,
                self.layers.len()
            )));
        }
        run_layers(&mut self.layers[..n_layers], ps, x, ctx)
    }
}

/// Runs a chain of layers through the graph [`crate::graph::Recorder`]:
/// fusable layers record lazily, everything else executes at
/// materialization barriers. Per-layer spans and sanitize scans happen
/// inside [`crate::graph::Recorder::run`].
fn run_layers(
    layers: &mut [Box<dyn Layer>],
    ps: &ParamSet,
    x: &Tensor,
    ctx: &ForwardCtx,
) -> Result<(Tensor, Cache)> {
    let mut rec = crate::graph::Recorder::new(ps, ctx, x.clone());
    for layer in layers.iter_mut() {
        rec.run(layer.as_mut())?;
    }
    let (y, children) = rec.finish()?;
    Ok((y, Cache::new(SeqCache { children })))
}

/// Backpropagates `dy` through `layers` in reverse, one cache per layer,
/// opening a per-layer backward span (the static-name convention of the
/// forward path in [`crate::graph::Recorder::run`]).
fn backward_chain(
    layers: &[Box<dyn Layer>],
    caches: &[Cache],
    ps: &ParamSet,
    dy: &Tensor,
    gs: &mut GradSet,
) -> Result<Tensor> {
    let mut cur: Option<Tensor> = None;
    for (layer, cache) in layers.iter().zip(caches).rev() {
        let _sp = cq_obs::span(layer.layer_kind());
        cur = Some(layer.backward(ps, cache, cur.as_ref().unwrap_or(dy), gs)?);
    }
    Ok(cur.unwrap_or_else(|| dy.clone()))
}

/// Trace for [`Sequential`]: one cache per child layer.
struct SeqCache {
    children: Vec<Cache>,
}

impl Layer for Sequential {
    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        run_layers(&mut self.layers, ps, x, ctx)
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        let c = cache.downcast::<SeqCache>("Sequential")?;
        // Prefix caches (from `forward_upto`) walk only the layers they
        // cover; a full-forward cache covers every layer.
        if c.children.len() > self.layers.len() {
            return Err(crate::NnError::CacheMismatch {
                layer: "Sequential".into(),
            });
        }
        backward_chain(&self.layers, &c.children, ps, dy, gs)
    }

    fn state_tensors(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.state_tensors()).collect()
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.state_tensors_mut())
            .collect()
    }

    fn layer_kind(&self) -> &'static str {
        "Sequential"
    }
}

/// A residual block: `out = tail(main(x) + skip(x))`, with an identity
/// skip when `skip` is `None`.
///
/// The main branch, the join and the tail run as ONE recorded chain, so
/// the elementwise work around the join (e.g. ResNet's `bn2 → add → relu →
/// fake-quant`) fuses into a single pass. The skip branch runs through
/// its own [`Sequential`] once the main branch is recorded.
/// Built by [`crate::spec::Plan::instantiate`] from
/// [`crate::spec::LayerKind::Residual`]; inside a `Block`, the layers that
/// follow the residual become its tail.
pub struct Residual {
    /// Main-branch layers followed by the tail layers.
    layers: Vec<Box<dyn Layer>>,
    /// Number of main-branch layers: the skip joins after them.
    join: usize,
    /// Projection skip; `None` = identity.
    skip: Option<Sequential>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual(main={}, tail={}, skip={})",
            self.join,
            self.layers.len() - self.join,
            self.skip.as_ref().map_or(0, Sequential::len)
        )
    }
}

impl Residual {
    /// Joins `main` and `skip` (identity when `None`), then runs `tail`.
    pub(crate) fn new(main: Sequential, skip: Option<Sequential>, tail: Sequential) -> Self {
        let join = main.len();
        let mut layers = main.layers;
        layers.extend(tail.layers);
        Residual { layers, join, skip }
    }
}

/// Trace for [`Residual`]: one cache per main/tail layer, plus the skip's.
struct ResidualCache {
    children: Vec<Cache>,
    skip: Option<Cache>,
}

impl Layer for Residual {
    fn layer_kind(&self) -> &'static str {
        "Residual"
    }

    fn forward(&mut self, ps: &ParamSet, x: &Tensor, ctx: &ForwardCtx) -> Result<(Tensor, Cache)> {
        let mut rec = crate::graph::Recorder::new(ps, ctx, x.clone());
        let (main, tail) = self.layers.split_at_mut(self.join);
        for layer in main {
            rec.run(layer.as_mut())?;
        }
        let skip = match &mut self.skip {
            Some(s) => {
                let (y, c) = s.forward(ps, x, ctx)?;
                rec.push_add(y)?;
                Some(c)
            }
            None => {
                rec.push_add(x.clone())?;
                None
            }
        };
        for layer in tail {
            rec.run(layer.as_mut())?;
        }
        let (y, children) = rec.finish()?;
        Ok((y, Cache::new(ResidualCache { children, skip })))
    }

    fn backward(
        &self,
        ps: &ParamSet,
        cache: &Cache,
        dy: &Tensor,
        gs: &mut GradSet,
    ) -> Result<Tensor> {
        let c = cache.downcast::<ResidualCache>("Residual")?;
        if c.children.len() != self.layers.len() {
            return Err(crate::NnError::CacheMismatch {
                layer: "Residual".into(),
            });
        }
        let (main, tail) = self.layers.split_at(self.join);
        let (main_c, tail_c) = c.children.split_at(self.join);
        let dsum = backward_chain(tail, tail_c, ps, dy, gs)?;
        let dx = backward_chain(main, main_c, ps, &dsum, gs)?;
        let dskip = match (&self.skip, &c.skip) {
            (Some(s), Some(sc)) => s.backward(ps, sc, &dsum, gs)?,
            (None, None) => dsum,
            _ => {
                return Err(crate::NnError::CacheMismatch {
                    layer: "Residual".into(),
                })
            }
        };
        Ok(dx.add(&dskip)?)
    }

    /// Main branch, then skip, then tail: the order the plan walk
    /// registers their parameters in.
    fn state_tensors(&self) -> Vec<&Tensor> {
        let (main, tail) = self.layers.split_at(self.join);
        let mut v: Vec<&Tensor> = main.iter().flat_map(|l| l.state_tensors()).collect();
        if let Some(s) = &self.skip {
            v.extend(s.state_tensors());
        }
        v.extend(tail.iter().flat_map(|l| l.state_tensors()));
        v
    }

    fn state_tensors_mut(&mut self) -> Vec<&mut Tensor> {
        let (main, tail) = self.layers.split_at_mut(self.join);
        let mut v: Vec<&mut Tensor> = main
            .iter_mut()
            .flat_map(|l| l.state_tensors_mut())
            .collect();
        if let Some(s) = &mut self.skip {
            v.extend(s.state_tensors_mut());
        }
        v.extend(tail.iter_mut().flat_map(|l| l.state_tensors_mut()));
        v
    }
}

/// Copies all non-parameter state (BatchNorm running statistics) from one
/// layer tree to an identically structured one — used when building a BYOL
/// target network.
///
/// # Errors
///
/// Returns [`crate::NnError::Param`] if the trees have different state
/// layouts.
pub fn copy_state(dst: &mut dyn Layer, src: &dyn Layer) -> Result<()> {
    let s = src.state_tensors();
    let mut d = dst.state_tensors_mut();
    if s.len() != d.len() {
        return Err(crate::NnError::Param(format!(
            "state layout mismatch: {} vs {} tensors",
            d.len(),
            s.len()
        )));
    }
    for (dt, st) in d.iter_mut().zip(&s) {
        if dt.dims() != st.dims() {
            return Err(crate::NnError::Param("state tensor shape mismatch".into()));
        }
        dt.as_mut_slice().copy_from_slice(st.as_slice());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerKind, Plan};
    use crate::{Linear, Relu};
    use rand::SeedableRng;

    #[test]
    fn sequential_chains_shapes() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "a", 3, 5, true, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(&mut ps, "b", 5, 2, true, &mut rng));
        assert_eq!(seq.len(), 3);
        let x = Tensor::ones(&[4, 3]);
        let (y, cache) = seq.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        let mut gs = ps.zero_grads();
        let dx = seq
            .backward(&ps, &cache, &Tensor::ones(&[4, 2]), &mut gs)
            .unwrap();
        assert_eq!(dx.dims(), &[4, 3]);
    }

    #[test]
    fn sequential_gradcheck() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "g.fc1", 4, 6, true, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(&mut ps, "g.fc2", 6, 3, true, &mut rng));
        crate::gradcheck::check_layer_soft(seq, ps, &[2, 4], &ForwardCtx::eval(), 1e-2);
    }

    #[test]
    fn wrong_cache_rejected() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "a", 3, 3, true, &mut rng));
        let mut gs = ps.zero_grads();
        let bad = Cache::new(7u8);
        assert!(seq
            .backward(&ps, &bad, &Tensor::ones(&[1, 3]), &mut gs)
            .is_err());
    }

    /// Test layer that poisons one output element with NaN.
    struct NanLayer;

    impl Layer for NanLayer {
        fn forward(
            &mut self,
            _ps: &ParamSet,
            x: &Tensor,
            _ctx: &ForwardCtx,
        ) -> Result<(Tensor, Cache)> {
            let mut y = x.clone();
            y.as_mut_slice()[0] = f32::NAN;
            Ok((y, Cache::none()))
        }

        fn backward(
            &self,
            _ps: &ParamSet,
            _cache: &Cache,
            dy: &Tensor,
            _gs: &mut GradSet,
        ) -> Result<Tensor> {
            Ok(dy.clone())
        }

        fn layer_kind(&self) -> &'static str {
            "NanLayer"
        }
    }

    #[test]
    fn sanitize_attributes_nan_to_producing_layer() {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut seq = Sequential::new();
        seq.push(Linear::new(&mut ps, "a", 3, 3, true, &mut rng));
        seq.push(NanLayer);
        seq.push(Relu::new());
        let x = Tensor::ones(&[2, 3]);
        // Without the sanitizer the NaN flows through silently.
        assert!(seq.forward(&ps, &x, &ForwardCtx::eval()).is_ok());
        // With it, the pass fails and names the producing layer.
        let err = seq
            .forward(&ps, &x, &ForwardCtx::eval().with_sanitize())
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("layer #1 (NanLayer)"),
            "unattributed error: {msg}"
        );
        let recorded = cq_tensor::sanitize::take_violations();
        assert_eq!(recorded.len(), 1);
        assert!(recorded[0].kind.is_fatal());
    }

    fn conv(name: &str, i: usize, o: usize, k: usize, stride: usize) -> (String, LayerKind) {
        let spec = cq_tensor::Conv2dSpec::new(k, stride, k / 2);
        let kind = LayerKind::Conv2d {
            in_ch: i,
            out_ch: o,
            spec,
            bias: false,
        };
        (name.into(), kind)
    }

    fn plan(layers: Vec<(String, LayerKind)>) -> Plan {
        let mut p = Plan::new();
        for (name, kind) in layers {
            p.push(name, kind);
        }
        p
    }

    /// `conv → bn` main branch; a `conv 1×1 → bn` projection skip when
    /// `stride != 1` or `i != o`, identity otherwise.
    fn residual(i: usize, o: usize, stride: usize) -> LayerKind {
        let bn = |n: &str| (n.to_string(), LayerKind::BatchNorm2d { channels: o });
        let main = plan(vec![conv("m.conv", i, o, 3, stride), bn("m.bn")]);
        let skip = (stride != 1 || i != o)
            .then(|| plan(vec![conv("s.conv", i, o, 1, stride), bn("s.bn")]));
        LayerKind::Residual { main, skip }
    }

    fn instantiate(p: &Plan) -> (Sequential, ParamSet) {
        let mut ps = ParamSet::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let net = p.instantiate(&mut ps, &mut rng);
        (net, ps)
    }

    #[test]
    fn residual_identity_skip_gradcheck() {
        let (net, ps) = instantiate(&plan(vec![("r".into(), residual(3, 3, 1))]));
        assert_eq!(net.layers[0].layer_kind(), "Residual");
        crate::gradcheck::check_layer_soft(net, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    #[test]
    fn block_residual_takes_tail_and_projection_skip() {
        let block = plan(vec![
            ("r".into(), residual(3, 4, 2)),
            ("relu".into(), LayerKind::Relu),
        ]);
        let (mut net, ps) = instantiate(&plan(vec![("b".into(), LayerKind::Block(block))]));
        // The Block becomes one Residual whose tail is the ReLU.
        assert_eq!(net.len(), 1);
        assert_eq!(net.layers[0].layer_kind(), "Residual");
        let names: Vec<&str> = ps.iter().map(|(_, n, _)| n).collect();
        let walk = ["m.conv.weight", "m.bn.gamma", "m.bn.beta", "s.conv.weight"];
        assert_eq!(names[..4], walk, "main branch registers before the skip");
        assert_eq!(net.state_tensors().len(), 4);
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let (y, _) = net.forward(&ps, &x, &ForwardCtx::train()).unwrap();
        assert_eq!(y.dims(), &[2, 4, 2, 2]);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0), "tail ReLU ran");
        crate::gradcheck::check_layer_soft(net, ps, &[2, 3, 4, 4], &ForwardCtx::train(), 8e-2);
    }

    /// State tensors follow the plan walk (main, skip, tail), the order
    /// checkpoints and cq-infer's positional BatchNorm consumption rely
    /// on. Distinct channel counts per part make any reorder visible.
    #[test]
    fn residual_state_follows_walk_order() {
        let bn = |n: &str, c: usize| (n.to_string(), LayerKind::BatchNorm2d { channels: c });
        let main = plan(vec![
            conv("m.c1", 2, 3, 3, 1),
            bn("m.bn1", 3),
            conv("m.c2", 3, 4, 3, 1),
            bn("m.bn2", 4),
        ]);
        let skip = Some(plan(vec![conv("s.conv", 2, 4, 1, 1), bn("s.bn", 4)]));
        let block = plan(vec![
            ("r".into(), LayerKind::Residual { main, skip }),
            conv("t.conv", 4, 5, 1, 1),
            bn("t.bn", 5),
        ]);
        let (mut net, ps) = instantiate(&plan(vec![("b".into(), LayerKind::Block(block))]));
        let names: Vec<&str> = ps.iter().map(|(_, n, _)| n).collect();
        assert_eq!(
            names,
            [
                "m.c1.weight",
                "m.bn1.gamma",
                "m.bn1.beta",
                "m.c2.weight",
                "m.bn2.gamma",
                "m.bn2.beta",
                "s.conv.weight",
                "s.bn.gamma",
                "s.bn.beta",
                "t.conv.weight",
                "t.bn.gamma",
                "t.bn.beta"
            ]
        );
        let want = [3, 3, 4, 4, 4, 4, 5, 5];
        let dims: Vec<usize> = net.state_tensors().iter().map(|t| t.len()).collect();
        assert_eq!(dims, want);
        let dims: Vec<usize> = net.state_tensors_mut().iter().map(|t| t.len()).collect();
        assert_eq!(dims, want);
    }

    #[test]
    fn residual_rejects_foreign_cache() {
        let (net, ps) = instantiate(&plan(vec![("r".into(), residual(3, 3, 1))]));
        let mut gs = ps.zero_grads();
        let bad = Cache::new(SeqCache {
            children: vec![Cache::none()],
        });
        let dy = Tensor::ones(&[1, 3, 2, 2]);
        assert!(net.backward(&ps, &bad, &dy, &mut gs).is_err());
    }

    #[test]
    fn empty_sequential_is_identity() {
        let ps = ParamSet::new();
        let mut seq = Sequential::new();
        assert!(seq.is_empty());
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let (y, c) = seq.forward(&ps, &x, &ForwardCtx::eval()).unwrap();
        assert_eq!(y, x);
        let mut gs = ps.zero_grads();
        let dx = seq.backward(&ps, &c, &x, &mut gs).unwrap();
        assert_eq!(dx, x);
    }
}
