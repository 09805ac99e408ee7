//! `net` — the network container: a DAG of layers executed in topological
//! order, with the coarse-grain parallel machinery threaded through every
//! layer pass (Algorithm 1 of the paper).
//!
//! A [`Net`] owns all intermediate blobs and all layers (which own their
//! parameters). `forward` runs the layers in definition order; `backward`
//! runs them in reverse, after seeding each loss layer's diff with 1.0.
//! Per-layer wall-clock times are recorded for the per-layer breakdown
//! experiments (Figures 4 and 7).
//!
//! Fan-out: a blob a layer computes feeds exactly one layer, since
//! `backward` overwrites each bottom's diff; `from_spec` rejects a second
//! consumer with a [`SpecError`]. Data and input blobs carry no gradient
//! and may feed any number of layers.
//!
//! ```
//! use net::{Net, NetSpec};
//! use layers::data::BatchSource;
//!
//! struct Ones;
//! impl BatchSource<f32> for Ones {
//!     fn num_samples(&self) -> usize { 4 }
//!     fn sample_shape(&self) -> blob::Shape { blob::Shape::from([3usize]) }
//!     fn fill(&self, _i: usize, out: &mut [f32]) -> f32 {
//!         mmblas::set(1.0, out);
//!         0.0
//!     }
//! }
//!
//! let spec = NetSpec::parse(
//!     "layer {\n name: d\n type: Data\n batch: 2\n top: data\n top: label\n}\n\
//!      layer {\n name: ip\n type: InnerProduct\n num_output: 2\n bottom: data\n top: ip\n}\n\
//!      layer {\n name: loss\n type: SoftmaxWithLoss\n bottom: ip\n bottom: label\n top: loss\n}",
//! ).unwrap();
//! let mut net = Net::<f32>::from_spec(&spec, Some(Box::new(Ones))).unwrap();
//! let team = omprt::ThreadTeam::new(2);
//! let loss = net.forward(&team, &net::RunConfig::default());
//! assert!(loss.is_finite());
//! ```

pub mod builder;
pub mod faults;
pub mod memory;
pub mod snapshot;
pub mod spec;

pub use builder::build_layer;
pub use memory::MemoryReport;
pub use snapshot::{load_params, read_sections, save_params, save_sections, write_atomic};
pub use spec::{LayerSpec, NetSpec, SpecError};

use blob::Blob;
use layers::ctx::{ExecCtx, Phase, ReductionMode};
use layers::data::BatchSource;
use layers::fill::LR_MULTS;
use layers::profile::LayerProfile;
use layers::workspace::{Workspace, WorkspaceRequest};
use layers::Layer;
use mmblas::Scalar;
use omprt::ThreadTeam;
use std::collections::HashMap;
use std::time::Instant;

/// Per-run execution configuration (reduction, phase).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Gradient reduction mode.
    pub reduction: ReductionMode,
    /// Train or test.
    pub phase: Phase,
}

impl Default for RunConfig {
    /// The paper's configuration: ordered reduction, train.
    fn default() -> Self {
        Self {
            reduction: ReductionMode::Ordered,
            phase: Phase::Train,
        }
    }
}

/// A network: layers + blobs + scratch workspace.
pub struct Net<S: Scalar = f32> {
    name: String,
    layers: Vec<Box<dyn Layer<S>>>,
    bottoms: Vec<Vec<usize>>,
    tops: Vec<Vec<usize>>,
    blobs: Vec<Blob<S>>,
    blob_index: HashMap<String, usize>,
    blob_names: Vec<String>,
    max_request: WorkspaceRequest,
    workspace: Workspace<S>,
    ws_threads: usize,
    ws_slots: usize,
    fwd_secs: Vec<f64>,
    bwd_secs: Vec<f64>,
    iteration: u64,
    /// Externally-fed input blobs (ids into `blobs`), in declaration order.
    inputs: Vec<usize>,
    /// Leading dimension the input blobs were built with: the ceiling of
    /// [`Net::set_batch`]. 0 for a net fed by a data layer.
    batch_capacity: usize,
}

impl<S: Scalar> Net<S> {
    /// Build a network from a parsed spec. `data_source` feeds the single
    /// `Data` layer (required iff the spec contains one).
    pub fn from_spec(
        spec: &NetSpec,
        data_source: Option<Box<dyn BatchSource<S>>>,
    ) -> Result<Self, SpecError> {
        Self::from_spec_with_inputs(spec, data_source, &[])
    }

    /// Build a network whose first blobs are externally-fed *input* blobs
    /// (Caffe's deploy-net `input:`/`input_dim:` mechanism) — the
    /// forward-only entry point used by the serving engine. Each `(name,
    /// shape)` pair is registered as a blob before any layer is built, so
    /// layers may use them as bottoms; fill them through [`Net::input_mut`]
    /// before calling [`Net::forward`]. The shapes given here fix the
    /// net's batch *capacity*; [`Net::set_batch`] seats any smaller batch
    /// without reallocating.
    pub fn from_spec_with_inputs(
        spec: &NetSpec,
        mut data_source: Option<Box<dyn BatchSource<S>>>,
        inputs: &[(String, blob::Shape)],
    ) -> Result<Self, SpecError> {
        let mut net = Net {
            name: spec.name.clone(),
            layers: Vec::new(),
            bottoms: Vec::new(),
            tops: Vec::new(),
            blobs: Vec::new(),
            blob_index: HashMap::new(),
            blob_names: Vec::new(),
            max_request: WorkspaceRequest::default(),
            workspace: Workspace::empty(),
            ws_threads: 0,
            ws_slots: 0,
            fwd_secs: Vec::new(),
            bwd_secs: Vec::new(),
            iteration: 0,
            inputs: Vec::new(),
            batch_capacity: 0,
        };
        let mut data_tops: Vec<String> = Vec::new();

        for (iname, ishape) in inputs {
            if net.blob_index.contains_key(iname) {
                return Err(SpecError::new(format!(
                    "input blob '{iname}' declared twice"
                )));
            }
            let id = net.blobs.len();
            net.blobs.push(Blob::new(ishape.clone()));
            net.blob_index.insert(iname.clone(), id);
            net.blob_names.push(iname.clone());
            net.inputs.push(id);
            // Input blobs behave like data-layer outputs: layers sitting
            // directly on them skip their bottom-diff computation.
            data_tops.push(iname.clone());
        }

        // One batch axis for the whole net: the inputs' shared leading
        // dimension is the capacity `set_batch` seats batches within.
        if let Some(&first) = net.inputs.first() {
            net.batch_capacity = net.blobs[first].num();
            if let Some(&odd) = net
                .inputs
                .iter()
                .find(|&&i| net.blobs[i].num() != net.batch_capacity)
            {
                return Err(SpecError::new(format!(
                    "input blobs '{}' and '{}' disagree on the batch (leading) dimension",
                    net.blob_names[first], net.blob_names[odd]
                )));
            }
        }

        // The layer each computed blob feeds. Backward *writes* a bottom's
        // diff, so a second consumer would overwrite the first one's
        // gradient; data and input blobs carry none and may fan out.
        let mut consumer: HashMap<usize, &str> = HashMap::new();
        for ls in &spec.layers {
            // Resolve bottoms.
            let mut bottom_ids = Vec::with_capacity(ls.bottoms.len());
            for b in &ls.bottoms {
                let id = *net.blob_index.get(b).ok_or_else(|| {
                    SpecError::new(format!("layer '{}': unknown bottom blob '{b}'", ls.name))
                })?;
                if !data_tops.contains(b) {
                    if let Some(first) = consumer.insert(id, &ls.name) {
                        return Err(SpecError::new(format!(
                            "layer '{}': blob '{b}' already feeds layer '{first}'; \
                             only data and input blobs may feed more than one layer",
                            ls.name
                        )));
                    }
                }
                bottom_ids.push(id);
            }
            // Build the layer object. A learnable layer sitting directly on
            // data-layer outputs skips its bottom-diff computation, as Caffe
            // does for conv1.
            let after_data =
                !ls.bottoms.is_empty() && ls.bottoms.iter().all(|b| data_tops.contains(b));
            let mut layer = build_layer(ls, &mut data_source, after_data)?;
            // Shape inference.
            let top_shapes = {
                let bottom_refs: Vec<&Blob<S>> =
                    bottom_ids.iter().map(|&i| &net.blobs[i]).collect();
                layer.setup(&bottom_refs)
            };
            if top_shapes.len() != ls.tops.len() {
                return Err(SpecError::new(format!(
                    "layer '{}' produces {} tops but spec names {}",
                    ls.name,
                    top_shapes.len(),
                    ls.tops.len()
                )));
            }
            // Register top blobs.
            let mut top_ids = Vec::with_capacity(ls.tops.len());
            for (tname, shape) in ls.tops.iter().zip(top_shapes) {
                if net.blob_index.contains_key(tname) {
                    return Err(SpecError::new(format!(
                        "layer '{}': top blob '{tname}' already exists \
                         (in-place layers are not supported)",
                        ls.name
                    )));
                }
                let id = net.blobs.len();
                net.blobs.push(Blob::new(shape));
                net.blob_index.insert(tname.clone(), id);
                net.blob_names.push(tname.clone());
                top_ids.push(id);
            }
            if ls.layer_type == "Data" {
                data_tops.extend(ls.tops.iter().cloned());
            }
            net.max_request = net.max_request.max(WorkspaceRequest::of(layer.as_ref()));
            net.layers.push(layer);
            net.bottoms.push(bottom_ids);
            net.tops.push(top_ids);
        }
        let n = net.layers.len();
        net.fwd_secs = vec![0.0; n];
        net.bwd_secs = vec![0.0; n];
        Ok(net)
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer instance names in execution order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Immutable access to a named blob.
    pub fn blob(&self, name: &str) -> Option<&Blob<S>> {
        self.blob_index.get(name).map(|&i| &self.blobs[i])
    }

    /// Mutable view of an input blob's data: `batch() * sample_len`
    /// values, sample-major — where a caller writes the samples of the
    /// batch seated with [`Net::set_batch`]. `None` unless `name` is one
    /// of the blobs declared to [`Net::from_spec_with_inputs`].
    pub fn input_mut(&mut self, name: &str) -> Option<&mut [S]> {
        let &i = self.blob_index.get(name)?;
        if !self.inputs.contains(&i) {
            return None;
        }
        Some(self.blobs[i].data_mut())
    }

    /// Leading dimension the input blobs were built with — the largest
    /// batch [`Net::set_batch`] accepts. 0 for a net without input blobs.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// The active batch: the leading dimension the input blobs expose
    /// (0 for a net without input blobs).
    pub fn batch(&self) -> usize {
        self.inputs.first().map_or(0, |&i| self.blobs[i].num())
    }

    /// Seat an active batch of `n` samples (Caffe's `Reshape`): the input
    /// blobs' leading dimension becomes `n` and every layer's `setup`
    /// re-propagates shapes from there, so the next [`Net::forward`] does
    /// work proportional to `n`, not to the capacity. Blobs and the layers'
    /// per-batch caches keep their capacity-sized allocations — seating a
    /// batch allocates no buffer and clears nothing — and parameters are
    /// untouched. Per-sample outputs do not depend on `n`: no forward
    /// kernel reads across samples.
    ///
    /// # Errors
    /// Fails when the net has no input blobs, or `n` is outside
    /// `1..=batch_capacity()`; the net is left as it was.
    pub fn set_batch(&mut self, n: usize) -> Result<(), SpecError> {
        if n == 0 || n > self.batch_capacity {
            return Err(SpecError::new(format!(
                "set_batch: batch {n} is outside 1..={} (net '{}' has {} input blob(s))",
                self.batch_capacity,
                self.name,
                self.inputs.len()
            )));
        }
        if n == self.batch() {
            return Ok(());
        }
        for &i in &self.inputs {
            // n != batch rules out the axis-less (scalar) input, whose
            // capacity and batch are both 1.
            let mut dims = self.blobs[i].shape().dims().to_vec();
            dims[0] = n;
            self.blobs[i].resize(dims);
        }
        for i in 0..self.layers.len() {
            let shapes = {
                let bottoms: Vec<&Blob<S>> =
                    self.bottoms[i].iter().map(|&b| &self.blobs[b]).collect();
                self.layers[i].setup(&bottoms)
            };
            for (&b, shape) in self.tops[i].iter().zip(shapes) {
                self.blobs[b].resize(shape);
            }
        }
        Ok(())
    }

    /// Names of the network's *output* blobs: blobs no layer consumes as a
    /// bottom, in creation order (the natural demux points for serving).
    pub fn output_names(&self) -> Vec<&str> {
        let mut consumed = vec![false; self.blobs.len()];
        for bots in &self.bottoms {
            for &b in bots {
                consumed[b] = true;
            }
        }
        self.blob_names
            .iter()
            .enumerate()
            .filter(|&(i, _)| !consumed[i])
            .map(|(_, n)| n.as_str())
            .collect()
    }

    /// Set the global iteration counter (seeds dropout masks).
    pub fn set_iteration(&mut self, it: u64) {
        self.iteration = it;
    }

    /// Dataset cursor of the network's data layer (index of the next
    /// sample to serve), if it has one — training state a checkpoint must
    /// capture for bit-identical resume.
    pub fn data_cursor(&self) -> Option<usize> {
        self.layers.iter().find_map(|l| l.data_cursor())
    }

    /// Restore a dataset cursor previously read with [`Net::data_cursor`].
    /// A no-op for networks without a data layer.
    pub fn set_data_cursor(&mut self, cursor: usize) {
        for l in &mut self.layers {
            l.set_data_cursor(cursor);
        }
    }

    /// (Re)build the workspace if the team size or slot count grew.
    pub fn ensure_workspace(&mut self, n_threads: usize, reduction: ReductionMode) {
        let slots = reduction.slots(n_threads);
        if n_threads > self.ws_threads || slots > self.ws_slots {
            self.ws_threads = self.ws_threads.max(n_threads);
            self.ws_slots = self.ws_slots.max(slots);
            self.workspace = Workspace::new(self.ws_threads, self.ws_slots, self.max_request);
        }
    }

    /// Forward pass over all layers; returns the summed loss of every loss
    /// layer. Per-layer times are recorded (see
    /// [`Net::last_forward_seconds`]).
    pub fn forward(&mut self, team: &ThreadTeam, cfg: &RunConfig) -> S {
        self.ensure_workspace(team.size(), cfg.reduction);
        let mut loss = S::ZERO;
        for i in 0..self.layers.len() {
            let t0 = Instant::now();
            let mut tops: Vec<Blob<S>> = self.tops[i]
                .iter()
                .map(|&b| std::mem::take(&mut self.blobs[b]))
                .collect();
            {
                let ctx = ExecCtx {
                    team,
                    reduction: cfg.reduction,
                    workspace: &self.workspace,
                    phase: cfg.phase,
                    iteration: self.iteration,
                };
                let bottoms: Vec<&Blob<S>> =
                    self.bottoms[i].iter().map(|&b| &self.blobs[b]).collect();
                self.layers[i].forward(&ctx, &bottoms, &mut tops);
            }
            if self.layers[i].is_loss() {
                loss += tops[0].data()[0];
            }
            for (&b, blob) in self.tops[i].iter().zip(tops) {
                self.blobs[b] = blob;
            }
            let dt = t0.elapsed();
            self.fwd_secs[i] = dt.as_secs_f64();
            if obs::trace::enabled() {
                obs::trace::record_owned(format!("fwd:{}", self.layers[i].name()), "layer", t0, dt);
            }
        }
        loss
    }

    /// Backward pass over all layers in reverse order. Seeds every loss
    /// layer's top diff with 1.0 first. Parameter diffs are *accumulated*;
    /// call [`Net::zero_param_diffs`] once per iteration.
    pub fn backward(&mut self, team: &ThreadTeam, cfg: &RunConfig) {
        self.ensure_workspace(team.size(), cfg.reduction);
        for i in 0..self.layers.len() {
            if self.layers[i].is_loss() {
                let b = self.tops[i][0];
                self.blobs[b].diff_mut()[0] = S::ONE;
            }
        }
        for i in (0..self.layers.len()).rev() {
            if self.bottoms[i].is_empty() {
                self.bwd_secs[i] = 0.0;
                continue;
            }
            let t0 = Instant::now();
            let mut bots: Vec<Blob<S>> = self.bottoms[i]
                .iter()
                .map(|&b| std::mem::take(&mut self.blobs[b]))
                .collect();
            {
                let ctx = ExecCtx {
                    team,
                    reduction: cfg.reduction,
                    workspace: &self.workspace,
                    phase: cfg.phase,
                    iteration: self.iteration,
                };
                let tops: Vec<&Blob<S>> = self.tops[i].iter().map(|&b| &self.blobs[b]).collect();
                self.layers[i].backward(&ctx, &tops, &mut bots);
            }
            for (&b, blob) in self.bottoms[i].iter().zip(bots) {
                self.blobs[b] = blob;
            }
            let dt = t0.elapsed();
            self.bwd_secs[i] = dt.as_secs_f64();
            if obs::trace::enabled() {
                obs::trace::record_owned(format!("bwd:{}", self.layers[i].name()), "layer", t0, dt);
            }
        }
    }

    /// Zero every learnable parameter's diff (start of an iteration).
    pub fn zero_param_diffs(&mut self) {
        for l in &mut self.layers {
            for p in l.params_mut() {
                p.zero_diff();
            }
        }
    }

    /// Mutable references to every learnable parameter blob, in layer order.
    pub fn learnable_params_mut(&mut self) -> Vec<&mut Blob<S>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut().iter_mut())
            .collect()
    }

    /// Immutable references to every learnable parameter blob.
    pub fn learnable_params(&self) -> Vec<&Blob<S>> {
        self.layers.iter().flat_map(|l| l.params().iter()).collect()
    }

    /// Replace every learnable parameter blob with a copy-on-write clone
    /// of the corresponding blob in `params` (one decoded weight set, any
    /// number of nets — the serving tier's zero-copy replica path). The
    /// clone shares the underlying buffers until someone writes, so N
    /// adopting nets cost one decoded parameter copy, not N.
    ///
    /// # Errors
    /// Fails when `params` has the wrong blob count or any shape differs.
    pub fn adopt_params(&mut self, params: &[Blob<S>]) -> Result<(), SpecError> {
        let mut own = self.learnable_params_mut();
        if own.len() != params.len() {
            return Err(SpecError::new(format!(
                "adopt_params: donor has {} parameter blobs, network has {}",
                params.len(),
                own.len()
            )));
        }
        for (i, (dst, src)) in own.iter_mut().zip(params).enumerate() {
            if dst.shape().dims() != src.shape().dims() {
                return Err(SpecError::new(format!(
                    "adopt_params: blob {i} shape {:?} does not match network {:?}",
                    src.shape().dims(),
                    dst.shape().dims()
                )));
            }
            **dst = src.clone();
        }
        Ok(())
    }

    /// Heap bytes of parameter storage this net *uniquely* owns — buffers
    /// shared with another net (via [`Net::adopt_params`]) count as 0.
    pub fn params_unique_bytes(&self) -> usize {
        self.learnable_params()
            .iter()
            .map(|b| b.unique_bytes())
            .sum()
    }

    /// Per-parameter learning-rate multipliers, aligned with
    /// [`Net::learnable_params`]: Caffe's `lr_mult` of each learnable
    /// layer's weight and bias, [`LR_MULTS`].
    pub fn param_lr_mults(&self) -> Vec<f64> {
        self.layers
            .iter()
            .flat_map(|l| &LR_MULTS[..l.params().len()])
            .copied()
            .collect()
    }

    /// Per-layer wall-clock seconds of the most recent forward pass.
    pub fn last_forward_seconds(&self) -> &[f64] {
        &self.fwd_secs
    }

    /// Per-layer wall-clock seconds of the most recent backward pass.
    pub fn last_backward_seconds(&self) -> &[f64] {
        &self.bwd_secs
    }

    /// Analytic work profiles of every layer (for the machine simulator):
    /// the layer's two passes, with the backward's reduction as long as
    /// the layer's parameters — the paper's merge, which `machine` charges
    /// the inner product too, though it privatizes nothing (EXPERIMENTS
    /// E12) — and the batch its first bottom (a data layer's first top)
    /// holds.
    pub fn profiles(&self) -> Vec<LayerProfile> {
        (0..self.layers.len())
            .map(|i| {
                let layer = &self.layers[i];
                let (forward, mut backward) = layer.profile();
                backward.reduction_elems = layer.params().iter().map(|p| p.count()).sum();
                let first = self.bottoms[i].first().or(self.tops[i].first());
                LayerProfile {
                    name: layer.name().to_string(),
                    layer_type: layer.layer_type().to_string(),
                    forward,
                    backward,
                    batch: first.map_or(0, |&b| self.blobs[b].num()),
                }
            })
            .collect()
    }

    /// Memory accounting for experiment E7 (paper §3.2.1).
    pub fn memory_report(&self) -> MemoryReport {
        MemoryReport::compute(self)
    }

    /// Total learnable parameter count.
    pub fn num_params(&self) -> usize {
        self.learnable_params().iter().map(|p| p.count()).sum()
    }

    /// Human-readable architecture table: layer, type, top shapes, params.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12}{:<18}{:<26}{:>12}\n",
            "layer", "type", "top shape(s)", "params"
        ));
        for i in 0..self.layers.len() {
            let shapes: Vec<String> = self.tops[i]
                .iter()
                .map(|&b| self.blobs[b].shape().to_string())
                .collect();
            let params: usize = self.layers[i].params().iter().map(|p| p.count()).sum();
            out.push_str(&format!(
                "{:<12}{:<18}{:<26}{:>12}\n",
                self.layers[i].name(),
                self.layers[i].layer_type(),
                shapes.join(" "),
                params
            ));
        }
        out.push_str(&format!(
            "total: {} layers, {} parameters\n",
            self.layers.len(),
            self.num_params()
        ));
        out
    }

    pub(crate) fn blobs_bytes(&self) -> usize {
        self.blobs.iter().map(|b| b.bytes()).sum()
    }

    pub(crate) fn params_bytes(&self) -> usize {
        self.learnable_params().iter().map(|b| b.bytes()).sum()
    }

    pub(crate) fn workspace_ref(&self) -> &Workspace<S> {
        &self.workspace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ones;
    impl BatchSource<f32> for Ones {
        fn num_samples(&self) -> usize {
            4
        }
        fn sample_shape(&self) -> blob::Shape {
            blob::Shape::from([3usize])
        }
        fn fill(&self, _i: usize, out: &mut [f32]) -> f32 {
            mmblas::set(1.0, out);
            0.0
        }
    }

    const DATA: &str = "layer {\n name: d\n type: Data\n batch: 2\n top: data\n top: label\n}\n";

    fn build(body: &str) -> Result<Net<f32>, SpecError> {
        let spec = NetSpec::parse(&format!("{DATA}{body}")).unwrap();
        Net::from_spec(&spec, Some(Box::new(Ones)))
    }

    #[test]
    fn computed_blob_fanout_is_a_spec_error() {
        // Both ReLU and Sigmoid would write ip's diff in backward; the later
        // write (ReLU's, backward runs in reverse) would replace Sigmoid's.
        let e = build(
            "layer {\n name: ip\n type: InnerProduct\n num_output: 2\n bottom: data\n top: ip\n}\n\
             layer {\n name: sig\n type: Sigmoid\n bottom: ip\n top: sig\n}\n\
             layer {\n name: relu\n type: ReLU\n bottom: ip\n top: relu\n}",
        )
        .err()
        .expect("fan-out of a computed blob must not build");
        assert_eq!(
            e.to_string(),
            "layer 'relu': blob 'ip' already feeds layer 'sig'; \
             only data and input blobs may feed more than one layer"
        );
        // One layer naming the same computed blob twice is a fan-out too.
        assert!(build(
            "layer {\n name: flat\n type: Flatten\n bottom: data\n top: flat\n}\n\
             layer {\n name: loss\n type: SoftmaxWithLoss\n bottom: flat\n bottom: flat\n top: loss\n}",
        )
        .is_err());
    }

    /// MAX pooling's backward re-derives each arg-max from its top and
    /// bottom, so a layer that writes back into the pool's top must not
    /// build.
    #[test]
    fn writing_back_into_a_max_pools_top_is_a_spec_error() {
        let spec = NetSpec::parse(
            "layer {\n name: pool\n type: Pooling\n bottom: x\n top: p\n method: MAX\n kernel: 2\n stride: 2\n}\n\
             layer {\n name: relu\n type: ReLU\n bottom: p\n top: p\n}",
        )
        .unwrap();
        let inputs = [("x".to_string(), blob::Shape::from([2usize, 1, 4, 4]))];
        let e = Net::<f32>::from_spec_with_inputs(&spec, None, &inputs)
            .err()
            .expect("an in-place layer on a pool's top must not build");
        assert_eq!(
            e.to_string(),
            "layer 'relu': top blob 'p' already exists (in-place layers are not supported)"
        );
    }

    #[test]
    fn data_and_input_blobs_may_fan_out() {
        let net = build(
            "layer {\n name: a\n type: InnerProduct\n num_output: 2\n bottom: data\n top: a\n}\n\
             layer {\n name: b\n type: InnerProduct\n num_output: 2\n bottom: data\n top: b\n}\n\
             layer {\n name: la\n type: SoftmaxWithLoss\n bottom: a\n bottom: label\n top: la\n}\n\
             layer {\n name: lb\n type: SoftmaxWithLoss\n bottom: b\n bottom: label\n top: lb\n}",
        )
        .unwrap();
        assert_eq!(net.num_layers(), 5);
        let spec = NetSpec::parse(
            "layer {\n name: a\n type: ReLU\n bottom: x\n top: a\n}\n\
             layer {\n name: b\n type: Sigmoid\n bottom: x\n top: b\n}",
        )
        .unwrap();
        let inputs = [("x".to_string(), blob::Shape::from([2usize, 3]))];
        assert!(Net::<f32>::from_spec_with_inputs(&spec, None, &inputs).is_ok());
    }
}
