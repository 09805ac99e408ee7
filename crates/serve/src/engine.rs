//! The inference engine: one deploy net + one persistent thread team.
//!
//! An [`Engine`] is built once (spec transform, blob allocation, workspace
//! sizing) and then serves `infer_batch` calls for its whole lifetime —
//! the serving analogue of the paper's persistent-team training loop,
//! where thread creation and workspace allocation are hoisted out of the
//! hot path.
//!
//! The engine's blobs are allocated once for `[max_batch, sample...]`,
//! and that is only a capacity: each call seats its own `n` samples as the
//! net's active batch ([`net::Net::set_batch`]), writes them into the
//! first `n` input rows and runs the ordinary [`net::Net::forward`], so a
//! call costs what `n` samples cost, whatever `max_batch` is. Forward runs
//! under `Phase::Test` (dropout disabled) at the default `RunConfig`. Every
//! forward kernel is per-sample: a thread computes a whole sample and no
//! value is summed across threads, so a sample's output is independent of
//! `n`, of its row and of the team size — bit for bit, the property the
//! serving determinism test pins down.

use crate::deploy::deploy_spec;
use crate::ServeError;
use blob::{Blob, Shape};
use layers::ctx::Phase;
use mmblas::Scalar;
use net::{Net, NetSpec, RunConfig};
use omprt::ThreadTeam;
use std::io::Read;

/// Construction-time engine parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Batch capacity of the input blob (the batcher's `max_batch`): the
    /// most samples one `infer_batch` call may carry.
    pub max_batch: usize,
    /// Thread-team size for the coalesced layer loops.
    pub n_threads: usize,
}

/// A forward-only network bound to a persistent thread team.
pub struct Engine<S: Scalar = f32> {
    net: Net<S>,
    team: ThreadTeam,
    run: RunConfig,
    input_name: String,
    output_name: String,
    max_batch: usize,
    sample_len: usize,
    output_len: usize,
}

impl<S: Scalar> Engine<S> {
    /// Build an engine from a *training* spec: apply the deploy transform,
    /// register the input blob at `[max_batch, sample_shape...]`, construct
    /// the net, and spin up the thread team. Weights start at their random
    /// initialization; load a snapshot with [`Engine::load_weights`].
    pub fn build(
        train_spec: &NetSpec,
        sample_shape: &Shape,
        cfg: &EngineConfig,
    ) -> Result<Self, ServeError> {
        if cfg.max_batch == 0 {
            return Err(ServeError::Build("max_batch must be >= 1".into()));
        }
        let deploy = deploy_spec(train_spec)?;
        let mut dims = Vec::with_capacity(1 + sample_shape.ndim());
        dims.push(cfg.max_batch);
        dims.extend_from_slice(sample_shape.dims());
        let input_shape = Shape::from(dims);

        let mut net =
            Net::from_spec_with_inputs(&deploy.spec, None, &[(deploy.input.clone(), input_shape)])
                .map_err(|e| ServeError::Build(e.to_string()))?;
        let output_name = net
            .output_names()
            .last()
            .map(|s| s.to_string())
            .ok_or_else(|| ServeError::Build("deploy net has no output blob".into()))?;
        let sample_len = sample_shape.count();
        let output_len = net
            .blob(&output_name)
            .ok_or_else(|| {
                ServeError::Build(format!(
                    "deploy net output '{output_name}' has no backing blob"
                ))
            })?
            .sample_len();

        let team = ThreadTeam::new(cfg.n_threads.max(1));
        let run = RunConfig {
            phase: Phase::Test,
            ..RunConfig::default()
        };
        // Size the workspace now, not on the first request.
        net.ensure_workspace(team.size(), run.reduction);

        Ok(Self {
            net,
            team,
            run,
            input_name: deploy.input,
            output_name,
            max_batch: cfg.max_batch,
            sample_len,
            output_len,
        })
    }

    /// Load a `CGDN` snapshot into the engine's parameters. If the
    /// parameters were shared with other engines (built through an
    /// [`EngineFactory`]), this detaches a private copy first — the other
    /// replicas keep their bits.
    pub fn load_weights(&mut self, r: impl Read) -> Result<(), ServeError> {
        net::load_params(&mut self.net, r).map_err(|e| ServeError::Weights(e.to_string()))
    }

    /// Replace this engine's parameters with copy-on-write clones of
    /// `params` — the decoded weights are shared, not duplicated. Shapes
    /// are validated blob by blob.
    pub fn adopt_params(&mut self, params: &[Blob<S>]) -> Result<(), ServeError> {
        self.net
            .adopt_params(params)
            .map_err(|e| ServeError::Weights(e.to_string()))
    }

    /// Copy-on-write clones of this engine's parameter blobs (cheap: the
    /// buffers are shared, not copied).
    pub fn params(&self) -> Vec<Blob<S>> {
        self.net.learnable_params().into_iter().cloned().collect()
    }

    /// Heap bytes of parameter storage this engine uniquely owns; shared
    /// (factory-built) replicas report ~0 here.
    pub fn params_unique_bytes(&self) -> usize {
        self.net.params_unique_bytes()
    }

    /// Run one micro-batch of up to [`Engine::max_batch`] samples; returns
    /// the outputs as one flat slice of `samples.len() * output_len`
    /// values, sample-major, borrowed from the engine's output blob (the
    /// batcher copies each row into its request's reply). The slice is
    /// valid until the next `infer_batch` call.
    /// Only the `samples.len()` seated rows are computed; rows left over
    /// from a larger earlier batch are outside the active batch and can
    /// neither be read nor cost anything.
    pub fn infer_batch(&mut self, samples: &[&[S]]) -> Result<&[S], ServeError> {
        let n = samples.len();
        if n == 0 || n > self.max_batch {
            return Err(ServeError::BadInput(format!(
                "batch of {n} samples, engine capacity is 1..={}",
                self.max_batch
            )));
        }
        if let Some((i, s)) = samples
            .iter()
            .enumerate()
            .find(|(_, s)| s.len() != self.sample_len)
        {
            return Err(ServeError::BadInput(format!(
                "sample {i} has {} values, engine expects {}",
                s.len(),
                self.sample_len
            )));
        }

        // `build` created both blobs and `n` is within capacity, so a
        // failure below is this replica's net gone wrong, not the request.
        self.net
            .set_batch(n)
            .map_err(|e| ServeError::Replica(e.to_string()))?;
        let rows = self.net.input_mut(&self.input_name).ok_or_else(|| {
            ServeError::Replica(format!("input blob '{}' disappeared", self.input_name))
        })?;
        for (row, s) in rows.chunks_exact_mut(self.sample_len).zip(samples) {
            row.copy_from_slice(s);
        }
        self.net.forward(&self.team, &self.run);

        let out = self.net.blob(&self.output_name).ok_or_else(|| {
            ServeError::Replica(format!("output blob '{}' disappeared", self.output_name))
        })?;
        Ok(&out.data()[..n * self.output_len])
    }

    /// Convenience wrapper: run one sample and return an owned output
    /// vector (allocates — use [`Engine::infer_batch`] on hot paths).
    pub fn infer_one(&mut self, sample: &[S]) -> Result<Vec<S>, ServeError> {
        self.infer_batch(&[sample]).map(|o| o.to_vec())
    }

    /// Batch capacity of the input blob.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Values per input sample.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Values per output sample.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Thread-team size.
    pub fn team_size(&self) -> usize {
        self.team.size()
    }

    /// Architecture table of the deploy net.
    pub fn summary(&self) -> String {
        self.net.summary()
    }
}

/// A reusable recipe for engine replicas: one spec, one decoded weight
/// set, any number of engines. The snapshot bytes are decoded exactly once
/// (in [`EngineFactory::new`]); every [`EngineFactory::build`] hands the
/// new engine copy-on-write clones of those parameters, so N replicas
/// share one decoded copy — the paper's single-weight-copy invariant,
/// extended to serving. A panicked replica rebuilds from the same factory
/// without re-reading or re-decoding anything.
pub struct EngineFactory<S: Scalar = f32> {
    train_spec: NetSpec,
    sample_shape: Shape,
    cfg: EngineConfig,
    params: Vec<Blob<S>>,
}

impl<S: Scalar> EngineFactory<S> {
    /// Validate the spec by building a template engine, decode `weights`
    /// into it (if given) and capture the parameter set for sharing.
    /// Without weights the template's seeded random initialization becomes
    /// the shared set, so replicas are still bit-identical to each other.
    pub fn new(
        train_spec: &NetSpec,
        sample_shape: &Shape,
        cfg: &EngineConfig,
        weights: Option<&[u8]>,
    ) -> Result<Self, ServeError> {
        // The template team is never used for inference; size 1 avoids
        // spawning throwaway worker threads.
        let mut template = Engine::build(
            train_spec,
            sample_shape,
            &EngineConfig {
                n_threads: 1,
                ..*cfg
            },
        )?;
        if let Some(bytes) = weights {
            template.load_weights(bytes)?;
        }
        Ok(Self {
            train_spec: train_spec.clone(),
            sample_shape: sample_shape.clone(),
            cfg: *cfg,
            params: template.params(),
        })
    }

    /// Build one engine whose parameters are shared with every other
    /// engine from this factory.
    pub fn build(&self) -> Result<Engine<S>, ServeError> {
        let mut e = Engine::build(&self.train_spec, &self.sample_shape, &self.cfg)?;
        e.adopt_params(&self.params)?;
        Ok(e)
    }

    /// Build `n` engines sharing one parameter set.
    pub fn build_n(&self, n: usize) -> Result<Vec<Engine<S>>, ServeError> {
        if n == 0 {
            return Err(ServeError::Build("need at least one replica".into()));
        }
        (0..n).map(|_| self.build()).collect()
    }

    /// Engine configuration the factory builds with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Logical bytes of the shared decoded parameter set (data + diff).
    pub fn params_bytes(&self) -> usize {
        self.params.iter().map(|p| p.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAIN: &str = r#"
name: t
layer {
  name: d
  type: Data
  batch: 4
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  num_output: 3
  seed: 11
  bottom: data
  top: ip
}
layer {
  name: loss
  type: SoftmaxWithLoss
  bottom: ip
  bottom: label
  top: prob
}
"#;

    fn engine(max_batch: usize, threads: usize) -> Engine<f32> {
        let spec = NetSpec::parse(TRAIN).unwrap();
        Engine::build(
            &spec,
            &Shape::from(vec![6usize]),
            &EngineConfig {
                max_batch,
                n_threads: threads,
            },
        )
        .unwrap()
    }

    #[test]
    fn infer_batch_returns_per_sample_softmax() {
        let mut e = engine(4, 2);
        assert_eq!(e.output_len(), 3);
        let a = [0.3f32; 6];
        let b = [1.5f32; 6];
        let out = e.infer_batch(&[&a, &b]).unwrap();
        assert_eq!(out.len(), 2 * 3, "flat slice: n_samples x output_len");
        for o in out.chunks(3) {
            let sum: f32 = o.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "softmax rows sum to 1, got {sum}");
        }
    }

    #[test]
    fn partial_batch_matches_full_position() {
        let mut e = engine(4, 2);
        let a = [0.7f32; 6];
        let alone = e.infer_one(&a).unwrap();
        let b = [2.0f32; 6];
        let pair = e.infer_batch(&[&a, &b]).unwrap();
        assert_eq!(
            alone,
            pair[..3].to_vec(),
            "batch position must not change the bits"
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut e = engine(2, 1);
        let short = [0.0f32; 3];
        assert!(matches!(
            e.infer_batch(&[&short]),
            Err(ServeError::BadInput(_))
        ));
        let ok = [0.0f32; 6];
        assert!(matches!(
            e.infer_batch(&[&ok, &ok, &ok]),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(e.infer_batch(&[]), Err(ServeError::BadInput(_))));
    }

    #[test]
    fn malformed_spec_is_a_build_error_not_a_panic() {
        // The ReLU reads a blob no layer produces, which the deploy
        // transform passes through untouched — Engine::build must surface
        // ServeError::Build.
        const BAD: &str = r#"
name: bad
layer {
  name: d
  type: Data
  batch: 2
  top: data
  top: label
}
layer {
  name: ip
  type: InnerProduct
  num_output: 3
  bottom: data
  top: ip
}
layer {
  name: relu
  type: ReLU
  bottom: missing
  top: out
}
"#;
        let spec = NetSpec::parse(BAD).unwrap();
        let r = Engine::<f32>::build(
            &spec,
            &Shape::from(vec![6usize]),
            &EngineConfig {
                max_batch: 2,
                n_threads: 1,
            },
        );
        match r {
            Err(e) => assert!(
                matches!(&e, ServeError::Build(m) if m.contains("unknown bottom blob 'missing'")),
                "got: {e}"
            ),
            Ok(_) => panic!("malformed deploy spec must not build"),
        }
    }

    #[test]
    fn factory_replicas_share_one_decoded_parameter_set() {
        let spec = NetSpec::parse(TRAIN).unwrap();
        let cfg = EngineConfig {
            max_batch: 4,
            n_threads: 1,
        };
        let factory =
            EngineFactory::<f32>::new(&spec, &Shape::from(vec![6usize]), &cfg, None).unwrap();
        let engines = factory.build_n(3).unwrap();
        // Every replica's parameter buffers alias replica 0's.
        let base = engines[0].params();
        for e in &engines[1..] {
            for (a, b) in base.iter().zip(e.params()) {
                assert!(a.data_shared_with(&b), "weights are one allocation");
                assert!(b.diff_shared_with(a), "zeroed diffs shared too");
            }
            assert_eq!(e.params_unique_bytes(), 0, "replica owns no weight bytes");
        }
        // Inference does not detach the shared weights.
        let mut engines = engines;
        let x = [0.4f32; 6];
        let want = engines[0].infer_one(&x).unwrap();
        for e in engines.iter_mut() {
            assert_eq!(e.infer_one(&x).unwrap(), want, "replicas agree bitwise");
        }
        let base = engines[0].params();
        for e in &engines[1..] {
            for (a, b) in base.iter().zip(e.params()) {
                assert!(a.data_shared_with(&b), "forward pass must not detach");
            }
        }
        // Loading fresh weights into one replica detaches only that one.
        let mut snap = Vec::new();
        {
            let spec = NetSpec::parse(TRAIN).unwrap();
            let donor = net::Net::<f32>::from_spec_with_inputs(
                &crate::deploy::deploy_spec(&spec).unwrap().spec,
                None,
                &[("data".into(), Shape::from(vec![4usize, 6]))],
            )
            .unwrap();
            net::save_params(&donor, &mut snap).unwrap();
        }
        engines[1].load_weights(snap.as_slice()).unwrap();
        let p0 = engines[0].params();
        let p1 = engines[1].params();
        let p2 = engines[2].params();
        for ((a, b), c) in p0.iter().zip(&p1).zip(&p2) {
            assert!(!a.data_shared_with(b), "loaded replica detached");
            assert!(a.data_shared_with(c), "bystander replicas still share");
        }
    }
}
