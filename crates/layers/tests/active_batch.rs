//! Active batch: a layer re-`setup` on a bottom whose leading dimension
//! shrank (the way `Net::set_batch` seats a partial serving batch) must
//! compute exactly the prefix of its full-batch pass, bit for bit, in
//! both directions — and growing back must leave no stale rows. Every
//! layer that caches per-batch state between `setup`, `forward` and
//! `backward` has a case here.

use blob::Blob;
use layers::conv::ConvConfig;
use layers::inner_product::InnerProductConfig;
use layers::lrn::LrnConfig;
use layers::pooling::PoolConfig;
use layers::{
    ConvolutionLayer, DropoutLayer, ExecCtx, FlattenLayer, InnerProductLayer, Layer, LrnLayer,
    PoolingLayer, SoftmaxLayer, SoftmaxLossLayer, Workspace, WorkspaceRequest,
};
use omprt::ThreadTeam;

const FULL: usize = 5;
const THREADS: usize = 2;

/// Deterministic, sign-mixed value for flat element `i` of input `salt`.
fn value(i: usize, salt: usize) -> f64 {
    ((i * 2_654_435_761 + salt * 40_503) % 2001) as f64 / 1000.0 - 1.0
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One forward + backward at batch `n`: top data and bottom diffs.
struct Pass {
    tops: Vec<Vec<f64>>,
    bottom_diffs: Vec<Vec<f64>>,
}

struct Harness<L: Layer<f64>> {
    layer: L,
    bottoms: Vec<Blob<f64>>,
    tops: Vec<Blob<f64>>,
    team: ThreadTeam,
    ws: Workspace<f64>,
}

impl<L: Layer<f64>> Harness<L> {
    /// Bottoms are `[FULL, sample...]`, filled once at full capacity.
    fn new(mut layer: L, sample_shapes: &[&[usize]]) -> Self {
        let bottoms: Vec<Blob<f64>> = sample_shapes
            .iter()
            .enumerate()
            .map(|(salt, s)| {
                let mut dims = vec![FULL];
                dims.extend_from_slice(s);
                let mut b = Blob::new(dims);
                for (i, v) in b.data_mut().iter_mut().enumerate() {
                    *v = value(i, salt);
                }
                b
            })
            .collect();
        let refs: Vec<&Blob<f64>> = bottoms.iter().collect();
        let tops = layer.setup(&refs).into_iter().map(Blob::new).collect();
        let ws = Workspace::new(THREADS, THREADS, WorkspaceRequest::of(&layer));
        Self {
            layer,
            bottoms,
            tops,
            team: ThreadTeam::new(THREADS),
            ws,
        }
    }

    /// Seat batch `n` exactly as the net does — shrink the bottoms within
    /// their capacity, re-run `setup`, resize the tops — then run both
    /// passes over NaN-poisoned outputs.
    fn run(&mut self, n: usize) -> Pass {
        for b in &mut self.bottoms {
            let mut dims = b.shape().dims().to_vec();
            dims[0] = n;
            b.resize(dims);
        }
        let refs: Vec<&Blob<f64>> = self.bottoms.iter().collect();
        let shapes = self.layer.setup(&refs);
        for (t, shape) in self.tops.iter_mut().zip(shapes) {
            t.resize(shape);
            t.data_mut().fill(f64::NAN);
        }
        let ctx = ExecCtx::new(&self.team, &self.ws);
        self.layer.forward(&ctx, &refs, &mut self.tops);
        for (salt, t) in self.tops.iter_mut().enumerate() {
            for (i, g) in t.diff_mut().iter_mut().enumerate() {
                *g = value(i, 7 + salt);
            }
        }
        for b in &mut self.bottoms {
            b.diff_mut().fill(f64::NAN);
        }
        let top_refs: Vec<&Blob<f64>> = self.tops.iter().collect();
        self.layer.backward(&ctx, &top_refs, &mut self.bottoms);
        Pass {
            tops: self.tops.iter().map(|t| t.data().to_vec()).collect(),
            bottom_diffs: self.bottoms.iter().map(|b| b.diff().to_vec()).collect(),
        }
    }
}

fn assert_prefix(what: &str, n: usize, part: &[Vec<f64>], full: &[Vec<f64>]) {
    for (k, (p, f)) in part.iter().zip(full).enumerate() {
        let row = f.len() / FULL;
        assert_eq!(p.len(), n * row, "{what} {k}: batch {n} exposes {n} rows");
        assert_eq!(
            bits(p),
            bits(&f[..n * row]),
            "{what} {k}: batch {n} must equal the full-batch prefix bitwise"
        );
    }
}

/// The property itself: full, every smaller batch (largest first, so each
/// step runs over rows the previous one left behind), full again.
fn check<L: Layer<f64>>(layer: L, sample_shapes: &[&[usize]]) {
    let mut h = Harness::new(layer, sample_shapes);
    let full = h.run(FULL);
    for v in full.tops.iter().chain(&full.bottom_diffs) {
        assert!(v.iter().all(|x| !x.is_nan()), "full pass wrote every row");
    }
    let full_iters = h.layer.profile().0.coalesced_iters;
    for n in (1..FULL).rev() {
        let part = h.run(n);
        assert_prefix("top", n, &part.tops, &full.tops);
        assert_prefix("bottom diff", n, &part.bottom_diffs, &full.bottom_diffs);
        let iters = h.layer.profile().0.coalesced_iters;
        assert_eq!(iters * FULL, full_iters * n, "batch {n}: profiled loop");
    }
    let again = h.run(FULL);
    assert_prefix("regrown top", FULL, &again.tops, &full.tops);
    assert_prefix(
        "regrown bottom diff",
        FULL,
        &again.bottom_diffs,
        &full.bottom_diffs,
    );
}

#[test]
fn convolution() {
    check(
        ConvolutionLayer::new("conv", ConvConfig::new(4, 3, 1, 1)),
        &[&[2, 5, 5]],
    );
}

#[test]
fn inner_product() {
    check(
        InnerProductLayer::new("ip", InnerProductConfig::new(6)),
        &[&[3, 2, 2]],
    );
}

#[test]
fn max_pooling_mask() {
    check(
        PoolingLayer::new("pool", PoolConfig::max(2, 2)),
        &[&[3, 4, 4]],
    );
}

#[test]
fn average_pooling() {
    check(
        PoolingLayer::new("pool", PoolConfig::ave(3, 2)),
        &[&[2, 5, 5]],
    );
}

#[test]
fn lrn_scale() {
    // β = 0.75 takes the square-root power, any other β the general one.
    for beta in [0.75, 0.6] {
        let cfg = LrnConfig {
            beta,
            ..LrnConfig::cifar()
        };
        check(LrnLayer::new("norm", cfg), &[&[4, 3, 3]]);
    }
}

#[test]
fn softmax() {
    check(SoftmaxLayer::new("prob"), &[&[7]]);
}

#[test]
fn flatten() {
    check(FlattenLayer::new("flat"), &[&[2, 3, 2]]);
}

#[test]
fn dropout_mask() {
    check(DropoutLayer::new("drop", 0.5, 99), &[&[2, 3, 3]]);
}

/// The loss layer's top is a batch-wide scalar (and its bottom diff is
/// scaled by the batch it averages over), so the prefix property is stated
/// on its per-batch cache: the probabilities.
#[test]
fn softmax_loss_probabilities() {
    const CLASSES: usize = 4;
    let mut layer: SoftmaxLossLayer<f64> = SoftmaxLossLayer::new("loss");
    let mut scores: Blob<f64> = Blob::new([FULL, CLASSES]);
    for (i, v) in scores.data_mut().iter_mut().enumerate() {
        *v = value(i, 0);
    }
    let mut labels: Blob<f64> = Blob::new([FULL]);
    for (i, v) in labels.data_mut().iter_mut().enumerate() {
        *v = (i % CLASSES) as f64;
    }
    let team = ThreadTeam::new(THREADS);
    let ws = Workspace::<f64>::empty();
    let ctx = ExecCtx::new(&team, &ws);
    let mut run = |n: usize| {
        scores.resize([n, CLASSES]);
        labels.resize([n]);
        let shapes = layer.setup(&[&scores, &labels]);
        let mut tops = vec![Blob::new(shapes[0].clone())];
        layer.forward(&ctx, &[&scores, &labels], &mut tops);
        layer.probabilities().to_vec()
    };
    let full = run(FULL);
    for n in (1..FULL).rev() {
        assert_eq!(bits(&run(n)), bits(&full[..n * CLASSES]), "batch {n}");
    }
    assert_eq!(bits(&run(FULL)), bits(&full), "regrown");
}
