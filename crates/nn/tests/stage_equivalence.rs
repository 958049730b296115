//! The Bundle-stage contract: a stage — a convolution and the
//! scale-bias, activation and max pooling after it, run as one pass
//! forward and one gradient-routing pass backward — gives the bits of
//! its layers run one by one, both the standalone layer kernels and the
//! naive loops of `codesign_nn::reference`.
//!
//! Checked: the epilogue's output and its backward `dz`, `dscale` and
//! `dbias`, on planes the pool window does not divide, with batches of
//! 1, 7, 8 and 9 images, and values full of ties, signed zeros,
//! infinities and NaN; and whole networks, whose output, cached
//! convolution outputs and one SGD step's parameters must match a
//! layer-by-layer pass. The kernels run at the process's SIMD level;
//! CI runs this suite at `CODESIGN_SIMD=scalar` and `avx2`.

use codesign_dnn::builder::DnnBuilder;
use codesign_dnn::bundle::{bundle_by_id, BundleId};
use codesign_dnn::quant::Activation;
use codesign_dnn::space::DesignPoint;
use codesign_dnn::TensorShape;
use codesign_nn::engine::{conv_backward, conv_forward, dwconv_backward, dwconv_forward};
use codesign_nn::layers::{
    activation_backward, activation_forward, avgpool_backward, avgpool_forward, epilogue_backward,
    epilogue_forward, gap_backward, gap_forward, maxpool_backward, maxpool_forward,
    scale_bias_backward, scale_bias_forward, Epilogue, ScaleBiasParams,
};
use codesign_nn::network::NnLayer;
use codesign_nn::{reference, Engine, Network, Tensor};
use proptest::prelude::*;

/// Bit patterns, with every NaN as the canonical one: IEEE 754 leaves
/// NaN signs and payloads to the hardware, so only NaN-ness is part of
/// the contract.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Seeded values, half from a palette of ties, signed zeros, the
/// activation clips, infinities and NaN, half an ordinary ramp.
fn awkward(len: usize, seed: u64) -> Vec<f32> {
    const PALETTE: [f32; 10] = [
        0.0,
        -0.0,
        1.5,
        4.0,
        8.0,
        f32::NAN,
        f32::NEG_INFINITY,
        f32::INFINITY,
        1.5,
        -2.5,
    ];
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (state >> 33) as usize;
            if r.is_multiple_of(2) {
                PALETTE[(r / 2) % PALETTE.len()]
            } else {
                ((r / 2) % 1_000) as f32 * 0.013 - 3.0
            }
        })
        .collect()
}

/// The epilogue's ops run one by one on a batch: the standalone layer
/// kernels, forward output and backward `(dz, dscale, dbias)`.
fn standalone(z: &Tensor, e: &Epilogue, dy: &Tensor) -> (Tensor, Tensor, Vec<f32>, Vec<f32>) {
    let u = e.scale_bias.map_or(z.clone(), |p| scale_bias_forward(z, p));
    let a = e.act.map_or(u.clone(), |act| activation_forward(&u, act));
    let y = e.pool.map_or(a.clone(), |k| maxpool_forward(&a, k));
    let g = e.pool.map_or(dy.clone(), |k| maxpool_backward(&a, k, dy));
    let g = e
        .act
        .map_or(g.clone(), |act| activation_backward(&u, act, g));
    let (dz, ds, db) = match e.scale_bias {
        Some(p) => scale_bias_backward(z, p, g),
        None => (g, Vec::new(), Vec::new()),
    };
    (y, dz, ds, db)
}

/// The same on one image through the naive reference loops.
fn naive(z: &Tensor, e: &Epilogue, dy: &Tensor) -> (Tensor, Tensor, Vec<f32>, Vec<f32>) {
    let u = e
        .scale_bias
        .map_or(z.clone(), |p| reference::scale_bias_forward(z, p));
    let a = e
        .act
        .map_or(u.clone(), |act| reference::activation_forward(&u, act));
    let y = e
        .pool
        .map_or(a.clone(), |k| reference::maxpool_forward(&a, k));
    let g = e
        .pool
        .map_or(dy.clone(), |k| reference::maxpool_backward(&a, k, dy));
    let g = e
        .act
        .map_or(g.clone(), |act| reference::activation_backward(&u, act, &g));
    let (dz, ds, db) = match e.scale_bias {
        Some(p) => reference::scale_bias_backward(z, p, &g),
        None => (g, Vec::new(), Vec::new()),
    };
    (y, dz, ds, db)
}

/// Adds `part` into `total` element by element, as the batch sums its
/// per-image parameter gradients.
fn add_into(total: &mut Vec<f32>, part: &[f32]) {
    total.resize(part.len(), 0.0);
    for (t, v) in total.iter_mut().zip(part) {
        *t += v;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused epilogue equals its ops run one by one through the
    /// standalone kernels (batched) and the naive loops (per image),
    /// forward and backward, bit for bit.
    #[test]
    fn epilogue_matches_its_layers_run_one_by_one(
        n_idx in 0usize..4,
        c in 1usize..4,
        oh in 1usize..6,
        ow in 1usize..7,
        extra in 0usize..9,
        pool in 0usize..4,
        act in 0usize..4,
        with_sb in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let n = [1, 7, 8, 9][n_idx];
        // Planes the window does not divide: up to `k - 1` leftover
        // rows and columns.
        let k = pool.max(1);
        let (h, w) = (oh * k + extra / 3 % k, ow * k + extra % k);
        let sb = ScaleBiasParams { scale: awkward(c, seed ^ 1), bias: awkward(c, seed ^ 2) };
        let e = Epilogue {
            scale_bias: (with_sb == 1).then_some(&sb),
            act: [None, Some(Activation::Relu), Some(Activation::Relu4), Some(Activation::Relu8)][act],
            pool: (pool > 0).then_some(pool),
        };
        let (oh, ow) = if pool > 0 { (oh, ow) } else { (h, w) };
        let z = Tensor::from_vec(&[n, c, h, w], awkward(n * c * h * w, seed));
        let dy = Tensor::from_vec(&[n, c, oh, ow], awkward(n * c * oh * ow, !seed));

        let y = epilogue_forward(&z, &e);
        let (dz, ds, db) = epilogue_backward(&z, &e, dy.clone());
        let (want_y, want_dz, want_ds, want_db) = standalone(&z, &e, &dy);
        prop_assert_eq!(bits(y.data()), bits(want_y.data()));
        prop_assert_eq!(bits(dz.data()), bits(want_dz.data()));
        prop_assert_eq!(bits(&ds), bits(&want_ds));
        prop_assert_eq!(bits(&db), bits(&want_db));

        let (mut sum_ds, mut sum_db) = (Vec::new(), Vec::new());
        for (i, (zi, gi)) in z.unstack().iter().zip(dy.unstack()).enumerate() {
            let (yi, dzi, dsi, dbi) = naive(zi, &e, &gi);
            prop_assert_eq!(bits(y.image(i)), bits(yi.data()));
            prop_assert_eq!(bits(dz.image(i)), bits(dzi.data()));
            add_into(&mut sum_ds, &dsi);
            add_into(&mut sum_db, &dbi);
        }
        prop_assert_eq!(bits(&ds), bits(&sum_ds));
        prop_assert_eq!(bits(&db), bits(&sum_db));
    }
}

/// Ties route to the first maximum, an all-`-inf` or all-NaN window to
/// its first element, and rows and columns past the last window get
/// `+0.0`, through scale-bias and a clipped activation.
#[test]
fn pool_ties_and_empty_windows_route_to_the_first_element() {
    let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
    // One 3 x 5 plane, window 2: windows (0,0) and (0,1); row 2 and
    // column 4 are leftovers. Window (0,0) ties at 2.0; window (0,1)
    // holds NaN and -inf only.
    let z = Tensor::from_vec(
        &[1, 3, 5],
        vec![
            2.0, 2.0, nan, ninf, 9.0, //
            1.0, 2.0, ninf, nan, 9.0, //
            9.0, 9.0, 9.0, 9.0, 9.0,
        ],
    );
    let sb = ScaleBiasParams {
        scale: vec![1.0],
        bias: vec![0.0],
    };
    let e = Epilogue {
        scale_bias: Some(&sb),
        act: Some(Activation::Relu8),
        pool: Some(2),
    };
    let dy = Tensor::from_vec(&[1, 1, 2], vec![3.0, 5.0]);
    let (dz, _, _) = epilogue_backward(&z, &e, dy.clone());
    // Window (0,1): -inf and NaN activate to 0.0, so its maximum is 0.0
    // and its first element takes the gradient.
    let want = [
        3.0, 0.0, 5.0, 0.0, 0.0, //
        0.0, 0.0, 0.0, 0.0, 0.0, //
        0.0, 0.0, 0.0, 0.0, 0.0,
    ];
    assert_eq!(bits(dz.data()), bits(&want));
    let (_, want_dz, _, _) = naive(&z, &e, &dy);
    assert_eq!(bits(dz.data()), bits(want_dz.data()));
    // Without the activation the raw window keeps its NaN and -inf.
    let raw = Epilogue {
        pool: Some(2),
        ..Epilogue::default()
    };
    let (dz, _, _) = epilogue_backward(&z, &raw, dy.clone());
    assert_eq!(bits(&dz.data()[..5]), bits(&[3.0, 0.0, 5.0, 0.0, 0.0]));
    assert_eq!(bits(dz.data()), bits(naive(&z, &raw, &dy).1.data()));
}

/// A network's layers run one by one through the public layer
/// functions on `engine`: each layer's input, then the output.
fn layer_by_layer(net: &Network, x: &Tensor, engine: Engine) -> Vec<Tensor> {
    let mut acts = vec![x.clone()];
    for layer in net.layers() {
        let x = acts.last().expect("an input");
        let y = match layer {
            NnLayer::Conv(p) => conv_forward(x, p, engine),
            NnLayer::DwConv(p) => dwconv_forward(x, p, engine),
            NnLayer::MaxPool(k) => maxpool_forward(x, *k),
            NnLayer::AvgPool(k) => avgpool_forward(x, *k),
            NnLayer::ScaleBias(p) => scale_bias_forward(x, p),
            NnLayer::Act(a) => activation_forward(x, *a),
            NnLayer::Gap => gap_forward(x),
        };
        acts.push(y);
    }
    acts
}

/// Every trainable parameter after one SGD step (learning rate 1, no
/// momentum) on the gradients of a layer-by-layer backward pass: the
/// arithmetic of `Network::sgd_step` on a fresh network.
fn stepped_layer_by_layer(
    net: &Network,
    acts: &[Tensor],
    grad: &Tensor,
    engine: Engine,
) -> Vec<u32> {
    let layers = net.layers();
    let mut grads: Vec<(Vec<f32>, Vec<f32>)> = vec![(Vec::new(), Vec::new()); layers.len()];
    let mut g = grad.clone();
    for (i, layer) in layers.iter().enumerate().rev() {
        let x = &acts[i];
        g = match layer {
            NnLayer::Conv(p) => {
                let (dx, dw, db) = conv_backward(x, p, &g, engine, i > 0);
                grads[i] = (dw, db);
                match dx {
                    Some(dx) => dx,
                    None => break,
                }
            }
            NnLayer::DwConv(p) => {
                let (dx, dw, db) = dwconv_backward(x, p, &g, engine, i > 0);
                grads[i] = (dw, db);
                match dx {
                    Some(dx) => dx,
                    None => break,
                }
            }
            NnLayer::MaxPool(k) => maxpool_backward(x, *k, &g),
            NnLayer::AvgPool(k) => avgpool_backward(x, *k, &g),
            NnLayer::ScaleBias(p) => {
                let (dx, ds, db) = scale_bias_backward(x, p, g);
                grads[i] = (ds, db);
                dx
            }
            NnLayer::Act(a) => activation_backward(x, *a, g),
            NnLayer::Gap => gap_backward(x, &g),
        };
    }
    let step = |w: &[f32], g: &[f32]| -> Vec<u32> {
        w.iter()
            .zip(g)
            .map(|(w, g)| {
                let momentum = 0.0f32 * 0.0 + (0.0 + g);
                (w - 1.0 * momentum).to_bits()
            })
            .collect()
    };
    let mut out = Vec::new();
    for (layer, (gw, gb)) in layers.iter().zip(&grads) {
        let (w, b) = match layer {
            NnLayer::Conv(p) => (&p.weights, &p.bias),
            NnLayer::DwConv(p) => (&p.weights, &p.bias),
            NnLayer::ScaleBias(p) => (&p.scale, &p.bias),
            _ => continue,
        };
        out.extend(step(w, gw));
        out.extend(step(b, gb));
    }
    out
}

/// Every trainable parameter of `net`, as bits, in layer order.
fn param_bits(net: &Network) -> Vec<u32> {
    let mut out = Vec::new();
    for layer in net.layers() {
        let (w, b) = match layer {
            NnLayer::Conv(p) => (&p.weights, &p.bias),
            NnLayer::DwConv(p) => (&p.weights, &p.bias),
            NnLayer::ScaleBias(p) => (&p.scale, &p.bias),
            _ => continue,
        };
        out.extend(w.iter().map(|v| v.to_bits()));
        out.extend(b.iter().map(|v| v.to_bits()));
    }
    out
}

/// Whole networks of every stage shape — conv and dw-conv stages with
/// and without a pool, the expansion spot's conv → activation (→ pool)
/// with no scale-bias, and the head's conv → GAP — on a 31 x 31 input
/// (both pools drop a row and a column), on both engines, with one
/// image and (direct kernels) with a full lane group and a partial one: the stage
/// pass's output, its cached convolution outputs and one SGD step's
/// parameters equal the layer-by-layer pass's.
#[test]
fn networks_match_their_layers_run_one_by_one() {
    let (h, w) = (31, 31);
    for (id, act) in [
        (1, Activation::Relu),
        (6, Activation::Relu4),
        (13, Activation::Relu8),
        (17, Activation::Relu4),
    ] {
        let mut point = DesignPoint::initial(bundle_by_id(BundleId(id)).expect("bundle"), 2);
        point.base_channels = 8;
        point.max_channels = 16;
        point.activation = act;
        point.downsample = vec![true, false];
        point.expansion = vec![2.0, 1.0];
        let dnn = DnnBuilder::new()
            .input(TensorShape::new(3, h, w))
            .build(&point)
            .expect("the network builds");
        // The naive engine is slow in debug builds: one image there.
        for (engine, batches) in [(Engine::Gemm, &[1, 9][..]), (Engine::Reference, &[1][..])] {
            for &n in batches {
                let mut net = Network::from_dnn(&dnn, 11)
                    .expect("compiles")
                    .with_engine(engine);
                let x =
                    Tensor::from_vec(&[n, 3, h, w], awkward(n * 3 * h * w, id as u64 + n as u64));
                let acts = layer_by_layer(&net, &x, engine);
                let (out, cache) = net.forward_train(&x);
                let ctx = format!("bundle {id}, {n} images, {engine}");
                assert_eq!(bits(out.data()), bits(acts[acts.len() - 1].data()), "{ctx}");
                assert_eq!(bits(net.forward(&x).data()), bits(out.data()), "{ctx}");
                let layers = net.layers();
                for (i, slot) in cache.iter().enumerate() {
                    match slot.to_tensor() {
                        Some(t) => {
                            assert_eq!(bits(t.data()), bits(acts[i].data()), "{ctx}, slot {i}")
                        }
                        // An empty slot sits inside a stage, after its
                        // convolution output's slot.
                        None => assert!(
                            i >= 2
                                && !matches!(layers[i - 1], NnLayer::Conv(_) | NnLayer::DwConv(_)),
                            "{ctx}: slot {i} is empty"
                        ),
                    }
                }
                let grad = Tensor::from_vec(out.shape(), awkward(out.len(), 99));
                let want = stepped_layer_by_layer(&net, &acts, &grad, engine);
                net.backward(&cache, &grad);
                net.sgd_step(1.0, 0.0);
                assert_eq!(param_bits(&net), want, "{ctx}: one SGD step");
            }
        }
    }
}
