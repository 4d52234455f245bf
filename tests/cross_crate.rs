//! Cross-crate consistency checks: the contracts between the NAS
//! geometry, the accelerator model, and the surrogates.

use hdx_accel::{evaluate_network, AccelConfig, CostWeights, Dataflow, SearchSpace};
use hdx_nas::{Architecture, NetworkPlan};
use hdx_surrogate::dataset::expected_metrics;
use hdx_surrogate::{Generator, PairSet};
use hdx_tensor::{Rng, Tape, Tensor};
use std::collections::BTreeSet;

#[test]
fn relaxed_expectation_is_convex_combination_of_vertices() {
    // For every layer independently mixing two ops, the expected
    // latency must equal the probability-weighted sum of the pure
    // choices (additivity of the per-layer cost model).
    let plan = NetworkPlan::cifar18();
    let cfg = AccelConfig::new(14, 12, 32, Dataflow::OutputStationary).expect("valid");
    let a = Architecture::uniform(18, 0);
    let b = Architecture::uniform(18, 5);
    let la = evaluate_network(&plan.layers_for(&a), &cfg).latency_ms;
    let lb = evaluate_network(&plan.layers_for(&b), &cfg).latency_ms;
    for w in [0.25f32, 0.5, 0.75] {
        let mut probs = vec![0.0f32; 18 * 6];
        for l in 0..18 {
            probs[l * 6] = 1.0 - w;
            probs[l * 6 + 5] = w;
        }
        let mixed = expected_metrics(&plan, &probs, &cfg).latency_ms;
        let lin = (1.0 - w as f64) * la + w as f64 * lb;
        assert!(
            (mixed - lin).abs() / lin < 1e-9,
            "expectation not linear at w={w}: {mixed} vs {lin}"
        );
    }
}

#[test]
fn every_plan_architecture_evaluates_on_every_dataflow() {
    let mut rng = Rng::new(3);
    for plan in [NetworkPlan::cifar18(), NetworkPlan::imagenet21()] {
        let arch = Architecture::random(plan.num_layers(), &mut rng);
        let layers = plan.layers_for(&arch);
        for df in Dataflow::ALL {
            let cfg = AccelConfig::new(16, 16, 64, df).expect("valid");
            let m = evaluate_network(&layers, &cfg);
            assert!(m.is_valid(), "invalid metrics for {} on {df}", plan.name());
        }
    }
}

#[test]
fn generator_output_feeds_estimator_input() {
    // gen() and est() must agree on the hardware encoding layout.
    let plan = NetworkPlan::cifar18();
    let mut rng = Rng::new(4);
    let generator = Generator::new(&plan, &mut rng);
    let enc_data = Architecture::uniform(18, 1).one_hot();
    let mut tape = Tape::new();
    let vb = generator.bind(&mut tape);
    let enc = tape.leaf(Tensor::from_vec(enc_data.clone(), &[1, 108]));
    let hw = generator.forward(&mut tape, &vb, enc);
    let joint = tape.concat_cols(&[enc, hw]);
    assert_eq!(tape.value(joint).shape(), &[1, 114]);
    // Decoding the generator's hardware output always lands in-space.
    let cfg = Generator::decode(tape.value(hw).data());
    assert!(SearchSpace::paper().enumerate().contains(&cfg));
}

#[test]
fn pair_targets_match_analytical_model_at_one_hot() {
    let plan = NetworkPlan::cifar18();
    let mut rng = Rng::new(5);
    let pairs = PairSet::sample(&plan, 40, &mut rng, 0);
    // Even-indexed samples are one-hot by construction: reconstruct and
    // compare against the direct evaluation.
    for i in (0..pairs.len()).step_by(2) {
        let row = pairs.input_row(i);
        let arch = Architecture::from_distribution(&row[..108]);
        let hw: [f32; 6] = row[108..114].try_into().expect("6 features");
        let cfg = AccelConfig::decode(&hw);
        let direct = evaluate_network(&plan.layers_for(&arch), &cfg);
        let target = pairs.target_raw(i);
        assert!(
            (direct.latency_ms - target[0]).abs() / target[0] < 1e-6,
            "pair {i}: latency {} vs {}",
            direct.latency_ms,
            target[0]
        );
    }
}

#[test]
fn cost_weights_give_paper_scale_costs_across_space() {
    // Fig. 3 (right) plots Cost_HW in roughly [5, 30]; the normalized
    // weights must keep the whole (net, config) space in one decade.
    let plan = NetworkPlan::cifar18();
    let weights = CostWeights::paper();
    let mut rng = Rng::new(6);
    for _ in 0..50 {
        let arch = Architecture::random(18, &mut rng);
        let cfg = SearchSpace::paper().sample(&mut rng);
        let cost = weights.cost(&evaluate_network(&plan.layers_for(&arch), &cfg));
        assert!(
            (1.0..60.0).contains(&cost),
            "cost {cost} out of expected scale"
        );
    }
}

#[test]
fn cached_lut_rows_are_bounded_by_the_plan_sublayers() {
    // Rows are cached per layer, so the LUTs of any number of CIFAR
    // architectures reference one row per distinct sublayer of the plan
    // and no more. `metrics(l, 0)` points into row `l`'s shared
    // allocation, so its address identifies the row.
    let plan = NetworkPlan::cifar18();
    let mut rng = Rng::new(19);
    let mut archs: Vec<Architecture> = (0..hdx_nas::OP_SET.len())
        .map(|op| Architecture::uniform(18, op))
        .collect();
    archs.extend((0..6).map(|_| Architecture::random(18, &mut rng)));
    let mut sublayers = BTreeSet::new();
    let mut rows = BTreeSet::new();
    for arch in &archs {
        let layers = plan.layers_for(arch);
        let lut = hdx_accel::LayerLut::cached(
            &layers,
            &hdx_tensor::WorkerPool::new(hdx_tensor::num_jobs(0)),
        );
        for (l, layer) in layers.iter().enumerate() {
            sublayers.insert(*layer);
            rows.insert(std::ptr::from_ref(lut.metrics(l, 0)));
        }
    }
    assert_eq!(sublayers.len(), 48, "distinct CIFAR sublayers");
    assert_eq!(rows.len(), sublayers.len(), "one cached row per sublayer");
}

#[test]
fn lut_row_interp_differentiates_the_literal_accelerator_table() {
    // The missing piece DESIGN.md named for literal Auto-NBA table
    // gradients: a differentiable interpolation over the rows of the
    // pre-materialized per-(layer, configuration) metric table, wired
    // into the tape like every other op. Rows of the interpolation
    // table are network metrics of the enumerated configurations; a
    // continuous configuration coordinate then gets piecewise-linear
    // cost gradients straight from the table.
    let plan = NetworkPlan::cifar18();
    let layers = plan.layers_for(&Architecture::uniform(18, 2));
    let lut = hdx_accel::LayerLut::cached(
        &layers,
        &hdx_tensor::WorkerPool::new(hdx_tensor::num_jobs(0)),
    );
    let n_cfg = lut.configs().len();
    assert!(n_cfg >= 2);

    // Table: one row per configuration (enumeration order), columns =
    // (latency_ms, energy_mj, area_mm2).
    let mut rows = Vec::with_capacity(n_cfg * 3);
    for c in 0..n_cfg {
        let m = lut.network_metrics(c);
        rows.extend_from_slice(&[m.latency_ms as f32, m.energy_mj as f32, m.area_mm2 as f32]);
    }
    let table = Tensor::from_vec(rows, &[n_cfg, 3]);

    // Mid-cell coordinate: the interpolated row must be the exact blend
    // of the two neighbouring configurations…
    let mut tape = Tape::new();
    let coord = tape.leaf(Tensor::scalar(10.25));
    let row = tape.lut_row_interp(coord, &table);
    let lo = lut.network_metrics(10);
    let hi = lut.network_metrics(11);
    let expect_lat = 0.75 * lo.latency_ms as f32 + 0.25 * hi.latency_ms as f32;
    assert!((tape.value(row).at(0, 0) - expect_lat).abs() / expect_lat < 1e-5);

    // …and the latency gradient w.r.t. the coordinate must be the cell
    // slope of the table (the piecewise-linear Auto-NBA texture).
    let lat = tape.slice_cols(row, 0, 1);
    let loss = tape.sum(lat);
    let g = tape.backward(loss);
    let slope = hi.latency_ms as f32 - lo.latency_ms as f32;
    let got = g.wrt(coord).expect("coordinate gradient").item();
    assert!(
        (got - slope).abs() <= slope.abs().max(1.0) * 1e-5,
        "gradient {got} vs table slope {slope}"
    );
}
