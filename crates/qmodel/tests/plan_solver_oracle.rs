//! The one OBQ plan solver against the loops it replaced.
//!
//! `QuantizedModel::quantize_from` and OWQ each ran their own sequential
//! OBQ loop; both now solve through `aptq_core::methods::solve_plan`,
//! whose layer solves run in parallel. The old loops are kept here
//! verbatim as oracles and compared bit for bit, on `test_tiny` and on
//! the committed TinyLlama-M checkpoint, with `APTQ_THREADS` pinned to
//! 1, 2 and 4 per pass: every packed layer's fingerprint, the OWQ
//! weights, the OWQ `QuantReport` and the session counters. A plan with
//! a missing entry pins the `MissingLayer` contract. `ci/check.sh` runs
//! this suite under `APTQ_THREADS=1` and `4` as well.
//!
//! Thread count only affects scheduling, never results, so flipping the
//! variable mid-process cannot perturb concurrently running tests.

use std::collections::BTreeMap;

use aptq_core::engine::quantize_layer_obq;
use aptq_core::grid::{GridConfig, QuantGrid};
use aptq_core::hessian::LayerHessian;
use aptq_core::methods::owq;
use aptq_core::report::{LayerOutcome, QuantReport};
use aptq_core::{collect_hessians, HessianMode, QuantError, QuantPlan, QuantSession};
use aptq_lm::attention::MultiHeadAttention;
use aptq_lm::block::TransformerBlock;
use aptq_lm::ffn::SwiGlu;
use aptq_lm::{LayerKind, LayerRef, Model, ModelConfig, ModelOf};
use aptq_qmodel::{QModelError, QuantizedLinear, QuantizedModel};

const THREADS: [&str; 3] = ["1", "2", "4"];

// ---------------------------------------------------------------------
// Oracles: the sequential `quantize_from` and OWQ loops.
// ---------------------------------------------------------------------

/// Oracle for `QuantizedModel::quantize_from`: each layer checked and
/// solved in turn, block by block.
fn oracle_quantize_from(
    model: &Model,
    plan: &QuantPlan,
    hessians: &BTreeMap<LayerRef, LayerHessian>,
    cfg: &GridConfig,
) -> Result<ModelOf<QuantizedLinear>, QModelError> {
    let mcfg = model.config().clone();
    let mut blocks = Vec::with_capacity(mcfg.n_layers);
    for b in 0..mcfg.n_layers {
        let quantize_one = |kind: LayerKind| -> Result<QuantizedLinear, QModelError> {
            let layer = LayerRef { block: b, kind };
            let bits = plan
                .bits_for(layer)
                .ok_or_else(|| QModelError::MissingLayer(layer.to_string()))?;
            let lh = hessians
                .get(&layer)
                .ok_or_else(|| QModelError::MissingLayer(layer.to_string()))?;
            let grid = QuantGrid::try_int(bits, cfg.asymmetric)?;
            let res =
                quantize_layer_obq(&layer.to_string(), model.layer_weight(layer), lh, grid, cfg)?;
            Ok(QuantizedLinear::new(res.packed))
        };
        let src = &model.blocks()[b];
        let attn = MultiHeadAttention::from_parts(
            quantize_one(LayerKind::Q)?,
            quantize_one(LayerKind::K)?,
            quantize_one(LayerKind::V)?,
            quantize_one(LayerKind::O)?,
            mcfg.n_heads,
        );
        let ffn = SwiGlu::from_parts(
            quantize_one(LayerKind::Gate)?,
            quantize_one(LayerKind::Up)?,
            quantize_one(LayerKind::Down)?,
        );
        blocks.push(TransformerBlock::from_parts(
            attn,
            ffn,
            src.norm1.clone(),
            src.norm2.clone(),
        ));
    }
    Ok(ModelOf::from_parts(
        mcfg,
        model.embed().clone(),
        blocks,
        model.final_norm().clone(),
        model.lm_head().clone(),
    ))
}

/// Oracle for `owq::quantize`: each layer's outlier rows picked, the
/// layer solved and the rows restored, in canonical layer order.
fn oracle_owq(
    model: &mut Model,
    session: &mut QuantSession,
    bits: u8,
    outlier_dims: usize,
    cfg: &GridConfig,
) -> Result<QuantReport, QuantError> {
    let hessians = session.hessians(model, HessianMode::LayerInput)?;
    let grid = QuantGrid::try_int(bits, cfg.asymmetric)?;
    let mut outcomes = Vec::new();

    for layer in model.layer_refs() {
        let w = model.layer_weight(layer).clone();
        let (d_in, d_out) = w.shape();
        let lh = &hessians[&layer];
        let keep = owq::outlier_rows_for(model, &hessians, layer, outlier_dims.min(d_in));

        let res = quantize_layer_obq(&layer.to_string(), &w, lh, grid, cfg)?;
        let mut deq = res.dequantized;
        for &r in &keep {
            for c in 0..d_out {
                deq[(r, c)] = w[(r, c)];
            }
        }
        let storage = res.packed.storage_bytes() + keep.len() * d_out * 2;
        session.metrics_mut().incr("quant/owq/layers_solved");
        session
            .metrics_mut()
            .add("quant/owq/outlier_rows_kept", keep.len() as u64);
        *model.layer_weight_mut(layer) = deq;
        outcomes.push(LayerOutcome {
            layer,
            bits,
            recon_error: res.recon_error,
            storage_bytes: storage,
        });
    }

    let mut report = QuantReport::new(format!("OWQ-{bits}bit"), model, outcomes);
    report.avg_bits += owq::extra_avg_bits(model, outlier_dims, bits);
    Ok(report)
}

// ---------------------------------------------------------------------
// Inputs and bitwise views.
// ---------------------------------------------------------------------

fn tinyllama_m() -> Model {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../assets/ckpt-s800b12l44-v134-tinyllama_m.json"
    );
    let json = std::fs::read_to_string(path).expect("committed TinyLlama-M checkpoint");
    Model::from_json(&json).expect("checkpoint parses")
}

/// Seeded segments of the given lengths over `vocab` tokens.
fn segments(lengths: &[usize], vocab: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut state = seed;
    lengths
        .iter()
        .map(|&len| {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    ((state >> 33) % vocab as u64) as u32
                })
                .collect()
        })
        .collect()
}

/// The two models under test with their calibration sets.
fn inputs() -> Vec<(&'static str, Model, Vec<Vec<u32>>)> {
    let tiny = Model::new(&ModelConfig::test_tiny(16), 61);
    let tiny_calib = segments(&[12, 7, 16, 1, 9], 16, 5);
    let m = tinyllama_m();
    let m_calib = segments(&[64, 33, 1, 64, 17], m.config().vocab_size, 13);
    vec![("test_tiny", tiny, tiny_calib), ("TinyLlama-M", m, m_calib)]
}

/// A mixed 2/3/4-bit plan over every layer.
fn mixed_plan(model: &Model) -> QuantPlan {
    let mut plan = QuantPlan::uniform(model, 4);
    for (i, layer) in model.layer_refs().into_iter().enumerate() {
        plan.set_bits(layer, [4, 2, 3][i % 3]);
    }
    plan
}

/// Every packed layer's fingerprint, in canonical order.
fn fingerprints(m: &ModelOf<QuantizedLinear>) -> Vec<(LayerRef, u64)> {
    let mut out = Vec::new();
    for (block, b) in m.blocks().iter().enumerate() {
        let layers = [
            b.attn.wq(),
            b.attn.wk(),
            b.attn.wv(),
            b.attn.wo(),
            b.ffn.gate(),
            b.ffn.up(),
            b.ffn.down(),
        ];
        for (kind, lin) in LayerKind::ALL.into_iter().zip(layers) {
            out.push((LayerRef { block, kind }, lin.fingerprint()));
        }
    }
    out
}

/// A report's fields with every float taken by its bits: method,
/// average bits, per-layer outcomes, quantized and fp16 bytes.
type ReportBits = (String, u32, Vec<(LayerRef, u8, u32, usize)>, usize, usize);

fn report_bits(r: &QuantReport) -> ReportBits {
    let layers = r
        .layers
        .iter()
        .map(|o| (o.layer, o.bits, o.recon_error.to_bits(), o.storage_bytes))
        .collect();
    (
        r.method.clone(),
        r.avg_bits.to_bits(),
        layers,
        r.quantized_bytes,
        r.fp16_bytes,
    )
}

/// Every layer weight of a model, taken by bits.
fn weight_bits(m: &Model) -> Vec<(LayerRef, Vec<u32>)> {
    m.layer_refs()
        .into_iter()
        .map(|r| {
            let bits = m.layer_weight(r).as_slice().iter().map(|v| v.to_bits());
            (r, bits.collect())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn quantize_from_matches_sequential_oracle() {
    let cfg = GridConfig::default();
    for (what, model, calib) in inputs() {
        let hessians = collect_hessians(&model, &calib, HessianMode::AttentionAware).unwrap();
        let plans = [QuantPlan::uniform(&model, 4), mixed_plan(&model)];
        for (p, plan) in plans.iter().enumerate() {
            let want = oracle_quantize_from(&model, plan, &hessians, &cfg).unwrap();
            for threads in THREADS {
                std::env::set_var("APTQ_THREADS", threads);
                let got = QuantizedModel::quantize_from(&model, plan, &hessians, &cfg).unwrap();
                assert_eq!(
                    fingerprints(got.model()),
                    fingerprints(&want),
                    "{what} plan {p}: packed layers differ at {threads} threads"
                );
                assert!(
                    *got.model() == want,
                    "{what} plan {p}: packed model differs at {threads} threads"
                );
                got.verify().unwrap();
            }
        }
    }
}

#[test]
fn quantize_from_missing_entry_matches_oracle() {
    let cfg = GridConfig::default();
    for (what, model, calib) in inputs() {
        let hessians = collect_hessians(&model, &calib, HessianMode::AttentionAware).unwrap();
        let layers = model.layer_refs();
        let late = layers[layers.len() - 2];

        // A plan missing one late layer, and a Hessian map missing it.
        let mut assignments = BTreeMap::new();
        for &layer in layers.iter().filter(|&&l| l != late) {
            assignments.insert(layer, 4);
        }
        let gappy_plan = QuantPlan::from_assignments(assignments);
        let mut gappy_hessians = hessians.clone();
        gappy_hessians.remove(&late);
        let cases = [
            (&gappy_plan, &hessians),
            (&QuantPlan::uniform(&model, 4), &gappy_hessians),
        ];
        for (c, (plan, hs)) in cases.into_iter().enumerate() {
            let want = match oracle_quantize_from(&model, plan, hs, &cfg) {
                Err(QModelError::MissingLayer(layer)) => layer,
                other => panic!("{what} case {c}: oracle gave {other:?}"),
            };
            assert_eq!(want, late.to_string());
            for threads in THREADS {
                std::env::set_var("APTQ_THREADS", threads);
                match QuantizedModel::quantize_from(&model, plan, hs, &cfg) {
                    Err(QModelError::MissingLayer(layer)) => assert_eq!(
                        layer, want,
                        "{what} case {c}: wrong layer at {threads} threads"
                    ),
                    other => panic!("{what} case {c}: expected MissingLayer, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn owq_matches_sequential_oracle() {
    let cfg = GridConfig::default();
    for (what, base, calib) in inputs() {
        for (bits, outlier_dims) in [(4u8, 1usize), (2, 3)] {
            let mut want_model = base.clone();
            let mut want_session = QuantSession::new(calib.clone());
            let want =
                oracle_owq(&mut want_model, &mut want_session, bits, outlier_dims, &cfg).unwrap();
            for threads in THREADS {
                std::env::set_var("APTQ_THREADS", threads);
                let mut got_model = base.clone();
                let mut got_session = QuantSession::new(calib.clone());
                let got = owq::quantize(&mut got_model, &mut got_session, bits, outlier_dims, &cfg)
                    .unwrap();
                let ctx = format!("{what} OWQ-{bits} k={outlier_dims} at {threads} threads");
                assert_eq!(report_bits(&got), report_bits(&want), "{ctx}: report");
                assert_eq!(
                    weight_bits(&got_model),
                    weight_bits(&want_model),
                    "{ctx}: weights"
                );
                assert_eq!(
                    got_session.metrics(),
                    want_session.metrics(),
                    "{ctx}: counters"
                );
            }
        }
    }
}
