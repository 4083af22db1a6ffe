//! Method-level determinism: every table method must produce
//! bit-identical weights regardless of the scheduler thread count.
//!
//! The method entry points take their worker count from `APTQ_THREADS`
//! (see `aptq_tensor::parallel::thread_count`); this test pins it per
//! pass.
//! Thread count only affects scheduling, never results, so flipping the
//! variable mid-process cannot perturb concurrently running tests.

use aptq_core::grid::GridConfig;
use aptq_core::QuantSession;
use aptq_eval::pipeline::{quantize_clone, Method};
use aptq_lm::{Model, ModelConfig};

fn calib() -> Vec<Vec<u32>> {
    (0..8)
        .map(|k| (0..16).map(|i| ((i * 5 + k) % 16) as u32).collect())
        .collect()
}

const METHODS: [Method; 11] = [
    Method::Fp16,
    Method::Rtn { bits: 4 },
    Method::Gptq { bits: 4 },
    Method::Gptq { bits: 2 },
    Method::Owq {
        bits: 4,
        outlier_dims: 1,
    },
    Method::SmoothQuant { bits: 4 },
    Method::Fpq,
    Method::PbLlm { salient_ratio: 0.2 },
    Method::AptqUniform { bits: 4 },
    Method::AptqMixed { ratio: 0.75 },
    Method::ManualBlockwise { ratio: 0.5 },
];

fn run_all(base: &Model, cfg: &GridConfig, threads: &str) -> Vec<(Model, f32)> {
    std::env::set_var("APTQ_THREADS", threads);
    let mut session = QuantSession::new(calib());
    METHODS
        .iter()
        .map(|&m| quantize_clone(base, m, &mut session, cfg).unwrap())
        .collect()
}

#[test]
fn every_method_bit_identical_across_thread_counts() {
    let base = Model::new(&ModelConfig::test_tiny(16), 91);
    let cfg = GridConfig::default();
    let sequential = run_all(&base, &cfg, "1");
    for threads in ["2", "4"] {
        let parallel = run_all(&base, &cfg, threads);
        for ((method, (seq_model, seq_bits)), (par_model, par_bits)) in
            METHODS.iter().zip(&sequential).zip(&parallel)
        {
            assert_eq!(seq_bits, par_bits, "{method}: avg bits differ at {threads}");
            for layer in base.layer_refs() {
                assert_eq!(
                    seq_model.layer_weight(layer),
                    par_model.layer_weight(layer),
                    "{method}: weight {layer} differs at {threads} threads"
                );
            }
            assert_eq!(
                seq_model.embed(),
                par_model.embed(),
                "{method}: embedding differs at {threads} threads"
            );
        }
    }
    std::env::remove_var("APTQ_THREADS");
}
