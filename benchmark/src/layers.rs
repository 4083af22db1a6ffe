//! The traced split of one decode step into its layers.
//!
//! Each packed projection, the RMSNorms and the LM head are public
//! calls and are timed one by one, right after a real
//! `BatchDecodeSession::step` at the same batch size and cache position,
//! so every part of one sample sees the same host conditions. The float
//! `Linear` projections of the checkpoint are timed at the same shapes
//! as a reference. The cached-attention kernel is private to `aptq-lm`,
//! so attention and the residual adds are derived: step time minus the
//! timed parts.

use std::hint::black_box;
use std::time::Instant;

use aptq_lm::block::TransformerBlock;
use aptq_lm::{LinearOp, Model};
use aptq_qmodel::QuantizedModel;
use aptq_tensor::Matrix;

use crate::inputs::Request;
use crate::report::Report;
use crate::stats;

/// Fresh sessions prefilled to the probe position.
const ROUNDS: usize = 6;
/// Timed steps per session.
const STEPS: usize = 16;

/// Median microseconds per step of each part.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Packed q, k, v, o, gate, up, down projections, summed over blocks.
    pub proj: [f64; 7],
    pub rmsnorm: f64,
    pub head: f64,
    pub float_proj: f64,
    pub step: f64,
    pub residual: f64,
}

const PROJ_NAMES: [&str; 7] = [
    "qmodel.qlinear.q_us",
    "qmodel.qlinear.k_us",
    "qmodel.qlinear.v_us",
    "qmodel.qlinear.o_us",
    "qmodel.qlinear.gate_us",
    "qmodel.qlinear.up_us",
    "qmodel.qlinear.down_us",
];

impl Split {
    /// Adds the split to `report` as per-layer metrics.
    pub fn report(&self, report: &mut Report) {
        for (name, v) in PROJ_NAMES.iter().zip(self.proj) {
            report.metric(name, v, "us");
        }
        report.metric("lm.rmsnorm_us", self.rmsnorm, "us");
        report.metric("lm.head_us", self.head, "us");
        report.metric("lm.linear.proj_us", self.float_proj, "us");
        report.metric("lm.attention_residual_us", self.residual, "us");
        report.note(format!(
            "split: step {:.2} us = projections + norms + head + derived attention/residual",
            self.step
        ));
    }
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// The seven projections of a block, in q, k, v, o, gate, up, down
/// order.
pub fn projections<L: LinearOp>(b: &TransformerBlock<L>) -> [&L; 7] {
    [
        b.attn.wq(),
        b.attn.wk(),
        b.attn.wv(),
        b.attn.wo(),
        b.ffn.gate(),
        b.ffn.up(),
        b.ffn.down(),
    ]
}

/// Adds each projection's forward time, summed over `blocks`, into
/// `acc` (indexed as [`projections`]). `down` reads the `d_ff`-wide `h`,
/// the others the `d_model`-wide `xn`.
fn time_projections<L: LinearOp>(
    blocks: &[TransformerBlock<L>],
    xn: &Matrix,
    h: &Matrix,
    acc: &mut [f64; 7],
) {
    for block in blocks {
        for (i, l) in projections(block).into_iter().enumerate() {
            let input = if i == 6 { h } else { xn };
            let mut out = Matrix::zeros(input.rows(), l.d_out());
            acc[i] += time_us(|| l.forward_into(black_box(input), &mut out, None));
            black_box(&out);
        }
    }
}

/// Splits a step of `rows` sequences at cache position `position`.
///
/// # Errors
///
/// Returns a decode error from the probe session.
pub fn split(
    q: &QuantizedModel,
    float: &Model,
    pool: &[Request],
    rows: usize,
    position: usize,
) -> Result<Split, String> {
    let cfg = q.config();
    let rows = rows.max(1);
    let position = position.min(cfg.max_seq_len - STEPS - 1);
    let token = |r: usize, p: usize| -> u32 {
        let prompt = &pool[r % pool.len()].prompt;
        prompt[p % prompt.len()]
    };
    // Probe inputs: real embedding rows, normalized as the blocks see them.
    let mut x = Matrix::zeros(rows, cfg.d_model);
    for r in 0..rows {
        x.row_mut(r)
            .copy_from_slice(q.model().embed().row(token(r, 0) as usize));
    }
    let blocks = q.model().blocks();
    let (xn, _) = blocks[0].norm1.forward(&x);
    let h = blocks[0].ffn.gate().forward_op(&xn, None);

    let mut samples: Vec<Split> = Vec::with_capacity(ROUNDS * STEPS);
    for _ in 0..ROUNDS {
        let mut session = q.batch_decode_session();
        let seqs: Vec<usize> = (0..rows).map(|_| session.join()).collect();
        let batch_at = |p: usize| -> Vec<(usize, u32)> {
            seqs.iter()
                .enumerate()
                .map(|(r, &s)| (s, token(r, p)))
                .collect()
        };
        for p in 0..position {
            session
                .step(&batch_at(p))
                .map_err(|e| format!("probe: {e}"))?;
        }
        for p in position..position + STEPS {
            let batch = batch_at(p);
            let mut s = Split::default();
            let t = Instant::now();
            let logits = session.step(&batch).map_err(|e| format!("probe: {e}"))?;
            s.step = t.elapsed().as_secs_f64() * 1e6;
            black_box(logits);
            time_projections(blocks, &xn, &h, &mut s.proj);
            for block in blocks {
                for norm in [&block.norm1, &block.norm2] {
                    s.rmsnorm += time_us(|| {
                        black_box(norm.forward(black_box(&x)));
                    });
                }
            }
            s.rmsnorm += time_us(|| {
                black_box(q.model().final_norm().forward(black_box(&x)));
            });
            s.head += time_us(|| {
                black_box(xn.matmul(q.model().lm_head()));
            });
            let mut float_proj = [0.0; 7];
            time_projections(float.blocks(), &xn, &h, &mut float_proj);
            s.float_proj = float_proj.iter().sum();
            s.residual = s.step - s.proj.iter().sum::<f64>() - s.rmsnorm - s.head;
            samples.push(s);
        }
    }
    let med = |f: &dyn Fn(&Split) -> f64| stats::median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut out = Split {
        rmsnorm: med(&|s| s.rmsnorm),
        head: med(&|s| s.head),
        float_proj: med(&|s| s.float_proj),
        step: med(&|s| s.step),
        residual: med(&|s| s.residual),
        ..Split::default()
    };
    for i in 0..7 {
        out.proj[i] = med(&|s| s.proj[i]);
    }
    Ok(out)
}
