//! Adam optimizer over the full model parameter set.

use crate::model::{LayerKind, Model, ModelGrads};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// Global-norm gradient clip (0 disables).
    pub clip_norm: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: 1.0,
        }
    }
}

/// Flat-buffer Adam state covering every model parameter.
///
/// Parameters are visited in a fixed canonical order (embedding, blocks
/// in order with `Q,K,V,O,gate,up,down,norm1,norm2`, final norm, LM
/// head), so the state buffers line up across steps.
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state sized for `model`.
    pub fn new(model: &Model, cfg: AdamConfig) -> Self {
        let n = model.config().param_count();
        Adam {
            cfg,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Current step count.
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update of `grads` to `model`, reading each
    /// gradient in place (scaled on the fly when clipped).
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not structurally match `model`.
    pub fn step(&mut self, model: &mut Model, grads: &ModelGrads) {
        self.t += 1;
        let mut scale = 1.0f32;
        if self.cfg.clip_norm > 0.0 {
            let norm = grads.global_norm();
            if norm > self.cfg.clip_norm {
                scale = self.cfg.clip_norm / norm;
            }
        }

        let bias1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
        let mut offset = 0usize;

        // The update core over one (param, grad) slice pair.
        let cfg = self.cfg;
        let m_buf = &mut self.m;
        let v_buf = &mut self.v;
        let mut adam_update = |param: &mut [f32], grad: &[f32]| {
            assert_eq!(param.len(), grad.len(), "adam: param/grad length mismatch");
            for (i, (p, &g)) in param.iter_mut().zip(grad.iter()).enumerate() {
                let g = g * scale;
                let m = &mut m_buf[offset + i];
                let v = &mut v_buf[offset + i];
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
                let mhat = *m / bias1;
                let vhat = *v / bias2;
                *p -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            }
            offset += grad.len();
        };

        adam_update(model.embed_mut().as_mut_slice(), grads.embed.as_slice());
        assert_eq!(
            grads.blocks.len(),
            model.blocks().len(),
            "adam: one gradient per block"
        );
        for (block, bg) in model.blocks_mut().iter_mut().zip(&grads.blocks) {
            let projections = [
                &bg.attn.dwq,
                &bg.attn.dwk,
                &bg.attn.dwv,
                &bg.attn.dwo,
                &bg.ffn.dgate,
                &bg.ffn.dup,
                &bg.ffn.ddown,
            ];
            for (kind, g) in LayerKind::ALL.into_iter().zip(projections) {
                adam_update(block.weight_mut(kind).as_mut_slice(), g.as_slice());
            }
            adam_update(block.norm1.gain_mut(), &bg.dnorm1);
            adam_update(block.norm2.gain_mut(), &bg.dnorm2);
        }
        adam_update(model.final_norm_gain_mut(), &grads.dfinal_norm);
        adam_update(model.lm_head_mut().as_mut_slice(), grads.lm_head.as_slice());
        assert_eq!(
            offset,
            self.m.len(),
            "adam: parameter walk covered {offset} of {}",
            self.m.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use aptq_tensor::Matrix;

    impl Adam {
        /// The step [`Adam::step`] replaced, kept verbatim (bar the private
        /// accessors it called) as its bit-exact oracle: it copies every
        /// gradient before applying it.
        fn oracle_step(&mut self, model: &mut Model, grads: &ModelGrads) {
            self.t += 1;
            let mut grads_scaled;
            let grads = if self.cfg.clip_norm > 0.0 {
                let norm = grads.global_norm();
                if norm > self.cfg.clip_norm {
                    grads_scaled = grads.clone();
                    grads_scaled.scale_assign(self.cfg.clip_norm / norm);
                    &grads_scaled
                } else {
                    grads
                }
            } else {
                grads
            };

            let bias1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
            let bias2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
            let mut offset = 0usize;

            // The update core over one (param, grad) slice pair.
            let cfg = self.cfg;
            let m_buf = &mut self.m;
            let v_buf = &mut self.v;
            let mut adam_update = |param: &mut [f32], grad: &[f32], offset: usize| {
                assert_eq!(param.len(), grad.len(), "adam: param/grad length mismatch");
                for (i, (p, &g)) in param.iter_mut().zip(grad.iter()).enumerate() {
                    let m = &mut m_buf[offset + i];
                    let v = &mut v_buf[offset + i];
                    *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                    *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
                    let mhat = *m / bias1;
                    let vhat = *v / bias2;
                    *p -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
                }
            };

            // Embedding.
            {
                let g = grads.embed.as_slice().to_vec();
                let p = model.embed_mut();
                adam_update(p.as_mut_slice(), &g, offset);
                offset += g.len();
            }
            // Blocks.
            for (bi, bg) in grads.blocks.iter().enumerate() {
                let pairs: [(&Matrix, u8); 7] = [
                    (&bg.attn.dwq, 0),
                    (&bg.attn.dwk, 1),
                    (&bg.attn.dwv, 2),
                    (&bg.attn.dwo, 3),
                    (&bg.ffn.dgate, 4),
                    (&bg.ffn.dup, 5),
                    (&bg.ffn.ddown, 6),
                ];
                for (g, which) in pairs {
                    let g = g.as_slice().to_vec();
                    let block = &mut model.blocks_mut()[bi];
                    let p = match which {
                        0 => block.attn.wq_mut().weight_mut(),
                        1 => block.attn.wk_mut().weight_mut(),
                        2 => block.attn.wv_mut().weight_mut(),
                        3 => block.attn.wo_mut().weight_mut(),
                        4 => block.ffn.gate_mut().weight_mut(),
                        5 => block.ffn.up_mut().weight_mut(),
                        _ => block.ffn.down_mut().weight_mut(),
                    };
                    adam_update(p.as_mut_slice(), &g, offset);
                    offset += g.len();
                }
                {
                    let g = bg.dnorm1.clone();
                    let p = model.blocks_mut()[bi].norm1.gain_mut();
                    adam_update(p, &g, offset);
                    offset += g.len();
                }
                {
                    let g = bg.dnorm2.clone();
                    let p = model.blocks_mut()[bi].norm2.gain_mut();
                    adam_update(p, &g, offset);
                    offset += g.len();
                }
            }
            // Final norm.
            {
                let g = grads.dfinal_norm.clone();
                let p = model.final_norm_gain_mut();
                adam_update(p, &g, offset);
                offset += g.len();
            }
            // LM head.
            {
                let g = grads.lm_head.as_slice().to_vec();
                let p = model.lm_head_mut();
                adam_update(p.as_mut_slice(), &g, offset);
                offset += g.len();
            }
            assert_eq!(
                offset,
                self.m.len(),
                "adam: parameter walk covered {offset} of {}",
                self.m.len()
            );
        }
    }

    #[test]
    fn step_matches_copying_oracle_bit_for_bit() {
        let cfg = ModelConfig::test_tiny(16);
        let seqs: [&[u32]; 3] = [&[1, 2, 3, 4, 5, 6], &[2, 4, 6, 8, 10], &[7, 3, 9, 1]];
        // A clip far below the gradients' norm (every step clips) and no
        // clipping at all.
        for clip_norm in [1e-3f32, 0.0] {
            let adam_cfg = AdamConfig {
                lr: 5e-3,
                clip_norm,
                ..AdamConfig::default()
            };
            let mut model = Model::new(&cfg, 11);
            let mut want = model.clone();
            let mut adam = Adam::new(&model, adam_cfg);
            let mut oracle = Adam::new(&want, adam_cfg);
            for step in 0..6 {
                let seq = seqs[step % seqs.len()];
                let (_, g) = model.sequence_grads(seq);
                if clip_norm > 0.0 {
                    assert!(g.global_norm() > clip_norm, "step {step} must clip");
                }
                adam.step(&mut model, &g);
                let (_, g) = want.sequence_grads(seq);
                oracle.oracle_step(&mut want, &g);
            }
            let bits = |m: &Model| -> Vec<u32> {
                let mut v: Vec<u32> = m.embed().as_slice().iter().map(|x| x.to_bits()).collect();
                for b in m.blocks() {
                    for kind in LayerKind::ALL {
                        v.extend(b.weight(kind).as_slice().iter().map(|x| x.to_bits()));
                    }
                    v.extend(b.norm1.gain().iter().map(|x| x.to_bits()));
                    v.extend(b.norm2.gain().iter().map(|x| x.to_bits()));
                }
                v.extend(m.final_norm().gain().iter().map(|x| x.to_bits()));
                v.extend(m.lm_head().as_slice().iter().map(|x| x.to_bits()));
                v
            };
            assert_eq!(bits(&model), bits(&want), "clip_norm = {clip_norm}");
            assert_eq!(adam.m, oracle.m, "clip_norm = {clip_norm}: first moments");
            assert_eq!(adam.v, oracle.v, "clip_norm = {clip_norm}: second moments");
        }
    }

    #[test]
    fn adam_reduces_loss_on_fixed_batch() {
        let cfg = ModelConfig::test_tiny(16);
        let mut model = Model::new(&cfg, 3);
        let mut adam = Adam::new(
            &model,
            AdamConfig {
                lr: 5e-3,
                ..AdamConfig::default()
            },
        );
        let seqs: Vec<Vec<u32>> = vec![vec![1, 2, 3, 4, 5, 6], vec![2, 4, 6, 8, 10, 12]];
        let loss_of = |m: &Model| -> f32 {
            seqs.iter().map(|s| m.sequence_loss(s)).sum::<f32>() / seqs.len() as f32
        };
        let before = loss_of(&model);
        for _ in 0..30 {
            let mut total: Option<crate::model::ModelGrads> = None;
            for s in &seqs {
                let (_, g) = model.sequence_grads(s);
                match &mut total {
                    None => total = Some(g),
                    Some(t) => t.add_assign(&g),
                }
            }
            let mut g = total.unwrap();
            g.scale_assign(1.0 / seqs.len() as f32);
            adam.step(&mut model, &g);
        }
        let after = loss_of(&model);
        assert!(
            after < before - 0.5,
            "Adam should memorize a 2-sequence batch: {before} -> {after}"
        );
        assert_eq!(adam.step_count(), 30);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let cfg = ModelConfig::test_tiny(16);
        let mut model = Model::new(&cfg, 4);
        let before = model.forward(&[1, 2, 3]);
        let mut adam = Adam::new(
            &model,
            AdamConfig {
                lr: 1e-3,
                clip_norm: 1e-6,
                ..AdamConfig::default()
            },
        );
        let (_, g) = model.sequence_grads(&[1, 2, 3, 4]);
        adam.step(&mut model, &g);
        let after = model.forward(&[1, 2, 3]);
        // With a microscopic clip the parameters barely move... but Adam's
        // normalized update still moves each weight by ~lr. The check:
        // outputs stay finite and close.
        assert!(after.all_finite());
        assert!(before.sub(&after).abs_max() < 1.0);
    }
}
