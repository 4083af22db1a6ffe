//! Batch-parallel pretraining loop.
//!
//! The paper quantizes *pretrained* checkpoints; our substitute models are
//! pretrained here, on the synthetic corpus, with Adam and scoped
//! parallelism over the batch (each sequence's forward/backward is
//! independent; gradients are merged in batch order on the main thread,
//! so training is bit-identical at any thread count).

use aptq_tensor::parallel::thread_count;

use crate::adam::{Adam, AdamConfig};
use crate::model::{Model, ModelGrads};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Sequences per step.
    pub batch_size: usize,
    /// Adam settings.
    pub adam: AdamConfig,
    /// Print a progress line every `log_every` steps (0 = silent).
    pub log_every: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            steps: 600,
            batch_size: 16,
            adam: AdamConfig::default(),
            log_every: 0,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss over the first 10 steps.
    pub initial_loss: f32,
    /// Mean loss over the last 10 steps.
    pub final_loss: f32,
    /// Total optimizer steps taken.
    pub steps: usize,
}

/// Runs the training loop: samples batches from a data source and applies
/// Adam updates.
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(cfg: TrainerConfig) -> Self {
        Trainer { cfg }
    }

    /// Trains `model` in place.
    ///
    /// `next_batch` is called once per step with the step index and must
    /// return a non-empty batch of token sequences (each of length ≥ 2).
    ///
    /// # Determinism
    ///
    /// For a fixed model seed and batch stream the trained weights are
    /// bit-identical at any thread count (see [`batch_grads`]).
    ///
    /// # Panics
    ///
    /// Panics if `next_batch` returns an empty batch.
    pub fn run(
        &self,
        model: &mut Model,
        mut next_batch: impl FnMut(usize) -> Vec<Vec<u32>>,
    ) -> TrainReport {
        let mut adam = Adam::new(model, self.cfg.adam);
        let mut early = Vec::new();
        let mut late = Vec::new();
        for step in 0..self.cfg.steps {
            let batch = next_batch(step);
            assert!(!batch.is_empty(), "trainer: batch must be non-empty");
            let (loss, mut grads) = batch_grads(model, &batch, thread_count());
            grads.scale_assign(1.0 / batch.len() as f32);
            adam.step(model, &grads);
            if step < 10 {
                early.push(loss);
            }
            if step + 10 >= self.cfg.steps {
                late.push(loss);
            }
            if self.cfg.log_every > 0 && step % self.cfg.log_every == 0 {
                eprintln!("step {step:5}  loss {loss:.4}");
            }
        }
        TrainReport {
            initial_loss: mean(&early),
            final_loss: mean(&late),
            steps: self.cfg.steps,
        }
    }
}

/// Computes the mean loss and summed gradients of a batch, parallelizing
/// over sequences via [`aptq_tensor::parallel::run_indexed`] with
/// `threads` workers (callers pass
/// [`aptq_tensor::parallel::thread_count`]).
///
/// # Panics
///
/// Panics if `batch` is empty, or a sequence has fewer than 2 tokens.
///
/// # Determinism
///
/// Bit-identical for every `threads` value, including 1: per-sequence
/// (loss, grads) pairs come back in batch order and are reduced
/// sequentially in that order, so the floating-point summation order
/// never depends on how sequences were distributed across workers. (The
/// cost is holding one gradient set per sequence instead of one per
/// worker — fine at the batch sizes this repo trains with.)
pub fn batch_grads(model: &Model, batch: &[Vec<u32>], threads: usize) -> (f32, ModelGrads) {
    let per_seq: Vec<(f32, ModelGrads)> =
        aptq_tensor::parallel::run_indexed(batch.len(), threads.min(batch.len()), |i| {
            model.sequence_grads(&batch[i])
        });
    let mut iter = per_seq.into_iter();
    let (mut loss, mut grads) = iter.next().expect("non-empty batch");
    for (l, g) in iter {
        loss += l;
        grads.add_assign(&g);
    }
    (loss / batch.len() as f32, grads)
}

fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::oracle;
    use crate::ModelConfig;
    use rand::Rng;

    #[test]
    fn run_memorizes_a_periodic_stream() {
        let cfg = ModelConfig::test_tiny(12);
        let mut model = Model::new(&cfg, 11);
        let trainer = Trainer::new(TrainerConfig {
            steps: 60,
            batch_size: 4,
            adam: AdamConfig {
                lr: 5e-3,
                ..AdamConfig::default()
            },
            log_every: 0,
        });
        // Deterministic repeating pattern: trivially learnable.
        let report = trainer.run(&mut model, |_| {
            (0..4)
                .map(|k| (0..10).map(|i| ((i + k) % 12) as u32).collect())
                .collect()
        });
        assert!(
            report.final_loss < report.initial_loss - 0.5,
            "training must reduce loss: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
    }

    #[test]
    fn batch_grads_parallel_matches_sequential() {
        let cfg = ModelConfig::test_tiny(12);
        let model = Model::new(&cfg, 5);
        let mut rng = aptq_tensor::init::rng(0);
        let batch: Vec<Vec<u32>> = (0..9)
            .map(|_| (0..8).map(|_| rng.gen_range(0..12u32)).collect())
            .collect();
        let (loss_par, grads_par) = batch_grads(&model, &batch, thread_count());
        // Sequential reference.
        let mut loss_seq = 0.0;
        let mut grads_seq: Option<ModelGrads> = None;
        for s in &batch {
            let (l, g) = model.sequence_grads(s);
            loss_seq += l;
            match &mut grads_seq {
                None => grads_seq = Some(g),
                Some(t) => t.add_assign(&g),
            }
        }
        loss_seq /= batch.len() as f32;
        let grads_seq = grads_seq.unwrap();
        assert!((loss_par - loss_seq).abs() < 1e-5);
        assert!(
            (grads_par.global_norm() - grads_seq.global_norm()).abs() < 1e-3,
            "parallel and sequential grads must agree"
        );
    }

    #[test]
    fn batch_grads_bit_identical_across_thread_counts() {
        let cfg = ModelConfig::test_tiny(12);
        let model = Model::new(&cfg, 7);
        let mut rng = aptq_tensor::init::rng(3);
        let batch: Vec<Vec<u32>> = (0..7)
            .map(|_| (0..9).map(|_| rng.gen_range(0..12u32)).collect())
            .collect();
        let (loss_1, grads_1) = batch_grads(&model, &batch, 1);
        for threads in [2usize, 4, 8] {
            let (loss_n, grads_n) = batch_grads(&model, &batch, threads);
            assert_eq!(
                loss_1.to_bits(),
                loss_n.to_bits(),
                "loss differs at {threads} threads"
            );
            oracle::assert_grads_bits(&grads_n, &grads_1, &format!("{threads} threads"));
        }
    }
}
