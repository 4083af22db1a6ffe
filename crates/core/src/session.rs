//! Shared calibration/Hessian state for multi-method quantization runs.
//!
//! Regenerating a paper table quantizes the *same* pretrained model with
//! many methods, and every OBQ-family method starts from the same
//! expensive step: a full forward pass over the calibration set to
//! accumulate per-layer Hessians ([`crate::calib::collect_hessians`]).
//! GPTQ, OWQ and PB-LLM share [`HessianMode::LayerInput`]; every APTQ
//! row shares [`HessianMode::AttentionAware`], and the mixed-precision
//! rows rank layers by those Hessians' mean traces (§3.3). A
//! [`QuantSession`] owns the calibration snapshot and memoizes the
//! Hessians, so one activation-capture pass serves every method row
//! that shares a mode. The empirical 2-bit sensitivity probe, which the
//! allocation-signal ablation compares against the trace, is memoized
//! the same way.
//!
//! Cache entries are keyed by `(mode, model fingerprint)` — a hash over
//! every weight bit — so a mutated model (e.g. a quantized clone fed
//! back in) never observes stale Hessians. Freshly collected Hessians
//! are re-validated against the [`crate::invariants`] layer (symmetry,
//! finiteness) at the cache boundary in debug builds.

use std::collections::BTreeMap;
use std::sync::Arc;

use aptq_artifact::Fnv64;
use aptq_lm::{LayerRef, Model};
use aptq_obs::Recorder;
use aptq_tensor::Matrix;

use crate::grid::GridConfig;
use crate::hessian::{HessianMode, LayerHessian};
use crate::trace::SensitivityReport;
use crate::QuantError;

/// How many leading calibration segments the empirical probe reads.
const PROBE_SEGMENTS: usize = 16;

/// Shared Hessians for one model fingerprint + mode.
pub type SharedHessians = Arc<BTreeMap<LayerRef, LayerHessian>>;

/// Owns a calibration set plus lazily-populated Hessian and sensitivity
/// caches, shared across every method applied during one experiment run.
#[derive(Debug, Clone)]
pub struct QuantSession {
    calibration: Vec<Vec<u32>>,
    hessians: BTreeMap<(u8, u64), SharedHessians>,
    sensitivities: BTreeMap<(u64, u8, u64), Arc<SensitivityReport>>,
    capture_passes: usize,
    sensitivity_passes: usize,
    metrics: Recorder,
}

impl QuantSession {
    /// Creates a session over a calibration snapshot.
    pub fn new(calibration: Vec<Vec<u32>>) -> Self {
        QuantSession {
            calibration,
            hessians: BTreeMap::new(),
            sensitivities: BTreeMap::new(),
            capture_passes: 0,
            sensitivity_passes: 0,
            metrics: Recorder::new(),
        }
    }

    /// The session's metrics recorder: capture passes, cache hits and
    /// misses under `quant/session/…`, plus what the methods record when
    /// they quantize through the session: the OBQ scheduler's
    /// `quant/obq/…` (GPTQ, APTQ) and the per-method `quant/owq/…` and
    /// `quant/pbllm/…` counters.
    pub fn metrics(&self) -> &Recorder {
        &self.metrics
    }

    /// Mutable access for instrumented pipelines that record their own
    /// counters (e.g. the OBQ scheduler) into the session's recorder.
    pub fn metrics_mut(&mut self) -> &mut Recorder {
        &mut self.metrics
    }

    /// Takes the accumulated metrics out of the session, leaving an
    /// empty recorder behind — the bench binaries' snapshot hook.
    pub fn take_metrics(&mut self) -> Recorder {
        std::mem::take(&mut self.metrics)
    }

    /// The calibration segments this session was built over.
    pub fn calibration(&self) -> &[Vec<u32>] {
        &self.calibration
    }

    /// How many activation-capture passes ([`crate::collect_hessians`]
    /// runs) this session has performed. A full multi-method table run
    /// should show exactly one per [`HessianMode`] in play.
    pub fn capture_passes(&self) -> usize {
        self.capture_passes
    }

    /// How many empirical sensitivity probes
    /// ([`QuantSession::probe_sensitivity`] runs) this session has run.
    pub fn sensitivity_passes(&self) -> usize {
        self.sensitivity_passes
    }

    /// Calibration Hessians for `model` under `mode`, collected on first
    /// use and served from the cache afterwards.
    ///
    /// The returned map is shared ([`Arc`]) so callers can hold it while
    /// also mutating the model: the Hessians describe the model *at
    /// collection time*, which is exactly what the OBQ solves need.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::calib::collect_hessians`] failures
    /// (e.g. [`QuantError::EmptyCalibration`]).
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`; the cache key is
    /// content-addressed, so hits and misses return the same values.
    pub fn hessians(
        &mut self,
        model: &Model,
        mode: HessianMode,
    ) -> Result<SharedHessians, QuantError> {
        let key = (mode_key(mode), fingerprint(model));
        if let Some(cached) = self.hessians.get(&key) {
            self.metrics.incr("quant/session/hessian_hits");
            return Ok(Arc::clone(cached));
        }
        self.metrics.incr("quant/session/hessian_misses");
        let fresh = crate::calib::collect_hessians(model, &self.calibration, mode)?;
        self.capture_passes += 1;
        self.metrics.incr("quant/session/capture_passes");
        if crate::invariants::ENABLED {
            for (layer, lh) in &fresh {
                crate::invariants::hessian_well_formed(
                    &lh.h,
                    &format!("QuantSession::hessians({mode}, {layer})"),
                );
            }
        }
        let shared = Arc::new(fresh);
        self.hessians.insert(key, Arc::clone(&shared));
        Ok(shared)
    }

    /// Per-layer sensitivity of `model` for mixed-precision allocation:
    /// the mean traces of the session's [`HessianMode::AttentionAware`]
    /// Hessians ([`SensitivityReport::from_hessians`]), the ranking §3.3
    /// allocates by. After [`QuantSession::hessians`] this is a cache
    /// hit, so one capture pass serves the Hessians and the ranking.
    ///
    /// `low_bits` and `cfg` no longer enter this signal; they
    /// parameterize the empirical probe,
    /// [`QuantSession::probe_sensitivity`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCalibration`] when none of the first 16
    /// calibration segments has at least two tokens, as the probe does;
    /// propagates capture failures otherwise.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`: the Hessians are, and the
    /// ranking is a total order (score, then layer).
    pub fn sensitivity(
        &mut self,
        model: &Model,
        _low_bits: u8,
        _cfg: &GridConfig,
    ) -> Result<Arc<SensitivityReport>, QuantError> {
        let leading = &self.calibration[..self.calibration.len().min(PROBE_SEGMENTS)];
        if leading.iter().all(|s| s.len() < 2) {
            return Err(QuantError::EmptyCalibration);
        }
        let hessians = self.hessians(model, HessianMode::AttentionAware)?;
        Ok(Arc::new(SensitivityReport::from_hessians(&hessians)))
    }

    /// Empirical per-layer sensitivity of `model` at `low_bits` under
    /// `cfg` ([`crate::trace::empirical_sensitivity`]), probed on a slice
    /// of the calibration set (at most 16 segments) and cached per
    /// `(model, low_bits, cfg)`. The allocation-signal ablation compares
    /// it with [`QuantSession::sensitivity`]'s mean trace.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyCalibration`] when the calibration set
    /// is empty or no probe segment has at least two tokens; propagates
    /// probe failures otherwise.
    ///
    /// # Determinism
    ///
    /// Bit-identical at any `APTQ_THREADS`: probe segments run via
    /// `aptq_tensor::parallel::run_indexed`, which returns results in
    /// segment order regardless of scheduling, and losses are folded in
    /// that order.
    pub fn probe_sensitivity(
        &mut self,
        model: &Model,
        low_bits: u8,
        cfg: &GridConfig,
    ) -> Result<Arc<SensitivityReport>, QuantError> {
        if self.calibration.is_empty() {
            return Err(QuantError::EmptyCalibration);
        }
        let key = (fingerprint(model), low_bits, grid_key(cfg));
        if let Some(cached) = self.sensitivities.get(&key) {
            self.metrics.incr("quant/session/sensitivity_hits");
            return Ok(Arc::clone(cached));
        }
        self.metrics.incr("quant/session/sensitivity_misses");
        let probe_len = self.calibration.len().clamp(1, PROBE_SEGMENTS);
        let report = crate::trace::empirical_sensitivity(
            model,
            &self.calibration[..probe_len],
            low_bits,
            cfg,
            aptq_tensor::parallel::thread_count(),
        )?;
        self.sensitivity_passes += 1;
        self.metrics.incr("quant/session/sensitivity_probes");
        let shared = Arc::new(report);
        self.sensitivities.insert(key, Arc::clone(&shared));
        Ok(shared)
    }
}

fn mode_key(mode: HessianMode) -> u8 {
    match mode {
        HessianMode::LayerInput => 0,
        HessianMode::AttentionAware => 1,
    }
}

/// FNV-1a over every weight bit of the model (embedding, LM head, all
/// transformer layer weights). Any weight mutation — quantization
/// installing dequantized values, finetuning — changes the fingerprint,
/// so cache entries can never serve a stale model state.
///
/// The hashing primitive is [`aptq_artifact::Fnv64`] — the same
/// machinery artifact envelopes checksum with, so fingerprints here
/// and on-disk artifacts can never use divergent schemes.
fn fingerprint(model: &Model) -> u64 {
    let mut h = Fnv64::new();
    eat_matrix(&mut h, model.embed());
    eat_matrix(&mut h, model.lm_head());
    for layer in model.layer_refs() {
        eat_matrix(&mut h, model.layer_weight(layer));
    }
    h.finish()
}

/// Grid parameters that influence the sensitivity probe (RTN fit).
fn grid_key(cfg: &GridConfig) -> u64 {
    let mut h = Fnv64::new();
    h.eat_u64(cfg.group_size as u64);
    h.eat_u64(cfg.block_size as u64);
    h.eat_u64(u64::from(cfg.asymmetric));
    h.eat_u64(u64::from(cfg.damp.to_bits()));
    h.finish()
}

/// Absorbs shape + every f32 bit pattern (one word per value).
fn eat_matrix(h: &mut Fnv64, m: &Matrix) {
    h.eat_u64(m.rows() as u64);
    h.eat_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.eat_word(u64::from(v.to_bits()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aptq_lm::ModelConfig;

    fn calib() -> Vec<Vec<u32>> {
        (0..6)
            .map(|k| (0..16).map(|i| ((i * 5 + k) % 16) as u32).collect())
            .collect()
    }

    #[test]
    fn hessians_are_collected_once_per_mode() {
        let model = Model::new(&ModelConfig::test_tiny(16), 5);
        let mut session = QuantSession::new(calib());
        let a = session.hessians(&model, HessianMode::LayerInput).unwrap();
        let b = session.hessians(&model, HessianMode::LayerInput).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(session.capture_passes(), 1);
        session
            .hessians(&model, HessianMode::AttentionAware)
            .unwrap();
        session
            .hessians(&model, HessianMode::AttentionAware)
            .unwrap();
        assert_eq!(session.capture_passes(), 2);
    }

    #[test]
    fn metrics_track_hits_and_misses() {
        let model = Model::new(&ModelConfig::test_tiny(16), 5);
        let mut session = QuantSession::new(calib());
        session.hessians(&model, HessianMode::LayerInput).unwrap();
        session.hessians(&model, HessianMode::LayerInput).unwrap();
        session.hessians(&model, HessianMode::LayerInput).unwrap();
        let m = session.metrics();
        assert_eq!(m.get("quant/session/capture_passes"), 1);
        assert_eq!(m.get("quant/session/hessian_misses"), 1);
        assert_eq!(m.get("quant/session/hessian_hits"), 2);

        let cfg = GridConfig::default();
        session.probe_sensitivity(&model, 2, &cfg).unwrap();
        session.probe_sensitivity(&model, 2, &cfg).unwrap();
        assert_eq!(session.metrics().get("quant/session/sensitivity_probes"), 1);
        assert_eq!(session.metrics().get("quant/session/sensitivity_hits"), 1);

        let taken = session.take_metrics();
        assert!(!taken.is_empty());
        assert!(session.metrics().is_empty(), "take must drain the recorder");
    }

    #[test]
    fn mutated_model_invalidates_cache() {
        let mut model = Model::new(&ModelConfig::test_tiny(16), 6);
        let mut session = QuantSession::new(calib());
        session.hessians(&model, HessianMode::LayerInput).unwrap();
        let r = model.layer_refs()[0];
        model.layer_weight_mut(r)[(0, 0)] += 1.0;
        session.hessians(&model, HessianMode::LayerInput).unwrap();
        assert_eq!(
            session.capture_passes(),
            2,
            "a weight change must force a fresh capture pass"
        );
    }

    #[test]
    fn sensitivity_is_probed_once_per_config() {
        let model = Model::new(&ModelConfig::test_tiny(16), 7);
        let mut session = QuantSession::new(calib());
        let cfg = GridConfig::default();
        let a = session.probe_sensitivity(&model, 2, &cfg).unwrap();
        let b = session.probe_sensitivity(&model, 2, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(session.sensitivity_passes(), 1);
        // A different grid config is a different probe.
        let other = GridConfig {
            group_size: 16,
            ..cfg
        };
        session.probe_sensitivity(&model, 2, &other).unwrap();
        assert_eq!(session.sensitivity_passes(), 2);
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let model = Model::new(&ModelConfig::test_tiny(16), 8);
        let mut session = QuantSession::new(Vec::new());
        assert!(matches!(
            session.hessians(&model, HessianMode::LayerInput),
            Err(QuantError::EmptyCalibration)
        ));
        assert!(matches!(
            session.sensitivity(&model, 2, &GridConfig::default()),
            Err(QuantError::EmptyCalibration)
        ));
        assert_eq!(session.capture_passes(), 0);
    }

    #[test]
    fn fingerprint_tracks_every_weight_family() {
        let base = Model::new(&ModelConfig::test_tiny(16), 9);
        let f0 = fingerprint(&base);
        assert_eq!(
            f0,
            fingerprint(&base.clone()),
            "clone must fingerprint equal"
        );

        let mut m = base.clone();
        m.embed_mut()[(0, 0)] += 0.5;
        assert_ne!(f0, fingerprint(&m), "embedding change must be visible");

        let mut m = base.clone();
        let r = *base.layer_refs().last().unwrap();
        m.layer_weight_mut(r)[(0, 0)] += 0.5;
        assert_ne!(f0, fingerprint(&m), "layer weight change must be visible");
    }
}
