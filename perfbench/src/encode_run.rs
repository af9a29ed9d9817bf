//! One `encode` round: non-causal full-sequence passes through
//! `TransformerModel::forward_hidden` from a single client, back to back.

use crate::host;
use crate::trace::Tracer;
use ft_num::MatrixF32;
use ft_sim::NoFaults;
use ft_transformer::TransformerModel;
use std::time::Instant;

/// What one round measured and produced.
#[derive(Clone, Debug, Default)]
pub struct EncodeRound {
    /// Wall seconds over the round's passes.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Positions encoded.
    pub positions: usize,
    /// Wall time of each pass (ms); a pass's positions all arrive at its
    /// end, so this is both its first-output time and its latency.
    pub pass_ms: Vec<f64>,
    /// Pass time divided by its positions (ms per position).
    pub per_position_ms: Vec<f64>,
    /// Per pass: all hidden states finite.
    pub finite: Vec<bool>,
    /// Per pass: an order-sensitive digest of the hidden-state bits.
    pub digests: Vec<u64>,
}

/// FNV-1a over the bit patterns of `m`.
pub fn digest(m: &MatrixF32) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in m.as_slice() {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Run every pass of the round once. With a tracer each pass gets a span
/// (request id = pass index) under a round span.
pub fn run_round(
    model: &TransformerModel,
    passes: &[Vec<u32>],
    mut tracer: Option<&mut Tracer>,
) -> EncodeRound {
    let mut round = EncodeRound::default();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let round_span = tracer
        .as_deref_mut()
        .map(|t| t.open("round", t0, None, None));
    for (i, tokens) in passes.iter().enumerate() {
        let start = Instant::now();
        let (h, report) = model.forward_hidden(tokens, &NoFaults);
        let end = Instant::now();
        let ms = end.duration_since(start).as_secs_f64() * 1e3;
        round.pass_ms.push(ms);
        round.per_position_ms.push(ms / tokens.len() as f64);
        round.positions += tokens.len();
        round.finite.push(!h.has_non_finite());
        round.digests.push(digest(&h));
        if let Some(t) = tracer.as_deref_mut() {
            let span = t.open("pass", start, round_span, Some(i as u64));
            t.close(span, end);
            t.spans[span].counts = vec![
                ("positions", tokens.len() as u64),
                ("detected", report.total_detected),
            ];
        }
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    round.cpu_s = host::cpu_seconds() - cpu0;
    if let (Some(t), Some(span)) = (tracer, round_span) {
        t.close(span, Instant::now());
        t.spans[span].counts = vec![("passes", passes.len() as u64)];
    }
    round
}

/// Detections the projection layers raise on the round's clean passes,
/// replaying `forward_hidden` block by block so the projection reports can
/// be told apart from the attention kernel's.
pub fn linear_detections(model: &TransformerModel, passes: &[Vec<u32>]) -> u64 {
    let mut detected = 0;
    for tokens in passes {
        let mut h = model.embed.forward(tokens);
        for (l, block) in model.blocks.iter().enumerate() {
            let (next, rep) = block.forward(&h, &NoFaults, l, &model.thresholds);
            detected += rep.mha.projections.detected + rep.ffn.projections.detected;
            h = next;
        }
    }
    detected
}
