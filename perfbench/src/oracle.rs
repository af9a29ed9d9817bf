//! Reference computations made apart from the timed path.
//!
//! * Generation: the token-at-a-time `TransformerModel::decode_step` loop,
//!   greedy, over a fresh `Full` cache — a different code path from the
//!   batched, chunked sweeps the timed rounds serve through.
//! * Encoding: an unprotected `Flash` model with the same weights.

use crate::workload::GenRequest;
use ft_num::MatrixF32;
use ft_sim::NoFaults;
use ft_transformer::{Linear, LinearProtection, TransformerModel};

/// Index of the largest logit (first on ties — the engine's greedy rule).
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best as u32
}

/// Prompt plus greedy continuation of `req`, one `decode_step` per token.
///
/// Every step before the last prompt token discards its logits, and the LM
/// head does not feed the cache, so those steps run with a one-column head;
/// the real head is restored for every step whose logits pick a token.
/// This keeps a 1k-token prompt's oracle from paying a vocab-wide head per
/// prompt token.
pub fn decode_step_tokens(model: &mut TransformerModel, req: &GenRequest) -> Vec<u32> {
    let (last, interior) = req.prompt.split_last().expect("non-empty prompt");
    let hidden = model.config.hidden;
    let stub = Linear::random(0, hidden, 1).with_protection(LinearProtection::None);
    let head = std::mem::replace(&mut model.lm_head, stub);
    let mut cache = model.new_cache();
    for &t in interior {
        model.decode_step(t, &mut cache, &NoFaults);
    }
    model.lm_head = head;
    let mut tokens = req.prompt.clone();
    let mut logits = model.decode_step(*last, &mut cache, &NoFaults).0;
    for i in 0..req.max_new {
        let next = argmax(logits.row(0));
        tokens.push(next);
        if i + 1 < req.max_new {
            logits = model.decode_step(next, &mut cache, &NoFaults).0;
        }
    }
    tokens
}

/// Largest element-wise difference between EFTA and `Flash` hidden states
/// that still counts as agreement. Both paths round operands to FP16 and
/// differ only in accumulation order and checksum work.
pub const ENCODE_TOL: f32 = 1e-3;

/// Whether `efta` agrees with `flash` within [`ENCODE_TOL`] and is finite.
pub fn encode_agrees(efta: &MatrixF32, flash: &MatrixF32) -> bool {
    !efta.has_non_finite()
        && efta.shape() == flash.shape()
        && efta.max_abs_diff(flash) <= ENCODE_TOL
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn encode_check_rejects_a_perturbed_or_non_finite_state() {
        let a = MatrixF32::from_fn(4, 8, |i, j| (i * 8 + j) as f32 * 0.01);
        assert!(encode_agrees(&a, &a));
        let mut b = a.clone();
        b.set(2, 3, b.get(2, 3) + 10.0 * ENCODE_TOL);
        assert!(!encode_agrees(&b, &a));
        let mut c = a.clone();
        c.set(0, 0, f32::NAN);
        assert!(!encode_agrees(&c, &a));
    }
}
