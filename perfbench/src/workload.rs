//! The three workloads: geometry, serving configuration, and the seeded
//! inputs of one round. A round is the unit every run repeats whole, so
//! every run attempts the same operations in the same order.

use ft_core::efta::EftaOptions;
use ft_num::F16;
use ft_sim::{BerInjector, ChainFault, FaultInjector, FaultSite, OpCoord};
use ft_transformer::{
    serve_expose_step, BackendKind, ModelConfig, SchedulerConfig, StreamId, TransformerModel,
};
use std::sync::atomic::{AtomicU64, Ordering};

/// Model weights are part of the deployment, not of the traffic: they use
/// one fixed seed. `--seed` draws the request tokens (and, for `faults`,
/// the injector); request shapes — lengths, arrival ticks — are fixed per
/// workload, so every seed asks for the same amount of work and seeds can
/// be compared like for like.
pub const MODEL_SEED: u64 = 11;

/// Bit-error rate of the `faults` workload's injector.
pub const FAULT_BER: f64 = 1e-4;

/// Sites the `faults` injector may flip: cache-resident K/V and the two
/// attention GEMM accumulations.
pub const FAULT_SITES: [FaultSite; 3] = [
    FaultSite::KvCache,
    FaultSite::GemmIAccum,
    FaultSite::GemmIiAccum,
];

/// Re-prefill attempts a `faults` request may spend.
pub const FAULT_MAX_ATTEMPTS: u32 = 3;

/// Position of stream 0 at whose sweep the `faults` workload's fixed damage
/// lands (layer 0): a decode position, never a prefill-chunk base, so the
/// re-prefill that repairs it does not meet it again.
const DAMAGE_POS: usize = 12;
/// Cache rows the fixed damage hits. They share a stride-8 checksum lane
/// of one block, so the damage is detected but cannot be located.
const DAMAGE_ROWS: [u64; 2] = [0, 8];
/// The f16 exponent bit the fixed damage flips.
const DAMAGE_BIT: u32 = 13;

/// The `faults` workload's injector: the seeded bit-error injector over
/// [`FAULT_SITES`], plus one fixed hit per round that correction cannot
/// repair. At [`DAMAGE_POS`] the K payload of rows [`DAMAGE_ROWS`] of
/// stream 0's first-layer cache flips [`DAMAGE_BIT`] in every element, so
/// the block is poisoned and the stream re-prefills in every round. Stream
/// ids restart with each round's fresh session, so the hit repeats.
pub struct FaultsInjector {
    ber: BerInjector,
    /// Exposure step of the fixed hit.
    step: u64,
    fixed: AtomicU64,
}

impl FaultsInjector {
    /// The injector of the `faults` run at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultsInjector {
            ber: BerInjector::new(fault_seed(seed), FAULT_BER).with_sites(&FAULT_SITES),
            step: serve_expose_step(StreamId(0), DAMAGE_POS, gen_config().layers, 0),
            fixed: AtomicU64::new(0),
        }
    }

    /// Whether `coord` is one of the fixed hit's K elements.
    fn fixed_hit(&self, site: FaultSite, coord: OpCoord) -> bool {
        site == FaultSite::KvCache && coord.k == 2 * self.step && DAMAGE_ROWS.contains(&coord.i)
    }
}

impl FaultInjector for FaultsInjector {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        self.ber.corrupt_f32(site, coord, value)
    }

    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        let value = self.ber.corrupt_f16(site, coord, value);
        if self.fixed_hit(site, coord) {
            self.fixed.fetch_add(1, Ordering::Relaxed);
            value.flip_bit(DAMAGE_BIT)
        } else {
            value
        }
    }

    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        self.ber.decide_chain(site, coord, k_len)
    }

    fn fired(&self) -> u64 {
        self.ber.fired() + self.fixed.load(Ordering::Relaxed)
    }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["chat", "encode", "faults"];

/// Which workload a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Decode-bound bursty short-prompt generation.
    Chat,
    /// Non-causal full-sequence encoding through `forward_hidden`.
    Encode,
    /// `chat`-like traffic under a seeded bit-error injector.
    Faults,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "chat" => Workload::Chat,
            "encode" => Workload::Encode,
            "faults" => Workload::Faults,
            _ => return None,
        })
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::Encode => "encode",
            Workload::Faults => "faults",
        }
    }
}

/// Generation geometry: GPT-2's vocabulary at head dimension 64 (two heads,
/// width 128), two layers.
pub fn gen_config() -> ModelConfig {
    ModelConfig {
        name: "GPT2-hd64",
        layers: 2,
        heads: 2,
        hidden: 128,
        ffn_dim: 512,
        vocab: 50257,
        max_seq: 1280,
    }
}

/// Encoding geometry: BERT-Base's vocabulary at head dimension 64 (two
/// heads, width 128), two layers, up to the scaled sweep's longest pass.
pub fn encode_config() -> ModelConfig {
    ModelConfig {
        name: "BERT-Base-hd64",
        layers: 2,
        heads: 2,
        hidden: 128,
        ffn_dim: 512,
        vocab: 30522,
        max_seq: 512,
    }
}

/// The causal EFTA-o generation model every generation workload serves.
pub fn gen_model() -> TransformerModel {
    TransformerModel::random(
        MODEL_SEED,
        gen_config(),
        BackendKind::Efta(EftaOptions::optimized()),
    )
    .with_causal(true)
}

/// The non-causal encoding model on `kernel` (EFTA-o for the timed path,
/// `Flash` for the unprotected reference).
pub fn encode_model(kernel: BackendKind) -> TransformerModel {
    TransformerModel::random(MODEL_SEED, encode_config(), kernel)
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNG so inputs cannot drift with program changes.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, namespaced by `stream` so each workload draws
    /// its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` token ids below `vocab`.
    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next() % vocab as u64) as u32)
            .collect()
    }
}

/// One generation request of a round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenRequest {
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
    /// Sweep tick at which the request is submitted.
    pub arrival_tick: usize,
}

/// One generation round: its requests, the session's scheduler sizing,
/// and the fewest rounds a run makes so every tail percentile it reports
/// has enough samples behind it. Every request is checked against the
/// `decode_step` oracle.
#[derive(Clone, Debug)]
pub struct GenPlan {
    /// Requests, ordered by arrival tick.
    pub requests: Vec<GenRequest>,
    /// Slot-table width and prefill chunk.
    pub sched: SchedulerConfig,
    /// Minimum timed rounds per run.
    pub min_rounds: usize,
}

/// `chat` prompt lengths (one or two 16-row prefill chunks) and burst
/// sizes. Every request asks for [`CHAT_NEW_TOKENS`].
const CHAT_PROMPTS: [usize; 9] = [6, 24, 12, 18, 9, 21, 15, 8, 20];
const CHAT_BURSTS: [usize; 2] = [5, 4];
/// Sweeps between the two `chat` bursts.
const CHAT_BURST_GAP: usize = 16;
/// Output length of every `chat` request.
pub const CHAT_NEW_TOKENS: usize = 14;

/// `chat`: a burst of five short-prompt requests, then one of four sixteen
/// sweeps later, into a three-slot table — a queue forms at every burst.
/// Equal output lengths keep the table full until the last group drains,
/// so most tokens come from three-stream sweeps. An odd request count puts
/// every per-request median in the middle of one request's samples.
fn chat_plan(seed: u64, stream: u64) -> GenPlan {
    let vocab = gen_config().vocab;
    let mut rng = Rng::new(seed, stream);
    let arrivals = CHAT_BURSTS
        .iter()
        .enumerate()
        .flat_map(|(b, &n)| std::iter::repeat_n(b * CHAT_BURST_GAP, n));
    let requests: Vec<GenRequest> = CHAT_PROMPTS
        .iter()
        .zip(arrivals)
        .map(|(&prompt_len, arrival_tick)| GenRequest {
            prompt: rng.tokens(prompt_len, vocab),
            max_new: CHAT_NEW_TOKENS,
            arrival_tick,
        })
        .collect();
    GenPlan {
        requests,
        sched: SchedulerConfig {
            max_active: 3,
            prefill_chunk: 16,
            ..Default::default()
        },
        min_rounds: 1,
    }
}

/// The generation plan of `workload` at `seed` (`None` for `encode`).
pub fn gen_plan(workload: Workload, seed: u64) -> Option<GenPlan> {
    match workload {
        Workload::Chat => Some(chat_plan(seed, 1)),
        Workload::Faults => Some(chat_plan(seed, 4)),
        Workload::Encode => None,
    }
}

/// Injector seed of the `faults` workload at `seed`.
fn fault_seed(seed: u64) -> u64 {
    Rng::new(seed, 5).next()
}

/// The sequence lengths of the `encode` workload: the paper's 512…8k sweep
/// at 1/16 scale. An odd count puts each pooled median in the middle of one
/// length's samples.
pub const ENCODE_SEQS: [usize; 5] = [32, 64, 128, 256, 512];

/// One `encode` round: one pass at each sweep length, shortest first.
pub fn encode_passes(seed: u64) -> Vec<Vec<u32>> {
    let vocab = encode_config().vocab;
    let mut rng = Rng::new(seed, 3);
    ENCODE_SEQS.iter().map(|&n| rng.tokens(n, vocab)).collect()
}

/// Minimum timed rounds of an `encode` run (enough passes for a p90).
pub const ENCODE_MIN_ROUNDS: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        for w in NAMES.iter().map(|n| Workload::parse(n).unwrap()) {
            match gen_plan(w, 7) {
                Some(a) => {
                    let b = gen_plan(w, 7).unwrap();
                    assert_eq!(a.requests, b.requests, "{}", w.name());
                    let c = gen_plan(w, 8).unwrap();
                    assert_ne!(a.requests, c.requests, "{}: seed ignored", w.name());
                }
                None => {
                    assert_eq!(encode_passes(7), encode_passes(7));
                    assert_ne!(encode_passes(7), encode_passes(8));
                }
            }
        }
        assert_eq!(fault_seed(7), fault_seed(7));
        assert_ne!(fault_seed(7), fault_seed(8));
    }

    #[test]
    fn faults_traffic_differs_from_chat_but_has_its_shape() {
        let chat = gen_plan(Workload::Chat, 3).unwrap();
        let faults = gen_plan(Workload::Faults, 3).unwrap();
        assert_ne!(chat.requests, faults.requests);
        assert_eq!(chat.requests.len(), faults.requests.len());
    }

    #[test]
    fn inputs_fit_the_models() {
        for seed in 0..20 {
            for w in [Workload::Chat, Workload::Faults] {
                let plan = gen_plan(w, seed).unwrap();
                for r in &plan.requests {
                    assert!(r.prompt.len() + r.max_new <= gen_config().max_seq);
                    assert!(r.prompt.iter().all(|&t| (t as usize) < gen_config().vocab));
                }
            }
            let passes = encode_passes(seed);
            assert_eq!(passes.len(), ENCODE_SEQS.len());
            assert!(passes.iter().all(|p| p.len() <= encode_config().max_seq));
        }
    }
}
