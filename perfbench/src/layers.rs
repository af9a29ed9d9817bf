//! Per-layer micro-timings for the traced run: calls into each layer's
//! public functions at the shapes the workload drives, each timed as the
//! median of repeated calls.

use crate::workload::{self, Workload};
use ft_abft::strided::encode_rows_strided;
use ft_core::backend::{AttentionBackend, AttentionRequest};
use ft_core::config::AttentionConfig;
use ft_core::efta::EftaOptions;
use ft_core::serve::StreamSlice;
use ft_num::rng::{normal_matrix_f32, normal_tensor_f16, rng_from_seed};
use ft_num::MatrixF32;
use ft_sim::NoFaults;
use ft_transformer::{BackendKind, KvCache, ProtectionLevel, StreamId, TransformerModel};
use rayon::prelude::*;
use std::time::Instant;

/// The shapes a workload drives each layer at.
#[derive(Clone, Copy, Debug)]
pub struct Shapes {
    /// Rows of a typical projection call (one decode row, a prefill chunk,
    /// or a pass).
    pub rows: usize,
    /// Streams in a decode sweep.
    pub streams: usize,
    /// Cache rows per stream at a typical decode sweep.
    pub cache_len: usize,
    /// Full-sequence length for the attention kernel and block forward.
    pub seq: usize,
}

impl Shapes {
    /// Shapes of `workload`, read from its inputs (which are the same at
    /// every seed). Generation: as many streams as a sweep carries, caches
    /// at the longest history a stream reaches, and the longest prompt,
    /// rounded up to a 64-row block, as the full sequence; projections see
    /// one row per stream, as in a decode sweep. Encoding: one stream, and
    /// the longest pass as rows, cache length and sequence.
    pub fn of(workload: Workload) -> Shapes {
        let Some(plan) = workload::gen_plan(workload, 0) else {
            let seq = *workload::ENCODE_SEQS.iter().max().expect("encode lengths");
            return Shapes {
                rows: seq,
                streams: 1,
                cache_len: seq,
                seq,
            };
        };
        let longest_prompt = plan.requests.iter().map(|r| r.prompt.len()).max();
        let longest_prompt = longest_prompt.expect("requests");
        Shapes {
            rows: 1,
            streams: plan.sched.max_active.min(plan.requests.len()),
            cache_len: plan
                .requests
                .iter()
                .map(|r| r.prompt.len() + r.max_new)
                .max()
                .expect("requests"),
            seq: longest_prompt.next_multiple_of(64),
        }
    }
}

/// Median wall milliseconds of `f`, over at least `min_reps` calls and
/// until `budget_ms` of calls have run (at most 2000 calls). `prep` builds
/// each call's input outside the timed interval.
fn median_ms<S, T>(
    min_reps: usize,
    budget_ms: f64,
    mut prep: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> f64 {
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < min_reps || (spent < budget_ms && samples.len() < 2000) {
        let input = prep();
        let t = Instant::now();
        let result = std::hint::black_box(f(input));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // Dropped after the clock stops: freeing the result is not the call.
        drop(result);
        spent += ms;
        samples.push(ms);
    }
    crate::stats::median(&samples)
}

/// [`median_ms`] without per-call input.
fn time_ms<T>(min_reps: usize, budget_ms: f64, mut f: impl FnMut() -> T) -> f64 {
    median_ms(min_reps, budget_ms, || (), |()| f())
}

/// Random activations (`rows × cols`, unit scale) with a fixed seed.
fn activations(seed: u64, rows: usize, cols: usize) -> MatrixF32 {
    normal_matrix_f32(&mut rng_from_seed(seed), rows, cols, 1.0)
}

/// A `Full`/`Lazy`/`Raw` cache of `model`'s first block filled with
/// `len` random rows, appended `chunk` rows at a time.
fn filled_cache(
    model: &TransformerModel,
    level: ProtectionLevel,
    len: usize,
    seed: u64,
) -> KvCache {
    let mha = &model.blocks[0].mha;
    let hd = model.config.hidden / model.config.heads;
    let mut cache = mha.new_cache().with_protection(level);
    let chunk = 64;
    let mut done = 0;
    while done < len {
        let c = chunk.min(len - done);
        let k = normal_tensor_f16(seed + done as u64, 1, model.config.heads, c, hd, 0.5);
        let v = normal_tensor_f16(seed + 7 + done as u64, 1, model.config.heads, c, hd, 0.5);
        cache.append(&k, &v);
        done += c;
    }
    cache
}

/// Per-layer micro-timings of one workload, as `(name, value, unit)`.
pub fn measure(model: &TransformerModel, shapes: Shapes) -> Vec<(&'static str, f64, &'static str)> {
    let cfg = model.config;
    let hd = cfg.hidden / cfg.heads;
    let th = model.thresholds;
    let block = &model.blocks[0];
    let mut out = Vec::new();

    // linear + num + abft: the model's own layers at the workload's rows.
    let x = activations(1, shapes.rows, cfg.hidden);
    let x_ffn = activations(2, shapes.rows, cfg.ffn_dim);
    let head_row = activations(3, 1, cfg.hidden);
    let lm_head_ms = time_ms(3, 100.0, || {
        model.lm_head.forward(&head_row, &NoFaults, 0, &th)
    });
    let q_ms = time_ms(5, 100.0, || block.mha.wq.forward(&x, &NoFaults, 0, &th));
    let qkv_ms = q_ms
        + time_ms(5, 100.0, || block.mha.wk.forward(&x, &NoFaults, 1, &th))
        + time_ms(5, 100.0, || block.mha.wv.forward(&x, &NoFaults, 2, &th));
    let ffn_ms = time_ms(5, 100.0, || block.ffn.up.forward(&x, &NoFaults, 4, &th))
        + time_ms(5, 100.0, || {
            block.ffn.down.forward(&x_ffn, &NoFaults, 5, &th)
        });
    let to_f32_head = time_ms(3, 100.0, || model.lm_head.weight.to_f32());
    let to_f32_proj = time_ms(5, 100.0, || block.mha.wq.weight.to_f32());
    let w = block.mha.wq.weight.to_f32();
    let encode_proj = time_ms(5, 100.0, || encode_rows_strided(&w, 8, true));
    // One conversion per call plus one checksum encode per 64-row block.
    let static_ms = to_f32_proj + shapes.rows.div_ceil(64) as f64 * encode_proj;
    out.push(("linear.lm_head_ms", lm_head_ms, "ms"));
    out.push(("linear.qkv_ms", qkv_ms, "ms"));
    out.push(("linear.ffn_ms", ffn_ms, "ms"));
    out.push(("linear.static_share", static_ms / q_ms, "ratio"));
    out.push(("num.to_f32_ms.lm_head", to_f32_head, "ms"));
    out.push(("num.to_f32_ms.proj", to_f32_proj, "ms"));
    out.push(("abft.encode_ms.proj", encode_proj, "ms"));

    // kv: append cost per row at each level, and bytes per row.
    let row_k = normal_tensor_f16(4, 1, cfg.heads, 1, hd, 0.5);
    let row_v = normal_tensor_f16(5, 1, cfg.heads, 1, hd, 0.5);
    for (name, level) in [
        ("kv.append_us.full", ProtectionLevel::Full),
        ("kv.append_us.lazy", ProtectionLevel::Lazy),
        ("kv.append_us.raw", ProtectionLevel::Raw),
    ] {
        // Appends one row to caches sitting at sixteen offsets spread over
        // a 64-row block, so ragged-block heals are represented in
        // proportion.
        let base = filled_cache(model, level, shapes.cache_len, 6);
        let mut i = 0;
        let ms = median_ms(
            16,
            50.0,
            || {
                let mut c = base.clone();
                for _ in 0..(i * 4) % 64 {
                    c.append(&row_k, &row_v);
                }
                i += 1;
                c
            },
            |mut c| {
                c.append(&row_k, &row_v);
                c
            },
        );
        out.push((name, ms * 1e3, "us"));
    }
    let full = filled_cache(model, ProtectionLevel::Full, shapes.cache_len, 6);
    let split = full.size_breakdown();
    out.push((
        "kv.meta_bytes_per_row",
        split.metadata_bytes() as f64 / shapes.cache_len as f64,
        "B",
    ));
    out.push((
        "kv.payload_bytes_per_row",
        split.payload_bytes as f64 / shapes.cache_len as f64,
        "B",
    ));

    // decode: one sweep row per stream over caches at the workload length.
    let caches: Vec<KvCache> = (0..shapes.streams)
        .map(|s| {
            filled_cache(
                model,
                ProtectionLevel::Full,
                shapes.cache_len,
                100 + s as u64,
            )
        })
        .collect();
    let qs: Vec<_> = (0..shapes.streams)
        .map(|s| normal_tensor_f16(200 + s as u64, 1, cfg.heads, 1, hd, 0.5))
        .collect();
    let slices: Vec<StreamSlice<'_>> = caches
        .iter()
        .zip(&qs)
        .enumerate()
        .map(|(s, (cache, q))| StreamSlice {
            stream: StreamId(s as u64),
            cache,
            q,
            window: None,
        })
        .collect();
    let efta = BackendKind::Efta(EftaOptions::optimized());
    let sweep = time_ms(5, 100.0, || efta.decode_sweep(&slices, &NoFaults, Some(th)));
    let sweep_raw = time_ms(5, 100.0, || {
        BackendKind::Flash.decode_sweep(&slices, &NoFaults, None)
    });
    out.push(("decode.sweep_ms", sweep, "ms"));
    out.push(("decode.sweep_ms.unprotected", sweep_raw, "ms"));
    out.push(("decode.overhead", sweep / sweep_raw, "ratio"));

    // efta: the full-sequence fused kernel, protected and unprotected.
    let acfg = AttentionConfig::new(1, cfg.heads, shapes.seq, hd).with_auto_block();
    let q = normal_tensor_f16(7, 1, cfg.heads, shapes.seq, hd, 0.5);
    let k = normal_tensor_f16(8, 1, cfg.heads, shapes.seq, hd, 0.5);
    let v = normal_tensor_f16(9, 1, cfg.heads, shapes.seq, hd, 0.5);
    let req = AttentionRequest::new(acfg, &q, &k, &v);
    let attn = time_ms(3, 100.0, || efta.run(&req));
    let attn_raw = time_ms(3, 100.0, || {
        BackendKind::Efta(EftaOptions::unprotected()).run(&req)
    });
    out.push(("efta.attn_ms", attn, "ms"));
    out.push(("efta.attn_ms.unprotected", attn_raw, "ms"));
    out.push(("efta.overhead", attn / attn_raw, "ratio"));

    // block: a full-sequence forward (non-causal, as the EFTA kernel
    // requires) and one batched decode forward over the sweep's caches.
    let mut open_block = block.clone();
    open_block.mha.causal = false;
    let xs_seq = activations(10, shapes.seq, cfg.hidden);
    let forward = time_ms(3, 100.0, || open_block.forward(&xs_seq, &NoFaults, 0, &th));
    out.push(("block.forward_ms", forward, "ms"));
    let xs: Vec<MatrixF32> = (0..shapes.streams)
        .map(|s| activations(20 + s as u64, shapes.rows, cfg.hidden))
        .collect();
    let streams: Vec<StreamId> = (0..shapes.streams as u64).map(StreamId).collect();
    let windows = vec![None; shapes.streams];
    let decode_batch = median_ms(
        3,
        100.0,
        || caches.clone(),
        |mut cs| {
            let mut refs: Vec<&mut KvCache> = cs.iter_mut().collect();
            let out =
                block.forward_decode_batch(&xs, &mut refs, &streams, &windows, &NoFaults, 0, &th);
            (out, cs)
        },
    );
    out.push(("block.decode_batch_ms", decode_batch, "ms"));

    // rayon: one parallel map over one trivial item per core.
    let cores = crate::host::cores();
    let dispatch = time_ms(50, 50.0, || {
        (0..cores)
            .into_par_iter()
            .map(|i| i + 1)
            .collect::<Vec<usize>>()
    });
    out.push(("rayon.dispatch_us", dispatch * 1e3, "us"));
    out
}
