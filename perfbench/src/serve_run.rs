//! One generation round through `ServeSession::sweep_events`, from a single
//! thread. Arrivals are scheduled in sweep ticks, not wall seconds, so
//! every round performs the same sweeps with the same batch compositions;
//! the round records the tokens emitted per sweep so a run can assert that.

use crate::host;
use crate::trace::Tracer;
use crate::workload::{GenPlan, FAULT_MAX_ATTEMPTS};
use ft_sim::FaultInjector;
use ft_transformer::{
    EngineEvent, FinishReason, GenerationRequest, RecoveryPolicy, StreamId, TransformerModel,
};
use std::collections::HashMap;
use std::time::Instant;

/// What one round measured and produced.
#[derive(Clone, Debug, Default)]
pub struct GenRound {
    /// Wall seconds from the first submission to the last retirement.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Tokens emitted.
    pub tokens: usize,
    /// Submission → first token, per request (ms).
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive tokens of one stream (ms).
    pub itl_ms: Vec<f64>,
    /// Submission → retirement, per request (ms).
    pub latency_ms: Vec<f64>,
    /// Tokens emitted by each sweep, in order — identical in every round.
    pub per_sweep_tokens: Vec<usize>,
    /// Each request's prompt followed by its emitted tokens.
    pub outputs: Vec<Vec<u32>>,
    /// Each request's retirement reason.
    pub finish: Vec<Option<FinishReason>>,
    /// `ServeSession::peak_cache_bytes` at the end of the round.
    pub peak_kv_bytes: u64,
    /// Re-prefill recoveries the session ran.
    pub recoveries: u64,
    /// History rows recoveries scheduled for re-feeding.
    pub refed_rows: usize,
    /// Repairs reported by `FaultCorrected` events.
    pub corrected: u64,
    /// Detections outside the attention kernel (projections, activation
    /// range checks), summed over the retired streams.
    pub non_attention_detected: u64,
}

impl GenRound {
    /// Whether request `i` retired the way a served request should.
    pub fn finished_ok(&self, i: usize) -> bool {
        matches!(
            self.finish[i],
            Some(FinishReason::MaxTokens) | Some(FinishReason::Recovered)
        )
    }
}

/// The typed request for one plan entry; with `recover` it asks for
/// bounded re-prefill recovery.
fn request(prompt: &[u32], max_new: usize, recover: bool) -> GenerationRequest {
    let r = GenerationRequest::new(prompt.to_vec(), max_new);
    if recover {
        r.with_recovery(RecoveryPolicy::ReprefillBounded {
            max_attempts: FAULT_MAX_ATTEMPTS,
        })
    } else {
        r
    }
}

/// Serve one round of `plan` on a fresh session (stream ids restart at 0,
/// so fault coordinates repeat too). With a tracer, every `sweep_events`
/// call gets a span carrying its counts, every request a span from
/// submission to retirement, and the round a span around both.
pub fn run_round<I: FaultInjector>(
    model: &TransformerModel,
    plan: &GenPlan,
    inj: &I,
    recover: bool,
    mut tracer: Option<&mut Tracer>,
) -> GenRound {
    let n = plan.requests.len();
    let mut session = model.serve_with(plan.sched);
    let mut round = GenRound {
        outputs: plan.requests.iter().map(|r| r.prompt.clone()).collect(),
        finish: vec![None; n],
        ..Default::default()
    };
    let mut index: HashMap<StreamId, usize> = HashMap::with_capacity(n);
    let mut submitted = vec![Instant::now(); n];
    let mut last_token: Vec<Option<Instant>> = vec![None; n];
    // Traced only: span index of each request, and whether it has left
    // the pending queue.
    let mut req_span = vec![0usize; n];
    let mut admitted = vec![false; n];
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let round_span = tracer
        .as_deref_mut()
        .map(|t| t.open("round", t0, None, None));
    let mut next = 0;
    let mut tick = 0;
    loop {
        if session.idle() {
            if next == n {
                break;
            }
            // Nothing in flight: skip the empty ticks to the next arrival.
            tick = tick.max(plan.requests[next].arrival_tick);
        }
        while next < n && plan.requests[next].arrival_tick <= tick {
            let r = &plan.requests[next];
            let id = session.submit_request(request(&r.prompt, r.max_new, recover));
            index.insert(id, next);
            submitted[next] = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                req_span[next] = t.open("request", submitted[next], round_span, Some(id.0));
            }
            next += 1;
        }
        let start = Instant::now();
        let events = session.sweep_events(inj);
        let end = Instant::now();
        let mut emitted = 0;
        let mut recovering = 0u64;
        for ev in &events {
            match *ev {
                EngineEvent::TokenEmitted { stream, token } => {
                    let i = index[&stream];
                    emitted += 1;
                    round.outputs[i].push(token);
                    let since = last_token[i].unwrap_or(submitted[i]);
                    let gap_ms = end.duration_since(since).as_secs_f64() * 1e3;
                    if last_token[i].is_none() {
                        round.ttft_ms.push(gap_ms);
                    } else {
                        round.itl_ms.push(gap_ms);
                    }
                    last_token[i] = Some(end);
                }
                EngineEvent::Finished { stream, reason } => {
                    let i = index[&stream];
                    round.finish[i] = Some(reason);
                    round
                        .latency_ms
                        .push(end.duration_since(submitted[i]).as_secs_f64() * 1e3);
                    if let Some(t) = tracer.as_deref_mut() {
                        t.close(req_span[i], end);
                    }
                }
                EngineEvent::FaultCorrected { repaired, .. } => round.corrected += repaired,
                EngineEvent::Recovering { .. } => recovering += 1,
                _ => {}
            }
        }
        round.per_sweep_tokens.push(emitted);
        if let Some(t) = tracer.as_deref_mut() {
            let sweep = t.open("sweep", start, round_span, None);
            t.close(sweep, end);
            t.spans[sweep].counts = vec![
                ("sweep", round.per_sweep_tokens.len() as u64 - 1),
                ("active", session.active_streams() as u64),
                ("emitted", emitted as u64),
                ("recovering", recovering),
            ];
            // A request leaves the queue in the sweep whose plan admits
            // it; its queue wait ends where that sweep starts.
            let pending = session.pending_stream_ids();
            for (id, &i) in &index {
                if !admitted[i] && !pending.contains(id) {
                    admitted[i] = true;
                    let wait_us = t.us(start) - t.spans[req_span[i]].start_us;
                    t.spans[req_span[i]]
                        .counts
                        .push(("queue_wait_us", wait_us.max(0.0).round() as u64));
                }
            }
        }
        tick += 1;
    }
    round.wall_s = t0.elapsed().as_secs_f64();
    round.cpu_s = host::cpu_seconds() - cpu0;
    round.tokens = round.per_sweep_tokens.iter().sum();
    round.peak_kv_bytes = session.peak_cache_bytes();
    round.recoveries = session.recoveries();
    for f in session.take_finished() {
        round.refed_rows += f.recovery_fed;
        round.non_attention_detected += f.report.total_detected - f.attention.total_detected();
    }
    if let (Some(t), Some(span)) = (tracer, round_span) {
        t.close(span, Instant::now());
        t.spans[span].counts = vec![
            ("requests", n as u64),
            ("tokens", round.tokens as u64),
            ("recoveries", round.recoveries),
        ];
    }
    round
}

/// Requests of `round` that failed: their tokens differ from `expected`, or
/// they retired for any reason other than `MaxTokens`/`Recovered`.
pub fn failed_requests(round: &GenRound, expected: &[Vec<u32>]) -> Vec<usize> {
    (0..expected.len())
        .filter(|&i| !round.finished_ok(i) || round.outputs[i] != expected[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::decode_step_tokens;
    use crate::workload::GenRequest;
    use ft_core::efta::EftaOptions;
    use ft_sim::NoFaults;
    use ft_transformer::{BackendKind, ModelConfig, SchedulerConfig};

    fn tiny() -> TransformerModel {
        let cfg = ModelConfig {
            name: "tiny",
            layers: 1,
            heads: 2,
            hidden: 16,
            ffn_dim: 32,
            vocab: 61,
            max_seq: 64,
        };
        TransformerModel::random(5, cfg, BackendKind::Efta(EftaOptions::optimized()))
            .with_causal(true)
    }

    fn plan() -> GenPlan {
        let requests = (0..4)
            .map(|i| GenRequest {
                prompt: (0..5 + 3 * i).map(|t| ((t * 7 + i) % 61) as u32).collect(),
                max_new: 4 + i,
                arrival_tick: 2 * i,
            })
            .collect();
        GenPlan {
            requests,
            sched: SchedulerConfig {
                max_active: 2,
                prefill_chunk: 4,
                ..Default::default()
            },
            min_rounds: 1,
        }
    }

    #[test]
    fn rounds_repeat_and_match_the_decode_step_oracle() {
        let mut model = tiny();
        let plan = plan();
        let a = run_round(&model, &plan, &NoFaults, false, None);
        let b = run_round(&model, &plan, &NoFaults, false, None);
        assert_eq!(a.per_sweep_tokens, b.per_sweep_tokens);
        assert_eq!(a.outputs, b.outputs);
        let expected: Vec<Vec<u32>> = plan
            .requests
            .iter()
            .map(|r| decode_step_tokens(&mut model, r))
            .collect();
        assert!(failed_requests(&a, &expected).is_empty());
        assert_eq!(
            a.tokens,
            plan.requests.iter().map(|r| r.max_new).sum::<usize>()
        );
        assert_eq!(a.ttft_ms.len(), 4);
        assert_eq!(a.latency_ms.len(), 4);
        assert_eq!(a.itl_ms.len(), a.tokens - 4);
    }

    #[test]
    fn one_corrupted_token_fails_its_request_only() {
        let mut model = tiny();
        let plan = plan();
        let round = run_round(&model, &plan, &NoFaults, false, None);
        let expected: Vec<Vec<u32>> = plan
            .requests
            .iter()
            .map(|r| decode_step_tokens(&mut model, r))
            .collect();
        let mut bad = round.clone();
        let last = bad.outputs[2].len() - 1;
        bad.outputs[2][last] = (bad.outputs[2][last] + 1) % 61;
        assert_eq!(failed_requests(&bad, &expected), vec![2]);
        let mut unfinished = round;
        unfinished.finish[1] = None;
        assert_eq!(failed_requests(&unfinished, &expected), vec![1]);
    }

    #[test]
    fn traced_round_records_sweeps_requests_and_queue_waits() {
        let model = tiny();
        let plan = plan();
        let mut tracer = Tracer::new();
        let round = run_round(&model, &plan, &NoFaults, false, Some(&mut tracer));
        assert_eq!(tracer.named("round").count(), 1);
        assert_eq!(tracer.named("sweep").count(), round.per_sweep_tokens.len());
        let requests: Vec<_> = tracer.named("request").collect();
        assert_eq!(requests.len(), 4);
        assert!(requests
            .iter()
            .all(|s| s.counts.iter().any(|c| c.0 == "queue_wait_us") && s.end_us >= s.start_us));
    }
}
