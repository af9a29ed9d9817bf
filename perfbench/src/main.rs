//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run drives one workload from a single thread through the public API
//! (`ServeSession::sweep_events` for generation, `forward_hidden` for
//! encoding), repeats whole rounds of the same seeded requests for at least
//! `--seconds`, checks every request's output against a reference computed
//! apart from the timed path, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics of a traced
//! run and writes its spans to `perfbench/traces/`. See `perfbench/README.md`.

mod encode_run;
mod host;
mod layers;
mod oracle;
mod serve_run;
mod stats;
mod trace;
mod workload;

use ft_core::efta::EftaOptions;
use ft_sim::{FaultInjector, NoFaults};
use ft_transformer::{BackendKind, TransformerModel};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{GenPlan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; expected one of {:?}",
                        workload::NAMES
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints: context lines, then the result object.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    info: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a broken run-wide invariant.
    fn fail(&mut self, why: String) {
        self.correct = false;
        self.info.push(why);
    }

    /// The metrics as `name=value` pairs on one line.
    fn metric_line(&self) -> String {
        let parts: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{}={:.4}", m.name, m.value))
            .collect();
        parts.join(" ")
    }

    /// The result object, on one line.
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            assert!(x.value.is_finite(), "metric {} is not finite", x.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Median of `setup` timed `SETUP_REPS` times; returns the last product.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut product = None;
    for _ in 0..SETUP_REPS {
        drop(product.take());
        let t = Instant::now();
        product = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), product.expect("at least one set-up"))
}

/// `q`-tail of `samples` under the reporting rule; without enough samples
/// the run is not correct.
fn tail_or_fail(out: &mut Outcome, samples: &[f64], q: f64, what: &str) -> f64 {
    stats::tail(samples, q).unwrap_or_else(|| {
        out.fail(format!(
            "{what}: {} samples cannot carry a p{} (need {})",
            samples.len(),
            q * 100.0,
            stats::samples_for_tail(q)
        ));
        0.0
    })
}

/// What the end-to-end metrics read from one timed round of either path.
trait Round {
    /// Wall seconds of the round.
    fn wall_s(&self) -> f64;
    /// Process CPU seconds over the round.
    fn cpu_s(&self) -> f64;
    /// Outputs of the round: tokens emitted, or positions encoded.
    fn units(&self) -> usize;
    /// Submission → first output, per request (ms).
    fn ttft_ms(&self) -> &[f64];
    /// Gaps between consecutive outputs of one request (ms).
    fn itl_ms(&self) -> &[f64];
    /// Submission → last output, per request (ms).
    fn latency_ms(&self) -> &[f64];
}

impl Round for serve_run::GenRound {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }
    fn cpu_s(&self) -> f64 {
        self.cpu_s
    }
    fn units(&self) -> usize {
        self.tokens
    }
    fn ttft_ms(&self) -> &[f64] {
        &self.ttft_ms
    }
    fn itl_ms(&self) -> &[f64] {
        &self.itl_ms
    }
    fn latency_ms(&self) -> &[f64] {
        &self.latency_ms
    }
}

/// A pass's positions all arrive at its end: its time is both its
/// first-output time and its latency, and the per-position time stands in
/// for the gap between outputs.
impl Round for encode_run::EncodeRound {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }
    fn cpu_s(&self) -> f64 {
        self.cpu_s
    }
    fn units(&self) -> usize {
        self.positions
    }
    fn ttft_ms(&self) -> &[f64] {
        &self.pass_ms
    }
    fn itl_ms(&self) -> &[f64] {
        &self.per_position_ms
    }
    fn latency_ms(&self) -> &[f64] {
        &self.pass_ms
    }
}

fn median_wall<R: Round>(rounds: &[R]) -> f64 {
    stats::median(&rounds.iter().map(R::wall_s).collect::<Vec<_>>())
}

/// The timed phase of a run: untraced rounds, and for a traced run the
/// traced rounds of the same work with their spans.
struct Timed<R> {
    plain: Vec<R>,
    traced: Vec<R>,
    tracer: Tracer,
    /// Peak RSS (MB) at the end of the timed phase, before the references
    /// run.
    rss_mb: f64,
}

/// Run rounds until `seconds` have passed and at least `min_rounds` ran.
/// A traced run alternates untraced and traced rounds (same work), so the
/// tracing overhead is the ratio of their median round times.
fn timed_rounds<R>(
    args: &Args,
    min_rounds: usize,
    mut round: impl FnMut(Option<&mut Tracer>) -> R,
) -> Timed<R> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut t = Timed {
        plain: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::new(),
        rss_mb: 0.0,
    };
    loop {
        let done_plain = t.plain.len() >= min_rounds;
        let done_traced = !args.trace || t.traced.len() >= min_rounds;
        if done_plain && done_traced && start.elapsed() >= budget {
            break;
        }
        if args.trace && t.traced.len() < t.plain.len() {
            t.traced.push(round(Some(&mut t.tracer)));
        } else {
            t.plain.push(round(None));
        }
    }
    t.rss_mb = host::peak_rss_mb();
    t
}

/// Every end-to-end metric over `rounds`.
fn end_to_end<R: Round>(
    out: &mut Outcome,
    rounds: &[R],
    setup_s: f64,
    rss_mb: f64,
    peak_kv_mb: f64,
) {
    // Every round repeats the same work, but the host's speed drifts
    // between levels that last from seconds to minutes. A median — over
    // rounds or over pooled samples — jumps to whichever level held most of
    // the run; a mean over the rounds follows the mix smoothly. So each
    // p50 is the round's median (request or gap), averaged over the rounds,
    // and rates and CPU time are whole-phase ratios (CPU time is counted in
    // 10 ms ticks, which a per-round value would not resolve).
    let per_round = |f: fn(&R) -> &[f64]| -> f64 {
        rounds.iter().map(|r| stats::median(f(r))).sum::<f64>() / rounds.len() as f64
    };
    let units = rounds.iter().map(R::units).sum::<usize>() as f64;
    let wall_s = rounds.iter().map(R::wall_s).sum::<f64>();
    let cpu_ms_per_tok = rounds.iter().map(R::cpu_s).sum::<f64>() * 1e3 / units;
    let itl: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.itl_ms().iter().copied())
        .collect();
    let itl_p90 = tail_or_fail(out, &itl, 0.9, "itl_ms_p90");
    out.metric("setup_s", setup_s, "s");
    out.metric("tok_s", units / wall_s, "1/s");
    out.metric("ttft_ms_p50", per_round(R::ttft_ms), "ms");
    out.metric("itl_ms_p50", per_round(R::itl_ms), "ms");
    out.metric("itl_ms_p90", itl_p90, "ms");
    out.metric("latency_ms_p50", per_round(R::latency_ms), "ms");
    out.metric("cpu_ms_per_tok", cpu_ms_per_tok, "ms");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("peak_kv_mb", peak_kv_mb, "MB");
}

/// The metrics of a checked run. Untraced: every end-to-end metric.
/// Traced: the traced rounds' own end-to-end line, then the `serve.*` and
/// `linear.false_alarms` metrics `path_metrics` reads from the spans, the
/// layer micro-timings, and the tracing overhead.
fn report<R: Round>(
    out: &mut Outcome,
    args: &Args,
    model: &TransformerModel,
    timed: &Timed<R>,
    setup_s: f64,
    peak_kv_mb: f64,
    path_metrics: impl FnOnce(&mut Outcome, &Tracer),
) {
    let rss_mb = timed.rss_mb;
    if !args.trace {
        end_to_end(out, &timed.plain, setup_s, rss_mb, peak_kv_mb);
        return;
    }
    let mut e2e = Outcome::default();
    end_to_end(&mut e2e, &timed.traced, setup_s, rss_mb, peak_kv_mb);
    out.info
        .push(format!("traced end-to-end: {}", e2e.metric_line()));
    path_metrics(out, &timed.tracer);
    for (name, value, unit) in layers::measure(model, layers::Shapes::of(args.workload)) {
        out.metric(name, value, unit);
    }
    out.metric(
        "trace.overhead",
        median_wall(&timed.traced) / median_wall(&timed.plain),
        "ratio",
    );
    write_trace(out, args, &timed.tracer);
}

fn run_generation<I: FaultInjector>(
    args: &Args,
    plan: &GenPlan,
    inj: &I,
    recover: bool,
) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let (setup_s, mut model) = timed_setup(|| {
        let model = workload::gen_model();
        drop(model.serve_with(plan.sched));
        model
    });
    // Warm-up: one untimed round without faults. For `faults` it is also
    // the reference: the same requests served without faults.
    let warm = serve_run::run_round(&model, plan, &NoFaults, recover, None);
    let timed = timed_rounds(args, plan.min_rounds, |t| {
        serve_run::run_round(&model, plan, inj, recover, t)
    });

    // References, computed apart from the timed path.
    let n = plan.requests.len();
    let expected: Vec<Vec<u32>> = if recover {
        warm.outputs.clone()
    } else {
        plan.requests
            .iter()
            .map(|r| oracle::decode_step_tokens(&mut model, r))
            .collect()
    };
    // Every timed round must repeat the first one's sweeps exactly, and
    // under faults must repair the fixed damage by re-prefill.
    for r in timed.plain.iter().chain(&timed.traced) {
        if r.per_sweep_tokens != timed.plain[0].per_sweep_tokens {
            out.fail("sweep sequence differs between rounds".into());
        }
        if recover && r.recoveries == 0 {
            out.fail("a faults round ran no re-prefill recovery".into());
        }
        out.attempted += n;
        out.failed += serve_run::failed_requests(r, &expected).len();
    }

    let peak_kv_mb = timed.plain[0].peak_kv_bytes as f64 / 1e6;
    report(
        &mut out,
        args,
        &model,
        &timed,
        setup_s,
        peak_kv_mb,
        |out, tracer| {
            let count =
                |s: &trace::Span, k: &str| s.counts.iter().find(|c| c.0 == k).map_or(0, |c| c.1);
            let sweeps: Vec<&trace::Span> = tracer.named("sweep").collect();
            let sweep_ms: Vec<f64> = sweeps.iter().map(|s| s.ms()).collect();
            let mean = |k: &str| {
                sweeps.iter().map(|s| count(s, k) as f64).sum::<f64>() / sweeps.len() as f64
            };
            let waits: Vec<f64> = tracer
                .named("request")
                .map(|s| count(s, "queue_wait_us") as f64 / 1e3)
                .collect();
            // The sweep after one that raised `Recovering` feeds the
            // recovering stream's first re-prefill chunk.
            let recover_ms: Vec<f64> = sweeps
                .windows(2)
                .filter(|w| count(w[0], "recovering") > 0)
                .map(|w| w[1].ms())
                .collect();
            let recover_ms_p50 = if !recover_ms.is_empty() {
                stats::median(&recover_ms)
            } else {
                if recover {
                    out.fail("faults: no re-prefill sweep was traced".into());
                }
                0.0
            };
            let first = &timed.traced[0];
            out.metric("serve.sweep_ms_p50", stats::median(&sweep_ms), "ms");
            out.metric(
                "serve.sweeps",
                sweeps.len() as f64 / timed.traced.len() as f64,
                "count",
            );
            out.metric("serve.streams_per_sweep", mean("active"), "count");
            out.metric("serve.tokens_per_sweep", mean("emitted"), "count");
            out.metric("serve.queue_wait_ms_p50", stats::median(&waits), "ms");
            out.metric("serve.recoveries", first.recoveries as f64, "count");
            out.metric("serve.refed_rows", first.refed_rows as f64, "count");
            out.metric("serve.corrected", first.corrected as f64, "count");
            out.metric("serve.recover_sweep_ms_p50", recover_ms_p50, "ms");
            // Detections outside the attention kernel on the fault-free
            // warm-up: projections and activation range checks.
            out.metric(
                "linear.false_alarms",
                warm.non_attention_detected as f64,
                "count",
            );
        },
    );
    out
}
fn run_encode(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let passes = workload::encode_passes(args.seed);
    let (setup_s, model) =
        timed_setup(|| workload::encode_model(BackendKind::Efta(EftaOptions::optimized())));
    let warm = encode_run::run_round(&model, &passes, None);
    let timed = timed_rounds(args, workload::ENCODE_MIN_ROUNDS, |t| {
        encode_run::run_round(&model, &passes, t)
    });

    // Reference: the same passes through an unprotected `Flash` model.
    let flash = workload::encode_model(BackendKind::Flash);
    let agrees: Vec<bool> = passes
        .iter()
        .zip(&warm.digests)
        .map(|(p, &digest)| {
            let (efta, _) = model.forward_hidden(p, &NoFaults);
            let (reference, _) = flash.forward_hidden(p, &NoFaults);
            encode_run::digest(&efta) == digest && oracle::encode_agrees(&efta, &reference)
        })
        .collect();
    for r in timed.plain.iter().chain(&timed.traced) {
        out.attempted += passes.len();
        out.failed += (0..passes.len())
            .filter(|&i| !(r.finite[i] && r.digests[i] == warm.digests[i] && agrees[i]))
            .count();
    }

    // No cache: the FP16 K and V operands of the longest pass, all layers
    // — what a cache of that sequence would hold as payload.
    let cfg = model.config;
    let longest = passes.iter().map(Vec::len).max().expect("passes");
    let peak_kv_mb = (cfg.layers * 2 * longest * cfg.hidden * 2) as f64 / 1e6;
    report(
        &mut out,
        args,
        &model,
        &timed,
        setup_s,
        peak_kv_mb,
        |out, tracer| {
            // No session on this path: the serving counters read zero, and
            // a forward_hidden pass stands where a sweep would.
            let pass_ms: Vec<f64> = tracer.named("pass").map(trace::Span::ms).collect();
            out.metric("serve.sweep_ms_p50", stats::median(&pass_ms), "ms");
            out.metric("serve.sweeps", passes.len() as f64, "count");
            out.metric("serve.streams_per_sweep", 1.0, "count");
            out.metric(
                "serve.tokens_per_sweep",
                warm.positions as f64 / passes.len() as f64,
                "count",
            );
            for name in ["serve.queue_wait_ms_p50", "serve.recover_sweep_ms_p50"] {
                out.metric(name, 0.0, "ms");
            }
            for name in ["serve.recoveries", "serve.refed_rows", "serve.corrected"] {
                out.metric(name, 0.0, "count");
            }
            out.metric(
                "linear.false_alarms",
                encode_run::linear_detections(&model, &passes) as f64,
                "count",
            );
        },
    );
    out
}

/// Write the traced run's spans as JSON lines under `perfbench/traces/`.
fn write_trace(out: &mut Outcome, args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => out.info.push(format!(
            "trace: {} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => out.info.push(format!("trace: not written ({e})")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let watch = host::HostWatch::start();
    let outcome = match args.workload {
        Workload::Encode => run_encode(&args),
        w => {
            let plan = workload::gen_plan(w, args.seed).expect("generation workload");
            if w == Workload::Faults {
                let inj = workload::FaultsInjector::new(args.seed);
                let outcome = run_generation(&args, &plan, &inj, true);
                println!("faults: {} flips injected", inj.fired());
                outcome
            } else {
                run_generation(&args, &plan, &NoFaults, false)
            }
        }
    };
    for line in &outcome.info {
        println!("{line}");
    }
    println!("{}", watch.line());
    println!("{}", outcome.json());
}
#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload encode --seed 3 --seconds 7 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Encode,
                seed: 3,
                seconds: 7,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload chat")).is_err());
        assert!(parse_args(&argv("--workload chat --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload chat --seed")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 30,
            failed: 0,
            ..Default::default()
        };
        o.metric("tok_s", 41.25, "1/s");
        o.metric("setup_s", 0.5, "s");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 30, \"failed\": 0, \"metrics\": \
             {\"tok_s\": {\"value\": 41.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
