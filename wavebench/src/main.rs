//! `wavebench`: the wavefuse benchmark.
//!
//! ```text
//! cargo run --release --manifest-path wavebench/Cargo.toml -- \
//!     --workload <paper-adaptive|vga-pooled|fleet-8> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs half the window untraced (counters and the untraced frame time)
//! and half traced (a span around each delivering call), then replays the
//! traced frames' layers call by call, and reports the per-layer metrics.
//! Either way the delivered frames are digested and compared with a
//! serial reference after the window, and the last line of standard
//! output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--map` prints the metric catalogue (which layer metric should move
//! which end-to-end metric, on which workload).

mod catalog;
mod host;
mod rig;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wavefuse_trace::JsonValue;

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::rig::ZynqTotals;
use crate::stats::{median_or, quantile, ratio};
use crate::trace::Tracer;
use crate::workloads::{Counters, Fleet8, PaperAdaptive, VgaPooled, Workload};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Timed window used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// Fresh constructions `setup_s` takes the median of.
const SETUP_REPS: usize = 15;
/// Untimed warm-up before the window, so lazy set-up and caches settle.
const WARMUP: Duration = Duration::from_secs(1);
/// Reference-check budget as a share of the timed window.
const CHECK_SHARE: f64 = 0.2;
/// Delivering calls the end-to-end window runs on past its seconds if it
/// has fewer, so that ten samples lie beyond `latency_p95_ms`.
const MIN_CALLS: usize = 200;
/// Longest an end-to-end window may run to reach [`MIN_CALLS`].
const MAX_WINDOW: Duration = Duration::from_secs(120);
/// A window gives up after this many failed delivering calls.
const MAX_ERRORS: u64 = 16;

const USAGE: &str = "usage: wavebench --workload <paper-adaptive|vga-pooled|fleet-8> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--corrupt-reference] | --map";

/// Command-line options.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Short mode for the smoke test: one setup construction, no warm-up,
    /// a minimal reference budget.
    smoke: bool,
    /// Flips one reference digest, so the check must report a failure.
    corrupt: bool,
    map: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        corrupt: false,
        map: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--corrupt-reference" => args.corrupt = true,
            "--map" => args.map = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.map && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wavebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.map {
        println!("{}", catalog::to_json().render());
        return ExitCode::SUCCESS;
    }
    let result = match args.workload.as_str() {
        "paper-adaptive" => run::<PaperAdaptive>(&args),
        "vga-pooled" => run::<VgaPooled>(&args),
        _ => run::<Fleet8>(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wavebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured window.
#[derive(Debug)]
struct Window {
    /// Delivery-log position where the window starts.
    mark: usize,
    wall_s: f64,
    cpu_s: f64,
    /// Frames lost to failed delivering calls.
    lost: u64,
    /// Wall time of each successful delivering call, ms.
    latencies_ms: Vec<f64>,
    /// Counter deltas over the window.
    counters: Counters,
    /// The `core.step` span of each successful delivering call (traced
    /// windows only).
    steps: Vec<usize>,
}

impl Window {
    fn frames(&self) -> u64 {
        self.counters.frames
    }

    fn attempted(&self) -> u64 {
        self.counters.frames + self.counters.drops + self.lost
    }

    fn failed(&self) -> u64 {
        self.counters.drops + self.lost
    }
}

/// Delivers units for `seconds`, and on until `min_calls` have succeeded
/// (within [`MAX_WINDOW`]). With a tracer, each delivering call runs
/// under a `core.step` span.
fn measure<W: Workload>(
    w: &mut W,
    seconds: f64,
    min_calls: usize,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mark = w.mark();
    let before = w.counters();
    let u0 = host::usage();
    let mut latencies_ms = Vec::with_capacity(1 << 16);
    let mut steps = Vec::new();
    let mut errors = 0;
    let limit = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while errors < MAX_ERRORS {
        let elapsed = t0.elapsed();
        if elapsed >= limit && (latencies_ms.len() >= min_calls || elapsed >= MAX_WINDOW) {
            break;
        }
        let s = Instant::now();
        let r = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.set_unit(w.mark() as u64);
                let (r, span) = tr.time("core.step", None, || w.step());
                if r.is_ok() {
                    steps.push(span);
                }
                r
            }
            None => w.step(),
        };
        match r {
            Ok(()) => latencies_ms.push(s.elapsed().as_secs_f64() * 1e3),
            Err(e) => {
                errors += 1;
                eprintln!("wavebench: delivering call failed: {e}");
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let u1 = host::usage();
    Window {
        mark,
        wall_s,
        cpu_s: u1.cpu_s - u0.cpu_s,
        lost: errors * W::FRAMES_PER_UNIT,
        latencies_ms,
        counters: w.counters().since(&before),
        steps,
    }
}

/// What one run measured.
struct Outcome {
    /// Seconds of each fresh construction.
    setup_s: Vec<f64>,
    /// The untraced window.
    main: Window,
    /// The traced window (`--trace 1`).
    traced: Option<Window>,
    /// Peak resident memory when the untraced window ended, MiB.
    peak_rss_mb: f64,
    check: workloads::Check,
    /// `(name, value, unit, note)` of every reported metric.
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.main.attempted() + self.traced.as_ref().map_or(0, Window::attempted)
    }

    fn failed(&self) -> u64 {
        self.main.failed() + self.traced.as_ref().map_or(0, Window::failed) + self.check.mismatches
    }

    fn checked_frac(&self) -> f64 {
        ratio(self.check.checked as f64, self.attempted() as f64)
    }
}

/// Builds, warms up, measures and checks one workload run, then prints it.
fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let err = |e: wavefuse_core::FusionError| e.to_string();
    let reps = if args.smoke || args.trace {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let t0 = Instant::now();
        let w = W::build(args.seed).map_err(err)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.expect("at least one construction");
    w.prepare().map_err(err)?;
    if !args.smoke && measure(&mut w, WARMUP.as_secs_f64(), 0, None).failed() > 0 {
        return Err("warm-up failed".into());
    }

    let mut tracer = Tracer::new();
    let mut zynq = ZynqTotals::default();
    let (main, peak_rss_mb, traced) = if args.trace {
        let untraced = measure(&mut w, args.seconds / 2.0, 0, None);
        let peak_rss_mb = host::usage().peak_rss_mb;
        let traced = measure(&mut w, args.seconds / 2.0, 0, Some(&mut tracer));
        zynq = w
            .replay(&mut tracer, traced.mark, &traced.steps)
            .map_err(err)?;
        (untraced, peak_rss_mb, Some(traced))
    } else {
        let min_calls = if args.smoke { 0 } else { MIN_CALLS };
        let main = measure(&mut w, args.seconds, min_calls, None);
        if main.latencies_ms.len() < min_calls {
            return Err(format!(
                "the window delivered {} calls in {:.1} s; latency_p95_ms needs {min_calls}",
                main.latencies_ms.len(),
                main.wall_s
            ));
        }
        (main, host::usage().peak_rss_mb, None)
    };
    let budget = if args.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(CHECK_SHARE * args.seconds)
    };
    let check = w.check(main.mark, budget, args.corrupt).map_err(err)?;
    let mut out = Outcome {
        setup_s,
        main,
        traced,
        peak_rss_mb,
        check,
        metrics: Vec::new(),
    };
    out.metrics = match &out.traced {
        None => end_to_end(&out),
        Some(tw) => {
            let values = layer_metrics::<W>(&zynq, &out.main, tw, &tracer, out.checked_frac());
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = values
                        .iter()
                        .find(|(name, _)| *name == m.name)
                        .map(|&(_, v)| v)
                        .expect("every catalogued layer metric is computed");
                    if m.applies.contains(&args.workload.as_str()) {
                        let note = format!(
                            "{} untraced + {} traced frames",
                            out.main.frames(),
                            tw.frames()
                        );
                        (m.name, value, m.unit, note)
                    } else {
                        (m.name, 0.0, m.unit, "not applicable".into())
                    }
                })
                .collect()
        }
    };
    if out.traced.is_some() {
        let path = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
            .join("wavebench-spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    print_outcome(args, &out);
    Ok(())
}

/// The end-to-end metrics, in [`END_TO_END`] order, with sample notes.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str, String)> {
    let m = &out.main;
    let frames = m.frames() as f64;
    let n = m.latencies_ms.len();
    let beyond_p95 = n - ((0.95 * n as f64).ceil() as usize).min(n);
    let values = [
        (
            ratio(frames, m.wall_s),
            format!("{frames} frames in {:.1} s", m.wall_s),
        ),
        (quantile(&m.latencies_ms, 0.50), format!("n={n} samples")),
        (
            quantile(&m.latencies_ms, 0.95),
            format!("n={n} samples, {beyond_p95} beyond the p95"),
        ),
        (
            ratio(m.cpu_s * 1e3, frames),
            format!("{:.2} CPU s over {frames} frames", m.cpu_s),
        ),
        (
            median_or(&out.setup_s, 0.0),
            format!("median of n={} constructions", out.setup_s.len()),
        ),
        (
            out.peak_rss_mb,
            "n=1 process, at the end of the window".into(),
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(e, (v, note))| (e.name, v, e.unit, note))
        .collect()
}

/// Prints the report lines, the `detail` object and, last, the result.
fn print_outcome(args: &Args, out: &Outcome) {
    let fp = host::fingerprint(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."));
    println!(
        "wavebench {} seed={} trace={} seconds={} | nproc={} cpu=\"{}\" l2={} commit={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        fp.nproc,
        fp.cpu_model,
        fp.l2,
        fp.commit
    );
    for (name, value, unit, note) in &out.metrics {
        println!("  {name:<36} {value:>14.6} {unit:<9} ({note})");
    }
    let c = &out.main.counters;
    let frames = c.frames as f64;
    let modeled_ms = ratio(c.modeled_s * 1e3, frames);
    let modeled_mj = ratio(c.energy_mj, frames);
    let failed_frac = ratio(out.failed() as f64, out.attempted() as f64);
    if out.traced.is_none() {
        for (name, value, unit) in [
            ("modeled_ms_per_frame", modeled_ms, "ms"),
            ("modeled_mj_per_frame", modeled_mj, "mJ"),
        ] {
            println!(
                "  {name:<36} {value:>14.6} {unit:<9} (modeled, deterministic; n={frames} frames)"
            );
        }
    }
    println!(
        "  {:<36} {failed_frac:>14.6} {:<9} ({} of {} attempted)",
        "failed_frac",
        "ratio",
        out.failed(),
        out.attempted()
    );
    println!(
        "  {:<36} {:>14.6} {:<9} ({} frames compared with the serial reference)",
        "checked_frac",
        out.checked_frac(),
        "ratio",
        out.check.checked
    );

    let num = JsonValue::Num;
    let detail = JsonValue::Obj(vec![
        ("workload".into(), JsonValue::Str(args.workload.clone())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        (
            "host".into(),
            JsonValue::Obj(vec![
                ("nproc".into(), num(fp.nproc as f64)),
                ("cpu_model".into(), JsonValue::Str(fp.cpu_model)),
                ("l2".into(), JsonValue::Str(fp.l2)),
                ("commit".into(), JsonValue::Str(fp.commit)),
            ]),
        ),
        ("frames".into(), num(frames)),
        ("samples".into(), num(out.main.latencies_ms.len() as f64)),
        ("checked".into(), num(out.check.checked as f64)),
        ("checked_frac".into(), num(out.checked_frac())),
        ("failed_frac".into(), num(failed_frac)),
        ("modeled_ms_per_frame".into(), num(modeled_ms)),
        ("modeled_mj_per_frame".into(), num(modeled_mj)),
    ]);
    println!(
        "{}",
        JsonValue::Obj(vec![("detail".into(), detail)]).render()
    );

    let metrics = out
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let m = vec![
                ("value".into(), num(*value)),
                ("unit".into(), JsonValue::Str(unit.to_string())),
            ];
            (name.to_string(), JsonValue::Obj(m))
        })
        .collect();
    let result = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(out.failed() == 0)),
        ("attempted".into(), num(out.attempted() as f64)),
        ("failed".into(), num(out.failed() as f64)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

/// Per-layer metric values by name. Counter-based metrics come from the
/// untraced window `un`, span-based ones from the traced window `tw`; all
/// times are per delivered frame unless named per call.
fn layer_metrics<W: Workload>(
    z: &ZynqTotals,
    un: &Window,
    tw: &Window,
    tr: &Tracer,
    checked_frac: f64,
) -> Vec<(&'static str, f64)> {
    let totals = tr.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (cap, th, step, eng) = (
        get("video.capture"),
        get("video.thermal"),
        get("core.step"),
        get("core.engine_fuse"),
    );
    let (fwd, inv, fuse, choose) = (
        get("dtcwt.forward"),
        get("dtcwt.inverse"),
        get("core.fuse"),
        get("core.adaptive.choose"),
    );
    let captures_ns = (cap.total_ns + th.total_ns) as f64;
    let ft = tw.frames() as f64;
    let per_frame_ms = |ns: f64| ratio(ns * 1e-6, ft);
    let c = &un.counters;
    let fu = c.frames as f64;
    let zf = z.frames as f64;
    let fairness = match (c.stream_frames.iter().min(), c.stream_frames.iter().max()) {
        (Some(&lo), Some(&hi)) => ratio(lo as f64, hi as f64),
        _ => 0.0,
    };
    vec![
        ("video.capture_ms", per_frame_ms(cap.total_ns as f64)),
        ("video.thermal_ms", per_frame_ms(th.total_ns as f64)),
        (
            "video.capture_share",
            ratio(captures_ns, step.total_ns as f64),
        ),
        ("dtcwt.forward_ms", per_frame_ms(fwd.total_ns as f64)),
        ("dtcwt.inverse_ms", per_frame_ms(inv.total_ns as f64)),
        (
            "dtcwt.forward_ns_per_px",
            ratio(fwd.total_ns as f64, fwd.px as f64),
        ),
        (
            "dtcwt.inverse_ns_per_px",
            ratio(inv.total_ns as f64, inv.px as f64),
        ),
        (
            "dtcwt.forward_gmac_s",
            ratio(fwd.macs as f64, fwd.total_ns as f64),
        ),
        (
            "dtcwt.inverse_gmac_s",
            ratio(inv.macs as f64, inv.total_ns as f64),
        ),
        ("dtcwt.pool.jobs_per_frame", ratio(c.jobs as f64, fu)),
        ("dtcwt.pool.claims_per_frame", ratio(c.claims as f64, fu)),
        ("dtcwt.pool.steals_per_frame", ratio(c.steals as f64, fu)),
        (
            "dtcwt.pool.parked_frac",
            ratio(c.parked_ns as f64, W::WORKERS as f64 * un.wall_s * 1e9),
        ),
        (
            "dtcwt.buffer_pool.misses_per_frame",
            ratio(c.pool_misses as f64, fu),
        ),
        ("core.fuse_ms", per_frame_ms(fuse.total_ns as f64)),
        (
            "core.fusion_strips_per_frame",
            ratio(c.fusion_strips as f64, fu),
        ),
        ("core.engine_fuse_ms", per_frame_ms(eng.total_ns as f64)),
        ("core.engine_overhead_ms", per_frame_ms(eng.self_ns as f64)),
        ("core.pipeline_step_ms", per_frame_ms(step.total_ns as f64)),
        (
            "core.pipeline_overhead_ms",
            per_frame_ms(step.self_ns as f64),
        ),
        (
            "core.adaptive.choose_us",
            ratio(choose.total_ns as f64 * 1e-3, choose.calls as f64),
        ),
        ("core.adaptive.fpga_share", ratio(c.fpga_frames as f64, fu)),
        ("core.serve.fairness", fairness),
        (
            "core.serve.deadline_miss_frac",
            ratio(c.deadline_misses as f64, fu),
        ),
        (
            "core.serve.packing_gain",
            ratio(eng.total_ns as f64, step.total_ns as f64 - captures_ns),
        ),
        (
            "zynq.engine_calls_per_frame",
            ratio(z.engine_calls as f64, zf),
        ),
        (
            "zynq.dma_mb_per_frame",
            ratio(z.dma_words as f64 * 4.0 / f64::from(1u32 << 20), zf),
        ),
        (
            "zynq.host_us_per_call",
            ratio(z.host_ns as f64 * 1e-3, z.engine_calls as f64),
        ),
        ("zynq.pl_busy_ms_per_frame", ratio(z.pl_busy_s * 1e3, zf)),
        ("power.ps_mj_per_frame", ratio(c.energy_mj - c.pl_mj, fu)),
        ("power.pl_mj_per_frame", ratio(c.pl_mj, fu)),
        ("modeled_ms_per_frame", ratio(c.modeled_s * 1e3, fu)),
        ("modeled_mj_per_frame", ratio(c.energy_mj, fu)),
        (
            "bench.trace_overhead_frac",
            ratio(ratio(tw.wall_s, ft), ratio(un.wall_s, fu)) - 1.0,
        ),
        ("bench.checked_frac", checked_frac),
    ]
}
