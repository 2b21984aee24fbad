//! The benchmark's metric catalogue: every metric's unit and direction,
//! and for each per-layer metric what it times, the end-to-end metric it
//! should move, and the workload where it should not move.
//!
//! Later performance claims name these metrics; `--map` prints the
//! catalogue as JSON.

use wavefuse_trace::JsonValue;

/// Workload names, in the order they are listed.
pub const WORKLOADS: [&str; 3] = ["paper-adaptive", "vga-pooled", "fleet-8"];

/// An end-to-end metric, measured with tracing off.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// What it measures.
    pub what: &'static str,
}

/// End-to-end metrics reported by every untraced run (`--trace 0`).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "fps",
        unit: "frames/s",
        better: "higher",
        what: "fused frames delivered over the timed window, per second (fleet: all streams)",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        what: "median wall time of the call that delivers a frame (step, or one fleet round)",
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        what: "exact p95 of those samples; the window runs on until it has at least 200, so ten lie beyond it",
    },
    EndToEnd {
        name: "cpu_ms_per_frame",
        unit: "ms",
        better: "lower",
        what: "process user+sys CPU time over the window per delivered frame (the host's stand-in for energy)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        what: "median over fresh constructions of building the workload to its first fused frame",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        what: "peak resident memory of the benchmark process when the window ends, before the reference check",
    },
];

/// A per-layer metric, reported by the traced run (`--trace 1`).
#[derive(Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`: the direction an optimization aims for.
    pub better: &'static str,
    /// The calls or counters it is computed from.
    pub what: &'static str,
    /// End-to-end metrics (and workloads) it should move.
    pub moves: &'static str,
    /// Workload where it should not move.
    pub flat_on: &'static str,
    /// Workloads where it is measured; elsewhere it reads 0 and is listed
    /// as not applicable.
    pub applies: &'static [&'static str],
}

const ALL: &[&str] = &WORKLOADS;
const PAPER: &[&str] = &["paper-adaptive"];
const POOLED: &[&str] = &["vga-pooled"];
const FLEET: &[&str] = &["fleet-8"];
const PIPELINES: &[&str] = &["paper-adaptive", "vga-pooled"];

/// Per-layer metrics, in report order.
pub const PER_LAYER: [PerLayer; 35] = [
    PerLayer {
        name: "video.capture_ms",
        unit: "ms",
        better: "lower",
        what: "WebCamera::capture_into per frame",
        moves: "fps, latency_p50_ms on paper-adaptive and fleet-8",
        flat_on: "vga-pooled",
        applies: ALL,
    },
    PerLayer {
        name: "video.thermal_ms",
        unit: "ms",
        better: "lower",
        what: "ThermalCamera::capture_into (BT.656 decode and scale) per frame",
        moves: "fps, latency_p50_ms on paper-adaptive and fleet-8",
        flat_on: "vga-pooled",
        applies: ALL,
    },
    PerLayer {
        name: "video.capture_share",
        unit: "ratio",
        better: "lower",
        what: "both captures over the delivering call (step or round)",
        moves: "fps, latency_p50_ms on paper-adaptive and fleet-8",
        flat_on: "vga-pooled",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.forward_ms",
        unit: "ms",
        better: "lower",
        what: "Dtcwt forward calls per frame (forward_pooled_pair on vga-pooled, forward_into elsewhere)",
        moves: "fps, latency_p95_ms, cpu_ms_per_frame on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.inverse_ms",
        unit: "ms",
        better: "lower",
        what: "Dtcwt inverse call per frame (inverse_pooled on vga-pooled, inverse_into elsewhere)",
        moves: "fps, latency_p95_ms, cpu_ms_per_frame on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.forward_ns_per_px",
        unit: "ns/px",
        better: "lower",
        what: "forward span time per input pixel per transform",
        moves: "fps, latency_p95_ms, cpu_ms_per_frame on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.inverse_ns_per_px",
        unit: "ns/px",
        better: "lower",
        what: "inverse span time per output pixel",
        moves: "fps, latency_p95_ms, cpu_ms_per_frame on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.forward_gmac_s",
        unit: "GMAC/s",
        better: "higher",
        what: "computed forward MACs (TransformPlan filter lengths x level geometry) over forward span time",
        moves: "fps, latency_p95_ms, cpu_ms_per_frame on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.inverse_gmac_s",
        unit: "GMAC/s",
        better: "higher",
        what: "computed inverse MACs over inverse span time",
        moves: "fps, latency_p95_ms, cpu_ms_per_frame on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "dtcwt.pool.jobs_per_frame",
        unit: "count",
        better: "lower",
        what: "delta of FusionEngine::sched_totals().jobs over the untraced window, per frame",
        moves: "cpu_ms_per_frame, fps on vga-pooled; latency_p95_ms on fleet-8",
        flat_on: "paper-adaptive",
        applies: POOLED,
    },
    PerLayer {
        name: "dtcwt.pool.claims_per_frame",
        unit: "count",
        better: "lower",
        what: "delta of sched_totals().batches_claimed, per frame",
        moves: "cpu_ms_per_frame, fps on vga-pooled; latency_p95_ms on fleet-8",
        flat_on: "paper-adaptive",
        applies: POOLED,
    },
    PerLayer {
        name: "dtcwt.pool.steals_per_frame",
        unit: "count",
        better: "lower",
        what: "delta of sched_totals().steals, per frame",
        moves: "cpu_ms_per_frame, fps on vga-pooled; latency_p95_ms on fleet-8",
        flat_on: "paper-adaptive",
        applies: POOLED,
    },
    PerLayer {
        name: "dtcwt.pool.parked_frac",
        unit: "ratio",
        better: "lower",
        what: "delta of sched_totals().parked_ns over workers x window",
        moves: "cpu_ms_per_frame, fps on vga-pooled; latency_p95_ms on fleet-8",
        flat_on: "paper-adaptive",
        applies: POOLED,
    },
    PerLayer {
        name: "dtcwt.buffer_pool.misses_per_frame",
        unit: "count",
        better: "lower",
        what: "delta of FusionEngine::buffer_pool().stats().misses, per frame",
        moves: "cpu_ms_per_frame, fps on vga-pooled; latency_p95_ms on fleet-8",
        flat_on: "paper-adaptive",
        applies: PIPELINES,
    },
    PerLayer {
        name: "core.fuse_ms",
        unit: "ms",
        better: "lower",
        what: "rules::fuse_pyramids_with_kernel (NEON) or fuse_pyramids_into (FPGA) per frame",
        moves: "fps on vga-pooled",
        flat_on: "paper-adaptive",
        applies: ALL,
    },
    PerLayer {
        name: "core.fusion_strips_per_frame",
        unit: "count",
        better: "higher",
        what: "FusionOutput::fusion_strips of delivered frames, per frame",
        moves: "fps on vga-pooled",
        flat_on: "paper-adaptive",
        applies: POOLED,
    },
    PerLayer {
        name: "core.engine_fuse_ms",
        unit: "ms",
        better: "lower",
        what: "solo FusionEngine::fuse per frame",
        moves: "latency_p50_ms on all workloads",
        flat_on: "none",
        applies: ALL,
    },
    PerLayer {
        name: "core.engine_overhead_ms",
        unit: "ms",
        better: "lower",
        what: "FusionEngine::fuse minus its forward, fuse and inverse calls, per frame",
        moves: "latency_p50_ms on all workloads",
        flat_on: "none",
        applies: ALL,
    },
    PerLayer {
        name: "core.pipeline_step_ms",
        unit: "ms",
        better: "lower",
        what: "VideoFusionPipeline::step (fleet: StreamManager::run(1) over 8) per frame",
        moves: "latency_p50_ms on all workloads",
        flat_on: "none",
        applies: ALL,
    },
    PerLayer {
        name: "core.pipeline_overhead_ms",
        unit: "ms",
        better: "lower",
        what: "the delivering call minus its captures and solo engine fuses, per frame",
        moves: "latency_p50_ms on all workloads",
        flat_on: "none",
        applies: ALL,
    },
    PerLayer {
        name: "core.adaptive.choose_us",
        unit: "us",
        better: "lower",
        what: "AdaptiveScheduler::choose per call",
        moves: "fps on paper-adaptive",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "core.adaptive.fpga_share",
        unit: "ratio",
        better: "higher",
        what: "delivered frames the adaptive selector ran on the FPGA",
        moves: "fps, modeled_mj_per_frame on paper-adaptive",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "core.serve.fairness",
        unit: "ratio",
        better: "higher",
        what: "min over max per-stream frames delivered in the untraced window",
        moves: "fps, latency_p95_ms on fleet-8",
        flat_on: "vga-pooled",
        applies: FLEET,
    },
    PerLayer {
        name: "core.serve.deadline_miss_frac",
        unit: "ratio",
        better: "lower",
        what: "retirements slower than the stream's 30 fps deadline, over frames",
        moves: "fps, latency_p95_ms on fleet-8",
        flat_on: "vga-pooled",
        applies: FLEET,
    },
    PerLayer {
        name: "core.serve.packing_gain",
        unit: "ratio",
        better: "higher",
        what: "the 8 streams' solo FusionEngine::fuse time over (round time minus captures)",
        moves: "fps, latency_p95_ms on fleet-8",
        flat_on: "vga-pooled",
        applies: FLEET,
    },
    PerLayer {
        name: "zynq.engine_calls_per_frame",
        unit: "count",
        better: "lower",
        what: "CycleLedger::engine_calls per FPGA frame",
        moves: "fps, latency_p95_ms on paper-adaptive",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "zynq.dma_mb_per_frame",
        unit: "MiB",
        better: "lower",
        what: "CycleLedger::dma_words x 4 bytes per FPGA frame",
        moves: "fps, latency_p95_ms on paper-adaptive",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "zynq.host_us_per_call",
        unit: "us",
        better: "lower",
        what: "host time of the FPGA-kernel forward and inverse calls per engine call",
        moves: "fps, latency_p95_ms on paper-adaptive",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "zynq.pl_busy_ms_per_frame",
        unit: "ms",
        better: "lower",
        what: "modeled PL busy time (CycleLedger::pl_busy_seconds) per FPGA frame",
        moves: "fps, latency_p95_ms on paper-adaptive",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "power.ps_mj_per_frame",
        unit: "mJ",
        better: "lower",
        what: "modeled PS energy per frame (energy minus the PL increment over PL busy time)",
        moves: "modeled_mj_per_frame on paper-adaptive; no host metric",
        flat_on: "vga-pooled",
        applies: ALL,
    },
    PerLayer {
        name: "power.pl_mj_per_frame",
        unit: "mJ",
        better: "lower",
        what: "modeled PL increment energy over PL busy time, per frame",
        moves: "modeled_mj_per_frame on paper-adaptive; no host metric",
        flat_on: "vga-pooled",
        applies: PAPER,
    },
    PerLayer {
        name: "modeled_ms_per_frame",
        unit: "ms",
        better: "lower",
        what: "modeled ZC702 frame time from the cost model and cycle ledger (deterministic)",
        moves: "the paper's time axis on every workload; no host metric",
        flat_on: "none",
        applies: ALL,
    },
    PerLayer {
        name: "modeled_mj_per_frame",
        unit: "mJ",
        better: "lower",
        what: "modeled ZC702 frame energy from the power model (deterministic)",
        moves: "the paper's energy axis on every workload; no host metric",
        flat_on: "none",
        applies: ALL,
    },
    PerLayer {
        name: "bench.trace_overhead_frac",
        unit: "ratio",
        better: "lower",
        what: "wall ms per frame with a span around each delivering call over untraced ms per frame, minus 1",
        moves: "nothing: it prices the traced run itself",
        flat_on: "all",
        applies: ALL,
    },
    PerLayer {
        name: "bench.checked_frac",
        unit: "ratio",
        better: "higher",
        what: "delivered frames compared against the serial reference",
        moves: "nothing: it states how much of the output check covered",
        flat_on: "all",
        applies: ALL,
    },
];

/// The catalogue as one JSON document.
pub fn to_json() -> JsonValue {
    let s = |v: &str| JsonValue::Str(v.into());
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            JsonValue::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better)),
                ("what".into(), s(m.what)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            JsonValue::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better)),
                ("what".into(), s(m.what)),
                ("moves".into(), s(m.moves)),
                ("flat_on".into(), s(m.flat_on)),
                (
                    "applies".into(),
                    JsonValue::Arr(m.applies.iter().map(|w| s(w)).collect()),
                ),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("end_to_end".into(), JsonValue::Arr(e2e)),
        ("per_layer".into(), JsonValue::Arr(layers)),
    ])
}
