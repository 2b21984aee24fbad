//! The three closed-loop workloads. One client (the benchmark thread)
//! asks for the next frame only after the previous one is delivered; no
//! configuration runs more than two worker threads.

use std::time::{Duration, Instant};

use wavefuse_core::adaptive::{AdaptiveScheduler, Objective, Policy};
use wavefuse_core::pipeline::{BackendChoice, PipelineConfig, VideoFusionPipeline};
use wavefuse_core::serve::{solo_digest, FleetConfig, StreamConfig, StreamManager};
use wavefuse_core::{Backend, FusionError, FusionOutput};
use wavefuse_dtcwt::Image;

use crate::rig::{Rig, ZynqTotals, LEVELS};
use crate::trace::Tracer;

/// Cumulative counters of a workload instance; windows report deltas.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Frames delivered.
    pub frames: u64,
    /// Frames dropped (gate drops, fleet backpressure).
    pub drops: u64,
    /// Worker-pool jobs executed.
    pub jobs: u64,
    /// Worker-pool claim chunks taken.
    pub claims: u64,
    /// Worker-pool claims that continued another worker's run.
    pub steals: u64,
    /// Nanoseconds workers spent parked.
    pub parked_ns: u64,
    /// Output buffer-pool acquisitions that allocated.
    pub pool_misses: u64,
    /// Strip fusion jobs fanned out.
    pub fusion_strips: u64,
    /// Frames the FPGA backend ran.
    pub fpga_frames: u64,
    /// Fleet retirements slower than the stream deadline.
    pub deadline_misses: u64,
    /// Modeled ZC702 seconds.
    pub modeled_s: f64,
    /// Modeled energy, mJ.
    pub energy_mj: f64,
    /// Modeled PL-increment energy, mJ (part of `energy_mj`).
    pub pl_mj: f64,
    /// Frames delivered per stream (fleet only).
    pub stream_frames: Vec<u64>,
}

impl Counters {
    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            frames: self.frames - before.frames,
            drops: self.drops - before.drops,
            jobs: self.jobs - before.jobs,
            claims: self.claims - before.claims,
            steals: self.steals - before.steals,
            parked_ns: self.parked_ns - before.parked_ns,
            pool_misses: self.pool_misses - before.pool_misses,
            fusion_strips: self.fusion_strips - before.fusion_strips,
            fpga_frames: self.fpga_frames - before.fpga_frames,
            deadline_misses: self.deadline_misses - before.deadline_misses,
            modeled_s: self.modeled_s - before.modeled_s,
            energy_mj: self.energy_mj - before.energy_mj,
            pl_mj: self.pl_mj - before.pl_mj,
            stream_frames: self
                .stream_frames
                .iter()
                .zip(&before.stream_frames)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Accumulates one delivered pipeline frame.
    fn add_output(&mut self, out: &FusionOutput, pl_increment_w: f64) {
        self.frames += 1;
        self.fusion_strips += out.fusion_strips as u64;
        self.fpga_frames += u64::from(out.backend == Backend::Fpga);
        self.modeled_s += out.timing.total_seconds();
        self.energy_mj += out.energy_mj;
        // The pipeline's PS/PL split: the PL increment over PL busy time.
        self.pl_mj += (pl_increment_w * out.pl_busy_s * 1e3).min(out.energy_mj);
    }
}

/// Outcome of comparing delivered frames with the serial reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    /// Window frames compared.
    pub checked: u64,
    /// Compared frames (fleet: streams) whose digest differed.
    pub mismatches: u64,
}

/// A closed-loop workload.
pub trait Workload: Sized {
    /// Frames one delivering call produces.
    const FRAMES_PER_UNIT: u64;
    /// Worker threads of the workload's pool (0 when it has none).
    const WORKERS: u64;

    /// Constructs the workload from scratch and delivers its first frames
    /// (the span `setup_s` times).
    fn build(seed: u64) -> Result<Self, FusionError>;
    /// Untimed work before the windows (e.g. model constants).
    fn prepare(&mut self) -> Result<(), FusionError> {
        Ok(())
    }
    /// Delivers one unit (a frame, or a fleet round).
    fn step(&mut self) -> Result<(), FusionError>;
    /// Replays, call by call on fresh rigs, the layers of the units
    /// delivered from log position `from` on, whose `core.step` spans are
    /// `steps` (one per unit, in order). Runs after the traced window,
    /// once the workload's own in-flight work has finished, so the replay
    /// shares the host with nothing of the workload's. Returns the
    /// simulated-FPGA totals of the replayed frames.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        from: usize,
        steps: &[usize],
    ) -> Result<ZynqTotals, FusionError>;
    /// Cumulative counters.
    fn counters(&self) -> Counters;
    /// Position in the delivery log (the start of a window).
    fn mark(&self) -> usize;
    /// Compares frames delivered from `from` on with a serial (1 thread,
    /// depth 1) reference of the same seeds, sizes and backends, in
    /// delivery order, until `budget` is spent (at least one unit is
    /// always checked). `corrupt` flips the first reference digest.
    fn check(&self, from: usize, budget: Duration, corrupt: bool) -> Result<Check, FusionError>;
}

/// Scene seed of sub-stream `index` of the workload seeded with `seed`
/// (splitmix64, so neighbouring seeds give unrelated scenes).
fn scene_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a frame's pixel bit patterns (one 32-bit word per pixel).
pub fn digest(img: &Image) -> u64 {
    img.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, px| {
        (h ^ u64::from(px.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares logged `(stream, backend, digest)` frames with references
/// replayed on `refs` (one serial rig per stream), in delivery order.
fn check_log(
    log: &[(usize, Backend, u64)],
    refs: &mut [Rig],
    from: usize,
    budget: Duration,
    corrupt: bool,
) -> Result<Check, FusionError> {
    let t0 = Instant::now();
    let mut check = Check::default();
    for (k, &(stream, backend, got)) in log.iter().enumerate() {
        if k >= from && check.checked > 0 && t0.elapsed() > budget {
            break;
        }
        let mut want = refs[stream].fuse_next(backend)?.digest;
        if k < from {
            continue;
        }
        if corrupt && check.checked == 0 {
            want ^= 1;
        }
        check.checked += 1;
        check.mismatches += u64::from(want != got);
    }
    Ok(check)
}

/// The paper's five evaluation sizes.
const PAPER_SIZES: [(usize, usize); 5] = [(32, 24), (35, 35), (40, 40), (64, 48), (88, 72)];

/// `paper-adaptive`: one serial pipeline per paper size under the
/// energy-model adaptive selector, one frame from each in turn.
#[derive(Debug)]
pub struct PaperAdaptive {
    seed: u64,
    pipes: Vec<VideoFusionPipeline>,
    next: usize,
    log: Vec<(usize, Backend, u64)>,
    acc: Counters,
    pl_increment_w: f64,
}

fn energy_selector() -> AdaptiveScheduler {
    AdaptiveScheduler::new(Policy::Model(Objective::Energy), LEVELS)
}

/// One serial rig per paper size, on the sizes' scene seeds.
fn paper_rigs(seed: u64) -> Result<Vec<Rig>, FusionError> {
    PAPER_SIZES
        .iter()
        .enumerate()
        .map(|(i, &size)| Rig::new(size, scene_seed(seed, i as u64), 1))
        .collect()
}

impl PaperAdaptive {
    fn deliver(&mut self, i: usize, out: FusionOutput) {
        self.log.push((i, out.backend, digest(&out.image)));
        self.acc.add_output(&out, self.pl_increment_w);
        self.pipes[i].recycle(out);
        self.next = (i + 1) % self.pipes.len();
    }
}

impl Workload for PaperAdaptive {
    const FRAMES_PER_UNIT: u64 = 1;
    const WORKERS: u64 = 0;

    fn build(seed: u64) -> Result<Self, FusionError> {
        let mut w = PaperAdaptive {
            seed,
            pipes: Vec::with_capacity(PAPER_SIZES.len()),
            next: 0,
            log: Vec::with_capacity(1 << 16),
            acc: Counters::default(),
            pl_increment_w: 0.0,
        };
        for (i, &size) in PAPER_SIZES.iter().enumerate() {
            w.pipes.push(VideoFusionPipeline::new(PipelineConfig {
                frame_size: size,
                levels: LEVELS,
                backend: BackendChoice::Adaptive(Box::new(energy_selector())),
                scene_seed: scene_seed(seed, i as u64),
                threads: 1,
                depth: 1,
            })?);
        }
        w.pl_increment_w = w.pipes[0].engine().power_model().pl_increment_w();
        for _ in 0..PAPER_SIZES.len() {
            w.step()?;
        }
        Ok(w)
    }

    fn step(&mut self) -> Result<(), FusionError> {
        let i = self.next;
        let out = self.pipes[i].step()?;
        self.deliver(i, out);
        Ok(())
    }

    fn replay(
        &mut self,
        tr: &mut Tracer,
        from: usize,
        steps: &[usize],
    ) -> Result<ZynqTotals, FusionError> {
        let mut rigs = paper_rigs(self.seed)?;
        let mut chooser = energy_selector();
        for (k, &step) in steps.iter().enumerate() {
            let (i, backend, _) = self.log[from + k];
            tr.set_unit((from + k) as u64);
            let (w, h) = PAPER_SIZES[i];
            tr.time("core.adaptive.choose", Some(step), || chooser.choose(w, h))
                .0?;
            rigs[i].replay(tr, step, backend)?;
        }
        Ok(rigs.iter().fold(ZynqTotals::default(), |mut t, r| {
            t.frames += r.zynq.frames;
            t.engine_calls += r.zynq.engine_calls;
            t.dma_words += r.zynq.dma_words;
            t.pl_busy_s += r.zynq.pl_busy_s;
            t.host_ns += r.zynq.host_ns;
            t
        }))
    }

    fn counters(&self) -> Counters {
        let mut c = self.acc.clone();
        for p in &self.pipes {
            c.pool_misses += p.engine().buffer_pool().stats().misses;
            c.drops += p.stats().gate_drops;
        }
        c
    }

    fn mark(&self) -> usize {
        self.log.len()
    }

    fn check(&self, from: usize, budget: Duration, corrupt: bool) -> Result<Check, FusionError> {
        check_log(
            &self.log,
            &mut paper_rigs(self.seed)?,
            from,
            budget,
            corrupt,
        )
    }
}

/// VGA frame size of `vga-pooled`.
const VGA: (usize, usize) = (640, 480);
/// Worker threads of `vga-pooled` and `fleet-8` (the host's 2 vCPUs).
const THREADS: usize = 2;

/// `vga-pooled`: one 640x480 NEON pipeline on a 2-worker pool at depth 2.
#[derive(Debug)]
pub struct VgaPooled {
    seed: u64,
    pipe: VideoFusionPipeline,
    log: Vec<(usize, Backend, u64)>,
    acc: Counters,
    pl_increment_w: f64,
}

impl VgaPooled {
    fn deliver(&mut self, out: FusionOutput) {
        self.log.push((0, out.backend, digest(&out.image)));
        self.acc.add_output(&out, self.pl_increment_w);
        self.pipe.recycle(out);
    }
}

impl Workload for VgaPooled {
    const FRAMES_PER_UNIT: u64 = 1;
    const WORKERS: u64 = THREADS as u64;

    fn build(seed: u64) -> Result<Self, FusionError> {
        let pipe = VideoFusionPipeline::new(PipelineConfig {
            frame_size: VGA,
            levels: LEVELS,
            backend: BackendChoice::Fixed(Backend::Neon),
            scene_seed: scene_seed(seed, 0),
            threads: THREADS,
            depth: 2,
        })?;
        let mut w = VgaPooled {
            seed,
            pl_increment_w: pipe.engine().power_model().pl_increment_w(),
            pipe,
            log: Vec::with_capacity(1 << 12),
            acc: Counters::default(),
        };
        w.step()?;
        Ok(w)
    }

    fn step(&mut self) -> Result<(), FusionError> {
        let out = self.pipe.step()?;
        self.deliver(out);
        Ok(())
    }

    fn replay(
        &mut self,
        tr: &mut Tracer,
        from: usize,
        steps: &[usize],
    ) -> Result<ZynqTotals, FusionError> {
        // At depth 2 the last step returned with the next frame's inverse
        // still running on the pipeline's workers: wait for it, so the
        // replay does not compete with it.
        while self.pipe.engine_mut().stash_oldest_in_flight() {}
        let mut rig = Rig::new(VGA, scene_seed(self.seed, 0), THREADS)?;
        for (k, &step) in steps.iter().enumerate() {
            tr.set_unit((from + k) as u64);
            rig.replay(tr, step, Backend::Neon)?;
        }
        Ok(rig.zynq)
    }

    fn counters(&self) -> Counters {
        let mut c = self.acc.clone();
        let engine = self.pipe.engine();
        let sched = engine.sched_totals();
        c.jobs = sched.jobs;
        c.claims = sched.batches_claimed;
        c.steals = sched.steals;
        c.parked_ns = sched.parked_ns;
        c.pool_misses = engine.buffer_pool().stats().misses;
        c.drops = self.pipe.stats().gate_drops;
        c
    }

    fn mark(&self) -> usize {
        self.log.len()
    }

    fn check(&self, from: usize, budget: Duration, corrupt: bool) -> Result<Check, FusionError> {
        let mut refs = [Rig::new(VGA, scene_seed(self.seed, 0), 1)?];
        check_log(&self.log, &mut refs, from, budget, corrupt)
    }
}

/// Streams of `fleet-8`.
const STREAMS: usize = 8;

/// `fleet-8`: eight default streams (88x72 NEON, depth 1, 30 fps
/// deadline) on one shared 2-worker pool, one `run(1)` round per unit.
#[derive(Debug)]
pub struct Fleet8 {
    mgr: StreamManager,
    cfgs: Vec<StreamConfig>,
    /// Per round: every stream's cumulative digest and delivered frames.
    rounds: Vec<[(u64, u64); STREAMS]>,
    acc: Counters,
    modeled_frame_s: f64,
}

impl Fleet8 {
    fn round(&mut self) -> Result<(), FusionError> {
        let report = self.mgr.run(1)?;
        let mut snap = [(0, 0); STREAMS];
        for (i, s) in snap.iter_mut().enumerate() {
            *s = (self.mgr.stream_digest(i), self.mgr.stream_frames(i));
            self.acc.stream_frames[i] = s.1;
        }
        self.rounds.push(snap);
        self.acc.frames += report.total_frames;
        self.acc.drops += report.total_drops;
        self.acc.energy_mj += report.energy_mj_per_frame * report.total_frames as f64;
        self.acc.modeled_s += self.modeled_frame_s * report.total_frames as f64;
        self.acc.deadline_misses += report
            .per_stream
            .iter()
            .map(|s| s.deadline_misses)
            .sum::<u64>();
        Ok(())
    }
}

impl Workload for Fleet8 {
    const FRAMES_PER_UNIT: u64 = STREAMS as u64;
    const WORKERS: u64 = THREADS as u64;

    fn build(seed: u64) -> Result<Self, FusionError> {
        let mut mgr = StreamManager::new(FleetConfig {
            threads: THREADS,
            ..FleetConfig::default()
        });
        mgr.set_digests(true);
        let cfgs: Vec<StreamConfig> = (0..STREAMS)
            .map(|i| StreamConfig {
                scene_seed: scene_seed(seed, i as u64),
                ..StreamConfig::default()
            })
            .collect();
        for cfg in &cfgs {
            mgr.admit(*cfg)?;
        }
        let mut w = Fleet8 {
            mgr,
            cfgs,
            rounds: Vec::with_capacity(1 << 14),
            acc: Counters {
                stream_frames: vec![0; STREAMS],
                ..Counters::default()
            },
            modeled_frame_s: 0.0,
        };
        w.round()?;
        Ok(w)
    }

    fn prepare(&mut self) -> Result<(), FusionError> {
        // Every stream runs the same geometry and backend, so one solo
        // frame gives the modeled time of each.
        let cfg = &self.cfgs[0];
        let mut rig = Rig::new(cfg.frame_size, cfg.scene_seed, 1)?;
        self.modeled_frame_s = rig.fuse_next(Backend::Neon)?.modeled_ms * 1e-3;
        Ok(())
    }

    fn step(&mut self) -> Result<(), FusionError> {
        self.round()
    }

    fn replay(
        &mut self,
        tr: &mut Tracer,
        from: usize,
        steps: &[usize],
    ) -> Result<ZynqTotals, FusionError> {
        let mut rigs = self
            .cfgs
            .iter()
            .map(|c| Rig::new(c.frame_size, c.scene_seed, 1))
            .collect::<Result<Vec<_>, _>>()?;
        for (k, &step) in steps.iter().enumerate() {
            tr.set_unit((from + k) as u64);
            for rig in &mut rigs {
                rig.replay(tr, step, Backend::Neon)?;
            }
        }
        Ok(ZynqTotals::default())
    }

    fn counters(&self) -> Counters {
        self.acc.clone()
    }

    fn mark(&self) -> usize {
        self.rounds.len()
    }

    fn check(&self, from: usize, budget: Duration, corrupt: bool) -> Result<Check, FusionError> {
        // The fleet digests are cumulative, so the reference replays each
        // stream from its first frame: pick the last round whose prefix
        // the budget affords, from the cost of a short solo run.
        if from >= self.rounds.len() {
            return Ok(Check::default());
        }
        let t0 = Instant::now();
        const PROBE: usize = 4;
        solo_digest(&self.cfgs[0], true, PROBE)?;
        let per_frame = t0.elapsed().as_secs_f64() / PROBE as f64;
        let affordable = (budget.as_secs_f64() / (per_frame * STREAMS as f64)) as u64;
        let last = (from..self.rounds.len())
            .take_while(|&r| self.rounds[r].iter().all(|&(_, n)| n <= affordable))
            .last()
            .unwrap_or(from);
        let mut check = Check {
            checked: (last + 1 - from) as u64 * STREAMS as u64,
            mismatches: 0,
        };
        for (i, (cfg, &(got, frames))) in self.cfgs.iter().zip(&self.rounds[last]).enumerate() {
            let mut want = solo_digest(cfg, true, frames as usize)?;
            if corrupt && i == 0 {
                want ^= 1;
            }
            check.mismatches += u64::from(want != got);
        }
        Ok(check)
    }
}
