//! Replay of one stream's layers, call by call, for the traced run.
//!
//! A [`Rig`] owns its own cameras, a solo [`FusionEngine`] configured like
//! the workload's, and the transform state to call the `wavefuse-dtcwt`
//! forward/inverse and the `wavefuse-core` fusion rules directly with the
//! kernel the engine would pick. Each replayed frame records, under the
//! caller's step span: the two captures, the engine's whole `fuse`, and
//! beneath that the forward, fusion and inverse calls it is made of.

use std::sync::Arc;

use wavefuse_core::cost::TransformPlan;
use wavefuse_core::engine::build_worker_pool;
use wavefuse_core::rules::{fuse_pyramids_into, fuse_pyramids_with_kernel};
use wavefuse_core::{Backend, FusionEngine, FusionError, FusionRule, FusionScratch, LowpassRule};
use wavefuse_dtcwt::{
    ComboStore, CwtPyramid, Dtcwt, FilterKernel, Image, JobOutcome, Scratch, WorkerPool,
};
use wavefuse_simd::SimdKernel;
use wavefuse_video::camera::{ThermalCamera, WebCamera};
use wavefuse_video::scene::ScenePair;
use wavefuse_video::Frame;
use wavefuse_zynq::FpgaKernel;

use crate::trace::Tracer;
use crate::workloads::digest;

/// Decomposition depth of every workload.
pub const LEVELS: usize = 3;
/// Worker-slot index of the SIMD (NEON) kernel in pools built by
/// [`build_worker_pool`].
const SIMD_SLOT: usize = 1;
/// The detail rule every workload fuses with (`window-energy`, 3x3).
const RULE: FusionRule = FusionRule::WindowEnergy { radius: 1 };

/// Simulated-FPGA work replayed through a rig's own [`FpgaKernel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ZynqTotals {
    /// FPGA-backend frames replayed.
    pub frames: u64,
    /// Row-engine invocations ([`wavefuse_zynq::CycleLedger`] count).
    pub engine_calls: u64,
    /// 32-bit words moved over the ACP.
    pub dma_words: u64,
    /// Modeled PL busy seconds.
    pub pl_busy_s: f64,
    /// Host nanoseconds spent in the FPGA-kernel forward and inverse calls.
    pub host_ns: u64,
}

/// A solo engine's fused frame, as the reference check needs it.
#[derive(Debug, Clone, Copy)]
pub struct Solo {
    /// [`digest`] of the fused pixels.
    pub digest: u64,
    /// Modeled ZC702 frame time, ms.
    pub modeled_ms: f64,
}

/// One stream's replay state.
#[derive(Debug)]
pub struct Rig {
    web: WebCamera,
    thermal: ThermalCamera,
    visible: Frame,
    field: Frame,
    engine: FusionEngine,
    dtcwt: Arc<Dtcwt>,
    simd: SimdKernel,
    fpga: FpgaKernel,
    scratch: Scratch,
    combos: ComboStore,
    combos_b: ComboStore,
    pyr_a: CwtPyramid,
    pyr_b: CwtPyramid,
    fused: Arc<CwtPyramid>,
    img_a: Arc<Image>,
    img_b: Arc<Image>,
    fusion_scratch: FusionScratch,
    out: Image,
    /// Pool for the pooled forward/inverse variants (`threads > 1`).
    pool: Option<WorkerPool>,
    outcomes: Vec<JobOutcome>,
    inv_bufs: Vec<Image>,
    px: u64,
    forward_macs: u64,
    inverse_macs: u64,
    /// Simulated-FPGA totals of the replayed FPGA frames.
    pub zynq: ZynqTotals,
}

impl Rig {
    /// A rig for `size` frames of the scene `scene_seed`. With `threads > 1`
    /// the solo engine gets a private pool of that many workers and the
    /// transforms are replayed through the pooled variants on a second one.
    pub fn new(size: (usize, usize), scene_seed: u64, threads: usize) -> Result<Self, FusionError> {
        let (w, h) = size;
        let scene = ScenePair::new(scene_seed);
        let mut engine = FusionEngine::new(LEVELS)?;
        engine.set_threads(threads);
        let plan = TransformPlan::dtcwt(w, h, LEVELS)?;
        Ok(Rig {
            web: WebCamera::new(scene.clone(), w, h),
            thermal: ThermalCamera::new(scene, w, h),
            visible: Frame::new(Image::zeros(0, 0), 0),
            field: Frame::new(Image::zeros(0, 0), 0),
            engine,
            dtcwt: Arc::new(Dtcwt::new(LEVELS)?),
            simd: SimdKernel::new(),
            fpga: FpgaKernel::new(),
            scratch: Scratch::new(),
            combos: ComboStore::new(),
            combos_b: ComboStore::new(),
            pyr_a: CwtPyramid::empty(),
            pyr_b: CwtPyramid::empty(),
            fused: Arc::new(CwtPyramid::empty()),
            img_a: Arc::new(Image::zeros(0, 0)),
            img_b: Arc::new(Image::zeros(0, 0)),
            fusion_scratch: FusionScratch::new(),
            out: Image::zeros(w, h),
            pool: (threads > 1).then(|| build_worker_pool(threads, true)),
            outcomes: Vec::with_capacity(8),
            inv_bufs: Vec::new(),
            px: (w * h) as u64,
            forward_macs: plan.forward_macs(),
            inverse_macs: plan.inverse_macs(),
            zynq: ZynqTotals::default(),
        })
    }

    /// Captures the next frame pair and fuses it with the solo engine on
    /// `backend`: the serial reference of a delivered frame.
    pub fn fuse_next(&mut self, backend: Backend) -> Result<Solo, FusionError> {
        self.thermal.capture_into(&mut self.field)?;
        self.web.capture_into(&mut self.visible);
        let out = self
            .engine
            .fuse(self.visible.image(), self.field.image(), backend)?;
        let solo = Solo {
            digest: digest(&out.image),
            modeled_ms: out.timing.total_seconds() * 1e3,
        };
        self.engine.recycle(out);
        Ok(solo)
    }

    /// Replays one frame's layers on `backend` under span `step`.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        step: usize,
        backend: Backend,
    ) -> Result<(), FusionError> {
        let (r, _) = tr.time("video.thermal", Some(step), || {
            self.thermal.capture_into(&mut self.field)
        });
        r?;
        tr.time("video.capture", Some(step), || {
            self.web.capture_into(&mut self.visible)
        });
        let (out, engine_span) = tr.time("core.engine_fuse", Some(step), || {
            self.engine
                .fuse(self.visible.image(), self.field.image(), backend)
        });
        self.engine.recycle(out?);

        // The FPGA kernel's ledger is zero here: `take_ledger` resets it
        // after every use.
        let fpga = backend == Backend::Fpga;
        let mut fpga_ns = 0;
        if let (Some(pool), false) = (&self.pool, fpga) {
            stage_image(&mut self.img_a, self.visible.image());
            stage_image(&mut self.img_b, self.field.image());
            let (r, span) = tr.time("dtcwt.forward", Some(engine_span), || {
                self.dtcwt.forward_pooled_pair(
                    pool,
                    SIMD_SLOT,
                    &self.img_a,
                    &mut self.combos,
                    &mut self.pyr_a,
                    &self.img_b,
                    &mut self.combos_b,
                    &mut self.pyr_b,
                    &mut self.outcomes,
                )
            });
            r?;
            tr.add_work(span, 2 * self.px, 2 * self.forward_macs);
        } else {
            for (img, pyr) in [
                (self.visible.image(), &mut self.pyr_a),
                (self.field.image(), &mut self.pyr_b),
            ] {
                let kernel: &mut dyn FilterKernel =
                    if fpga { &mut self.fpga } else { &mut self.simd };
                let (r, span) = tr.time("dtcwt.forward", Some(engine_span), || {
                    self.dtcwt
                        .forward_into(kernel, img, &mut self.combos, &mut self.scratch, pyr)
                });
                r?;
                tr.add_work(span, self.px, self.forward_macs);
                fpga_ns += tr.span(span).dur_ns();
            }
        }
        if fpga {
            self.take_ledger();
        }

        let fused = exclusive_pyramid(&mut self.fused);
        tr.time("core.fuse", Some(engine_span), || {
            if fpga {
                fuse_pyramids_into(
                    &self.pyr_a,
                    &self.pyr_b,
                    RULE,
                    LowpassRule::Average,
                    &mut self.fusion_scratch,
                    fused,
                );
            } else {
                fuse_pyramids_with_kernel(
                    &mut self.simd,
                    &self.pyr_a,
                    &self.pyr_b,
                    RULE,
                    LowpassRule::Average,
                    &mut self.fusion_scratch,
                    fused,
                );
            }
        });

        let (r, span) = tr.time("dtcwt.inverse", Some(engine_span), || {
            match (&self.pool, fpga) {
                (Some(pool), false) => self.dtcwt.inverse_pooled(
                    pool,
                    SIMD_SLOT,
                    &self.fused,
                    &mut self.inv_bufs,
                    &mut self.outcomes,
                    &mut self.out,
                ),
                _ => {
                    let kernel: &mut dyn FilterKernel =
                        if fpga { &mut self.fpga } else { &mut self.simd };
                    self.dtcwt
                        .inverse_into(kernel, &self.fused, &mut self.scratch, &mut self.out)
                }
            }
        });
        r?;
        tr.add_work(span, self.px, self.inverse_macs);
        if fpga {
            fpga_ns += tr.span(span).dur_ns();
            self.take_ledger();
            self.zynq.frames += 1;
            self.zynq.host_ns += fpga_ns;
        }
        Ok(())
    }

    /// Adds the FPGA kernel's ledger into the totals and resets it.
    fn take_ledger(&mut self) {
        let ledger = *self.fpga.ledger();
        self.zynq.engine_calls += ledger.engine_calls;
        self.zynq.dma_words += ledger.dma_words;
        self.zynq.pl_busy_s += ledger.pl_busy_seconds(self.fpga.config());
        self.fpga.reset_ledger();
    }
}

/// Copies `src` into a shared input slot, reusing its buffer when no
/// worker still holds a reference.
fn stage_image(slot: &mut Arc<Image>, src: &Image) {
    match Arc::get_mut(slot) {
        Some(img) => img.copy_from(src),
        None => *slot = Arc::new(src.clone()),
    }
}

/// Exclusive access to a shared pyramid slot, replacing it if a worker
/// still holds a reference.
fn exclusive_pyramid(slot: &mut Arc<CwtPyramid>) -> &mut CwtPyramid {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::new(CwtPyramid::empty());
    }
    Arc::get_mut(slot).expect("freshly created Arc is unique")
}
