//! The three workloads: device geometry, engine configuration and the seeded
//! op streams. The engine only ever sees the generated ops.

use flash_sim::{Geometry, Lpn};
use ftl_workloads::WorkloadOp;
use ftl_workloads::{BurstyDiurnal, Mixed, OverwriteStorm, TenantMix, TrimWave, Uniform, Zipfian};
use geckoftl_core::ftl::ValidityBackend;
use geckoftl_core::{FtlConfig, FtlEngine, GeckoConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper §5: uniformly random overwrites, 10 % uniform reads.
    UniformGc,
    /// Zipf(0.99) over the whole space, 90 % reads.
    ZipfRead,
    /// Four tenants on a 4-channel device with a 4-way sharded Gecko.
    TrimTenants,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::UniformGc,
        Workload::ZipfRead,
        Workload::TrimTenants,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformGc => "uniform_gc",
            Workload::ZipfRead => "zipf_read",
            Workload::TrimTenants => "trim_tenants",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether ops go through the tenant-tagged `*_for` entry points.
    pub(crate) fn tenants(self) -> bool {
        self == Workload::TrimTenants
    }

    /// Warm-up ops after the sequential fill, in multiples of the logical
    /// space. Measured: on uniform overwrites the write-amplification of
    /// successive 10k-op windows settles within ±4 % of its long-run value
    /// after 1.3 passes; the tenant mix drifts until about 6 passes, as the
    /// TRIM wave and the storm slowly spread cold data over the blocks.
    pub(crate) fn warmup_passes(self) -> f64 {
        match self {
            Workload::UniformGc | Workload::ZipfRead => 2.0,
            Workload::TrimTenants => 7.0,
        }
    }
}

/// How much work one run does. [`Scale::full`] is what the command runs;
/// the tests use [`Scale::small`].
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Flash blocks of the simulated device (128 pages of 4 KiB each).
    pub blocks: u32,
    /// Host ops per round. Rounds are the unit of host-clock timing.
    pub round_ops: usize,
    /// Rounds in the measured window: every simulated-clock metric, the
    /// power cuts and the traced per-layer numbers cover exactly these
    /// rounds, so they repeat for a given seed.
    pub window_rounds: usize,
    /// Host ops per power-cut stratum of the measured window: one cut falls
    /// at a seeded random point of each stratum.
    pub cut_every: u64,
}

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Scale {
        Scale {
            blocks: 1024,
            round_ops: 10_000,
            window_rounds: 100,
            cut_every: 4_000,
        }
    }

    /// A size for tests: the same shapes on half the device and a window
    /// of 10k ops. (Much smaller devices fail the recovery check: GeckoRec's
    /// buffer rebuild diffs the translation pages written since the last
    /// Gecko flush, work that does not shrink with the device, and at 128
    /// blocks it takes up to 210 ms against a 49 ms brute-force scan.)
    pub fn small() -> Scale {
        Scale {
            blocks: 512,
            round_ops: 2_000,
            window_rounds: 5,
            cut_every: 1_000,
        }
    }
}

/// The op kinds the benchmark issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// `write` / `write_for`.
    Write,
    /// `read` / `read_for`.
    Read,
    /// `trim` / `trim_for`.
    Trim,
    /// A quiet gap of this many `idle_tick` calls.
    Idle(u32),
}

/// One generated op. `tenant` is 0 on single-tenant workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Op {
    /// What to do.
    pub(crate) kind: OpKind,
    /// Target logical page (unused for idle gaps).
    pub(crate) lpn: Lpn,
    /// Issuing tenant (1..=4 on `trim_tenants`).
    pub(crate) tenant: u8,
}

/// Device geometry of a workload.
pub(crate) fn geometry(w: Workload, scale: &Scale) -> Geometry {
    let geo = Geometry::new(scale.blocks, 128, 4096, 0.7);
    match w {
        Workload::TrimTenants => geo.with_channels(4),
        _ => geo,
    }
}

/// Engine and Gecko configuration of a workload: paper-default GeckoFTL,
/// plus on `trim_tenants` a 4-way sharded Gecko and the QoS prepay.
pub(crate) fn config(w: Workload, geo: &Geometry) -> (FtlConfig, GeckoConfig) {
    let mut cfg = FtlConfig::geckoftl(geo);
    let mut gecko = GeckoConfig::paper_default(geo);
    if w == Workload::TrimTenants {
        cfg.qos_headroom_blocks = 4;
        gecko.shards = geo.channels;
    }
    (cfg, gecko)
}

/// Format a fresh engine for a workload.
pub(crate) fn format(w: Workload, scale: &Scale) -> FtlEngine {
    let geo = geometry(w, scale);
    let (cfg, gecko) = config(w, &geo);
    FtlEngine::format(geo, cfg, ValidityBackend::gecko_for(geo, gecko))
}

/// The power-cut points of a window of `host_ops` host ops: one at a
/// seeded random offset inside each `cut_every`-op stratum. Random offsets
/// keep the cuts from aliasing with the periodic Gecko flush and checkpoint
/// cycles, whose phase sets each cut's recovery cost.
pub(crate) fn cut_points(seed: u64, host_ops: u64, cut_every: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1000));
    (0..host_ops / cut_every)
        .map(|k| k * cut_every + rng.gen_range(1..cut_every + 1))
        .collect()
}

/// Derive an independent sub-seed (SplitMix64 finalizer).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shift a tenant-local op into the tenant's quarter of the LPN space.
fn shifted(op: WorkloadOp, base: u32) -> WorkloadOp {
    match op {
        WorkloadOp::Write(l) => WorkloadOp::Write(Lpn(base + l.0)),
        WorkloadOp::Read(l) => WorkloadOp::Read(Lpn(base + l.0)),
        WorkloadOp::Trim(l) => WorkloadOp::Trim(Lpn(base + l.0)),
        idle => idle,
    }
}

type Stream = Box<dyn Iterator<Item = WorkloadOp> + Send>;

/// The seeded op stream of a workload. The warm-up stream and the measured
/// stream are independent, so the timed phase never replays warm-up ops.
pub(crate) struct OpStream {
    inner: Box<dyn Iterator<Item = (WorkloadOp, u8)> + Send>,
}

impl OpStream {
    /// The stream of `w` on `geo` for a seed; `part` 0 is the warm-up
    /// stream, 1 the measured one.
    pub(crate) fn new(w: Workload, geo: &Geometry, seed: u64, part: u64) -> OpStream {
        let logical = geo.logical_pages();
        let s = |i: u64| sub_seed(seed, part * 16 + i);
        let inner: Box<dyn Iterator<Item = (WorkloadOp, u8)> + Send> = match w {
            Workload::UniformGc => Box::new(
                Mixed::new(s(0), Uniform::new(s(1), logical), 0.1, logical).map(|op| (op, 0)),
            ),
            Workload::ZipfRead => {
                let mut mix = StdRng::seed_from_u64(s(0));
                let mut reads = Zipfian::new(s(1), logical, 0.99);
                let mut writes = Zipfian::new(s(2), logical, 0.99);
                Box::new(std::iter::from_fn(move || {
                    let op = if mix.gen_bool(0.9) {
                        match reads.next()? {
                            WorkloadOp::Write(l) => WorkloadOp::Read(l),
                            other => other,
                        }
                    } else {
                        writes.next()?
                    };
                    Some((op, 0))
                }))
            }
            Workload::TrimTenants => {
                let quarter = logical / 4;
                let base = move |t: u64| (t * quarter) as u32;
                let storm: Stream = Box::new(
                    OverwriteStorm::new(s(1), quarter, 24, 400).map(move |op| shifted(op, base(0))),
                );
                let trims: Stream =
                    Box::new(TrimWave::new(s(2), quarter, 256).map(move |op| shifted(op, base(1))));
                let bursty: Stream = Box::new(
                    BurstyDiurnal::new(s(3), quarter, 200, 4).map(move |op| shifted(op, base(2))),
                );
                let light: Stream = Box::new(
                    Mixed::new(s(4), Uniform::new(s(5), quarter), 0.9, quarter)
                        .map(move |op| shifted(op, base(3))),
                );
                Box::new(TenantMix::new(
                    s(0),
                    vec![(1, 4, storm), (2, 2, trims), (3, 2, bursty), (4, 2, light)],
                ))
            }
        };
        OpStream { inner }
    }

    /// The next `n` ops.
    pub(crate) fn take(&mut self, n: usize) -> Vec<Op> {
        (&mut self.inner)
            .take(n)
            .map(|(op, tenant)| match op {
                WorkloadOp::Write(lpn) => Op {
                    kind: OpKind::Write,
                    lpn,
                    tenant,
                },
                WorkloadOp::Read(lpn) => Op {
                    kind: OpKind::Read,
                    lpn,
                    tenant,
                },
                WorkloadOp::Trim(lpn) => Op {
                    kind: OpKind::Trim,
                    lpn,
                    tenant,
                },
                WorkloadOp::Idle(t) => Op {
                    kind: OpKind::Idle(t),
                    lpn: Lpn(0),
                    tenant,
                },
            })
            .collect()
    }
}
