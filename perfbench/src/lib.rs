//! The GeckoFTL benchmark: one workload, one seed, one single-threaded run.
//!
//! A run has three phases:
//!
//! 1. **Setup** (`setup_s`): generate the measured ops from the seed,
//!    format the device, fill it sequentially and warm it up to GC and
//!    Gecko-merge steady state.
//! 2. **Timed phase**: rounds of host ops until the run's time is spent.
//!    The first [`Scale::window_rounds`] rounds are the *measured window*:
//!    every simulated-clock metric covers exactly them, so they repeat for
//!    a seed however fast the host is. The host clock times every round.
//! 3. **Power cuts and recovery**: at a seeded random point of every
//!    [`Scale::cut_every`] host ops of the window, GeckoRec runs on a copy
//!    of the device (a power cut at that instant). After the timed phase
//!    the engine itself is crashed ([`FtlEngine::crash`]), recovered, and
//!    the whole logical space is read back against the benchmark's oracle.
//!
//! The traced run repeats the same workload and seed with the benchmark's
//! own per-call spans (host ns, device stats and clock diffed around every
//! call) and the program's telemetry on, and derives the per-layer metrics
//! ([`layers`]). It checks that its simulated metrics equal the untraced
//! run's bit for bit.

mod layers;
pub mod workload;

use flash_sim::{FlashDevice, IoPurpose, LatencyModel, Lpn, MetricsSnapshot};
use geckoftl_core::recovery::{gecko_recover, RecoveryReport, RecoveryStep};
use geckoftl_core::{FtlConfig, FtlEngine, GeckoConfig};
use std::time::{Duration, Instant};
use workload::{Op, OpKind, OpStream, Scale, Workload};

/// The IO purposes the engine issues inside host calls (format, fill and
/// recovery IO never appear there).
const RUNTIME_PURPOSES: [IoPurpose; 11] = [
    IoPurpose::UserWrite,
    IoPurpose::UserRead,
    IoPurpose::GcMigrateUser,
    IoPurpose::TranslationSync,
    IoPurpose::TranslationFetch,
    IoPurpose::TranslationGc,
    IoPurpose::ValidityUpdate,
    IoPurpose::ValidityQuery,
    IoPurpose::ValidityMerge,
    IoPurpose::ValidityGc,
    IoPurpose::WearLevel,
];

/// What one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds the timed phase runs for (at least the measured
    /// window). The traced run splits them between its untraced and its
    /// traced half.
    pub seconds: f64,
    /// `false`: end-to-end metrics. `true`: per-layer metrics.
    pub trace: bool,
    /// Size of the run.
    pub scale: Scale,
    /// Setups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// What failed (the first few failures).
    pub failures: Vec<String>,
    /// Every metric of the run's mode.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record one property check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// The value of a metric, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile (sorts `v`). 0 when empty.
fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = v.into_iter().fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Indices of the slowest `⌈n / 100⌉` latencies (the ops at or above p99;
/// ties go to the earlier op, so the tail always holds the same number of
/// ops however the latencies tie).
fn slowest(lat: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..lat.len()).collect();
    idx.sort_by(|&a, &b| lat[b].total_cmp(&lat[a]).then(a.cmp(&b)));
    idx.truncate(lat.len().div_ceil(100));
    idx
}

fn tail_mean(lat: &[f64]) -> f64 {
    mean(slowest(lat).into_iter().map(|i| lat[i]))
}

/// The benchmark's map of each LPN's last acknowledged version; `None`
/// after a trim.
#[derive(Clone)]
struct Oracle(Vec<Option<u64>>);

/// One call's span in the traced run.
#[derive(Clone, Copy)]
struct Span {
    kind: OpKind,
    host_ns: u64,
    sim_us: f64,
    /// Simulated busy µs per [`RUNTIME_PURPOSES`] entry.
    busy: [f32; 11],
    fetch_reads: u32,
    erases: u32,
}

/// What the per-op loop records.
#[derive(Default)]
struct Recorder {
    write_lat: Vec<f64>,
    read_lat: Vec<f64>,
    tenant_write_lat: [Vec<f64>; 5],
    spans: Vec<Span>,
    /// Exact sum of the spans' busy µs over every purpose.
    span_busy_us: f64,
    writes: u64,
    reads: u64,
    trims: u64,
}

impl Recorder {
    fn clear(&mut self) {
        self.write_lat.clear();
        self.read_lat.clear();
        for v in &mut self.tenant_write_lat {
            v.clear();
        }
        self.spans.clear();
        self.span_busy_us = 0.0;
        self.writes = 0;
        self.reads = 0;
        self.trims = 0;
    }

    fn host_ops(&self) -> u64 {
        self.writes + self.reads + self.trims
    }
}

/// Drives one engine and checks every read against the oracle.
struct Driver<'a> {
    engine: &'a mut FtlEngine,
    oracle: &'a mut Oracle,
    version: &'a mut u64,
    tenants: bool,
    traced: bool,
}

impl Driver<'_> {
    /// Issue one op. A read that disagrees with the oracle is a failure.
    fn apply(&mut self, op: Op, rec: &mut Recorder, out: &mut Outcome) {
        let (lpn, tenant, tenants) = (op.lpn, op.tenant, self.tenants);
        match op.kind {
            OpKind::Idle(ticks) => {
                for _ in 0..ticks {
                    self.call(op.kind, rec, |e| {
                        e.idle_tick();
                    });
                }
                return;
            }
            OpKind::Write => {
                *self.version += 1;
                let v = *self.version;
                let lat = self.call(op.kind, rec, |e| {
                    if tenants {
                        e.write_for(tenant, lpn, v);
                    } else {
                        e.write(lpn, v);
                    }
                });
                self.oracle.0[lpn.0 as usize] = Some(v);
                rec.writes += 1;
                rec.write_lat.push(lat);
                rec.tenant_write_lat[tenant as usize].push(lat);
            }
            OpKind::Read => {
                let mut got = None;
                let lat = self.call(op.kind, rec, |e| {
                    got = if tenants {
                        e.read_for(tenant, lpn)
                    } else {
                        e.read(lpn)
                    };
                });
                rec.reads += 1;
                rec.read_lat.push(lat);
                let want = self.oracle.0[lpn.0 as usize];
                if got != want {
                    out.fail(|| format!("read {lpn:?}: got {got:?}, acknowledged {want:?}"));
                }
            }
            OpKind::Trim => {
                self.call(op.kind, rec, |e| {
                    if tenants {
                        e.trim_for(tenant, lpn);
                    } else {
                        e.trim(lpn);
                    }
                });
                self.oracle.0[lpn.0 as usize] = None;
                rec.trims += 1;
            }
        }
        out.attempted += 1;
    }

    /// One call into the engine; returns its simulated latency in µs, from
    /// the device clock read before and after. The traced run also records
    /// the call's span.
    fn call(&mut self, kind: OpKind, rec: &mut Recorder, f: impl FnOnce(&mut FtlEngine)) -> f64 {
        let clock = |e: &FtlEngine| e.device().clock().now_us();
        if !self.traced {
            let t0 = clock(self.engine);
            f(self.engine);
            return clock(self.engine) - t0;
        }
        let before = self.engine.device().stats().snapshot();
        let t0 = clock(self.engine);
        let h0 = Instant::now();
        f(self.engine);
        let host_ns = h0.elapsed().as_nanos() as u64;
        let sim_us = clock(self.engine) - t0;
        let d = self.engine.device().stats().since(&before);
        let mut busy = [0.0; 11];
        for (slot, p) in busy.iter_mut().zip(RUNTIME_PURPOSES) {
            rec.span_busy_us += d.busy_us(p);
            *slot = d.busy_us(p) as f32;
        }
        let erases: u64 = IoPurpose::ALL.iter().map(|&p| d.counts(p).erases).sum();
        rec.spans.push(Span {
            kind,
            host_ns,
            sim_us,
            busy,
            fetch_reads: d.counts(IoPurpose::TranslationFetch).page_reads as u32,
            erases: erases as u32,
        });
        sim_us
    }
}

/// An engine at the end of setup, with the benchmark's own state.
struct Prepared {
    engine: FtlEngine,
    oracle: Oracle,
    version: u64,
    window: Vec<Vec<Op>>,
    /// Window host-op counts after which a power cut is taken.
    cut_points: Vec<u64>,
    stream: OpStream,
    setup_s: f64,
    gen_ns_per_op: f64,
    /// GC victims and Gecko merges in the last tenth of the warm-up.
    steady: (u64, u64),
}

fn setup(opts: &Options, out: &mut Outcome) -> Prepared {
    let t0 = Instant::now();
    let w = opts.workload;
    let scale = &opts.scale;
    let mut engine = workload::format(w, scale);
    let geo = engine.geometry();
    let logical = geo.logical_pages();

    let g0 = Instant::now();
    let mut stream = OpStream::new(w, &geo, opts.seed, 1);
    let window: Vec<Vec<Op>> = (0..scale.window_rounds)
        .map(|_| stream.take(scale.round_ops))
        .collect();
    let gen_ns_per_op =
        g0.elapsed().as_nanos() as f64 / (scale.window_rounds * scale.round_ops) as f64;
    let host_ops = window
        .iter()
        .flatten()
        .filter(|op| !matches!(op.kind, OpKind::Idle(_)))
        .count() as u64;
    let cut_points = workload::cut_points(opts.seed, host_ops, scale.cut_every);

    let mut oracle = Oracle(vec![None; logical as usize]);
    let mut version = 0u64;
    for lpn in 0..logical {
        version += 1;
        engine.write(Lpn(lpn as u32), version);
        oracle.0[lpn as usize] = Some(version);
    }

    // Single-tenant devices age under uniformly random overwrites (for
    // `zipf_read` too: its 10 % of writes would take far longer to bring GC
    // to steady state); `trim_tenants` warms up on its own tenant mix. The
    // warm-up stream is independent of the measured one.
    let aging = if w.tenants() { w } else { Workload::UniformGc };
    let warm_ops = (w.warmup_passes() * logical as f64) as usize;
    let warm = OpStream::new(aging, &geo, opts.seed, 0).take(warm_ops);
    // The warm-up is not measured: its recorder is cleared after every op.
    let mut rec = Recorder::default();
    let mut d = Driver {
        engine: &mut engine,
        oracle: &mut oracle,
        version: &mut version,
        tenants: w.tenants(),
        traced: false,
    };
    let mut last_tenth = (0, 0);
    for (i, op) in warm.into_iter().enumerate() {
        if i == warm_ops - warm_ops / 10 {
            last_tenth = gc_and_merges(d.engine);
        }
        d.apply(op, &mut rec, out);
        rec.clear();
    }
    let end = gc_and_merges(&engine);
    Prepared {
        engine,
        oracle,
        version,
        window,
        cut_points,
        stream,
        setup_s: t0.elapsed().as_secs_f64(),
        gen_ns_per_op,
        steady: (end.0 - last_tenth.0, end.1 - last_tenth.1),
    }
}

fn gc_and_merges(e: &FtlEngine) -> (u64, u64) {
    let merges = e.backend().gecko_stats().map_or(0, |g| g.merges);
    (e.counters.gc_operations, merges)
}

/// One power cut: GeckoRec on a copy of the device at that instant.
struct Cut {
    report: RecoveryReport,
    /// Engine RAM (without the traced run's telemetry ring) at the cut.
    ram: u64,
    validity_ram: u64,
}

impl Cut {
    fn take(e: &FtlEngine) -> Cut {
        let ram = e.ram_report();
        let (cfg, gecko) = configs(e);
        let (_, report) = gecko_recover(e.device().clone(), cfg, gecko);
        Cut {
            report,
            ram: ram.total() - ram.telemetry,
            validity_ram: ram.validity,
        }
    }

    fn step_us(&self, step: RecoveryStep) -> f64 {
        self.report
            .steps
            .iter()
            .filter(|(s, _)| *s == step)
            .map(|(_, c)| c.sim_us)
            .sum()
    }
}

/// The engine's effective configuration (format fills in the checkpoint
/// period), handed to GeckoRec as a superblock would.
fn configs(e: &FtlEngine) -> (FtlConfig, GeckoConfig) {
    (
        e.config(),
        e.backend().gecko_config().expect("a Gecko backend"),
    )
}

/// The measured window of one timed phase.
struct Window {
    rec: Recorder,
    /// The engine's metrics over the window (`FtlEngine::metrics` deltas).
    delta: MetricsSnapshot,
    /// The engine's metrics at the window's end (for lifetime gauges).
    end: MetricsSnapshot,
    sim_us: f64,
    cuts: Vec<Cut>,
    dirty_entries: usize,
    cache_entries: usize,
}

impl Window {
    /// Sum of one IO counter over every purpose.
    fn io_total(&self, field: &str) -> u64 {
        IoPurpose::ALL
            .iter()
            .map(|p| self.delta.counter(&format!("io.{}.{field}", p.label())))
            .sum()
    }

    fn io(&self, p: IoPurpose, field: &str) -> u64 {
        self.delta.counter(&format!("io.{}.{field}", p.label()))
    }

    fn busy_us(&self, p: IoPurpose) -> f64 {
        self.delta.gauge(&format!("io.{}.busy_us", p.label()))
    }
}

/// The simulated-clock end-to-end metrics of a window: name, value, unit.
fn sim_metrics(w: &Window) -> [(&'static str, f64, &'static str); 8] {
    let programs = w.io_total("page_writes");
    let rec = &w.rec;
    [
        (
            "sim_ops_per_s",
            ratio(rec.host_ops() as f64, w.sim_us / 1e6),
            "1/s",
        ),
        (
            "sim_write_mean_us",
            mean(rec.write_lat.iter().copied()),
            "us",
        ),
        ("sim_write_tail_us", tail_mean(&rec.write_lat), "us"),
        ("sim_read_mean_us", mean(rec.read_lat.iter().copied()), "us"),
        ("sim_read_tail_us", tail_mean(&rec.read_lat), "us"),
        (
            "wa",
            ratio(programs as f64, rec.writes as f64),
            "pages/write",
        ),
        (
            "ram_kib",
            mean(w.cuts.iter().map(|c| c.ram as f64)) / 1024.0,
            "KiB",
        ),
        (
            "recovery_sim_ms",
            mean(w.cuts.iter().map(|c| c.report.total_secs() * 1e3)),
            "ms",
        ),
    ]
}

/// Host-clock results of one timed phase.
struct Timed {
    window: Window,
    /// Host seconds and host ops of every round.
    rounds: Vec<(f64, u64)>,
    /// Host ns of every traced call, by kind, over all rounds.
    call_ns: CallNs,
}

#[derive(Default)]
struct CallNs {
    write: Vec<f64>,
    read: Vec<f64>,
    trim: Vec<f64>,
    idle: Vec<f64>,
}

impl Timed {
    /// Host ops per host second over every round.
    fn ops_per_s(&self) -> f64 {
        let (secs, ops) = self
            .rounds
            .iter()
            .fold((0.0, 0), |(s, n), &(rs, rn)| (s + rs, n + rn));
        ratio(ops as f64, secs)
    }
}

/// Run the timed phase on a prepared engine: the measured window (with its
/// power cuts, which the round clock does not count), then whole rounds
/// until `seconds` of host time are spent.
fn timed_phase(p: &mut Prepared, opts: &Options, traced: bool, out: &mut Outcome) -> Timed {
    let mut rec = Recorder::default();
    let mut rounds = Vec::new();
    let mut call_ns = CallNs::default();
    let mut cuts = Vec::new();
    let mut next_cut = p.cut_points.iter().copied().peekable();
    let mut window = None;
    if traced {
        p.engine.telemetry_mut().enable(1024);
    }
    let (m0, clock0) = (p.engine.metrics(), p.engine.device().clock().now_us());
    let start = Instant::now();
    for r in 0.. {
        let in_window = r < p.window.len();
        if !in_window && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let extra;
        let ops: &[Op] = if in_window {
            &p.window[r]
        } else {
            // Rounds after the window reuse the buffers, so memory does not
            // grow with the host's speed.
            rec.clear();
            extra = p.stream.take(opts.scale.round_ops);
            &extra
        };
        let spans0 = rec.spans.len();
        let ops0 = rec.host_ops();
        let mut d = Driver {
            engine: &mut p.engine,
            oracle: &mut p.oracle,
            version: &mut p.version,
            tenants: opts.workload.tenants(),
            traced,
        };
        let mut busy = Duration::ZERO;
        let mut t = Instant::now();
        for &op in ops {
            d.apply(op, &mut rec, out);
            if in_window && next_cut.next_if(|&c| rec.host_ops() >= c).is_some() {
                busy += t.elapsed();
                cuts.push(Cut::take(d.engine));
                t = Instant::now();
            }
        }
        busy += t.elapsed();
        rounds.push((busy.as_secs_f64(), rec.host_ops() - ops0));
        for s in &rec.spans[spans0..] {
            let ns = s.host_ns as f64;
            match s.kind {
                OpKind::Write => call_ns.write.push(ns),
                OpKind::Read => call_ns.read.push(ns),
                OpKind::Trim => call_ns.trim.push(ns),
                OpKind::Idle(_) => call_ns.idle.push(ns),
            }
        }
        if r + 1 == p.window.len() {
            let e = &p.engine;
            let end = e.metrics();
            window = Some(Window {
                rec: std::mem::take(&mut rec),
                delta: end.since(&m0),
                end,
                sim_us: e.device().clock().now_us() - clock0,
                cuts: std::mem::take(&mut cuts),
                dirty_entries: e.cache().dirty_count(),
                cache_entries: e.cache().capacity(),
            });
        }
    }
    Timed {
        window: window.expect("the window has at least one round"),
        rounds,
        call_ns,
    }
}

/// The power cut after the timed phase: crash the engine, run GeckoRec,
/// and read back the whole logical space. No acknowledged write may be lost
/// and no acknowledged trim may come back. Returns the recovered engine and
/// a copy of the crashed device.
fn crash_and_read_back(p: Prepared, out: &mut Outcome) -> (FtlEngine, FlashDevice) {
    let (cfg, gecko) = configs(&p.engine);
    let image = p.engine.crash();
    let (mut engine, _) = gecko_recover(image.clone(), cfg, gecko);
    for (lpn, &want) in p.oracle.0.iter().enumerate() {
        out.attempted += 1;
        let got = engine.read(Lpn(lpn as u32));
        if got != want {
            out.fail(|| format!("after recovery, LPN {lpn}: got {got:?}, acknowledged {want:?}"));
        }
    }
    (engine, image)
}

/// Property checks every run makes on its setup and measured window.
fn check_run(p: &Prepared, w: &Window, opts: &Options, out: &mut Outcome) {
    let (victims, merges) = p.steady;
    out.check(victims > 0 && merges > 0, || {
        format!(
            "warm-up did not reach steady state: {victims} GC victims, {merges} merges in its last tenth"
        )
    });
    let user_programs = w.io(IoPurpose::UserWrite, "page_writes");
    out.check(user_programs == w.rec.writes, || {
        format!(
            "user-write programs {user_programs} != host writes {}",
            w.rec.writes
        )
    });
    let wa = sim_metrics(w)[5].1;
    out.check(wa >= 1.0, || format!("wa {wa} < 1"));
    let engine_writes = w.delta.counter("engine.writes");
    out.check(engine_writes == w.rec.writes, || {
        format!(
            "engine writes {engine_writes} != issued writes {}",
            w.rec.writes
        )
    });
    let geo = p.engine.geometry();
    let brute_ms =
        ftl_models::recovery::brute_force_scan_seconds(&geo, &LatencyModel::paper()) * 1e3;
    let worst_ms = w
        .cuts
        .iter()
        .map(|c| c.report.total_secs() * 1e3)
        .fold(0.0, f64::max);
    out.check(worst_ms < brute_ms, || {
        format!("recovery {worst_ms} ms is not below the brute-force scan {brute_ms} ms")
    });
    if opts.workload.tenants() {
        let tenant_writes: u64 = (1..=4)
            .map(|t| w.delta.counter(&format!("tenant.{t}.writes")))
            .sum();
        out.check(tenant_writes == engine_writes, || {
            format!("tenant writes {tenant_writes} != engine writes {engine_writes}")
        });
    }
}

/// Run one invocation.
pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    if opts.trace {
        run_traced(opts, &mut out);
    } else {
        run_untraced(opts, &mut out);
    }
    out
}

fn run_untraced(opts: &Options, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut p = setup(opts, out);
    setup_s.push(p.setup_s);
    for _ in 1..opts.setups {
        drop(p);
        p = setup(opts, out);
        setup_s.push(p.setup_s);
    }
    let timed = timed_phase(&mut p, opts, false, out);
    let w = &timed.window;
    check_run(&p, w, opts, out);
    crash_and_read_back(p, out);

    out.metric("setup_s", median(&mut setup_s), "s");
    out.metric("host_ops_per_s", timed.ops_per_s(), "1/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    for (name, value, unit) in sim_metrics(w) {
        out.metric(name, value, unit);
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_traced(opts: &Options, out: &mut Outcome) {
    let half = Options {
        seconds: opts.seconds / 2.0,
        ..*opts
    };
    let mut plain = setup(opts, out);
    let untraced = timed_phase(&mut plain, &half, false, out);
    let (cfg, gecko) = configs(&plain.engine);
    let (_, plain_image) = crash_and_read_back(plain, out);
    let mut p = setup(opts, out);
    let gen_ns_per_op = p.gen_ns_per_op;
    let traced = timed_phase(&mut p, &half, true, out);
    let w = &traced.window;
    check_run(&p, w, opts, out);
    let (mut recovered, _) = crash_and_read_back(p, out);

    // Tracing must not change the simulation.
    let (a, b) = (sim_metrics(&untraced.window), sim_metrics(w));
    for ((name, x, _), (_, y, _)) in a.iter().zip(b) {
        out.check(x.to_bits() == y.to_bits(), || {
            format!("traced {name} {y} differs from untraced {x}")
        });
    }
    // The spans' busy time, idle ticks included, sums to the device's
    // busy-time delta. The sum runs over the whole window: inside an
    // overlap window one call's busy time exceeds its elapsed time.
    let span_busy = w.rec.span_busy_us;
    let device_busy: f64 = IoPurpose::ALL.iter().map(|&p| w.busy_us(p)).sum();
    out.check(
        (span_busy - device_busy).abs() <= 1e-9 * device_busy.max(1.0),
        || format!("span busy {span_busy} us != device busy delta {device_busy} us"),
    );

    let mut recovery_host_ms: Vec<f64> = (0..5)
        .map(|_| {
            let image = plain_image.clone();
            let t = Instant::now();
            let recovered = gecko_recover(image, cfg, gecko);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(recovered);
            ms
        })
        .collect();
    let mut query_ns: Vec<f64> = recovered
        .geometry()
        .iter_blocks()
        .map(|b| {
            let t = Instant::now();
            std::hint::black_box(recovered.debug_validity(b));
            t.elapsed().as_nanos() as f64
        })
        .collect();

    layers::emit(
        out,
        &layers::Inputs {
            traced: &traced,
            untraced: &untraced,
            recovery_host_ms: median(&mut recovery_host_ms),
            query_host_ns_p50: median(&mut query_ns),
            gen_ns_per_op,
        },
    );
}
