//! Per-layer metrics of the traced run, named after the program's modules.
//! `README.md` maps each one to the end-to-end metric it should move.

use crate::workload::OpKind;
use crate::{mean, percentile, ratio, slowest, Outcome, Span, Timed, RUNTIME_PURPOSES};
use flash_sim::IoPurpose;
use geckoftl_core::recovery::RecoveryStep;

/// What the per-layer metrics are computed from.
pub(crate) struct Inputs<'a> {
    pub traced: &'a Timed,
    pub untraced: &'a Timed,
    pub recovery_host_ms: f64,
    pub query_host_ns_p50: f64,
    pub gen_ns_per_op: f64,
}

const RECOVERY_STEPS: [(RecoveryStep, &str); 6] = [
    (RecoveryStep::Bid, "bid"),
    (RecoveryStep::Gmd, "gmd"),
    (RecoveryStep::RunDirectories, "run_directories"),
    (RecoveryStep::Buffer, "buffer"),
    (RecoveryStep::Bvc, "bvc"),
    (RecoveryStep::DirtyEntries, "dirty_entries"),
];

/// Emit every per-layer metric. A layer the workload does not reach
/// reports 0.
pub(crate) fn emit(out: &mut Outcome, x: &Inputs) {
    let w = &x.traced.window;
    let rec = &w.rec;
    let writes = rec.writes as f64;
    let reads = rec.reads as f64;
    let kw = writes / 1000.0;
    let ops = rec.host_ops() as f64;
    let spans = |kind: OpKind| rec.spans.iter().filter(move |s| s.kind == kind);

    // sim: the nearest-rank quantiles of per-call simulated latency.
    for (label, lat) in [("write", &rec.write_lat), ("read", &rec.read_lat)] {
        for (q, qname) in [(0.5, "p50"), (0.999, "p999")] {
            out.metric(
                format!("sim_{label}_{qname}_us"),
                percentile(&mut lat.clone(), q),
                "us",
            );
        }
    }

    // ftl: host ns per call.
    let c = &x.traced.call_ns;
    for (name, v, q) in [
        ("ftl.write_host_ns_p50", &c.write, 0.5),
        ("ftl.write_host_ns_p99", &c.write, 0.99),
        ("ftl.read_host_ns_p50", &c.read, 0.5),
        ("ftl.read_host_ns_p99", &c.read, 0.99),
        ("ftl.trim_host_ns_p50", &c.trim, 0.5),
        ("ftl.idle_tick_host_ns_p50", &c.idle, 0.5),
    ] {
        out.metric(name, percentile(&mut v.clone(), q), "ns");
    }

    // flash: simulated busy µs per host op, per purpose.
    for p in RUNTIME_PURPOSES {
        out.metric(
            format!("flash.{}.us_per_op", p.label()),
            ratio(w.busy_us(p), ops),
            "us/op",
        );
    }
    out.metric(
        "flash.erases_per_kwrite",
        ratio(w.io_total("erases") as f64, kw),
        "1/kwrite",
    );

    // tail: mean per-purpose µs of the slowest 1 % of ops (the same ops as
    // `sim_*_tail_us`).
    for (kind, label) in [(OpKind::Write, "write"), (OpKind::Read, "read")] {
        let of_kind: Vec<&Span> = spans(kind).collect();
        let lat: Vec<f64> = of_kind.iter().map(|s| s.sim_us).collect();
        let tail = slowest(&lat);
        for (i, p) in RUNTIME_PURPOSES.iter().enumerate() {
            out.metric(
                format!("tail.{label}.{}_us", p.label()),
                mean(tail.iter().map(|&j| f64::from(of_kind[j].busy[i]))),
                "us",
            );
        }
    }

    // gc.
    let d = |name: &str| w.delta.counter(name) as f64;
    let victims = d("engine.gc_operations");
    let stalled = spans(OpKind::Write).filter(|s| s.erases > 0).count() as f64;
    out.metric("gc.victims_per_kwrite", ratio(victims, kw), "1/kwrite");
    out.metric(
        "gc.migrations_per_victim",
        ratio(d("engine.gc_migrations"), victims),
        "pages/victim",
    );
    out.metric(
        "gc.uip_skips_per_victim",
        ratio(d("engine.gc_uip_skips"), victims),
        "pages/victim",
    );
    out.metric("gc.stalled_write_ratio", ratio(stalled, writes), "ratio");

    // cache.
    let hits = spans(OpKind::Read).filter(|s| s.fetch_reads == 0).count() as f64;
    out.metric("cache.read_hit_ratio", ratio(hits, reads), "ratio");
    out.metric(
        "cache.dirty_ratio_end",
        ratio(w.dirty_entries as f64, w.cache_entries as f64),
        "ratio",
    );

    // translation.
    out.metric(
        "translation.syncs_per_kwrite",
        ratio(d("engine.syncs"), kw),
        "1/kwrite",
    );
    out.metric(
        "translation.sync_writes_per_kwrite",
        ratio(w.io(IoPurpose::TranslationSync, "page_writes") as f64, kw),
        "pages/kwrite",
    );
    out.metric(
        "translation.fetch_reads_per_read",
        ratio(
            w.io(IoPurpose::TranslationFetch, "page_reads") as f64,
            reads,
        ),
        "pages/read",
    );

    // gecko.
    out.metric(
        "gecko.flushes_per_kwrite",
        ratio(d("gecko.flushes"), kw),
        "1/kwrite",
    );
    out.metric(
        "gecko.merges_per_kwrite",
        ratio(d("gecko.merges"), kw),
        "1/kwrite",
    );
    out.metric(
        "gecko.merge_pages_per_kwrite",
        ratio(d("gecko.merge_pages_stepped"), kw),
        "pages/kwrite",
    );
    out.metric(
        "gecko.query_reads_per_query",
        ratio(
            w.io(IoPurpose::ValidityQuery, "page_reads") as f64,
            d("gecko.queries"),
        ),
        "pages/query",
    );
    let skips = d("gecko.bloom_skips");
    out.metric(
        "gecko.bloom_skip_ratio",
        ratio(skips, skips + d("gecko.fence_probes")),
        "ratio",
    );
    out.metric(
        "gecko.merge_stall_drains",
        d("gecko.merge_stall_drains"),
        "count",
    );
    out.metric("gecko.query_host_ns_p50", x.query_host_ns_p50, "ns");
    out.metric(
        "gecko.ram_kib",
        mean(w.cuts.iter().map(|c| c.validity_ram as f64)) / 1024.0,
        "KiB",
    );

    // span: the program's own telemetry.
    for name in [
        "span.gc_collect.mean_us",
        "span.merge_slice.mean_us",
        "span.buffer_flush.mean_us",
    ] {
        out.metric(name, w.end.gauge(name), "us");
    }

    // recovery: means over the window's power cuts.
    for (step, label) in RECOVERY_STEPS {
        out.metric(
            format!("recovery.{label}_sim_ms"),
            mean(w.cuts.iter().map(|c| c.step_us(step) / 1e3)),
            "ms",
        );
    }
    out.metric(
        "recovery.spare_reads",
        mean(w.cuts.iter().map(|c| c.report.total_spare_reads() as f64)),
        "count",
    );
    out.metric(
        "recovery.page_reads",
        mean(w.cuts.iter().map(|c| c.report.total_page_reads() as f64)),
        "count",
    );
    out.metric(
        "recovery.recovered_entries",
        mean(w.cuts.iter().map(|c| c.report.recovered_entries as f64)),
        "count",
    );
    out.metric("recovery.host_ms", x.recovery_host_ms, "ms");

    // workloads.
    out.metric("workloads.gen_ns_per_op", x.gen_ns_per_op, "ns");

    // tenant: 0 on the single-tenant workloads.
    for t in 1..=4usize {
        out.metric(
            format!("tenant.{t}.write_p99_us"),
            percentile(&mut rec.tenant_write_lat[t].clone(), 0.99),
            "us",
        );
        out.metric(
            format!("tenant.{t}.gc_debt_ms"),
            w.delta.gauge(&format!("tenant.{t}.gc_debt_us")) / 1e3,
            "ms",
        );
    }

    // trace: host ns per op traced over untraced.
    let ns_per_op = |t: &Timed| ratio(1e9, t.ops_per_s());
    out.metric(
        "trace.overhead_ratio",
        ratio(ns_per_op(x.traced), ns_per_op(x.untraced)),
        "ratio",
    );
}
