//! `repro serve`: end-to-end sharded serving throughput.
//!
//! Figure 7 measures the model in isolation; this experiment measures the
//! whole serving path — feature extraction, admission scoring through the
//! quantized+pruned engine, eviction ranking, and metric accounting — by
//! replaying the standard trace through a [`ShardedLfoCache`] at 1/2/4/8
//! shards. Alongside requests/s (and the implied Gbit/s at the paper's
//! 32 KB average object) it reports the aggregate BHR against an unsharded
//! single-cache reference, and the metadata bytes carried per cached
//! object (feature tracker + admission index + compiled model).
//!
//! Three gates run here: the deterministic single-shard replay's BHR must
//! equal the unsharded reference's exactly (both serve the same engine,
//! and the fleet's observe-only guardrail does not change decisions);
//! every shard count must stay within ±0.03 BHR of the reference
//! (multi-shard replays carry ~±0.01 of timing noise); and, on hosts with
//! at least 4 cores when the sweep reaches 4 shards, 4 shards must serve
//! at least 1.5x the requests/s of 1 shard.

use std::time::Instant;

use cdn_cache::cache::CachePolicy;
use cdn_trace::Request;
use gbdt::GbdtParams;
use lfo::{
    ArtifactStore, CacheMetrics, GuardrailConfig, LfoArtifact, LfoCache, LfoConfig, ModelSlot,
    Provenance, ShardParams, ShardedLfoCache,
};

use crate::experiments::common::train_and_eval;
use crate::harness::Context;
use crate::perf::{peak_rss_bytes, BenchServe, ServeRow};

/// Implied serving bandwidth in Gbit/s at 32 KB average objects.
fn gbps(reqs_per_sec: f64) -> f64 {
    reqs_per_sec * 32.0 * 1024.0 * 8.0 / 1e9
}

/// Replays the trace through one unsharded `LfoCache` cold-started from
/// the artifact (the same publish path the shard fleet uses), producing
/// the same counters the sharded report aggregates.
fn replay_unsharded(requests: &[Request], capacity: u64, artifact: &LfoArtifact) -> CacheMetrics {
    let slot = ModelSlot::new();
    artifact.publish_to(&slot);
    let mut cache = LfoCache::with_slot(capacity, artifact.config.clone(), slot);
    assert_eq!(cache.engine_label(), "quantized+pruned");
    let mut metrics = CacheMetrics::default();
    for request in requests {
        let outcome = cache.handle(request);
        metrics.record(request.size, outcome);
    }
    metrics.evictions = cache.evictions;
    metrics.used_bytes = cache.used();
    metrics.resident_objects = cache.len() as u64;
    metrics
}

/// Runs the shard-scaling sweep.
pub fn run(ctx: &Context) -> std::io::Result<()> {
    let trace = ctx.standard_trace(107);
    let cache_size = ctx.standard_cache_size(&trace);
    let w = ctx.window();
    let reqs = trace.requests();
    // One model serves the whole trace (the paper's protocol: learn on the
    // first window); training time is not part of the serving measurement.
    // The model round-trips through the artifact store: a previous run's
    // artifact for the same trace is cold-started instead of retraining,
    // and a fresh train persists its artifact for the next run.
    let trace_id = format!("production-seed107-n{}", reqs.len());
    let store = ArtifactStore::open(ctx.out_dir.join("artifacts/serve")).ok();
    let restored = store.as_ref().and_then(|s| match s.load_latest() {
        Ok(a) if a.provenance.trace_id == trace_id => Some(a),
        _ => None,
    });
    let artifact = match restored {
        Some(artifact) => {
            println!(
                "  cold start: reusing persisted artifact ({})",
                artifact.provenance.note
            );
            artifact
        }
        None => {
            let params = GbdtParams::lfo_paper();
            let te = train_and_eval(&reqs[..w], &reqs[w..2 * w], cache_size, &params);
            let artifact = LfoArtifact::new(
                LfoConfig::default(),
                te.model,
                0.5,
                Provenance {
                    trace_id: trace_id.clone(),
                    window: 0,
                    slot_version: 0,
                    note: format!("repro serve, first-window model, n={}", reqs.len()),
                    lineage: None,
                    pop: None,
                },
            );
            match store.as_ref().map(|s| s.save(&artifact)) {
                Some(Ok(path)) => println!("  artifact saved: {}", path.display()),
                Some(Err(e)) => println!("  artifact save failed (non-fatal): {e}"),
                None => {}
            }
            artifact
        }
    };

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n== serve: end-to-end sharded LFO throughput ({cores} cores) ==");
    println!(
        "  trace: {} requests, cache {} MB",
        reqs.len(),
        cache_size / (1024 * 1024)
    );

    // Unsharded reference: one cache, one thread, same artifact and engine.
    let started = Instant::now();
    let reference = replay_unsharded(reqs, cache_size, &artifact);
    let ref_secs = started.elapsed().as_secs_f64();
    let ref_rate = reqs.len() as f64 / ref_secs.max(1e-9);
    println!(
        "  unsharded reference: {:>9.0} reqs/s  BHR {:.4}  (admit {} bypass {} evict {})",
        ref_rate,
        reference.bhr(),
        reference.admitted_misses,
        reference.bypassed_misses,
        reference.evictions
    );

    println!(
        "  engine            shards   reqs/s      Gbit/s @32KB  BHR     dBHR    meta B/obj  \
         guard    trips  shadow lru/real"
    );
    let mut csv = Vec::new();
    let mut rows: Vec<ServeRow> = Vec::new();
    let shard_counts: &[usize] = ctx.scale.pick3(&[1, 2], &[1, 2, 4, 8], &[1, 2, 4, 8]);
    let engine = "quantized+pruned";
    for &shards in shard_counts {
        // Small batches keep the shards tightly coupled to trace order,
        // so the pool's deferred-eviction overshoot stays a short
        // transient (large batches let a worker run far ahead of the
        // frontier owner, which serves the replay with more than the
        // budgeted memory).
        // The guardrail rides along observe-only (`enforce: false`):
        // the shadow estimator runs and its state lands in the table,
        // but serving decisions stay bit-identical to a guardrail-free
        // sweep, so the exact 1-shard gate below holds. The
        // enforcing path is measured by `repro adversarial`.
        let params = ShardParams {
            batch_size: 8,
            queue_depth: 1,
            guardrail: Some(GuardrailConfig {
                enforce: false,
                ..GuardrailConfig::default()
            }),
            ..ShardParams::with_shards(shards)
        };
        // Every shard fleet cold-starts from the artifact: model +
        // cutoff are live in the slot before the first request hits a
        // shard.
        let mut cache = ShardedLfoCache::from_artifact(cache_size, params, &artifact);
        let started = Instant::now();
        for request in reqs {
            cache.handle(request);
        }
        let report = cache.finish();
        let secs = started.elapsed().as_secs_f64();

        let total = report.total();
        assert_eq!(total.requests, reqs.len() as u64, "lost requests");
        let rate = reqs.len() as f64 / secs.max(1e-9);
        let bhr = total.bhr();
        let delta = bhr - reference.bhr();
        let tracker_bytes: u64 = report.shards.iter().map(|s| s.tracker_bytes).sum();
        let index_bytes: u64 = report.shards.iter().map(|s| s.index_bytes).sum();
        let model_bytes = report
            .shards
            .iter()
            .map(|s| s.model_bytes)
            .max()
            .unwrap_or(0);
        let meta_per_obj = report.metadata_bytes_per_object();
        let residents = total.resident_objects.max(1) as f64;
        let guard_mode = report.guardrail_mode_label();
        println!(
            "  {engine:<16}  {shards:>6}  {rate:>9.0}  {:>12.1}  {bhr:.4}  {delta:>+.4}  \
             {meta_per_obj:>8.1}  {guard_mode:<8} {:>5}  {:.4}/{:.4}  (admit {} bypass {} evict {})",
            gbps(rate),
            total.guardrail_trips,
            total.shadow_lru_bhr(),
            total.shadow_realized_bhr(),
            total.admitted_misses,
            total.bypassed_misses,
            total.evictions
        );
        csv.push(format!(
            "{engine},{shards},{rate:.0},{:.2},{bhr:.6},{delta:.6},{meta_per_obj:.1},\
             {guard_mode},{},{:.6},{:.6}",
            gbps(rate),
            total.guardrail_trips,
            total.shadow_lru_bhr(),
            total.shadow_realized_bhr()
        ));
        rows.push(ServeRow {
            engine: engine.to_string(),
            shards,
            reqs_per_sec: rate,
            gbps_at_32kb: gbps(rate),
            bhr,
            bhr_delta_vs_unsharded: delta,
            tracker_bytes,
            index_bytes,
            model_bytes,
            metadata_bytes_per_object: meta_per_obj,
            tracker_bytes_per_object: tracker_bytes as f64 / residents,
            index_bytes_per_object: index_bytes as f64 / residents,
            model_bytes_per_object: model_bytes as f64 / residents,
            peak_rss_bytes: peak_rss_bytes(),
            guardrail_mode: guard_mode.to_string(),
            guardrail_trips: total.guardrail_trips,
            shadow_lru_bhr: total.shadow_lru_bhr(),
            shadow_realized_bhr: total.shadow_realized_bhr(),
        });
    }
    ctx.write_csv(
        "serve_throughput.csv",
        "engine,shards,reqs_per_sec,gbps_at_32kb,bhr,bhr_delta_vs_unsharded,\
         metadata_bytes_per_object,guardrail_mode,guardrail_trips,shadow_lru_bhr,shadow_realized_bhr",
        &csv,
    )?;

    let mut doc = BenchServe::load(ctx);
    doc.host_cores = BenchServe::detect_cores();
    doc.serve = rows.clone();
    let path = doc.store(ctx)?;
    println!("  json: {}", path.display());

    // Gate 1: the single-shard replay is deterministic (one worker, trace
    // order preserved) and serves the reference's engine, so its BHR must
    // equal the unsharded reference's exactly. Multi-shard replays are
    // timing sensitive (deferred-eviction overshoot varies with worker
    // interleaving, moving BHR by ~±0.01 run to run), so they only have to
    // stay inside a shard-noise envelope of the reference.
    let one = rows
        .iter()
        .find(|r| r.shards == 1)
        .expect("the sweep starts at 1 shard");
    assert!(
        one.bhr == reference.bhr(),
        "the 1-shard fleet's BHR {:.6} differs from the unsharded reference's {:.6}",
        one.bhr,
        reference.bhr()
    );
    for row in &rows {
        assert!(
            row.bhr_delta_vs_unsharded.abs() <= 0.03,
            "{} shard(s): BHR {:.4} strayed {:+.4} from the unsharded reference \
             (replay-noise envelope: ±0.03)",
            row.shards,
            row.bhr,
            row.bhr_delta_vs_unsharded
        );
    }

    // Gate 2: end-to-end scaling. Only meaningful when the host actually
    // has the cores (the smoke sweep stops at 2 shards, so CI smoke skips
    // this by construction).
    let rate_at = |shards: usize| {
        rows.iter()
            .find(|r| r.shards == shards)
            .map(|r| r.reqs_per_sec)
    };
    if let (Some(one), Some(four)) = (rate_at(1), rate_at(4)) {
        if cores >= 4 {
            let scaling = four / one.max(1e-9);
            assert!(
                scaling >= 1.5,
                "4 shards served only {scaling:.2}x the requests/s of 1 shard \
                 on {cores} cores (acceptance floor: 1.5x)"
            );
        }
    }

    if let Some(best) = rows.last() {
        println!(
            "  shape: {} shards give {:.1}x over 1 shard on {cores} core(s); \
             aggregate BHR within {:+.4} of unsharded; {:.0} metadata bytes/object",
            best.shards,
            best.reqs_per_sec / one.reqs_per_sec.max(1e-9),
            rows.iter()
                .map(|r| r.bhr_delta_vs_unsharded)
                .fold(0.0f64, |a, d| if d.abs() > a.abs() { d } else { a }),
            best.metadata_bytes_per_object
        );
        if cores == 1 {
            println!(
                "  note: single-core host — shard workers time-slice one core, so \
                 reqs/s stays flat; on >=4 cores 4 shards should give >=2x"
            );
        }
    }
    Ok(())
}
