//! `repro concurrency`: fleet-shared doorkeeper vs per-shard sketches.
//!
//! PR 8's bounded tracker made serving state independent of the catalog,
//! but a pooled shard fleet still carried one doorkeeper sketch and one
//! GCLOCK ring *per shard* — fleet metadata scaled with budget × shards,
//! and shards never shared first-sighting evidence. This experiment
//! replays the huge-catalog trace through a [`ShardedLfoCache`] at
//! 1/2/4/8 shards twice per shard count: once with private per-shard
//! sketches (`shared_sketch: false`, the pre-pool behavior) and once on
//! one fleet-shared [`lfo::SharedDoorkeeper`] (DESIGN.md §16). Alongside
//! hit-path requests/s and aggregate BHR it reports the fleet doorkeeper
//! bytes (per-shard tracker state plus the shared sketch counted once),
//! the pool's CAS-contention counters, and the guardrail ghost bytes
//! saved by borrowing the doorkeeper.
//!
//! Gates (quick/full scale, evaluated at 4 shards): shared-sketch fleet
//! doorkeeper memory must stay ≤ 1.2× the single-cache budget (the
//! 1-shard private reference — versus ~N× for per-shard sketches), BHR
//! must stay within 0.01 of the per-shard placement, and a paired
//! best-of-5 timing duel must keep shared reqs/s ≥ 0.95× per-shard.
//! Results land in `results/BENCH_concurrency.json`.

use std::time::Instant;

use cdn_trace::{GeneratorConfig, Request, TraceGenerator, TraceStats};
use gbdt::GbdtParams;
use lfo::labels::build_training_set;
use lfo::{
    EvictionStrategy, GuardrailConfig, LfoArtifact, LfoConfig, Provenance, ShardParams,
    ShardedLfoCache, SketchPoolStats, TrackerBudget,
};
use opt::{compute_opt, OptConfig};

use crate::experiments::common::Gates;
use crate::harness::Context;
use crate::perf::{peak_rss_bytes, BenchConcurrency, ConcurrencyRow};

/// Trace seed (distinct from memory's 211; same huge-catalog family).
const SEED: u64 = 223;

/// Sample-K every replay evicts with (the discipline the bounded sweep
/// found competitive; features depend on the tracker bound, not on K).
const SAMPLE_K: usize = 16;

/// One replay's observables.
struct Replay {
    reqs_per_sec: f64,
    bhr: f64,
    /// Per-shard tracker bytes summed, plus the shared sketch counted
    /// once — the fleet's doorkeeper metadata footprint.
    fleet_tracker_bytes: u64,
    metadata_bytes_per_object: f64,
    stats: SketchPoolStats,
    ghost_saved_bytes: u64,
}

/// Replays the trace through a shard fleet cold-started from `artifact`,
/// with the doorkeeper either fleet-shared or private per shard.
fn replay(
    requests: &[Request],
    capacity: u64,
    artifact: &LfoArtifact,
    shards: usize,
    shared: bool,
) -> Replay {
    // Small batches keep shards coupled to trace order (see `repro
    // serve`); the observe-only guardrail rides along so every row
    // exercises (and accounts) the ghost doorkeeper-borrow path without
    // changing any serving decision.
    let params = ShardParams {
        batch_size: 8,
        queue_depth: 1,
        shared_sketch: shared,
        guardrail: Some(GuardrailConfig {
            enforce: false,
            ..GuardrailConfig::default()
        }),
        ..ShardParams::with_shards(shards)
    };
    let mut cache = ShardedLfoCache::from_artifact(capacity, params, artifact);
    let pool = cache.sketch_pool().cloned();
    let started = Instant::now();
    for request in requests {
        cache.handle(request);
    }
    let report = cache.finish();
    let secs = started.elapsed().as_secs_f64();
    let total = report.total();
    assert_eq!(total.requests, requests.len() as u64, "lost requests");
    let tracker: u64 = report.shards.iter().map(|s| s.tracker_bytes).sum();
    let sketch = report
        .shards
        .iter()
        .map(|s| s.shared_sketch_bytes)
        .max()
        .unwrap_or(0);
    Replay {
        reqs_per_sec: requests.len() as f64 / secs.max(1e-9),
        bhr: total.bhr(),
        fleet_tracker_bytes: tracker + sketch,
        metadata_bytes_per_object: report.metadata_bytes_per_object(),
        stats: pool.map(|p| p.stats()).unwrap_or_default(),
        ghost_saved_bytes: total.shadow_doorkeeper_saved_bytes,
    }
}

/// Runs the shard sweep under both sketch placements and the gates.
pub fn run(ctx: &Context) -> std::io::Result<()> {
    let n = ctx.scale.pick3(12_000, 60_000, 300_000);
    let trace = TraceGenerator::new(GeneratorConfig::huge_catalog(SEED, n as u64)).generate();
    let stats = TraceStats::from_trace(&trace);
    let reqs = trace.requests();
    // Same regime as `repro memory`: residents ≪ unique objects, so the
    // doorkeeper has a real one-hit-wonder tail to filter.
    let cache_size = stats.cache_size_for_fraction(0.05);
    let budget: usize = ctx.scale.pick3(512, 4_096, 16_384);

    println!("\n== concurrency: fleet-shared doorkeeper across shard counts ==");
    println!(
        "  trace: {} requests over {} unique objects; cache {:.1} MB; tracker budget {budget}",
        reqs.len(),
        stats.unique_objects,
        cache_size as f64 / (1024.0 * 1024.0)
    );

    // One bounded-tracker model serves every cell: trained on the features
    // the bounded tracker actually emits (the `repro memory` protocol);
    // every fleet scores it through the quantized+pruned engine.
    let config = LfoConfig {
        tracker_budget: Some(TrackerBudget::capped(budget)),
        eviction: Some(EvictionStrategy::sample(SAMPLE_K)),
        gap_schedule: Some(vec![1, 2, 4, 8, 16]),
        ..LfoConfig::default()
    };
    let w = ctx.window().min(reqs.len() / 2);
    let params = GbdtParams::lfo_paper();
    let opt_a = compute_opt(&reqs[..w], &OptConfig::bhr(cache_size)).expect("first-window OPT");
    let mut tracker = config.tracker();
    let data = build_training_set(&reqs[..w], &opt_a, &mut tracker, cache_size);
    let model = gbdt::train(&data, &params);
    let probs: Vec<f64> = (0..data.num_rows())
        .map(|r| model.predict_proba(&data.row(r)))
        .collect();
    let cutoff = lfo::equalize_cutoff(&probs, data.labels());
    let artifact = LfoArtifact::new(
        config,
        model,
        cutoff,
        Provenance {
            trace_id: format!("huge-catalog-seed{SEED}-n{}", reqs.len()),
            window: 0,
            slot_version: 0,
            note: format!("repro concurrency, budget {budget}, n={}", reqs.len()),
            lineage: None,
            pop: None,
        },
    );

    let shard_counts: &[usize] = ctx.scale.pick3(&[1, 2], &[1, 2, 4], &[1, 2, 4, 8]);
    // The acceptance gates are phrased at 4 shards; smoke sweeps stop at 2
    // (gates are skipped there anyway), so fall back to the widest fleet.
    let gate_shards = if shard_counts.contains(&4) {
        4
    } else {
        *shard_counts.last().expect("non-empty sweep")
    };

    println!(
        "  sketch     shards   reqs/s     BHR     fleet KB  ratio  meta B/obj  \
         CAS retry  stripe wait  ghost saved"
    );
    let mut rows: Vec<ConcurrencyRow> = Vec::new();
    let mut single_cache_tracker_bytes = 0u64;
    for &shards in shard_counts {
        for (label, shared) in [("per-shard", false), ("shared", true)] {
            let r = replay(reqs, cache_size, &artifact, shards, shared);
            if shards == 1 && !shared {
                // The 1-shard private fleet IS the single cache: its
                // doorkeeper footprint is the budget the memory gate is
                // phrased against.
                single_cache_tracker_bytes = r.fleet_tracker_bytes;
            }
            let ratio = r.fleet_tracker_bytes as f64 / single_cache_tracker_bytes.max(1) as f64;
            let row = ConcurrencyRow {
                sketch: label.to_string(),
                shards,
                reqs_per_sec: r.reqs_per_sec,
                bhr: r.bhr,
                fleet_tracker_bytes: r.fleet_tracker_bytes,
                metadata_bytes_per_object: r.metadata_bytes_per_object,
                sketch_updates: r.stats.sketch_updates,
                cas_retries: r.stats.cas_retries,
                stripe_contention: r.stats.stripe_contention,
                ghost_saved_bytes: r.ghost_saved_bytes,
                peak_rss_bytes: peak_rss_bytes(),
            };
            println!(
                "  {:<9}  {shards:>6}  {:>9.0}  {:.4}  {:>8.1}  {ratio:>5.2}  {:>9.1}  \
                 {:>9}  {:>11}  {:>11}",
                row.sketch,
                row.reqs_per_sec,
                row.bhr,
                row.fleet_tracker_bytes as f64 / 1024.0,
                row.metadata_bytes_per_object,
                row.cas_retries,
                row.stripe_contention,
                row.ghost_saved_bytes,
            );
            rows.push(row);
        }
    }

    let find = |sketch: &str, shards: usize| {
        rows.iter()
            .find(|r| r.sketch == sketch && r.shards == shards)
            .expect("both placements swept every shard count")
    };
    let shared_gate = find("shared", gate_shards);
    let private_gate = find("per-shard", gate_shards);
    let shared_memory_ratio =
        shared_gate.fleet_tracker_bytes as f64 / single_cache_tracker_bytes.max(1) as f64;
    let per_shard_memory_ratio =
        private_gate.fleet_tracker_bytes as f64 / single_cache_tracker_bytes.max(1) as f64;
    let bhr_delta = (shared_gate.bhr - private_gate.bhr).abs();

    // Paired best-of-5 timing duel at the gate shard count. Each round
    // replays per-shard then shared back to back and is judged by its own
    // ratio, and the gate takes the best round: scheduler or thermal
    // interference hits adjacent replays alike and cancels out of the
    // ratio, where maxing each side independently lets one globally slow
    // window sink whichever side it landed on (a real failure mode on a
    // single-core host, observed at ±10%+ per pass).
    let mut private_rate = private_gate.reqs_per_sec;
    let mut shared_rate = shared_gate.reqs_per_sec;
    let mut rate_ratio = shared_rate / private_rate.max(1e-9);
    for _ in 0..4 {
        let private = replay(reqs, cache_size, &artifact, gate_shards, false).reqs_per_sec;
        let shared = replay(reqs, cache_size, &artifact, gate_shards, true).reqs_per_sec;
        let ratio = shared / private.max(1e-9);
        if ratio > rate_ratio {
            rate_ratio = ratio;
            private_rate = private;
            shared_rate = shared;
        }
    }
    println!(
        "  gate @{gate_shards} shards: fleet memory {shared_memory_ratio:.2}x single-cache \
         (per-shard: {per_shard_memory_ratio:.2}x), |dBHR| {bhr_delta:.4}, \
         duel {shared_rate:.0} vs {private_rate:.0} reqs/s ({rate_ratio:.2}x)"
    );

    let gates = Gates::at(ctx.scale, "2-shard smoke fleets make the ratios noisy");
    let doc = BenchConcurrency {
        requests: reqs.len(),
        unique_objects: stats.unique_objects,
        cache_bytes: cache_size,
        tracker_budget: budget as u64,
        single_cache_tracker_bytes,
        gate_shards,
        shared_memory_ratio,
        per_shard_memory_ratio,
        bhr_delta,
        rate_ratio,
        gates_enforced: gates.enforced(),
        rows: rows.clone(),
    };
    let path = doc.store(ctx)?;
    println!("  json: {}", path.display());
    ctx.write_csv(
        "concurrency.csv",
        "sketch,shards,reqs_per_sec,bhr,fleet_tracker_bytes,metadata_bytes_per_object,\
         sketch_updates,cas_retries,stripe_contention,ghost_saved_bytes,peak_rss_bytes",
        &rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{:.0},{:.6},{},{:.1},{},{},{},{},{}",
                    r.sketch,
                    r.shards,
                    r.reqs_per_sec,
                    r.bhr,
                    r.fleet_tracker_bytes,
                    r.metadata_bytes_per_object,
                    r.sketch_updates,
                    r.cas_retries,
                    r.stripe_contention,
                    r.ghost_saved_bytes,
                    r.peak_rss_bytes.unwrap_or(0),
                )
            })
            .collect::<Vec<_>>(),
    )?;

    gates.require(shared_memory_ratio <= 1.2, || {
        format!(
            "shared-sketch fleet doorkeeper at {gate_shards} shards used \
             {shared_memory_ratio:.2}x the single-cache budget ({} vs {} bytes; \
             acceptance ceiling 1.2x)",
            shared_gate.fleet_tracker_bytes, single_cache_tracker_bytes,
        )
    });
    gates.require(bhr_delta <= 0.01, || {
        format!(
            "sharing the sketch moved BHR by {bhr_delta:.4} at {gate_shards} shards \
             (shared {:.4} vs per-shard {:.4}; budget 0.01)",
            shared_gate.bhr, private_gate.bhr,
        )
    });
    gates.require(rate_ratio >= 0.95, || {
        format!(
            "shared sketch served only {rate_ratio:.2}x the per-shard placement's reqs/s \
             at {gate_shards} shards (shared {shared_rate:.0} vs per-shard {private_rate:.0}; \
             acceptance floor 0.95x)"
        )
    });
    Ok(())
}
