//! The traced run: times the benchmark's calls into each layer and prints
//! the per-layer ledger. End-to-end metrics never come from here.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use lfo::{ModelSlot, FREE_FEATURE};

use crate::spans::Tracer;
use crate::stats::{highest_backed_percentile, median, Ratio, Samples};
use crate::workload::{
    self, Checks, PolicyCalls, Setup, StepTiming, Unsharded, Workload, FLEET_SHARDS, SPAN_EVERY,
};
use crate::{Report, MIN_ROUNDS};

/// Rows per batch of the batch-kernel measurement (the fleet's default
/// worker batch).
const BATCH_ROWS: usize = 256;

/// Unsharded replays per side of the guardrail duel.
const GUARDRAIL_ROUNDS: usize = 3;

/// Median cost of one `Instant::now()` pair, in nanoseconds: every
/// per-call sample carries it once, and it is subtracted before the
/// sample is kept.
fn clock_ns() -> u64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Per-call timings of the tracker and the scoring engines, replayed on
/// the rows the unsharded cache scored.
struct Calls {
    lookup: Samples,
    record: Samples,
    encode: Samples,
    score: Samples,
    flat: Samples,
    batch_ns: u128,
    batch_rows: usize,
}

fn time_features_and_scoring(
    setup: &Setup,
    free: &[u64],
    clock: u64,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Calls {
    let requests = setup.replay();
    let n = requests.len();
    let slot = ModelSlot::new();
    setup.artifact.publish_to(&slot);
    let quant = slot
        .pruned_for(FREE_FEATURE, setup.capacity as f64)
        .expect("the artifact carries its bin map");
    let flat = slot
        .compiled()
        .expect("the artifact was published")
        .flat
        .clone();
    let mut tracker = setup.config.tracker();
    let width = quant.encoded_width();
    let mut calls = Calls {
        lookup: Samples::with_capacity(n),
        record: Samples::with_capacity(n),
        encode: Samples::with_capacity(n),
        score: Samples::with_capacity(n),
        flat: Samples::with_capacity(n),
        batch_ns: 0,
        batch_rows: 0,
    };
    let net = |a: Instant, b: Instant| ((b - a).as_nanos() as u64).saturating_sub(clock);
    let mut row = Vec::new();
    let mut bins = Vec::new();
    let mut batch: Vec<u16> = Vec::with_capacity(BATCH_ROWS * width);
    let mut singles: Vec<f64> = Vec::with_capacity(BATCH_ROWS);
    let mut out = vec![0.0f64; BATCH_ROWS];
    let parent = tracer.open("replay.features+gbdt", None);
    for (i, request) in requests.iter().enumerate() {
        let t0 = Instant::now();
        tracker.features_into(request, free[i], &mut row);
        let t1 = Instant::now();
        tracker.record(request);
        let t2 = Instant::now();
        quant.encode_row_into(&row, &mut bins);
        let t3 = Instant::now();
        let p = black_box(quant.predict_proba_binned(&bins));
        let t4 = Instant::now();
        black_box(flat.predict_proba(&row));
        let t5 = Instant::now();
        calls.lookup.push(net(t0, t1));
        calls.record.push(net(t1, t2));
        calls.encode.push(net(t2, t3));
        calls.score.push(net(t3, t4));
        calls.flat.push(net(t4, t5));
        if i % SPAN_EVERY == 0 {
            let r = i as u64;
            tracer.record("features.lookup", Some(parent), t0, t1, r);
            tracer.record("features.record", Some(parent), t1, t2, r);
            tracer.record("gbdt.encode", Some(parent), t2, t3, r);
            tracer.record("gbdt.score", Some(parent), t3, t4, r);
            tracer.record("gbdt.flat_score", Some(parent), t4, t5, r);
        }
        batch.extend_from_slice(&bins);
        singles.push(p);
        if singles.len() == BATCH_ROWS {
            let tb = Instant::now();
            quant.predict_proba_binned_batch(&batch, &mut out);
            calls.batch_ns += tb.elapsed().as_nanos();
            calls.batch_rows += BATCH_ROWS;
            checks.check(out == singles, || {
                "batch kernel scores differ from single-row scores".to_string()
            });
            batch.clear();
            singles.clear();
        }
    }
    tracer.close(parent);
    calls
}

/// The window path stage by stage over the pipeline prefix, as
/// `run_pipeline`'s trainer runs it (one tracker carried across windows).
fn window_steps(setup: &Setup, tracer: &mut Tracer) -> Vec<StepTiming> {
    let mut tracker = setup.config.tracker();
    let mut steps = Vec::new();
    for window in setup.pipeline_trace().chunks(setup.workload.window) {
        let parent = tracer.open("window", None);
        let step = workload::window_step(
            window,
            &mut tracker,
            setup.capacity,
            setup.workload,
            &setup.config,
            tracer,
            parent,
        );
        tracer.close(parent);
        steps.push(step.timing);
    }
    steps
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Adds a percentile of `samples`, or 0 with a note naming the highest
/// percentile that is backed when too few samples lie beyond `p`.
fn add_percentile(report: &mut Report, name: &str, samples: &mut Samples, p: f64) {
    let n = samples.len();
    match samples.percentile(p) {
        Some(v) => {
            let note = format!("p{p} of {n} calls; mean {:.1}", samples.mean());
            report.add(name, v, "ns", note)
        }
        None => {
            let backed = highest_backed_percentile(n, &[50.0, 90.0, 99.0]);
            let note =
                format!("not reported: <10 of {n} calls beyond p{p} (highest backed: {backed:?})");
            report.add(name, 0.0, "ns", note)
        }
    }
}

/// The traced run.
pub fn traced(workload: &'static Workload, seed: u64, seconds: u64, checks: &mut Checks) -> Report {
    let clock = clock_ns();
    let mut tracer = Tracer::new();
    let setup = workload::setup(workload, seed, &mut tracer);
    let n = setup.replay().len();
    let deadline = Instant::now() + Duration::from_secs(seconds);

    // The policy layer: the unsharded reference with every handle timed.
    let mut policy = PolicyCalls {
        handle: Samples::with_capacity(n),
        clock_ns: clock,
        free: Vec::with_capacity(n),
    };
    let span = tracer.open("replay.unsharded", None);
    let reference = workload::reference(&setup, checks, Some(&mut policy));
    tracer.close(span);
    let handle_mean = policy.handle.mean();

    let mut calls = time_features_and_scoring(&setup, &policy.free, clock, checks, &mut tracer);

    // The shard layer: untraced and traced fleets, interleaved.
    let mut untraced = [Vec::new(), Vec::new()];
    let mut traced = [Vec::new(), Vec::new()];
    let mut route_ns = Vec::new();
    let mut drain_ms = Vec::new();
    let mut last = None;
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        for shards in [1, FLEET_SHARDS] {
            let k = usize::from(shards != 1);
            let plain = workload::replay_fleet(&setup, shards, checks, None);
            let timed = workload::replay_fleet(&setup, shards, checks, Some(&mut tracer));
            if shards == 1 {
                workload::check_one_shard(&setup, &plain, &reference, checks);
                workload::check_one_shard(&setup, &timed, &reference, checks);
            } else {
                route_ns.push(timed.route_s * 1e9 / n as f64);
                drain_ms.push(timed.drain_s * 1e3);
            }
            untraced[k].push(plain.rate(n));
            traced[k].push(timed.rate(n));
            if shards != 1 {
                last = Some(timed);
            }
        }
        round += 1;
    }
    let fleet = last.expect("at least one fleet replay");

    // The guardrail layer: unsharded replays without a guardrail, with the
    // default one observe-only, and with the default (enforcing) one.
    let mut bare = Vec::new();
    let mut observing = Vec::new();
    let mut enforcing = Vec::new();
    let mut duel = Default::default();
    for _ in 0..GUARDRAIL_ROUNDS {
        let plain = workload::replay_unsharded(&setup, Unsharded::FleetTwin, None);
        observing.push(workload::replay_unsharded(&setup, Unsharded::Observing, None).secs);
        let enforced = workload::replay_unsharded(&setup, Unsharded::Enforcing, None);
        bare.push(plain.secs);
        enforcing.push(enforced.secs);
        duel = (plain.metrics, enforced.metrics);
    }

    let steps = window_steps(&setup, &mut tracer);

    let mut report = Report::default();
    let median_of = |v: &[f64]| median(v).unwrap_or(0.0);
    report.add_median("shard.route_ns_per_req", &route_ns, "ns");
    report.add_median("shard.drain_ms", &drain_ms, "ms");
    let scaling = Ratio {
        num: median_of(&untraced[1]),
        den: median_of(&untraced[0]),
    };
    report.add(
        "shard.scaling",
        scaling.value(),
        "ratio",
        scaling.describe("2shard req/s", "1shard req/s"),
    );

    add_percentile(
        &mut report,
        "policy.handle_ns.p50",
        &mut policy.handle,
        50.0,
    );
    add_percentile(
        &mut report,
        "policy.handle_ns.p99",
        &mut policy.handle,
        99.0,
    );
    let self_ns = handle_mean
        - calls.lookup.mean()
        - calls.record.mean()
        - calls.encode.mean()
        - calls.score.mean();
    report.add(
        "policy.self_ns",
        self_ns,
        "ns",
        format!("handle mean {handle_mean:.1} minus lookup, record, encode, score means"),
    );
    let m = &reference.metrics;
    let misses = m.admitted_misses + m.bypassed_misses;
    report.add(
        "policy.admit_frac",
        m.admitted_misses as f64 / misses.max(1) as f64,
        "ratio",
        format!("{} admitted of {misses} misses", m.admitted_misses),
    );
    report.add(
        "policy.evictions_per_req",
        m.evictions as f64 / m.requests.max(1) as f64,
        "ratio",
        format!("{} evictions over {} requests", m.evictions, m.requests),
    );
    let shards = &fleet.report.shards;
    let residents = fleet.report.total().resident_objects.max(1) as f64;
    let tracker_bytes = shards.iter().map(|s| s.tracker_bytes).sum::<u64>()
        + shards
            .iter()
            .map(|s| s.shared_sketch_bytes)
            .max()
            .unwrap_or(0);
    let index_bytes: u64 = shards.iter().map(|s| s.index_bytes).sum();
    let model_bytes = shards.iter().map(|s| s.model_bytes).max().unwrap_or(0);
    let at = format!("{FLEET_SHARDS}-shard fleet, {residents} residents");
    report.add(
        "policy.meta_bytes.tracker",
        tracker_bytes as f64 / residents,
        "B/object",
        &*at,
    );
    report.add(
        "policy.meta_bytes.index",
        index_bytes as f64 / residents,
        "B/object",
        &*at,
    );
    report.add(
        "policy.meta_bytes.model",
        model_bytes as f64 / residents,
        "B/object",
        &*at,
    );

    add_percentile(
        &mut report,
        "features.lookup_ns.p50",
        &mut calls.lookup,
        50.0,
    );
    add_percentile(
        &mut report,
        "features.lookup_ns.p99",
        &mut calls.lookup,
        99.0,
    );
    add_percentile(
        &mut report,
        "features.record_ns.p50",
        &mut calls.record,
        50.0,
    );
    add_percentile(
        &mut report,
        "features.record_ns.p99",
        &mut calls.record,
        99.0,
    );
    add_percentile(&mut report, "gbdt.encode_ns.p50", &mut calls.encode, 50.0);
    add_percentile(&mut report, "gbdt.score_ns.p50", &mut calls.score, 50.0);
    add_percentile(&mut report, "gbdt.score_ns.p99", &mut calls.score, 99.0);
    add_percentile(&mut report, "gbdt.flat_score_ns.p50", &mut calls.flat, 50.0);
    report.add(
        "gbdt.batch_score_ns_per_row",
        calls.batch_ns as f64 / calls.batch_rows.max(1) as f64,
        "ns",
        format!("{} rows in {BATCH_ROWS}-row batches", calls.batch_rows),
    );

    let per_req = |with: &[f64]| (median_of(with) - median_of(&bare)) * 1e9 / n as f64;
    let rounds = format!("unsharded, median of {} replays each side", bare.len());
    report.add(
        "guardrail.overhead_ns_per_req",
        per_req(&enforcing),
        "ns",
        &*rounds,
    );
    report.add(
        "guardrail.shadow_ns_per_req",
        per_req(&observing),
        "ns",
        &*rounds,
    );
    let (plain, enforced) = duel;
    report.add(
        "guardrail.trips",
        enforced.guardrail_trips as f64,
        "count",
        "enforcing, unsharded replay",
    );
    report.add(
        "guardrail.forced_frac",
        enforced.guardrail_forced_requests as f64 / enforced.requests.max(1) as f64,
        "ratio",
        format!("{} forced requests", enforced.guardrail_forced_requests),
    );
    report.add(
        "guardrail.shadow_gap",
        enforced.shadow_realized_bhr() - enforced.shadow_lru_bhr(),
        "ratio",
        format!(
            "shadow realized {:.4} minus shadow LRU {:.4}",
            enforced.shadow_realized_bhr(),
            enforced.shadow_lru_bhr()
        ),
    );
    report.add(
        "guardrail.bhr_cost",
        plain.bhr() - enforced.bhr(),
        "ratio",
        format!(
            "BHR without {:.4} minus enforcing {:.4}",
            plain.bhr(),
            enforced.bhr()
        ),
    );
    let pool = fleet.pool.unwrap_or_default();
    report.add(
        "sketchpool.cas_retries_per_update",
        pool.cas_retries as f64 / pool.sketch_updates.max(1) as f64,
        "ratio",
        format!(
            "{} retries over {} updates",
            pool.cas_retries, pool.sketch_updates
        ),
    );
    report.add(
        "sketchpool.stripe_contention",
        pool.stripe_contention as f64,
        "count",
        format!("{FLEET_SHARDS}-shard fleet"),
    );

    let windows = format!("{} window(s)", steps.len());
    let opt_s: Vec<f64> = steps.iter().map(|s| s.opt_s).collect();
    report.add_median("opt.solve_s.p50", &opt_s, "s/window");
    report.add(
        "opt.augmentations",
        mean(steps.iter().map(|s| s.augmentations as f64)),
        "count/window",
        &*windows,
    );
    let (hit, total) = steps.iter().fold((0u64, 0u64), |(h, t), s| {
        (h + s.opt_bytes.0, t + s.opt_bytes.1)
    });
    report.add(
        "opt.bhr",
        hit as f64 / total.max(1) as f64,
        "ratio",
        &*windows,
    );
    report.add(
        "labels.build_s",
        mean(steps.iter().map(|s| s.labels_s)),
        "s/window",
        &*windows,
    );
    report.add(
        "gbdt.train_s",
        mean(steps.iter().map(|s| s.train_s)),
        "s/window",
        &*windows,
    );
    report.add(
        "gbdt.trees",
        mean(steps.iter().map(|s| s.trees as f64)),
        "count",
        &*windows,
    );
    report.add(
        "publish.compile_ms",
        mean(steps.iter().map(|s| s.compile_ms)),
        "ms",
        &*windows,
    );
    report.add(
        "publish.prune_ms",
        mean(steps.iter().map(|s| s.prune_ms)),
        "ms",
        &*windows,
    );
    report.add("trace.gen_s", setup.gen_s, "s", "one generation");
    let cost = Ratio {
        num: median_of(&untraced[0]),
        den: median_of(&traced[0]),
    };
    report.add(
        "trace.overhead",
        cost.value(),
        "ratio",
        cost.describe("untraced 1shard req/s", "traced 1shard req/s"),
    );
    report.add(
        "trace.clock_ns",
        clock as f64,
        "ns",
        "subtracted from every per-call sample",
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", setup.workload.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("  {} spans written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    report
}
