//! The benchmark's workloads and the calls it makes into each layer:
//! set-up (trace → first-window OPT → labels → train → compile/publish →
//! fleet), fleet and unsharded replays, and the window pipeline — plus the
//! output checks every run counts into `failed`.

use std::sync::Arc;
use std::time::Instant;

use cdn_cache::cache::CachePolicy;
use cdn_trace::{GeneratorConfig, Request, Trace, TraceGenerator, TraceStats};
use gbdt::{BinMap, Model};
use lfo::labels::build_training_set;
use lfo::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use lfo::{
    equalize_cutoff, train_window, CacheMetrics, EvictionStrategy, FeatureTracker, GuardrailConfig,
    LfoArtifact, LfoCache, LfoConfig, ModelSlot, Provenance, ShardParams, ShardReport,
    ShardedLfoCache, SharedDoorkeeper, SketchPoolStats, TrackerBudget, FREE_FEATURE,
};
use opt::{compute_opt, OptConfig};

use crate::spans::{SpanId, Tracer};
use crate::stats::Samples;

/// Shards of the multi-shard fleet: the reference host's `nproc`, fixed
/// so that figures stay comparable across hosts.
pub const FLEET_SHARDS: usize = 2;

/// Intra-stage threads for `run_pipeline` (also the reference host's `nproc`).
pub const PIPELINE_THREADS: usize = 2;

/// Exact-history budget of the bounded tracker on huge-bounded: about four
/// times the ~15K residents a 5% cache holds on its 1M-request trace.
pub const HUGE_TRACKER_BUDGET: usize = 65_536;

/// Sample size of the sample-K eviction on huge-bounded (`repro
/// concurrency`'s value).
pub const HUGE_SAMPLE_K: usize = 16;

/// Every Nth request of a traced replay also gets a span of its own.
pub const SPAN_EVERY: usize = 4096;

/// The trace family a workload draws from.
#[derive(Clone, Copy)]
pub enum Generator {
    /// `GeneratorConfig::production`.
    Production,
    /// `GeneratorConfig::huge_catalog`.
    HugeCatalog,
}

/// Requests of the first window, whose model the set-up trains and the
/// fleets serve; the fleets replay the rest of the trace.
pub const FIRST_WINDOW: usize = 10_000;

/// One benchmark workload.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Trace family.
    pub generator: Generator,
    /// Requests in the generated trace.
    pub requests: u64,
    /// Requests per `run_pipeline` window.
    pub window: usize,
    /// Cache size as a share of the trace's unique bytes.
    pub cache_fraction: f64,
    /// `repro concurrency` serving config (bounded tracker, sample-K
    /// eviction, thinned gaps, shared doorkeeper) instead of the default
    /// `LfoConfig`.
    pub bounded: bool,
    /// Windows of the trace's prefix that each measured `run_pipeline`
    /// call runs through.
    pub pipeline_windows: usize,
}

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "prod-serve",
        generator: Generator::Production,
        requests: 1_000_000,
        window: 5_000,
        cache_fraction: 0.10,
        bounded: false,
        pipeline_windows: 16,
    },
    Workload {
        name: "huge-bounded",
        generator: Generator::HugeCatalog,
        requests: 1_000_000,
        window: 10_000,
        cache_fraction: 0.05,
        bounded: true,
        pipeline_windows: 8,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The serving and training configuration.
    pub fn config(&self) -> LfoConfig {
        if self.bounded {
            LfoConfig {
                tracker_budget: Some(TrackerBudget::capped(HUGE_TRACKER_BUDGET)),
                eviction: Some(EvictionStrategy::sample(HUGE_SAMPLE_K)),
                gap_schedule: Some(vec![1, 2, 4, 8, 16]),
                ..LfoConfig::default()
            }
        } else {
            LfoConfig::default()
        }
    }

    fn generate(&self, seed: u64) -> Trace {
        let config = match self.generator {
            Generator::Production => GeneratorConfig::production(seed, self.requests),
            Generator::HugeCatalog => GeneratorConfig::huge_catalog(seed, self.requests),
        };
        TraceGenerator::new(config).generate()
    }
}

/// Output checks and operations, counted into the result's `attempted`
/// and `failed`.
#[derive(Default)]
pub struct Checks {
    /// Checks made plus operations attempted (requests sent, windows run).
    pub attempted: u64,
    /// Checks failed plus operations lost (requests, degraded windows).
    pub failed: u64,
}

impl Checks {
    /// Counts one output check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Counts `attempted` operations of which `lost` did not complete.
    pub fn ops(&mut self, attempted: u64, lost: u64, what: &str) {
        self.attempted += attempted;
        self.failed += lost;
        if lost > 0 {
            eprintln!("check failed: {lost} of {attempted} {what} lost");
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Cost and outcome of the window path's stages on one window.
#[derive(Clone, Copy)]
pub struct StepTiming {
    /// `compute_opt` seconds.
    pub opt_s: f64,
    /// Augmenting paths of the OPT solve.
    pub augmentations: usize,
    /// OPT's hit bytes and requested bytes on the window.
    pub opt_bytes: (u64, u64),
    /// `build_training_set` seconds.
    pub labels_s: f64,
    /// `train_window` seconds.
    pub train_s: f64,
    /// Trees in the trained model.
    pub trees: usize,
    /// `ModelSlot::publish_compiled` milliseconds.
    pub compile_ms: f64,
    /// `ModelSlot::pruned_for` milliseconds.
    pub prune_ms: f64,
}

/// The window path's stages run once on one window.
pub struct WindowStep {
    /// The trained model.
    pub model: Model,
    /// Its admission cutoff.
    pub cutoff: f64,
    /// The frozen training grid the model is quantized against.
    pub map: BinMap,
    /// What each stage cost.
    pub timing: StepTiming,
}

/// OPT → labels → train → compile → prune on one window. `tracker` carries
/// the history from before the window and is advanced across it.
pub fn window_step(
    window: &[Request],
    tracker: &mut FeatureTracker,
    capacity: u64,
    workload: &Workload,
    config: &LfoConfig,
    tracer: &mut Tracer,
    parent: SpanId,
) -> WindowStep {
    let span = tracer.open("opt.solve", Some(parent));
    let opt = compute_opt(window, &OptConfig::bhr(capacity)).expect("exact OPT solves the window");
    let opt_s = tracer.close(span);

    let span = tracer.open("labels.build", Some(parent));
    let data = build_training_set(window, &opt, tracker, capacity);
    let labels_s = tracer.close(span);

    let span = tracer.open("gbdt.train", Some(parent));
    let trained = train_window(&data, config);
    let train_s = tracer.close(span);
    // The bounded config calibrates its cutoff like `repro concurrency`;
    // the default config serves at its fixed 0.5.
    let cutoff = if workload.bounded {
        equalize_cutoff(&trained.train_probs, &trained.train_labels)
    } else {
        config.cutoff
    };
    let map = BinMap::fit(&data, config.gbdt.max_bins);

    let slot = ModelSlot::new();
    let span = tracer.open("publish.compile", Some(parent));
    slot.publish_compiled(Arc::new(trained.model.clone()), cutoff, Some(&map));
    let compile_ms = tracer.close(span) * 1e3;
    let span = tracer.open("publish.prune", Some(parent));
    let pruned = slot.pruned_for(FREE_FEATURE, capacity as f64);
    let prune_ms = tracer.close(span) * 1e3;
    assert!(
        pruned.is_some(),
        "a publish with its bin map compiles a quantized layout"
    );

    WindowStep {
        timing: StepTiming {
            opt_s,
            augmentations: opt.augmentations,
            opt_bytes: (opt.hit_bytes, opt.total_bytes),
            labels_s,
            train_s,
            trees: trained.model.trees().len(),
            compile_ms,
            prune_ms,
        },
        model: trained.model,
        cutoff,
        map,
    }
}

/// Everything the measured phase starts from.
pub struct Setup {
    /// The workload.
    pub workload: &'static Workload,
    /// The generated trace.
    pub trace: Trace,
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// The serving configuration.
    pub config: LfoConfig,
    /// The first-window model, with its bin map, as published to the
    /// fleets.
    pub artifact: LfoArtifact,
    /// Trace generation seconds.
    pub gen_s: f64,
}

impl Setup {
    /// The requests the fleets replay: the trace after the first window.
    pub fn replay(&self) -> &[Request] {
        &self.trace.requests()[FIRST_WINDOW..]
    }
}

/// Generates the trace, trains and publishes the first-window model (the
/// `repro serve` / `repro concurrency` protocol), and brings one fleet up
/// and down.
pub fn setup(workload: &'static Workload, seed: u64, tracer: &mut Tracer) -> Setup {
    let root = tracer.open("setup", None);
    let span = tracer.open("trace.gen", Some(root));
    let trace = workload.generate(seed);
    let gen_s = tracer.close(span);
    let capacity = TraceStats::from_trace(&trace).cache_size_for_fraction(workload.cache_fraction);
    let config = workload.config();
    let mut tracker = config.tracker();
    let window = &trace.requests()[..FIRST_WINDOW];
    let step = window_step(
        window,
        &mut tracker,
        capacity,
        workload,
        &config,
        tracer,
        root,
    );
    let artifact = LfoArtifact::new(
        config.clone(),
        step.model,
        step.cutoff,
        Provenance {
            trace_id: format!("{}-seed{seed}", workload.name),
            window: 0,
            slot_version: 0,
            note: "perfbench first-window model".to_string(),
            lineage: None,
            pop: None,
        },
    )
    .with_bin_map(Some(step.map));

    let span = tracer.open("shard.construct", Some(root));
    let fleet =
        ShardedLfoCache::from_artifact(capacity, ShardParams::with_shards(FLEET_SHARDS), &artifact);
    fleet.finish();
    tracer.close(span);
    tracer.close(root);
    Setup {
        workload,
        trace,
        capacity,
        config,
        artifact,
        gen_s,
    }
}

/// One fleet replay, first `handle` to `finish`.
pub struct FleetRun {
    /// Wall seconds of the replay.
    pub secs: f64,
    /// Seconds spent inside `handle` (routing, batching, backpressure);
    /// measured only when traced.
    pub route_s: f64,
    /// Seconds spent in `finish` (draining the worker queues).
    pub drain_s: f64,
    /// The fleet's report.
    pub report: ShardReport,
    /// Shared-doorkeeper counters, when the fleet shares one.
    pub pool: Option<SketchPoolStats>,
}

impl FleetRun {
    /// Requests served per second.
    pub fn rate(&self, requests: usize) -> f64 {
        requests as f64 / self.secs
    }
}

/// Replays the set-up's requests through a fresh fleet of `shards`, with
/// the output checks every replay makes. With a tracer, every `handle`
/// call is timed and every [`SPAN_EVERY`]th gets a span.
pub fn replay_fleet(
    setup: &Setup,
    shards: usize,
    checks: &mut Checks,
    tracer: Option<&mut Tracer>,
) -> FleetRun {
    let requests = setup.replay();
    let mut fleet = ShardedLfoCache::from_artifact(
        setup.capacity,
        ShardParams::with_shards(shards),
        &setup.artifact,
    );
    let engine = LfoCache::with_slot(setup.capacity, setup.config.clone(), fleet.slot().clone())
        .engine_label();
    checks.check(engine == "quantized+pruned", || {
        format!("{shards}-shard fleet serves through {engine}, not quantized+pruned")
    });
    let pool = fleet.sketch_pool().cloned();
    let mut route_s = 0.0;
    let started = Instant::now();
    match tracer {
        None => {
            for request in requests {
                fleet.handle(request);
            }
        }
        Some(tracer) => {
            let parent = tracer.open(
                if shards == 1 {
                    "replay.1shard"
                } else {
                    "replay.2shard"
                },
                None,
            );
            let mut route_ns = 0u128;
            for (i, request) in requests.iter().enumerate() {
                let t0 = Instant::now();
                fleet.handle(request);
                let t1 = Instant::now();
                route_ns += (t1 - t0).as_nanos();
                if i % SPAN_EVERY == 0 {
                    tracer.record("shard.handle", Some(parent), t0, t1, i as u64);
                }
            }
            route_s = route_ns as f64 / 1e9;
            tracer.close(parent);
        }
    }
    let drain_start = Instant::now();
    let report = fleet.finish();
    let end = Instant::now();
    let total = report.total();
    checks.ops(
        requests.len() as u64,
        (requests.len() as u64).saturating_sub(total.requests),
        "requests",
    );
    FleetRun {
        secs: (end - started).as_secs_f64(),
        route_s,
        drain_s: (end - drain_start).as_secs_f64(),
        report,
        pool: pool.map(|p| p.stats()),
    }
}

/// Per-call timings of an unsharded replay.
pub struct PolicyCalls {
    /// `CachePolicy::handle` nanoseconds per request, net of `clock_ns`.
    pub handle: Samples,
    /// Cost of the clock reads around one call, subtracted from each.
    pub clock_ns: u64,
    /// The free bytes the cache presented to the model at each request.
    pub free: Vec<u64>,
}

/// One unsharded `LfoCache` replay.
pub struct UnshardedRun {
    /// Wall seconds of the replay.
    pub secs: f64,
    /// Counters in the form a fleet report aggregates them.
    pub metrics: CacheMetrics,
    /// The engine the cache served through.
    pub engine: &'static str,
}

/// How an unsharded replay's cache is put together.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Unsharded {
    /// What one shard of a fleet is: the workload's config and — when the
    /// fleet shares a doorkeeper — a 1-stripe `SharedDoorkeeper`.
    FleetTwin,
    /// The fleet twin with the default guardrail, observe-only.
    Observing,
    /// The fleet twin with the default, enforcing guardrail.
    Enforcing,
}

/// Replays the set-up's requests through one `LfoCache` subscribed to the
/// published artifact, optionally with every `handle` call timed.
pub fn replay_unsharded(
    setup: &Setup,
    kind: Unsharded,
    calls: Option<&mut PolicyCalls>,
) -> UnshardedRun {
    let requests = setup.replay();
    let slot = ModelSlot::new();
    setup.artifact.publish_to(&slot);
    let mut cache = LfoCache::with_slot(setup.capacity, setup.config.clone(), slot);
    let shares_doorkeeper =
        ShardParams::with_shards(1).shared_sketch && setup.config.budget().is_bounded();
    if shares_doorkeeper {
        cache.join_sketch_pool(Arc::new(SharedDoorkeeper::new(setup.config.budget(), 1)), 0);
    }
    match kind {
        Unsharded::FleetTwin => {}
        Unsharded::Observing => cache.enable_guardrail(GuardrailConfig {
            enforce: false,
            ..GuardrailConfig::default()
        }),
        Unsharded::Enforcing => cache.enable_guardrail(GuardrailConfig::default()),
    }
    let engine = cache.engine_label();
    let mut metrics = CacheMetrics::default();
    let started = Instant::now();
    match calls {
        None => {
            for request in requests {
                let outcome = cache.handle(request);
                metrics.record(request.size, outcome);
            }
        }
        Some(calls) => {
            for request in requests {
                calls.free.push(setup.capacity - cache.used());
                let t0 = Instant::now();
                let outcome = cache.handle(request);
                let ns = t0.elapsed().as_nanos() as u64;
                calls.handle.push(ns.saturating_sub(calls.clock_ns));
                metrics.record(request.size, outcome);
            }
        }
    }
    let secs = started.elapsed().as_secs_f64();
    metrics.evictions = cache.evictions;
    metrics.used_bytes = cache.used();
    metrics.resident_objects = cache.len() as u64;
    if let Some(snap) = cache.guardrail() {
        metrics.guardrail_trips = snap.trips;
        metrics.guardrail_forced_requests = snap.forced_requests;
        metrics.shadow_total_bytes = snap.shadow_total_bytes;
        metrics.shadow_lru_hit_bytes = snap.shadow_lru_hit_bytes;
        metrics.shadow_realized_hit_bytes = snap.shadow_realized_hit_bytes;
        metrics.shadow_doorkeeper_skips = snap.doorkeeper_skips;
        metrics.shadow_doorkeeper_saved_bytes = snap.doorkeeper_saved_bytes;
    }
    UnshardedRun {
        secs,
        metrics,
        engine,
    }
}

/// The checks a 1-shard replay must pass against the unsharded reference.
pub fn check_one_shard(
    setup: &Setup,
    run: &FleetRun,
    reference: &UnshardedRun,
    checks: &mut Checks,
) {
    let total = run.report.total();
    checks.check(total == reference.metrics, || {
        format!(
            "1-shard fleet differs from the unsharded replay: {total:?} vs {:?}",
            reference.metrics
        )
    });
    checks.check(total.used_bytes <= setup.capacity, || {
        format!(
            "1-shard fleet ends with {} bytes used of {}",
            total.used_bytes, setup.capacity
        )
    });
}

/// The unsharded reference a 1-shard fleet must match counter for counter:
/// the fleet twin, with its engine checked.
pub fn reference(
    setup: &Setup,
    checks: &mut Checks,
    calls: Option<&mut PolicyCalls>,
) -> UnshardedRun {
    let run = replay_unsharded(setup, Unsharded::FleetTwin, calls);
    checks.check(run.engine == "quantized+pruned", || {
        format!(
            "unsharded cache serves through {}, not quantized+pruned",
            run.engine
        )
    });
    run
}

impl Setup {
    /// The trace prefix each measured `run_pipeline` call runs through.
    pub fn pipeline_trace(&self) -> &[Request] {
        let w = self.workload;
        &self.trace.requests()[..w.pipeline_windows * w.window]
    }
}

/// One `run_pipeline` call over the pipeline prefix — default
/// `PipelineConfig` (exact OPT per window, `Boundary` deploy, scratch
/// retraining) with the workload's serving config — and its checks.
pub fn run_window_path(setup: &Setup, checks: &mut Checks) -> (f64, PipelineReport) {
    let config = PipelineConfig {
        window: setup.workload.window,
        cache_size: setup.capacity,
        lfo: setup.config.clone(),
        threads: PIPELINE_THREADS,
        ..PipelineConfig::default()
    };
    let started = Instant::now();
    let report = run_pipeline(setup.pipeline_trace(), &config).expect("the trace is not empty");
    let secs = started.elapsed().as_secs_f64();
    let degraded = report
        .windows
        .iter()
        .filter(|w| w.rollout.is_degraded())
        .count();
    checks.ops(
        report.windows.len() as u64,
        degraded as u64,
        "windows (degraded)",
    );
    let expected = setup.workload.pipeline_windows;
    checks.check(report.windows.len() == expected, || {
        format!(
            "pipeline ran {} windows, not {expected}",
            report.windows.len()
        )
    });
    // Only window 0 starts both OPT and the live cache cold; later live
    // windows start warm and may beat that window's OPT.
    if let Some(first) = report.windows.first() {
        let live = first.live.bhr();
        let opt = first.opt_bhr.unwrap_or(f64::NAN);
        checks.check(opt >= live, || {
            format!("window 0 OPT BHR {opt:.4} below the live BHR {live:.4}")
        });
    }
    (secs, report)
}
