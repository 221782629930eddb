//! Figure 7: prediction throughput vs number of predictor threads, plus
//! the serving-engine comparison.
//!
//! Paper shape: "A single thread can serve predictions for just below 300K
//! requests per second. For 12 threads (44 threads), prediction speed
//! scales almost linearly reaching more than 3 million (11 million)
//! requests per second. To utilize a 40 GBit/s network, LFO needs only two
//! threads, assuming an average object size of 32KB."
//!
//! On top of the paper's thread sweep (flat engine, `BENCH_serve.json`),
//! the experiment races the four engines — the recursive and flat
//! reference walks, quantized, and quantized+pruned (what `LfoCache`
//! serves) — over the same packed row set at the same thread counts and
//! writes the matrix to `BENCH_fig7.json`. Two gates live here: every
//! engine must score the row set bit-equal to the flat walk, and the
//! quantized kernel must reach at least 3x the flat walk's preds/s at some
//! equal thread count.

use std::time::Duration;

use gbdt::{EngineKind, GbdtParams, PackedScorer, Predicate};
use lfo::serve::{prediction_throughput, prediction_throughput_engine};
use lfo::FREE_FEATURE;

use crate::experiments::common::{train_and_eval, window_dataset};
use crate::harness::Context;
use crate::perf::{BenchFig7, BenchServe, Fig7EngineRow, Fig7Row};

/// Runs the thread-scaling sweep and the engine comparison.
pub fn run(ctx: &Context) -> std::io::Result<()> {
    let trace = ctx.standard_trace(104);
    let cache_size = ctx.standard_cache_size(&trace);
    let w = ctx.window();
    let reqs = trace.requests();
    let params = GbdtParams::lfo_paper();
    let te = train_and_eval(&reqs[..w], &reqs[w..2 * w], cache_size, &params);

    // Rows to score: realistic feature vectors from the trace.
    let data = window_dataset(&reqs[..w.min(4_096)], cache_size);
    let rows: Vec<Vec<f32>> = (0..data.num_rows()).map(|r| data.row(r)).collect();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let duration = Duration::from_millis(ctx.scale.pick(200, 1_000));
    println!("\n== Figure 7: prediction throughput vs threads ({cores} cores) ==");
    println!("  threads  preds/s     Gbit/s @32KB");
    let mut csv = Vec::new();
    let mut series = Vec::new();
    let mut json_rows = Vec::new();
    for &threads in &[1usize, 2, 4, 8, 12, 16, 24, 32, 40] {
        // Sweep past the core count (oversubscription shows up as a flat
        // line, which is itself informative on small hosts), but stop at
        // 4x cores to bound runtime.
        if threads > (cores * 4).max(8) {
            break;
        }
        let r = prediction_throughput(&te.model, &rows, threads, duration);
        let gbps = r.implied_bits_per_second(32 * 1024) / 1e9;
        println!("  {threads:>7}  {:>10.0}  {gbps:>6.1}", r.per_second());
        csv.push(format!("{threads},{:.0},{gbps:.2}", r.per_second()));
        series.push((threads, r.per_second()));
        json_rows.push(Fig7Row {
            threads,
            preds_per_sec: r.per_second(),
            gbps_at_32kb: gbps,
        });
    }
    ctx.write_csv(
        "fig7_throughput.csv",
        "threads,predictions_per_sec,gbps_at_32kb",
        &csv,
    )?;
    let mut doc = BenchServe::load(ctx);
    doc.host_cores = BenchServe::detect_cores();
    doc.fig7 = json_rows;
    doc.store(ctx)?;

    if series.len() >= 2 {
        let (t0, p0) = series[0];
        let (t1, p1) = *series.last().unwrap();
        let speedup = p1 / p0;
        let ideal = t1 as f64 / t0 as f64;
        println!(
            "  shape: {t1} threads give {speedup:.1}x over {t0} thread(s) (ideal {ideal:.0}x \
             on {cores} core(s)); 40 Gbit/s needs {:.1} threads at 32KB objects",
            40e9 / (p0 * 32.0 * 1024.0 * 8.0)
        );
        if cores == 1 {
            println!(
                "  note: single-core host — the paper's near-linear scaling to 44 threads \
                 cannot manifest here; per-thread rate is the comparable number"
            );
        }
    }

    engine_comparison(ctx, &te.model, &rows, cache_size, duration)
}

/// Races the four engines over the same packed rows at the same thread
/// counts; writes `BENCH_fig7.json` and enforces the bit-equality and
/// quantized speedup gates.
fn engine_comparison(
    ctx: &Context,
    model: &gbdt::Model,
    rows: &[Vec<f32>],
    cache_size: u64,
    duration: Duration,
) -> std::io::Result<()> {
    // The shard invariant the pruned engine specializes against: the
    // free-bytes feature never exceeds the cache capacity. u64 -> f32
    // rounding is monotone, so every row's `free as f32` stays <= the
    // bound's f32 image and the predicate genuinely holds.
    let predicates = [Predicate::range(FREE_FEATURE, 0.0, cache_size as f32)];
    let score = |engine| {
        let mut out = vec![0.0f64; rows.len()];
        PackedScorer::pack(model, engine, rows, &predicates).score_all(&mut out);
        out.iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
    };
    let reference = score(EngineKind::Flat);
    for engine in EngineKind::ALL {
        assert!(
            score(engine) == reference,
            "engine {} scores differ from the flat walk",
            engine.label()
        );
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let thread_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= (cores * 2).max(2))
        .collect();

    println!("\n== Figure 7b: serving-engine comparison ==");
    println!("  engine            threads  preds/s     vs flat");
    let mut csv = Vec::new();
    let mut out_rows: Vec<Fig7EngineRow> = Vec::new();
    let mut quantized_speedup_max = 0.0f64;
    for &threads in &thread_counts {
        let rates: Vec<(EngineKind, f64)> = EngineKind::ALL
            .into_iter()
            .map(|engine| {
                let r = prediction_throughput_engine(
                    model,
                    rows,
                    threads,
                    duration,
                    engine,
                    &predicates,
                );
                (engine, r.per_second())
            })
            .collect();
        let flat_rate = rates
            .iter()
            .find(|(e, _)| *e == EngineKind::Flat)
            .map(|&(_, r)| r)
            .unwrap_or(f64::INFINITY);
        for (engine, rate) in rates {
            let speedup = rate / flat_rate.max(1e-9);
            if engine == EngineKind::Quantized {
                quantized_speedup_max = quantized_speedup_max.max(speedup);
            }
            println!(
                "  {:<16}  {threads:>7}  {rate:>10.0}  {speedup:>6.2}x",
                engine.label()
            );
            csv.push(format!(
                "{},{threads},{rate:.0},{speedup:.3}",
                engine.label()
            ));
            out_rows.push(Fig7EngineRow {
                engine: engine.label().to_string(),
                threads,
                preds_per_sec: rate,
                speedup_vs_flat: speedup,
            });
        }
    }
    ctx.write_csv(
        "fig7_engines.csv",
        "engine,threads,preds_per_sec,speedup_vs_flat",
        &csv,
    )?;
    let doc = BenchFig7 {
        host_cores: BenchServe::detect_cores(),
        rows: out_rows,
        quantized_speedup_max,
    };
    let path = doc.store(ctx)?;
    println!(
        "  json: {}  (best quantized speedup {quantized_speedup_max:.2}x)",
        path.display()
    );
    assert!(
        quantized_speedup_max >= 3.0,
        "quantized engine reached only {quantized_speedup_max:.2}x over the flat walk \
         (acceptance floor: 3x at some equal thread count)"
    );
    Ok(())
}
