//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <prod-serve|huge-bounded> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up several times, then
//! replays it for `--seconds` seconds and prints the end-to-end metrics; a
//! traced run (`--trace 1`) times the calls into each layer and prints the
//! per-layer ledger. Both check the program's outputs, print one line per
//! metric, and end with one JSON object on the last line of stdout.
//! `perfbench/README.md` describes the workloads and metrics.

mod ledger;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::spans::Tracer;
use crate::stats::{median, quartiles, relative_spread};
use crate::workload::{Checks, Setup, Workload, FLEET_SHARDS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Measurement rounds run even when `--seconds` has already passed.
pub(crate) const MIN_ROUNDS: usize = 3;

/// Replays of each fleet size per round, against one pipeline run: the
/// replays are several times shorter.
const REPLAYS_PER_ROUND: usize = 3;

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric with a note on how it was measured.
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds the median of `values`, noting the sample count, quartiles and
    /// their spread.
    pub fn add_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let value = median(values).unwrap_or(0.0);
        let note = match (quartiles(values), relative_spread(values)) {
            (Some((q1, q3)), Some(spread)) => format!(
                "median of {}; q1 {q1:.6} q3 {q3:.6}; spread {spread:.4}",
                values.len()
            ),
            _ => format!("median of {}", values.len()),
        };
        self.add(name, value, unit, note);
    }

    fn print(&self, checks: &Checks) {
        for m in &self.metrics {
            println!(
                "  {:<36} {:>18.6} {:<10} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let json: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "  {:<36} {:>18.6} {:<10} {} failed of {} attempted",
            "failed_frac",
            checks.failed_frac(),
            "ratio",
            checks.failed,
            checks.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0,
            checks.attempted.max(1),
            checks.failed,
            json.join(", ")
        );
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one invocation runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0`: the end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: the per-layer ledger.
    Traced,
    /// `--single-pass 1`: one set-up, one replay per fleet size and one
    /// pipeline run, then this process's peak RSS on the last line. An
    /// end-to-end run starts itself in this mode to measure `peak_rss_mb`.
    SinglePass,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut mode = Mode::EndToEnd;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::named(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--single-pass" if value == "1" => mode = Mode::SinglePass,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        mode,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <prod-serve|huge-bounded> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    if args.mode == Mode::SinglePass {
        single_pass(args.workload, args.seed, &mut checks);
        println!("{}", peak_rss_mb().unwrap_or(0.0));
        return if checks.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "perfbench {} seed {} for {} s, trace {} (closed loop: one router thread, {} shards max)",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.mode == Mode::Traced),
        FLEET_SHARDS
    );
    let report = match args.mode {
        Mode::Traced => ledger::traced(args.workload, args.seed, args.seconds, &mut checks),
        _ => {
            let mut report = measure(args.workload, args.seed, args.seconds, &mut checks);
            let rss = single_pass_peak_rss(&args);
            checks.check(rss.is_ok(), || format!("single-pass run failed: {rss:?}"));
            report.add(
                "peak_rss_mb",
                rss.unwrap_or(0.0),
                "MiB",
                "VmHWM of a process that ran one set-up, one replay per fleet size and one pipeline",
            );
            report
        }
    };
    report.print(&checks);
    ExitCode::SUCCESS
}

/// One pass over every phase of the workload, with its checks.
fn single_pass(workload: &'static Workload, seed: u64, checks: &mut Checks) {
    let setup = workload::setup(workload, seed, &mut Tracer::new());
    for shards in [1, FLEET_SHARDS] {
        workload::replay_fleet(&setup, shards, checks, None);
    }
    workload::run_window_path(&setup, checks);
}

/// Runs this program in [`Mode::SinglePass`] as a child process, waits for
/// it and returns its peak RSS: the measured run's own peak depends on how
/// many times the allocator's per-thread arenas were handed new threads.
fn single_pass_peak_rss(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--single-pass", "1"])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("exit {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    last.trim()
        .parse()
        .map_err(|_| format!("unparsable peak RSS {last:?}"))
}

/// Sets the workload up [`SETUPS`] times, returning the last set-up with
/// every set-up's wall time.
fn repeated_setup(workload: &'static Workload, seed: u64) -> (Setup, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let mut tracer = Tracer::new();
        let started = Instant::now();
        let setup = workload::setup(workload, seed, &mut tracer);
        setup_s.push(started.elapsed().as_secs_f64());
        last = Some(setup);
    }
    (last.expect("at least one set-up"), setup_s)
}

/// The untraced run: every end-to-end metric.
fn measure(workload: &'static Workload, seed: u64, seconds: u64, checks: &mut Checks) -> Report {
    let (setup, setup_s) = repeated_setup(workload, seed);
    let reference = workload::reference(&setup, checks, None);
    let n = setup.replay().len();
    let lru = lfo::lru_reference_bhr(setup.replay(), setup.capacity);
    // The pipeline serves windows 1..N on trained models.
    let lru_pipeline =
        lfo::lru_reference_bhr(&setup.pipeline_trace()[workload.window..], setup.capacity);

    // One untimed replay per fleet size first: the allocator and the page
    // tables grow to the replay's working set before anything is timed.
    for shards in [1, FLEET_SHARDS] {
        workload::replay_fleet(&setup, shards, checks, None);
    }
    let mut rate = [Vec::new(), Vec::new()];
    let mut bhr = [Vec::new(), Vec::new()];
    let mut meta = Vec::new();
    let mut window_s = Vec::new();
    let mut bhr_pipeline = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0;
    while round < MIN_ROUNDS || Instant::now() < deadline {
        // Alternate which fleet goes first so that slow drift in the host
        // falls on both alike.
        let pair = [[1, FLEET_SHARDS], [FLEET_SHARDS, 1]];
        for shards in pair
            .iter()
            .cycle()
            .skip(round % 2)
            .take(REPLAYS_PER_ROUND)
            .flatten()
            .copied()
        {
            let k = usize::from(shards != 1);
            let run = workload::replay_fleet(&setup, shards, checks, None);
            if shards == 1 {
                workload::check_one_shard(&setup, &run, &reference, checks);
            } else {
                meta.push(run.report.metadata_bytes() as f64 / MIB);
            }
            rate[k].push(run.rate(n));
            bhr[k].push(run.report.total().bhr() / lru);
        }
        let (secs, pipeline) = workload::run_window_path(&setup, checks);
        window_s.push(secs / pipeline.windows.len().max(1) as f64);
        bhr_pipeline.push(pipeline.live_trained.bhr() / lru_pipeline);
        round += 1;
    }

    let mut report = Report::default();
    report.add_median("setup_s", &setup_s, "s");
    report.add_median("reqs_per_s.1shard", &rate[0], "req/s");
    report.add_median("reqs_per_s.2shard", &rate[1], "req/s");
    report.add_median("bhr_vs_lru.1shard", &bhr[0], "ratio");
    report.add_median("bhr_vs_lru.2shard", &bhr[1], "ratio");
    let m = &reference.metrics;
    println!(
        "  (1-shard BHR {:.4} vs LRU {lru:.4}; guardrail trips {}, forced {} of {} requests)",
        m.bhr(),
        m.guardrail_trips,
        m.guardrail_forced_requests,
        m.requests
    );
    report.add_median("meta_mib", &meta, "MiB");
    report.add_median("window_s", &window_s, "s/window");
    report.add_median("bhr_vs_lru.pipeline", &bhr_pipeline, "ratio");
    report
}
