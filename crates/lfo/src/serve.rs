//! Multi-threaded prediction serving (the Figure 7 harness).
//!
//! The paper measures "the throughput in million requests per second
//! achieved by our naive LFO predictor": a single thread serves just below
//! 300K predictions/s and scaling is near-linear to 44 threads. This module
//! provides both the measurement harness ([`prediction_throughput`], the
//! naive flat walk, and [`prediction_throughput_engine`], any engine) and a
//! small production-shaped prediction service ([`PredictionServer`]) where
//! worker threads consume feature batches from a bounded std mpsc channel
//! behind a shared receiver. The server scores through the same compiled
//! quantized engine as `LfoCache`; every engine compiles from the model
//! alone, so no entry point here needs a bin grid.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gbdt::{EngineKind, Model, PackedScorer, Predicate, BATCH_ROWS};

/// Result of a throughput measurement.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputResult {
    /// Worker threads used.
    pub threads: usize,
    /// Total predictions served.
    pub predictions: u64,
    /// Wall-clock time measured.
    pub elapsed: Duration,
}

impl ThroughputResult {
    /// Predictions per second.
    pub fn per_second(&self) -> f64 {
        self.predictions as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Implied bytes/second of served traffic at a mean object size
    /// (the paper assumes 32 KB objects to relate predictions/s to a
    /// 40 Gbit/s NIC).
    pub fn implied_bits_per_second(&self, mean_object_bytes: u64) -> f64 {
        self.per_second() * mean_object_bytes as f64 * 8.0
    }
}

/// Measures raw prediction throughput through the flat f32 engine — the
/// paper's naive predictor: `threads` workers evaluate the model over
/// `rows` round-robin for `duration`. Shorthand for
/// [`prediction_throughput_engine`] with [`EngineKind::Flat`].
///
/// # Panics
///
/// Panics if `threads` is 0 or `rows` is empty.
pub fn prediction_throughput(
    model: &Model,
    rows: &[Vec<f32>],
    threads: usize,
    duration: Duration,
) -> ThroughputResult {
    prediction_throughput_engine(model, rows, threads, duration, EngineKind::Flat, &[])
}

/// Measures raw prediction throughput through one serving engine:
/// `threads` workers score `rows` round-robin for `duration`.
///
/// The harness measures the *serving* inference path: the model is
/// compiled once into the engine's layout and the rows are packed once
/// into that layout's native representation (f32 row-major for the
/// recursive/flat walks, u16 bins for the quantized engines) via
/// [`gbdt::PackedScorer`], then workers score [`gbdt::BATCH_ROWS`]-sized
/// batches through the shared scorer — the same batched entry point the
/// training pipeline's prediction helper uses.
///
/// # Panics
///
/// Panics if `threads` is 0 or `rows` is empty.
pub fn prediction_throughput_engine(
    model: &Model,
    rows: &[Vec<f32>],
    threads: usize,
    duration: Duration,
    engine: EngineKind,
    predicates: &[Predicate],
) -> ThroughputResult {
    assert!(threads > 0, "need at least one thread");
    assert!(!rows.is_empty(), "need at least one feature row");
    let scorer = PackedScorer::pack(model, engine, rows, predicates);
    let num_rows = scorer.num_rows();

    let total = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let total = &total;
            let stop = &stop;
            let scorer = &scorer;
            scope.spawn(move || {
                let mut local = 0u64;
                let mut out = vec![0.0f64; BATCH_ROWS];
                let mut at = worker % num_rows;
                // Check the deadline per batch to keep the hot loop tight.
                while !stop.load(Ordering::Relaxed) {
                    let end = (at + BATCH_ROWS).min(num_rows);
                    let batch = end - at;
                    scorer.score_range(at, end, &mut out[..batch]);
                    std::hint::black_box(&out);
                    local += batch as u64;
                    at = if end == num_rows { 0 } else { end };
                }
                total.fetch_add(local, Ordering::Relaxed);
            });
        }
        // The scope's main thread acts as the timer.
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });

    ThroughputResult {
        threads,
        predictions: total.load(Ordering::Relaxed),
        elapsed: start.elapsed(),
    }
}

/// A batch of feature rows submitted to the [`PredictionServer`].
pub type FeatureBatch = Vec<Vec<f32>>;

/// One submitted batch travelling through the server: (batch id, features).
type BatchItem = (u64, FeatureBatch);
/// The shared sink of (batch id, scores) results.
type ResultSink = Arc<Mutex<Vec<(u64, Vec<f64>)>>>;

/// Why a batch submission was not accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full right now (apply backpressure and retry).
    QueueFull,
    /// The queue stayed full for the whole
    /// [`submit_timeout`](PredictionServer::submit_timeout) budget.
    Timeout,
    /// Every worker has stopped (all of them panicked); the batch can never
    /// be served.
    WorkersStopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "prediction queue full"),
            SubmitError::Timeout => write!(f, "prediction queue full past the timeout"),
            SubmitError::WorkersStopped => write!(f, "all prediction workers stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Outcome of [`PredictionServer::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// Total predictions served by workers that exited cleanly.
    pub served: u64,
    /// Workers that died to a panic instead of exiting cleanly.
    pub panicked_workers: usize,
    /// All (batch id, scores) results, in completion order.
    pub results: Vec<(u64, Vec<f64>)>,
}

/// Locks a mutex, recovering the guard if a previous holder panicked — a
/// dead worker must not take the rest of the server down with it.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small production-shaped prediction service: worker threads consume
/// feature batches from a bounded channel and append (batch id, scores)
/// results to a shared sink.
///
/// The server is fault-contained: a panicking worker kills only itself
/// (surviving workers recover any mutex it poisoned and keep serving), and
/// [`shutdown`](PredictionServer::shutdown) reports the casualty count
/// instead of propagating the panic. Submission offers blocking
/// ([`submit`](PredictionServer::submit)), non-blocking
/// ([`try_submit`](PredictionServer::try_submit)), and bounded-wait
/// ([`submit_timeout`](PredictionServer::submit_timeout)) flavours.
pub struct PredictionServer {
    sender: Option<SyncSender<BatchItem>>,
    workers: Vec<std::thread::JoinHandle<u64>>,
    results: ResultSink,
}

impl PredictionServer {
    /// Fault-injection hook: a batch submitted with this id makes the
    /// worker that picks it up panic, simulating a crash mid-batch. Used to
    /// test that the server contains worker death (and by operators to
    /// drill it); never use it as a real batch id.
    pub const PANIC_PILL: u64 = u64::MAX;

    /// Fault-injection hook: a batch submitted with this id makes the
    /// worker that picks it up acknowledge the pill in the result sink and
    /// then stall for [`Self::STALL`], simulating a wedged worker.
    /// Backpressure drills use it to hold the queue provably full; never
    /// use it as a real batch id.
    pub const STALL_PILL: u64 = u64::MAX - 1;

    /// How long a worker stalls after swallowing [`Self::STALL_PILL`].
    pub const STALL: Duration = Duration::from_secs(1);

    /// Starts `threads` workers sharing `model`. The model is compiled
    /// into the quantized serving engine once here; each worker encodes a
    /// submitted batch and scores it through the batch kernel (bit-equal
    /// to `Model::predict_proba`).
    pub fn start(model: Arc<Model>, threads: usize) -> Self {
        assert!(threads > 0);
        let quant = Arc::new(model.quantize());
        let (sender, receiver) = sync_channel::<BatchItem>(threads * 4);
        // std mpsc receivers are single-consumer; a mutex turns the channel
        // into the multi-consumer work queue crossbeam used to provide.
        let receiver: Arc<Mutex<Receiver<BatchItem>>> = Arc::new(Mutex::new(receiver));
        let results: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let quant = Arc::clone(&quant);
                let results = Arc::clone(&results);
                std::thread::spawn(move || {
                    let mut served = 0u64;
                    loop {
                        let next = lock_unpoisoned(&receiver).recv();
                        let Ok((id, batch)) = next else { break };
                        if id == PredictionServer::PANIC_PILL {
                            panic!("injected prediction-worker panic (panic pill)");
                        }
                        if id == PredictionServer::STALL_PILL {
                            // Ack first so the submitter can observe that the
                            // pill is swallowed (and the stall underway)
                            // before relying on the queue staying full.
                            lock_unpoisoned(&results).push((id, Vec::new()));
                            std::thread::sleep(PredictionServer::STALL);
                            continue;
                        }
                        let mut scores = vec![0.0f64; batch.len()];
                        quant.predict_proba_binned_batch(&quant.encode_rows(&batch), &mut scores);
                        served += scores.len() as u64;
                        lock_unpoisoned(&results).push((id, scores));
                    }
                    served
                })
            })
            .collect();
        PredictionServer {
            sender: Some(sender),
            workers,
            results,
        }
    }

    /// Starts a server cold-started from a persisted artifact — the
    /// serving-host path of a model rollout: load from the artifact store,
    /// verify (the artifact only parses if its checksum holds), serve.
    pub fn start_from_artifact(artifact: &crate::persist::LfoArtifact, threads: usize) -> Self {
        Self::start(Arc::new(artifact.model.clone()), threads)
    }

    fn sender(&self) -> &SyncSender<BatchItem> {
        self.sender.as_ref().expect("sender present until shutdown")
    }

    /// Submits a batch; blocks while the queue is full (backpressure).
    /// Fails only when every worker has stopped.
    pub fn submit(&self, id: u64, batch: FeatureBatch) -> Result<(), SubmitError> {
        self.sender()
            .send((id, batch))
            .map_err(|_| SubmitError::WorkersStopped)
    }

    /// Submits a batch without blocking: a full queue is reported as
    /// [`SubmitError::QueueFull`] instead of stalling the caller (the
    /// serving hot path must never wait on the learner's side of the
    /// house).
    pub fn try_submit(&self, id: u64, batch: FeatureBatch) -> Result<(), SubmitError> {
        self.sender().try_send((id, batch)).map_err(|e| match e {
            TrySendError::Full(_) => SubmitError::QueueFull,
            TrySendError::Disconnected(_) => SubmitError::WorkersStopped,
        })
    }

    /// Submits a batch, waiting at most `timeout` for queue space. std's
    /// `SyncSender` has no native `send_timeout`, so this polls
    /// `try_send` with a short sleep — fine for a backpressure path that
    /// is expected to succeed almost always.
    pub fn submit_timeout(
        &self,
        id: u64,
        batch: FeatureBatch,
        timeout: Duration,
    ) -> Result<(), SubmitError> {
        const POLL: Duration = Duration::from_micros(200);
        let deadline = Instant::now() + timeout;
        let mut item = (id, batch);
        loop {
            match self.sender().try_send(item) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Err(SubmitError::WorkersStopped),
                Err(TrySendError::Full(back)) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(SubmitError::Timeout);
                    }
                    item = back;
                    std::thread::sleep(POLL.min(deadline - now));
                }
            }
        }
    }

    /// Stops the workers and reports what was served, including how many
    /// workers died to a panic along the way (their completed batches are
    /// still in [`ShutdownReport::results`]).
    pub fn shutdown(mut self) -> ShutdownReport {
        drop(self.sender.take());
        let mut served = 0;
        let mut panicked_workers = 0;
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(count) => served += count,
                Err(_) => panicked_workers += 1,
            }
        }
        let results = std::mem::take(&mut *lock_unpoisoned(&self.results));
        ShutdownReport {
            served,
            panicked_workers,
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt::{train, Dataset, GbdtParams};

    fn toy_model() -> Model {
        let rows: Vec<Vec<f32>> = (0..200).map(|i| vec![i as f32, (i % 7) as f32]).collect();
        let labels: Vec<f32> = (0..200).map(|i| (i > 100) as u8 as f32).collect();
        train(
            &Dataset::from_rows(rows, labels).unwrap(),
            &GbdtParams::lfo_paper(),
        )
    }

    #[test]
    fn throughput_measures_something() {
        let model = toy_model();
        let rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32, 1.0]).collect();
        let r = prediction_throughput(&model, &rows, 2, Duration::from_millis(50));
        assert_eq!(r.threads, 2);
        assert!(r.predictions > 1_000, "only {} predictions", r.predictions);
        assert!(r.per_second() > 0.0);
        assert!(r.implied_bits_per_second(32 * 1024) > 0.0);
    }

    #[test]
    fn more_threads_do_not_reduce_throughput_much() {
        let model = toy_model();
        let rows: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32, 1.0]).collect();
        let one = prediction_throughput(&model, &rows, 1, Duration::from_millis(100));
        let four = prediction_throughput(&model, &rows, 4, Duration::from_millis(100));
        // Scaling assertions are inherently noisy on shared machines (other
        // processes may own most cores while this test runs), so only guard
        // against pathological collapse: 4 threads must retain at least
        // ~two-thirds of single-thread throughput.
        assert!(
            four.per_second() > one.per_second() * 0.66,
            "1T {} vs 4T {}",
            one.per_second(),
            four.per_second()
        );
    }

    #[test]
    fn every_engine_serves() {
        let model = toy_model();
        let rows: Vec<Vec<f32>> = (0..200).map(|i| vec![i as f32, (i % 7) as f32]).collect();
        for engine in EngineKind::ALL {
            let r = prediction_throughput_engine(
                &model,
                &rows,
                1,
                Duration::from_millis(20),
                engine,
                &[],
            );
            assert!(
                r.predictions > 0,
                "engine {} served nothing",
                engine.label()
            );
        }
    }

    #[test]
    fn server_serves_all_batches() {
        let model = Arc::new(toy_model());
        let server = PredictionServer::start(model, 3);
        for id in 0..20u64 {
            let batch: FeatureBatch = (0..50).map(|i| vec![i as f32, 0.0]).collect();
            server.submit(id, batch).unwrap();
        }
        let report = server.shutdown();
        assert_eq!(report.served, 20 * 50);
        assert_eq!(report.panicked_workers, 0);
        assert_eq!(report.results.len(), 20);
        let mut ids: Vec<u64> = report.results.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn server_scores_match_direct_prediction() {
        let model = Arc::new(toy_model());
        let server = PredictionServer::start(Arc::clone(&model), 2);
        let batch: FeatureBatch = vec![vec![150.0, 1.0], vec![10.0, 1.0]];
        server.submit(7, batch.clone()).unwrap();
        let report = server.shutdown();
        assert_eq!(report.results[0].1[0], model.predict_proba(&batch[0]));
        assert_eq!(report.results[0].1[1], model.predict_proba(&batch[1]));
    }

    #[test]
    fn try_submit_reports_queue_full_instead_of_blocking() {
        let model = Arc::new(toy_model());
        // One worker, so the queue holds 4 batches. Wedge the worker with a
        // stall pill and wait for its ack in the result sink: from that
        // point the worker is asleep for a full STALL, so no queue slot can
        // free while the assertions below run.
        let server = PredictionServer::start(model, 1);
        server
            .submit(PredictionServer::STALL_PILL, Vec::new())
            .unwrap();
        while !lock_unpoisoned(&server.results)
            .iter()
            .any(|(id, _)| *id == PredictionServer::STALL_PILL)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Fill every queue slot, then one more: try_submit must come back
        // with QueueFull, not block.
        for id in 1..=4u64 {
            server.try_submit(id, vec![vec![1.0, 1.0]]).unwrap();
        }
        assert_eq!(
            server.try_submit(5, vec![vec![1.0, 1.0]]),
            Err(SubmitError::QueueFull)
        );
        // Still wedged: a 5 ms bounded wait must report Timeout, and must
        // actually wait out its budget before giving up.
        let started = Instant::now();
        assert_eq!(
            server.submit_timeout(99, vec![vec![1.0, 1.0]], Duration::from_millis(5)),
            Err(SubmitError::Timeout)
        );
        assert!(started.elapsed() >= Duration::from_millis(5));
        // The worker wakes after the stall and drains the four queued
        // one-row batches before exiting.
        let report = server.shutdown();
        assert_eq!(report.panicked_workers, 0);
        assert_eq!(report.served, 4);
    }

    #[test]
    fn worker_panic_is_contained_and_reported() {
        let model = Arc::new(toy_model());
        let server = PredictionServer::start(model, 2);
        server.submit(1, vec![vec![1.0, 1.0]]).unwrap();
        // Kill one worker with the scripted panic pill.
        server
            .submit(PredictionServer::PANIC_PILL, Vec::new())
            .unwrap();
        // The surviving worker must keep serving new batches.
        for id in 2..10u64 {
            server
                .submit_timeout(id, vec![vec![2.0, 0.0]], Duration::from_secs(5))
                .unwrap();
        }
        let report = server.shutdown();
        assert_eq!(report.panicked_workers, 1);
        // Every completed batch reaches the results sink — even ones served
        // by the worker that later died (its in-thread `served` tally is
        // lost with it, so only bound that count).
        assert_eq!(report.results.len(), 9);
        assert!((8..=9).contains(&report.served), "served {}", report.served);
    }

    #[test]
    fn all_workers_dead_is_workers_stopped_not_a_hang() {
        let model = Arc::new(toy_model());
        let server = PredictionServer::start(model, 1);
        server
            .submit(PredictionServer::PANIC_PILL, Vec::new())
            .unwrap();
        // The lone worker dies and drops the queue's receiver; every submit
        // flavour must now fail fast instead of blocking forever.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match server.try_submit(5, vec![vec![1.0, 1.0]]) {
                Err(SubmitError::WorkersStopped) => break,
                _ => assert!(Instant::now() < deadline, "never saw WorkersStopped"),
            }
        }
        assert_eq!(
            server.submit(6, vec![vec![1.0, 1.0]]),
            Err(SubmitError::WorkersStopped)
        );
        assert_eq!(
            server.submit_timeout(7, vec![vec![1.0, 1.0]], Duration::from_millis(1)),
            Err(SubmitError::WorkersStopped)
        );
        let report = server.shutdown();
        assert_eq!(report.panicked_workers, 1);
    }
}
