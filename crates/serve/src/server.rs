//! The TCP front-end: connection handling, the worker pool, and the
//! deterministic response-streaming discipline.
//!
//! Execution pulls jobs from the [`JobQueue`] and runs them through
//! [`Harness::run_job`] with a job-private [`Recorder`]. Response
//! frames are rendered *after* the pipeline run completes, from the
//! recorder's journal in span-close order — never from live callbacks —
//! so a job's `ack`/`progress`/`result` stream is a pure function of
//! its identity, byte-identical however jobs interleave across workers.

use crate::config::ServeConfig;
use crate::journal::JobJournal;
use crate::outbox::Outbox;
use crate::protocol::{self, Request, SubmitRequest};
use crate::queue::{Admission, FrameSink, Job, JobQueue};
use aivril_bench::Harness;
use aivril_llm::ModelProfile;
use aivril_obs::{render_event, Recorder};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Bounded memo of completed jobs' response frames, keyed by identity.
/// A resubmission of a finished job replays these bytes instead of
/// executing a second time — and because the frames are deterministic,
/// a replay is indistinguishable from a re-run on the wire. FIFO
/// eviction keeps the memo from growing with job history.
#[derive(Default)]
struct CompletedMemo {
    order: VecDeque<(String, String)>,
    frames: HashMap<(String, String), Vec<String>>,
}

/// The job service: shared harness, per-tenant admission queue, and
/// the accept loop. Wrapped in an [`Arc`] and shared by the accept
/// thread, connection threads and the worker pool.
pub struct Server {
    harness: Harness,
    profile: ModelProfile,
    queue: JobQueue,
    config: ServeConfig,
    journal: Option<JobJournal>,
    completed: Mutex<CompletedMemo>,
    executions: AtomicU64,
    started: Instant,
    stop: AtomicBool,
    local_addr: OnceLock<SocketAddr>,
}

impl Server {
    /// Builds a server (harness, model profile, empty queue) from
    /// `config`. Does not bind anything yet. When
    /// [`ServeConfig::journal_dir`] is set the admission journal is
    /// opened (replaying any torn tail away); call [`Server::recover`]
    /// to re-admit the jobs a previous process left unfinished.
    #[must_use]
    pub fn new(config: ServeConfig) -> Server {
        let harness = Harness::new(config.harness.clone());
        let profile = config.profile();
        let queue = JobQueue::new(
            config.max_inflight,
            config.max_queue,
            config.harness.pipeline.resilience,
        )
        .with_global_limits(config.max_tenants, config.max_jobs);
        let journal = config.journal_dir.as_ref().and_then(|dir| {
            match JobJournal::open(dir) {
                Ok(j) => Some(j),
                Err(e) => {
                    // A broken journal degrades durability, not service.
                    eprintln!("[serve] journal disabled ({dir}): {e}");
                    None
                }
            }
        });
        Server {
            harness,
            profile,
            queue,
            config,
            journal,
            completed: Mutex::new(CompletedMemo::default()),
            executions: AtomicU64::new(0),
            started: Instant::now(),
            stop: AtomicBool::new(false),
            local_addr: OnceLock::new(),
        }
    }

    /// The admission clock: wall seconds since server start. Admission
    /// is deliberately outside the deterministic replay surface (see
    /// the [`crate::queue`] docs); job execution never reads this.
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The admission queue (exposed for tests and stats).
    #[must_use]
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// The service configuration in force.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Validates and admits one submission, emitting the `ack` or
    /// `reject` frame to `sink` so the transcript carries the verdict.
    ///
    /// Submission is idempotent on `(tenant, job)`: resubmitting a
    /// still-admitted job attaches the new sink to the running job
    /// (one execution), and resubmitting a recently *completed* job
    /// replays its memoized frames without executing again.
    ///
    /// # Errors
    ///
    /// Returns a message (sent back as an `error` frame) when the task
    /// name is not in the suite.
    pub fn submit(&self, spec: SubmitRequest, sink: FrameSink) -> Result<Admission, String> {
        self.submit_inner(spec, sink, true)
    }

    /// [`Server::submit`] with journaling switchable off — recovery
    /// re-admits jobs that are *already* journaled, and writing a
    /// second `admit` for them would double-count the identity.
    fn submit_inner(
        &self,
        spec: SubmitRequest,
        sink: FrameSink,
        journal: bool,
    ) -> Result<Admission, String> {
        let problem_index = self
            .harness
            .problems()
            .iter()
            .position(|p| p.name == spec.task)
            .ok_or_else(|| format!("unknown task {:?}", spec.task))?;
        let seed = crate::job_seed(&spec.tenant, &spec.job);
        let (tenant, job_id) = (spec.tenant.clone(), spec.job.clone());
        // Finished-job replay: serve the memoized frames (preceded by
        // the deterministic ack) without a second execution.
        {
            let memo = self
                .completed
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(frames) = memo.frames.get(&(tenant.clone(), job_id.clone())) {
                sink(&protocol::ack_frame(&tenant, &job_id, seed));
                for frame in frames {
                    sink(frame);
                }
                drop(memo);
                self.queue.note_replay(&tenant);
                return Ok(Admission::Accepted { seed });
            }
        }
        // The verdict frame is enqueued (never socket-written — the
        // sink must not block) under the queue lock, before the job
        // becomes claimable — the ack always precedes progress. The
        // journal's `admit` record lands in the same window, so a crash
        // after the ack is on its way re-admits the job on restart.
        let journal_spec = spec.clone();
        let verdict = self.queue.submit_with(
            Job {
                spec,
                problem_index,
                seed,
                admitted_at: self.now_s(),
                sink: Arc::new(Mutex::new(sink.clone())),
            },
            self.now_s(),
            |verdict| match verdict {
                Admission::Accepted { seed } => {
                    if journal {
                        if let Some(j) = &self.journal {
                            let _ = j.record_admit(&journal_spec);
                        }
                    }
                    sink(&protocol::ack_frame(&tenant, &job_id, *seed));
                }
                Admission::Attached { seed } => {
                    sink(&protocol::ack_frame(&tenant, &job_id, *seed));
                }
                Admission::Rejected {
                    reason,
                    retry_after_s,
                } => sink(&protocol::reject_frame(
                    &tenant,
                    &job_id,
                    reason,
                    *retry_after_s,
                )),
            },
        );
        Ok(verdict)
    }

    /// Re-admits every job the journal recorded as admitted but never
    /// finished — in original admission order, with a detached sink
    /// (their frames land in the completed memo; a reconnecting client
    /// resubmits the job id and replays them). Returns the number of
    /// jobs re-admitted. Jobs whose task no longer exists are marked
    /// done (they can never run); jobs the current limits reject stay
    /// journaled for the next restart.
    pub fn recover(&self) -> usize {
        let Some(journal) = &self.journal else {
            return 0;
        };
        let pending: Vec<SubmitRequest> = journal.pending().to_vec();
        let mut recovered = 0;
        for spec in pending {
            let (tenant, job) = (spec.tenant.clone(), spec.job.clone());
            let sink: FrameSink = Arc::new(|_| {});
            match self.submit_inner(spec, sink, false) {
                Ok(Admission::Accepted { .. } | Admission::Attached { .. }) => recovered += 1,
                Ok(Admission::Rejected { .. }) => {}
                Err(_) => {
                    // The task vanished from the suite: the job can
                    // never execute; purge it from future recoveries.
                    let _ = journal.record_done(&tenant, &job);
                }
            }
        }
        recovered
    }

    /// Number of pipeline executions this process has actually run —
    /// memo replays and sink re-attachments do not count. The
    /// one-execution observability for idempotence tests.
    #[must_use]
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::SeqCst)
    }

    /// Records a finished job's frames in the bounded replay memo.
    fn memoize(&self, tenant: &str, job: &str, frames: Vec<String>) {
        let mut memo = self
            .completed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let key = (tenant.to_string(), job.to_string());
        if memo.frames.insert(key.clone(), frames).is_none() {
            memo.order.push_back(key);
        }
        while memo.order.len() > self.config.max_jobs {
            if let Some(evict) = memo.order.pop_front() {
                memo.frames.remove(&evict);
            }
        }
    }

    /// Executes one claimed job and streams its frames. The journal is
    /// recorded privately and replayed to the sink only after the run
    /// completes, which is what makes the stream schedule-invariant.
    ///
    /// A job claimed past its deadline (see [`ServeConfig::deadline_s`])
    /// is not executed: it gets a terminal `expired` frame and releases
    /// its admission slot immediately instead of pinning a worker.
    pub fn execute(&self, job: &Job) {
        let spec = &job.spec;
        if self.config.deadline_s > 0.0 && self.now_s() - job.admitted_at > self.config.deadline_s {
            job.send(&protocol::expired_frame(
                &spec.tenant,
                &spec.job,
                "deadline_exceeded",
            ));
            if let Some(j) = &self.journal {
                let _ = j.record_done(&spec.tenant, &spec.job);
            }
            self.queue
                .complete(&spec.tenant, &spec.job, 0.0, false, self.now_s());
            return;
        }
        self.executions.fetch_add(1, Ordering::SeqCst);
        let recorder = Recorder::new();
        recorder.set_context(&[
            ("flow", spec.flow.label()),
            ("job", &spec.job),
            ("lang", protocol::lang_label(spec.verilog)),
            ("model", &self.profile.name),
            ("task", &spec.task),
            ("tenant", &spec.tenant),
        ]);
        let run = self.harness.run_job(
            &self.profile,
            job.problem_index,
            job.seed,
            spec.verilog,
            spec.flow,
            &recorder,
        );
        let mut frames = Vec::new();
        let mut seq = 0usize;
        for journal in recorder.runs() {
            for event in &journal.events {
                let rendered = render_event(&journal, event);
                frames.push(protocol::progress_frame(
                    &spec.tenant,
                    &spec.job,
                    seq,
                    &rendered,
                ));
                seq += 1;
            }
        }
        frames.push(protocol::result_frame(spec, job.seed, &run));
        for frame in &frames {
            job.send(frame);
        }
        self.memoize(&spec.tenant, &spec.job, frames);
        if let Some(j) = &self.journal {
            let _ = j.record_done(&spec.tenant, &spec.job);
        }
        let failed = run.record.outcome.crashed || run.record.resilience.degraded > 0;
        self.queue.complete(
            &spec.tenant,
            &spec.job,
            run.record.outcome.total_latency,
            failed,
            self.now_s(),
        );
    }

    /// One worker thread's life: claim, execute, repeat until the
    /// queue shuts down and drains.
    pub fn run_worker(&self) {
        while let Some(job) = self.queue.next() {
            self.execute(&job);
        }
    }

    /// Spawns `n` worker threads running [`Server::run_worker`].
    #[must_use]
    pub fn spawn_workers(self: &Arc<Self>, n: usize) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|i| {
                let server = Arc::clone(self);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || server.run_worker())
                    .expect("spawn worker thread")
            })
            .collect()
    }

    /// Drains the queue on the current thread until no job is runnable
    /// right now. Deterministic single-threaded execution for tests.
    pub fn drain(&self) {
        while let Some(job) = self.queue.try_next() {
            self.execute(&job);
        }
    }

    /// Initiates shutdown: pending jobs still drain, then workers exit.
    pub fn finish(&self) {
        self.queue.shutdown();
    }

    /// The bound address once [`Server::serve`] is running.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr.get().copied()
    }

    /// Flags the accept loop to stop and wakes it with a self-connect
    /// (accept has no timeout; a dummy connection is the portable way
    /// to interrupt it).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.local_addr() {
            drop(TcpStream::connect(addr));
        }
    }

    /// Runs the accept loop on `listener` until [`Server::request_stop`].
    /// Each connection gets its own thread.
    pub fn serve(self: &Arc<Self>, listener: &TcpListener) {
        if let Ok(addr) = listener.local_addr() {
            let _ = self.local_addr.set(addr);
        }
        for stream in listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let server = Arc::clone(self);
            let _ = std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || server.handle_connection(stream));
        }
    }

    /// Serves one connection: greet, then one request per line until
    /// EOF. All socket writes go through the connection's bounded
    /// [`Outbox`] writer thread — the sink shared with job sinks only
    /// *enqueues*, so neither the submission path (which emits the
    /// ack under the queue lock) nor a worker thread ever blocks on a
    /// slow client; a client that stops reading is dropped when its
    /// outbox overflows or a write times out.
    pub fn handle_connection(self: &Arc<Self>, stream: TcpStream) {
        let write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        let outbox = Outbox::spawn(
            write_half,
            self.config.outbox_cap,
            self.config.send_timeout_s,
        );
        /// Closes the outbox when the last sink clone drops (the
        /// connection handler and every in-flight job share one
        /// closure), letting the writer thread drain and exit.
        struct SinkGuard(Arc<Outbox>);
        impl Drop for SinkGuard {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let sink: FrameSink = {
            let guard = SinkGuard(Arc::clone(&outbox));
            Arc::new(move |frame: &str| {
                // A vanished client must not take a worker down: a
                // dead outbox swallows frames silently.
                guard.0.push(frame);
            })
        };
        sink(&protocol::hello_frame(
            &self.profile.name,
            self.config.max_inflight,
            self.config.max_queue,
        ));
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match protocol::parse_request(&line) {
                Err(e) => sink(&protocol::error_frame(&e)),
                Ok(Request::Ping) => sink(&protocol::pong_frame()),
                Ok(Request::Stats) => sink(&protocol::stats_frame(
                    &self.queue.stats(),
                    self.harness.cache_stats().as_ref(),
                )),
                Ok(Request::Shutdown) => {
                    sink(&protocol::bye_frame());
                    // The process exits once the accept loop notices
                    // the stop flag — make sure the `bye` actually hits
                    // the wire before that instead of racing the writer
                    // thread.
                    outbox.drain(std::time::Duration::from_secs(5));
                    self.finish();
                    self.request_stop();
                    break;
                }
                Ok(Request::Submit(spec)) => {
                    if let Err(e) = self.submit(spec, sink.clone()) {
                        sink(&protocol::error_frame(&e));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivril_bench::Flow;
    use std::sync::{Mutex, PoisonError};

    fn collect_sink() -> (FrameSink, Arc<Mutex<Vec<String>>>) {
        let frames = Arc::new(Mutex::new(Vec::new()));
        let sink_frames = Arc::clone(&frames);
        let sink: FrameSink = Arc::new(move |f: &str| {
            sink_frames
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(f.to_string());
        });
        (sink, frames)
    }

    fn small_server() -> Server {
        let (mut config, _) = ServeConfig::from_vars_checked(|_| None);
        config.harness.task_limit = 4;
        Server::new(config)
    }

    #[test]
    fn unknown_task_is_an_error_not_a_job() {
        let server = small_server();
        let (sink, frames) = collect_sink();
        let err = server
            .submit(
                SubmitRequest {
                    tenant: "acme".into(),
                    job: "j1".into(),
                    task: "prob999_warp_drive".into(),
                    verilog: true,
                    flow: Flow::Aivril2,
                },
                sink,
            )
            .unwrap_err();
        assert!(err.contains("unknown task"), "{err}");
        assert!(frames.lock().unwrap().is_empty(), "no frame for an error");
        assert_eq!(server.queue().stats().queued, 0);
    }

    #[test]
    fn submitted_job_streams_ack_progress_result() {
        let server = small_server();
        let (sink, frames) = collect_sink();
        let verdict = server
            .submit(
                SubmitRequest {
                    tenant: "acme".into(),
                    job: "j1".into(),
                    task: "prob000_and2".into(),
                    verilog: true,
                    flow: Flow::Aivril2,
                },
                sink,
            )
            .unwrap();
        assert!(matches!(verdict, Admission::Accepted { .. }));
        server.drain();
        let frames = frames.lock().unwrap();
        assert!(frames[0].contains("\"type\":\"ack\""), "{}", frames[0]);
        assert!(
            frames.len() > 2,
            "expected progress frames between ack and result: {frames:?}"
        );
        for frame in &frames[1..frames.len() - 1] {
            assert!(frame.contains("\"type\":\"progress\""), "{frame}");
        }
        let last = frames.last().unwrap();
        assert!(last.contains("\"type\":\"result\""), "{last}");
        assert!(last.contains("\"task\":\"prob000_and2\""), "{last}");
        assert_eq!(server.queue().stats().completed, 1);
    }

    #[test]
    fn replayed_job_is_byte_identical() {
        let server = small_server();
        let run_once = || {
            let (sink, frames) = collect_sink();
            server
                .submit(
                    SubmitRequest {
                        tenant: "acme".into(),
                        job: "replay-me".into(),
                        task: "prob002_xor2".into(),
                        verilog: true,
                        flow: Flow::Aivril2,
                    },
                    sink,
                )
                .unwrap();
            server.drain();
            let g = frames.lock().unwrap();
            g.clone()
        };
        let first = run_once();
        let second = run_once();
        assert_eq!(first, second, "replay must be byte-identical");
        // The second transcript came from the completed-job memo, not a
        // second pipeline run.
        assert_eq!(server.executions(), 1, "one execution serves both");
        assert_eq!(server.queue().stats().completed, 2);
    }

    #[test]
    fn expired_jobs_are_cancelled_not_executed() {
        let (mut config, _) = ServeConfig::from_vars_checked(|_| None);
        config.harness.task_limit = 4;
        config.deadline_s = 1e-9;
        let server = Server::new(config);
        let (sink, frames) = collect_sink();
        server
            .submit(
                SubmitRequest {
                    tenant: "acme".into(),
                    job: "stale".into(),
                    task: "prob000_and2".into(),
                    verilog: true,
                    flow: Flow::Aivril2,
                },
                sink,
            )
            .unwrap();
        // Any real delay exceeds a nanosecond deadline by claim time.
        std::thread::sleep(std::time::Duration::from_millis(2));
        server.drain();
        let frames = frames.lock().unwrap();
        assert_eq!(frames.len(), 2, "{frames:?}");
        assert!(frames[0].contains("\"type\":\"ack\""), "{}", frames[0]);
        assert!(frames[1].contains("\"type\":\"expired\""), "{}", frames[1]);
        assert!(frames[1].contains("deadline_exceeded"), "{}", frames[1]);
        assert_eq!(server.executions(), 0, "the pipeline never ran");
        let stats = server.queue().stats();
        assert_eq!((stats.completed, stats.inflight, stats.queued), (1, 0, 0));
    }

    #[test]
    fn journaled_jobs_survive_a_crash_and_replay_identically() {
        let dir = std::env::temp_dir().join(format!("aivril-serve-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = || SubmitRequest {
            tenant: "acme".into(),
            job: "interrupted".into(),
            task: "prob001_or2".into(),
            verilog: true,
            flow: Flow::Aivril2,
        };
        let journal_config = || {
            let (mut config, _) = ServeConfig::from_vars_checked(|_| None);
            config.harness.task_limit = 4;
            config.journal_dir = Some(dir.display().to_string());
            config
        };
        // The uninterrupted baseline (no journal involved).
        let baseline = {
            let server = small_server();
            let (sink, frames) = collect_sink();
            server.submit(spec(), sink).unwrap();
            server.drain();
            let g = frames.lock().unwrap();
            g.clone()
        };
        // "Crash": the job is admitted (journaled) but the server goes
        // away before any worker claims it.
        {
            let server = Server::new(journal_config());
            let (sink, _frames) = collect_sink();
            server.submit(spec(), sink).unwrap();
            assert_eq!(server.executions(), 0, "nothing drained yet");
        }
        // Restart over the same journal dir: recovery re-admits and the
        // job completes; the reconnecting client resubmits the id and
        // gets the full transcript byte-identically.
        let server = Server::new(journal_config());
        assert_eq!(server.recover(), 1, "one unfinished job re-admitted");
        server.drain();
        assert_eq!(server.executions(), 1);
        let (sink, frames) = collect_sink();
        server.submit(spec(), sink).unwrap();
        let replayed = frames.lock().unwrap().clone();
        assert_eq!(replayed, baseline, "recovered run is byte-identical");
        // The journal is balanced: a third process recovers nothing.
        drop(server);
        let server = Server::new(journal_config());
        assert_eq!(server.recover(), 0, "done record closed the job");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
