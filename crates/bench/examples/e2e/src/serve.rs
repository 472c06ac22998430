//! The serve workloads: an open-loop load generator against a fresh
//! `aivril-serve` child, one connection driven by two threads (a sender
//! keeping the schedule and a reader classifying frames).
//!
//! Latency runs from each job's *scheduled* send time to its `result`
//! frame, so a stalled sender or server delays every later job's
//! number instead of hiding the stall.

use crate::stats::{self, RunReport, WorkDir};
use crate::trace::{self, CellSpec, Composition};
use aivril_bench::{Flow, Harness};
use aivril_metrics::SampleOutcome;
use aivril_obs::{codec, json, Recorder};
use aivril_serve::protocol::{render_request, Request, SubmitRequest};
use aivril_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Server worker threads (sized for a two-core machine).
const WORKERS: usize = 2;
/// Per-tenant queue bound; the default (8) rejects ordinary bursts.
const MAX_QUEUE: usize = 64;
/// Tenants submitting round-robin.
const TENANTS: usize = 3;
/// Warm-up before the timed phase (excluded from every metric).
const WARMUP_S: f64 = 2.0;
const WARMUP_RATE: f64 = 200.0;
/// Jobs re-run in process against `Harness::run_job`.
const SEEDED_CHECKS: usize = 20;
/// Jobs resubmitted to check byte-identical replay.
const RESUBMITS: usize = 5;
/// Jobs replayed in process by the traced run.
const REPLAY_CAP: usize = 1500;
/// Bisection of the highest sustainable rate (`serve_load`, traced).
const BISECT_RANGE: (f64, f64) = (300.0, 1500.0);
const BISECT_PROBES: usize = 5;
const PROBE_S: f64 = 3.0;
const PROBE_DRAIN_S: f64 = 1.0;
const P99_LIMIT_MS: f64 = 100.0;
/// Longest wait for outstanding results before a phase gives up.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// A serve workload: the timed phase's arrival rate, and whether the
/// traced run bisects for the highest sustainable rate.
pub struct Shape {
    name: &'static str,
    rate: f64,
    bisect: bool,
}

/// An idle server: per-frame delivery, not execution, sets latency.
pub const TRICKLE: Shape = Shape {
    name: "serve_trickle",
    rate: 50.0,
    bisect: false,
};

/// Six times the trickle rate: execution and the shared EDA cache carry
/// the load, and the traced run bisects for the sustainable rate.
pub const LOAD: Shape = Shape {
    name: "serve_load",
    rate: 300.0,
    bisect: true,
};

/// The `--serve-child` mode: `aivril-serve`'s `main`, verbatim in
/// behaviour, so the benchmark needs no second binary.
pub fn serve_child() -> ExitCode {
    let config = ServeConfig::from_env();
    let listener = match TcpListener::bind(&config.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[serve] cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let workers = config.effective_workers();
    let server = Arc::new(Server::new(config));
    let recovered = server.recover();
    if recovered > 0 {
        println!("[serve] recovered {recovered} journaled job(s)");
    }
    let handles = server.spawn_workers(workers);
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("[serve] listening on {addr} ({workers} workers)");
    let _ = std::io::stdout().flush();
    server.serve(&listener);
    server.finish();
    for h in handles {
        let _ = h.join();
    }
    let stats = server.queue().stats();
    println!(
        "[serve] done: {} completed, {} rejected",
        stats.completed, stats.rejected
    );
    ExitCode::SUCCESS
}

/// The harness configuration the server child runs with (service
/// defaults: memory cache and incremental memos on).
fn served_config() -> ServeConfig {
    ServeConfig::from_vars_checked(|key| match key {
        "AIVRIL_SERVE_WORKERS" => Some(WORKERS.to_string()),
        "AIVRIL_SERVE_MAX_QUEUE" => Some(MAX_QUEUE.to_string()),
        _ => None,
    })
    .0
}

/// A running server child.
struct ServerProc {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns the server and waits for its `listening on` line,
    /// returning it with the seconds that took.
    fn spawn() -> Result<(ServerProc, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--serve-child");
        for (key, _) in std::env::vars() {
            if key.starts_with("AIVRIL_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("AIVRIL_SERVE_ADDR", "127.0.0.1:0")
            .env("AIVRIL_SERVE_WORKERS", WORKERS.to_string())
            .env("AIVRIL_SERVE_MAX_QUEUE", MAX_QUEUE.to_string())
            .stdout(Stdio::piped());
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                let setup = stats::secs(start);
                let addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                return Ok((
                    ServerProc {
                        child,
                        addr,
                        _stdout: stdout,
                    },
                    setup,
                ));
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown`, then waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = connect(&self.addr).and_then(|stream| {
            let mut w = stream.try_clone().map_err(|e| e.to_string())?;
            writeln!(w, "{}", render_request(&Request::Shutdown)).map_err(|e| e.to_string())?;
            let bye = BufReader::new(stream)
                .lines()
                .map_while(Result::ok)
                .any(|l| l.starts_with("{\"type\":\"bye\""));
            if bye {
                Ok(())
            } else {
                Err("no bye frame".to_string())
            }
        });
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (sent, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (sent, _) => Err(format!("server shutdown: {sent:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not exit after shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Stops a child left running on an error path; after a clean
        // shutdown the child is reaped and both calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    // Submits are small writes; without this the client's own Nagle
    // delay would be measured as server latency.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One submitted job as the generator drew it.
#[derive(Debug, Clone)]
struct JobSpec {
    tenant: String,
    job: String,
    problem: usize,
    verilog: bool,
}

impl JobSpec {
    fn request(&self, task: &str) -> String {
        let req = Request::Submit(SubmitRequest {
            tenant: self.tenant.clone(),
            job: self.job.clone(),
            task: task.to_string(),
            verilog: self.verilog,
            flow: Flow::Aivril2,
        });
        format!("{}\n", render_request(&req))
    }
}

/// What the reader saw of one job.
#[derive(Debug, Clone)]
struct JobRec {
    due: Instant,
    ack: Option<Instant>,
    progress: Option<Instant>,
    result: Option<Instant>,
    terminals: u32,
    frames: u32,
    bytes: u64,
    seed: Option<u64>,
    reject: Option<String>,
    syntax: bool,
    functional: bool,
    rtl_fnv: String,
    transcript: Option<Vec<String>>,
}

impl JobRec {
    /// Exactly one terminal frame, and it was a `result`.
    fn completed(&self) -> bool {
        self.terminals == 1 && self.result.is_some()
    }

    /// The served verdicts and RTL hash equal `outcome` and `rtl_fnv`.
    fn matches(&self, outcome: &SampleOutcome, rtl_fnv: u64) -> bool {
        self.syntax == outcome.syntax
            && self.functional == outcome.functional
            && self.rtl_fnv == format!("0x{rtl_fnv:016x}")
    }
}

/// The reader's ledger, shared with the sender.
#[derive(Default)]
struct Book {
    jobs: Vec<JobRec>,
    unparseable: u64,
    errors: u64,
    eof: bool,
}

fn lock(book: &Mutex<Book>) -> MutexGuard<'_, Book> {
    book.lock()
        .expect("reader thread panicked holding the ledger")
}

/// What one frame says, read from its fixed field order without a JSON
/// parse: the workspace parser is quadratic in string length, and a
/// `result` frame carries the whole RTL (occasionally hundreds of KB),
/// so parsing them in full would make the client the bottleneck.
enum Frame {
    Ack {
        job: usize,
        seed: Option<u64>,
    },
    Progress {
        job: usize,
    },
    Result {
        job: usize,
        syntax: bool,
        functional: bool,
        rtl_fnv: String,
    },
    Reject {
        job: usize,
        reason: String,
    },
    /// `hello`, `pong`, `bye`.
    Other,
    Error,
    Unparseable,
}

/// The raw text of field `key` (up to the next `,` or `}`), with the
/// quotes of a string value stripped. Field order is fixed and every
/// field this reads precedes the free-text `rtl`/`tb` strings.
fn field<'l>(line: &'l str, key: &str) -> Option<&'l str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    match rest.strip_prefix('"') {
        Some(s) => s.get(..s.find('"')?),
        None => rest.get(..rest.find([',', '}'])?),
    }
}

/// The job index of a job frame: its `"job"` field is `<seed>-<index>`.
fn frame_job(line: &str) -> Option<usize> {
    field(line, "job")?.rsplit('-').next()?.parse().ok()
}

fn classify(line: &str) -> Frame {
    let Some(rest) = line.strip_prefix("{\"type\":\"") else {
        return Frame::Unparseable;
    };
    let typ = rest.get(..rest.find('"').unwrap_or(0)).unwrap_or_default();
    let job = || frame_job(line);
    let frame = match typ {
        "hello" | "pong" | "bye" => Some(Frame::Other),
        "error" => Some(Frame::Error),
        "ack" => job().map(|job| Frame::Ack {
            job,
            seed: field(line, "seed")
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok()),
        }),
        "progress" => job().map(|job| Frame::Progress { job }),
        "result" => (|| {
            Some(Frame::Result {
                job: job()?,
                syntax: field(line, "syntax")?.parse().ok()?,
                functional: field(line, "functional")?.parse().ok()?,
                rtl_fnv: field(line, "rtl_fnv")?.to_string(),
            })
        })(),
        "reject" | "expired" => job().map(|job| Frame::Reject {
            job,
            reason: field(line, "reason").unwrap_or(typ).to_string(),
        }),
        _ => None,
    };
    // A frame the server wrote whole ends its object on this line.
    match frame {
        Some(f) if line.ends_with('}') => f,
        _ => Frame::Unparseable,
    }
}

impl Book {
    fn apply(&mut self, frame: Frame, line: &str, now: Instant) {
        let job = match &frame {
            Frame::Other => return,
            Frame::Error => {
                self.errors += 1;
                return;
            }
            Frame::Unparseable => {
                self.unparseable += 1;
                return;
            }
            Frame::Ack { job, .. }
            | Frame::Progress { job }
            | Frame::Result { job, .. }
            | Frame::Reject { job, .. } => *job,
        };
        let Some(rec) = self.jobs.get_mut(job) else {
            self.unparseable += 1;
            return;
        };
        rec.frames += 1;
        rec.bytes += line.len() as u64 + 1;
        if let Some(t) = &mut rec.transcript {
            t.push(line.to_string());
        }
        match frame {
            Frame::Ack { seed, .. } => {
                rec.ack.get_or_insert(now);
                rec.seed = seed;
            }
            Frame::Progress { .. } => {
                rec.progress.get_or_insert(now);
            }
            Frame::Result {
                syntax,
                functional,
                rtl_fnv,
                ..
            } => {
                rec.terminals += 1;
                rec.result = Some(now);
                rec.syntax = syntax;
                rec.functional = functional;
                rec.rtl_fnv = rtl_fnv;
            }
            Frame::Reject { reason, .. } => {
                rec.terminals += 1;
                rec.reject = Some(reason);
            }
            Frame::Other | Frame::Error | Frame::Unparseable => {}
        }
    }
}

/// The load generator: one connection, a sender (the caller's thread)
/// and a reader thread.
struct LoadGen {
    stream: TcpStream,
    book: Arc<Mutex<Book>>,
    reader: Option<std::thread::JoinHandle<()>>,
    prefix: u64,
    rng: StdRng,
    tasks: Vec<String>,
    /// The rest of the current deck of `(problem, verilog)` pairs.
    deck: Vec<(usize, bool)>,
    specs: Vec<JobSpec>,
    keep: HashSet<usize>,
    send_failed: bool,
}

impl LoadGen {
    fn connect(addr: &str, seed: u64, tasks: Vec<String>) -> Result<LoadGen, String> {
        let stream = connect(addr)?;
        let book = Arc::new(Mutex::new(Book::default()));
        let mut lines = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let shared = Arc::clone(&book);
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(n) if n > 0 => {
                        let now = Instant::now();
                        let line = line.trim_end();
                        let frame = classify(line);
                        lock(&shared).apply(frame, line, now);
                    }
                    _ => break,
                }
            }
            lock(&shared).eof = true;
        });
        Ok(LoadGen {
            stream,
            book,
            reader: Some(reader),
            prefix: seed,
            rng: StdRng::seed_from_u64(seed),
            tasks,
            deck: Vec::new(),
            specs: Vec::new(),
            keep: HashSet::new(),
            send_failed: false,
        })
    }

    /// The next job's problem and language. Jobs are dealt from
    /// seed-shuffled decks holding every `(problem, language)` pair once:
    /// each draw is uniform, and every deck's worth of jobs covers the
    /// suite, so runs differ in order and model seeds, not in how many
    /// heavy problems they happen to draw.
    fn deal(&mut self) -> (usize, bool) {
        if self.deck.is_empty() {
            self.deck = (0..self.tasks.len())
                .flat_map(|p| [(p, true), (p, false)])
                .collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("the deck was just refilled")
    }

    /// Sends `rate × seconds` jobs on an open-loop schedule, returning
    /// their index range and how late each send was (ms).
    fn send_phase(&mut self, rate: f64, seconds: f64) -> (std::ops::Range<usize>, Vec<f64>) {
        let n = (rate * seconds).round() as usize;
        let first = self.specs.len();
        let start = Instant::now();
        let mut late = Vec::with_capacity(n);
        for k in 0..n {
            let i = self.specs.len();
            let (problem, verilog) = self.deal();
            let spec = JobSpec {
                tenant: format!("t{}", i % TENANTS),
                job: format!("{}-{i}", self.prefix),
                problem,
                verilog,
            };
            let line = spec.request(&self.tasks[spec.problem]);
            self.specs.push(spec);
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            lock(&self.book).jobs.push(JobRec {
                due,
                ack: None,
                progress: None,
                result: None,
                terminals: 0,
                frames: 0,
                bytes: 0,
                seed: None,
                reject: None,
                syntax: false,
                functional: false,
                rtl_fnv: String::new(),
                transcript: self.keep.contains(&i).then(Vec::new),
            });
            if self.send_failed {
                continue; // the connection is gone; the job counts as lost
            }
            stats::sleep_until(due);
            late.push(stats::ms(Instant::now() - due));
            if self.stream.write_all(line.as_bytes()).is_err() {
                self.send_failed = true;
            }
        }
        (first..first + n, late)
    }

    /// Waits until every job in `range` has a terminal frame (or the
    /// connection closed, or `timeout` passed).
    fn wait_terminal(&self, range: std::ops::Range<usize>, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            let book = lock(&self.book);
            if book.eof || book.jobs[range.clone()].iter().all(|j| j.terminals > 0) {
                return;
            }
            drop(book);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Closes the connection and joins the reader.
    fn close(mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

/// Polls `stats` frames at 10 Hz on its own connection (traced runs):
/// the deepest queue seen and the last EDA-cache counters.
struct StatsPoller {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(u64, Option<(u64, u64)>)>,
}

impl StatsPoller {
    fn start(addr: &str) -> Result<StatsPoller, String> {
        let stream = connect(addr)?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut lines = BufReader::new(stream).lines();
            let (mut depth, mut cache) = (0u64, None);
            let request = format!("{}\n", render_request(&Request::Stats));
            while !flag.load(Ordering::Relaxed) {
                if writer.write_all(request.as_bytes()).is_err() {
                    break;
                }
                let frame = lines
                    .by_ref()
                    .map_while(Result::ok)
                    .find(|l| l.starts_with("{\"type\":\"stats\""));
                let Some(v) = frame.as_deref().and_then(json::parse) else {
                    break;
                };
                let count = |key: &str| v.get(key).and_then(json::Value::num).unwrap_or(0.0) as u64;
                depth = depth.max(count("queued") + count("inflight"));
                if let Some(c) = v.get("eda_cache") {
                    let n = |key: &str| c.get(key).and_then(json::Value::num).unwrap_or(0.0) as u64;
                    cache = Some((n("hits"), n("misses")));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            (depth, cache)
        });
        Ok(StatsPoller { stop, handle })
    }

    fn finish(self) -> (u64, Option<(u64, u64)>) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or((0, None))
    }
}

/// Runs a serve workload and reports its metrics.
pub fn run(shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Result<RunReport, String> {
    let mut report = RunReport {
        correct: true,
        ..RunReport::default()
    };
    // Set-ups are timed before and after the run, so slow drifts in
    // machine speed reach both halves of the sample alike.
    let mut setups = time_setups(stats::SETUPS / 2)?;
    let (server, setup) = ServerProc::spawn()?;
    setups.push(setup);

    let config = served_config();
    let harness = Harness::new(config.harness.clone());
    let tasks: Vec<String> = harness.problems().iter().map(|p| p.name.clone()).collect();
    let mut gen = LoadGen::connect(&server.addr, seed, tasks)?;
    let poller = traced
        .then(|| StatsPoller::start(&server.addr))
        .transpose()?;

    // Warm-up, drained before the timed phase starts from an idle server.
    let (warm, _) = gen.send_phase(WARMUP_RATE, WARMUP_S);
    gen.wait_terminal(warm.clone(), DRAIN_TIMEOUT);
    // Keep transcripts of a few late timed jobs for the resubmit check
    // (late, so they are still in the server's replay memo).
    let n_timed = (shape.rate * seconds).round() as usize;
    let stride = (n_timed / 20).max(1);
    gen.keep = (0..RESUBMITS)
        .map(|k| warm.end + n_timed.saturating_sub(1 + k * stride))
        .collect();
    let timed_start = Instant::now();
    let (timed, late) = gen.send_phase(shape.rate, seconds);
    gen.wait_terminal(timed.clone(), DRAIN_TIMEOUT);
    let rss = stats::peak_rss_mb(Some(server.pid()));

    let jobs: Vec<JobRec> = {
        let book = lock(&gen.book);
        let summary = summarize(&book, timed.clone(), timed_start);
        report.attempted = timed.len() as u64;
        report.failed = summary.failed + book.unparseable + book.errors;
        if book.unparseable + book.errors > 0 {
            report.fail_check(format!(
                "{} unparseable and {} error frame(s)",
                book.unparseable, book.errors
            ));
        }
        if summary.duplicates > 0 {
            report.fail_check(format!(
                "{} job(s) got more than one terminal frame",
                summary.duplicates
            ));
        }
        report.metric("ops_per_s", summary.ops_per_s);
        report.metric("p50_ms", stats::percentile(&summary.latency_ms, 0.5));
        report.metric("p99_ms", stats::percentile(&summary.latency_ms, 0.99));
        report.metric("peak_rss_mb", rss);
        summary.extras(&mut report);
        report.extra("gen.late_ms_p99", stats::percentile(&late, 0.99), "ms");
        report.extra("serve.condemned", f64::from(u8::from(book.eof)), "count");
        book.jobs.clone()
    };
    let specs = gen.specs.clone();

    // Seeded re-execution: the served result equals `Harness::run_job`
    // with the ack's seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let completed: Vec<usize> = timed.clone().filter(|&i| jobs[i].completed()).collect();
    let profile = config.profile();
    let mut mismatched = 0u64;
    for _ in 0..SEEDED_CHECKS.min(completed.len()) {
        let i = completed[rng.gen_range(0..completed.len())];
        let (job, spec) = (&jobs[i], &specs[i]);
        let run = job.seed.map(|seed| {
            harness.run_job(
                &profile,
                spec.problem,
                seed,
                spec.verilog,
                Flow::Aivril2,
                &Recorder::disabled(),
            )
        });
        if !run
            .is_some_and(|run| job.matches(&run.record.outcome, codec::fnv64(run.rtl.as_bytes())))
        {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        report.failed += mismatched;
        report.fail_check(format!(
            "{mismatched} served result(s) differ from Harness::run_job"
        ));
    }

    // Resubmitted jobs must replay byte-identical frames.
    let originals: Vec<(usize, Vec<String>)> = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, j)| Some((i, j.transcript.clone()?)))
        .collect();
    let differing = resubmit(&server.addr, &specs, &gen.tasks, &originals)?;
    if differing > 0 {
        report.failed += differing;
        report.fail_check(format!(
            "{differing} resubmitted job(s) replayed different frames"
        ));
    }
    if report.correct {
        report.note(format!(
            "every timed job got one terminal frame; {} seeded results equal Harness::run_job; \
             {} resubmitted jobs replayed byte-identical frames",
            SEEDED_CHECKS.min(completed.len()),
            originals.len()
        ));
    }

    if traced {
        if shape.bisect {
            let (rate, probes) = bisect(&mut gen, shape.rate, &report);
            report.extra("max_rate_ops_s", rate, "1/s");
            report.note(format!("bisection probes (jobs/s, passed): {probes:?}"));
        }
        if let Some(poller) = poller {
            let (depth, cache) = poller.finish();
            report.extra("serve.queue_depth_max", depth as f64, "count");
            if let Some((hits, misses)) = cache {
                report.extra(
                    "serve.eda_cache.hit_ratio",
                    hits as f64 / (hits + misses).max(1) as f64,
                    "ratio",
                );
            }
        }
    }
    server.shutdown()?;
    gen.close();
    setups.extend(time_setups(stats::SETUPS - setups.len())?);
    report.metric("setup_s", stats::median(&setups));

    if traced {
        let served: Vec<(&JobSpec, &JobRec)> = specs
            .iter()
            .zip(&jobs)
            .take(REPLAY_CAP.min(timed.end))
            .filter(|(_, j)| j.completed())
            .collect();
        replay_layers(&mut report, shape.name, &config, &served)?;
    }
    Ok(report)
}

/// Times `n` server set-ups (spawn until `listening on`), shutting each
/// server down again.
fn time_setups(n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let (server, setup) = ServerProc::spawn()?;
            server.shutdown()?;
            Ok(setup)
        })
        .collect()
}

/// Timed-phase numbers computed from the ledger.
struct Summary {
    latency_ms: Vec<f64>,
    ops_per_s: f64,
    failed: u64,
    duplicates: u64,
    rejects: Vec<(String, u64)>,
    admit_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    deliver_ms: Vec<f64>,
    frames: u64,
    bytes: u64,
}

fn summarize(book: &Book, range: std::ops::Range<usize>, start: Instant) -> Summary {
    let jobs = &book.jobs[range];
    let mut s = Summary {
        latency_ms: Vec::new(),
        ops_per_s: 0.0,
        failed: 0,
        duplicates: 0,
        rejects: Vec::new(),
        admit_ms: Vec::new(),
        exec_ms: Vec::new(),
        deliver_ms: Vec::new(),
        frames: 0,
        bytes: 0,
    };
    let mut last = start;
    for j in jobs {
        s.frames += u64::from(j.frames);
        s.bytes += j.bytes;
        s.duplicates += u64::from(j.terminals > 1);
        if let Some(reason) = &j.reject {
            match s.rejects.iter_mut().find(|(r, _)| r == reason) {
                Some((_, n)) => *n += 1,
                None => s.rejects.push((reason.clone(), 1)),
            }
        }
        if !j.completed() {
            s.failed += 1;
            continue;
        }
        let result = j.result.expect("completed jobs have a result");
        last = last.max(result);
        s.latency_ms.push(stats::ms(result - j.due));
        if let (Some(ack), Some(progress)) = (j.ack, j.progress) {
            s.admit_ms
                .push(stats::ms(ack.saturating_duration_since(j.due)));
            s.exec_ms
                .push(stats::ms(progress.saturating_duration_since(ack)));
            s.deliver_ms
                .push(stats::ms(result.saturating_duration_since(progress)));
        }
    }
    let elapsed = (last - start).as_secs_f64();
    s.ops_per_s = s.latency_ms.len() as f64 / elapsed.max(1e-9);
    s
}

impl Summary {
    /// The client-side layer split and delivery counts.
    fn extras(&self, report: &mut RunReport) {
        let done = self.latency_ms.len().max(1) as f64;
        report.extra("serve.admit_ms", stats::median(&self.admit_ms), "ms");
        report.extra("serve.exec_ms", stats::median(&self.exec_ms), "ms");
        report.extra("serve.deliver_ms", stats::median(&self.deliver_ms), "ms");
        report.extra("serve.frames_per_job", self.frames as f64 / done, "count");
        report.extra("serve.bytes_per_job", self.bytes as f64 / done, "B");
        report.extra("serve.completed", self.latency_ms.len() as f64, "count");
        for (reason, n) in &self.rejects {
            report.extra(&format!("serve.rejects.{reason}"), *n as f64, "count");
        }
    }
}

/// Resubmits the kept jobs on a fresh connection and counts those whose
/// frames differ from the original transcript.
fn resubmit(
    addr: &str,
    specs: &[JobSpec],
    tasks: &[String],
    originals: &[(usize, Vec<String>)],
) -> Result<u64, String> {
    let stream = connect(addr)?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    for (i, _) in originals {
        let spec = &specs[*i];
        writer
            .write_all(spec.request(&tasks[spec.problem]).as_bytes())
            .map_err(|e| e.to_string())?;
    }
    let mut replayed: Vec<Vec<String>> = vec![Vec::new(); originals.len()];
    let mut open = originals.len();
    let mut lines = BufReader::new(stream).lines();
    while open > 0 {
        let Some(Ok(line)) = lines.next() else { break };
        let Some(index) = frame_job(&line) else {
            continue;
        };
        let Some(k) = originals.iter().position(|(i, _)| *i == index) else {
            continue;
        };
        let terminal = ["result", "reject", "expired"]
            .iter()
            .any(|t| line.starts_with(&format!("{{\"type\":\"{t}\"")));
        replayed[k].push(line);
        open -= usize::from(terminal);
    }
    Ok(originals
        .iter()
        .zip(&replayed)
        .filter(|((_, original), again)| original != *again)
        .count() as u64)
}

/// Bisects the highest rate in [`BISECT_RANGE`] at which p99 stays
/// within [`P99_LIMIT_MS`] and ≥ 99% of offered jobs finish within the
/// probe plus [`PROBE_DRAIN_S`]. The timed phase counts as the probe at
/// its own rate.
fn bisect(gen: &mut LoadGen, timed_rate: f64, report: &RunReport) -> (f64, Vec<(f64, bool)>) {
    let timed_ok = report
        .metrics
        .iter()
        .any(|m| m.name == "p99_ms" && m.value <= P99_LIMIT_MS)
        && report.failed * 100 <= report.attempted;
    let mut probes = vec![(timed_rate, timed_ok)];
    let (mut lo, mut hi) = BISECT_RANGE;
    let mut best = if timed_ok { timed_rate } else { 0.0 };
    for _ in 0..BISECT_PROBES {
        let rate = ((lo + hi) / 2.0).round();
        let (range, _) = gen.send_phase(rate, PROBE_S);
        std::thread::sleep(Duration::from_secs_f64(PROBE_DRAIN_S));
        let ok = {
            let book = lock(&gen.book);
            let jobs = &book.jobs[range.clone()];
            let lat: Vec<f64> = jobs
                .iter()
                .filter(|j| j.completed())
                .map(|j| stats::ms(j.result.expect("completed") - j.due))
                .collect();
            !book.eof
                && lat.len() * 100 >= jobs.len() * 99
                && stats::percentile(&lat, 0.99) <= P99_LIMIT_MS
        };
        probes.push((rate, ok));
        if ok {
            lo = rate;
            best = best.max(rate);
        } else {
            hi = rate;
        }
        gen.wait_terminal(range, DRAIN_TIMEOUT);
        if lock(&gen.book).eof {
            break;
        }
    }
    (best, probes)
}

/// Per-layer numbers for the served job mix: the jobs run again,
/// traced in this process, and untraced through `Harness::run_job`
/// (what the server executes) in a fresh child, both on the server's
/// worker count and cache configuration.
fn replay_layers(
    report: &mut RunReport,
    name: &str,
    config: &ServeConfig,
    served: &[(&JobSpec, &JobRec)],
) -> Result<(), String> {
    let profile = config.profile();
    let composition = Composition::new(&config.harness);
    let cells: Vec<CellSpec<'_>> = served
        .iter()
        .map(|(spec, job)| CellSpec {
            profile: &profile,
            problem: spec.problem,
            seed: job.seed.expect("completed jobs carry an ack seed"),
            verilog: spec.verilog,
            flow: Flow::Aivril2,
            capture: true,
        })
        .collect();
    let traced = composition.run(&cells, WORKERS, true);

    let work = WorkDir::create().map_err(|e| format!("cannot create work dir: {e}"))?;
    let list = work.sub("jobs.txt");
    let text: String = cells
        .iter()
        .map(|c| format!("{} {} {}\n", c.problem, c.seed, u8::from(c.verilog)))
        .collect();
    std::fs::write(&list, text).map_err(|e| format!("cannot write {}: {e}", list.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .arg("--replay-jobs")
        .arg(&list)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn replay: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (untraced_s, untraced_digest) = stdout
        .lines()
        .find_map(|l| {
            let mut f = l.strip_prefix("replay ")?.split(' ');
            Some((
                f.next()?.parse::<f64>().ok()?,
                f.next()?.parse::<u64>().ok()?,
            ))
        })
        .ok_or_else(|| format!("replay failed ({}): {stdout}", out.status))?;

    let differing = traced
        .outcomes
        .iter()
        .zip(served)
        .filter(|(t, (_, job))| !job.matches(&t.outcome, t.rtl_fnv))
        .count() as u64;
    let same = trace::digest(traced.outcomes.iter().map(|c| &c.outcome)) == untraced_digest;
    report.attempted += served.len() as u64;
    report.failed += differing;
    if differing > 0 || !same {
        report.failed += u64::from(!same) * served.len() as u64;
        report.fail_check(format!(
            "{differing} replayed job(s) differ from the served results; \
             traced outcomes equal Harness::run_job: {same}"
        ));
    } else {
        report.note(format!(
            "{} replayed jobs: traced outcomes equal Harness::run_job and the served results",
            served.len()
        ));
    }

    let attribution = traced.attribute();
    traced.report_layers(report, &attribution);
    composition.report_caches(report);
    report.metric("verilogeval.suite_s", trace::suite_seconds());
    report.metric("trace.overhead", traced.wall_s / untraced_s - 1.0);
    report.extra("untraced_wall_s", untraced_s, "s");
    report.extra("traced_wall_s", traced.wall_s, "s");
    report.note(trace::write_folded(name, &traced.folded(&attribution)));
    Ok(())
}

/// The `--replay-jobs` child: runs the listed jobs (`problem seed
/// verilog` per line) through `Harness::run_job` on the server's
/// worker count and configuration, then prints `replay <wall_s>
/// <outcome_digest>`.
pub fn replay_child(list: &std::path::Path) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(list) else {
        eprintln!("[e2e] cannot read {}", list.display());
        return ExitCode::FAILURE;
    };
    let jobs: Vec<(usize, u64, bool)> = text
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            Some((
                f.next()?.parse().ok()?,
                f.next()?.parse().ok()?,
                f.next()? == "1",
            ))
        })
        .collect();
    let config = served_config();
    let profile = config.profile();
    let harness = Harness::new(config.harness);
    let _ = harness.library();
    let slots: Vec<OnceLock<SampleOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(problem, seed, verilog)) = jobs.get(i) else {
                    break;
                };
                let run = harness.run_job(
                    &profile,
                    problem,
                    seed,
                    verilog,
                    Flow::Aivril2,
                    &Recorder::disabled(),
                );
                let _ = slots[i].set(run.record.outcome);
            });
        }
    });
    let wall_s = stats::secs(start);
    let outcomes: Vec<SampleOutcome> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job ran"))
        .collect();
    println!("replay {wall_s} {}", trace::digest(&outcomes));
    ExitCode::SUCCESS
}
