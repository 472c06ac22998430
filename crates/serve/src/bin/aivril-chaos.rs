//! `aivril-chaos` — invariant-checking soak harness for the chaos
//! plane.
//!
//! Composes every deterministic fault injector the workspace has —
//! LLM backend faults (`AIVRIL_FAULTS`), EDA tool/disk/checkpoint
//! faults (`AIVRIL_EDA_FAULTS`), and a kill-and-restart of a live
//! `aivril-serve` child over its job journal — and checks the
//! system-wide invariants *mechanically* instead of eyeballing logs:
//!
//! 1. **Thread invariance under faults** — a quicklook-shaped grid
//!    with LLM + EDA faults on is byte-identical across worker
//!    counts (canonical JSON compare, 1 vs 2 threads).
//! 2. **Disk chaos is invisible** — the same grid through a
//!    fault-injected persistent cache tier equals the cache-free run
//!    byte-for-byte (disk faults degrade caching, never results). The
//!    plan leaves torn packs (writers killed mid-append); a faults-off
//!    rerun over the same directory equals the cache-free run too,
//!    serves no damaged or torn record, and appends to no torn pack.
//! 3. **Checkpoint resume equality** — a run that checkpoints under
//!    torn-tail/checksum-flip faults, and a resume over that same
//!    directory, both equal the checkpoint-free baseline.
//! 4. **Counter consistency** — under a crash-only plan the emitted
//!    resilience counters obey the arithmetic the injector implies:
//!    `injected == retries + exhausted` and
//!    `retries == retry_max * exhausted`.
//! 5. **Crash-safe serve** — an `aivril-serve` child (faults on) is
//!    SIGKILLed with an admitted-but-unfinished job, restarted over
//!    the same journal directory, and every job's replayed frame
//!    stream must be byte-identical to an uninterrupted server's.
//!
//! ```text
//! aivril-chaos [--seed N] [--tasks N] [--report PATH]
//! ```
//!
//! `--seed` drives the deterministic kill schedule (which admitted
//! job the server dies on), `--tasks` scales the grid legs, and
//! `--report` writes the per-check verdict lines to a file for CI
//! artifacts. Exit status is 0 iff every check passed.

use aivril_bench::{arg_value, results_json, Flow, Harness, HarnessConfig, ResultSection};
use aivril_eda::EdaFaultPlan;
use aivril_llm::{profiles, FaultConfig};
use aivril_obs::{MetricValue, MetricsRegistry, Recorder};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The composed tool-plane plan for the grid legs: every fault class
/// at a rate high enough to fire many times over a small grid.
const TOOL_PLAN: &str = "crash=0.25,hang=0.1,garbled=0.2,truncate=0.15,\
                         spurious_exit=0.2,retry_max=2,watchdog_s=30";

/// Disk-tier chaos for the cache leg. The store classes sum past 1, so
/// every record the faulted run writes is cut (`disk_short_write`) or
/// torn (`disk_stale_tmp`): none is intact, and a rerun that hits at
/// all has served damage. The torn share guarantees torn packs, so the
/// isolation half of the check has teeth.
const DISK_PLAN: &str = "disk_short_write=0.6,disk_probe_eio=0.4,disk_stale_tmp=1.0";

/// Checkpoint-log chaos for the resume leg.
const CKPT_PLAN: &str = "ckpt_torn_tail=0.5,ckpt_checksum_flip=0.3";

/// Fault plans handed to both serve children (identically — the
/// invariant is byte-equality between the killed and unkilled runs,
/// not between faulted and clean ones).
const SERVE_LLM_PLAN: &str = "0.1";
const SERVE_EDA_PLAN: &str = "crash=0.2,garbled=0.2,retry_max=2";

/// Env vars scrubbed from serve children so the harness is immune to
/// whatever shell it runs in; the ones each phase needs are re-set
/// explicitly.
const SCRUBBED_ENV: &[&str] = &[
    "AIVRIL_CANONICAL",
    "AIVRIL_CHECKPOINT_DIR",
    "AIVRIL_EDA_CACHE",
    "AIVRIL_EDA_CACHE_DIR",
    "AIVRIL_EDA_FAULTS",
    "AIVRIL_FAULTS",
    "AIVRIL_METRICS",
    "AIVRIL_SERVE_ADDR",
    "AIVRIL_SERVE_DEADLINE_S",
    "AIVRIL_SERVE_JOURNAL_DIR",
    "AIVRIL_SERVE_WORKERS",
    "AIVRIL_SHARD",
    "AIVRIL_THREADS",
    "AIVRIL_TRACE_CHROME",
    "AIVRIL_TRACE_JSON",
];

struct Check {
    name: &'static str,
    pass: bool,
    detail: String,
}

fn check(name: &'static str, pass: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        pass,
        detail: detail.into(),
    }
}

fn main() {
    let seed: u64 = arg_value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    let tasks: usize = arg_value("--tasks")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("chaos: seed {seed}, {tasks} tasks per grid leg");

    let mut checks = Vec::new();
    checks.extend(thread_invariance(tasks));
    checks.extend(disk_chaos(tasks));
    checks.extend(checkpoint_resume(tasks));
    checks.extend(counter_consistency());
    checks.extend(serve_kill_restart(seed));

    let mut lines = Vec::new();
    let mut failed = 0usize;
    for c in &checks {
        let verdict = if c.pass { "ok  " } else { "FAIL" };
        if !c.pass {
            failed += 1;
        }
        lines.push(format!("{verdict} {}: {}", c.name, c.detail));
    }
    lines.push(format!(
        "chaos: {} checks, {failed} failed (seed {seed})",
        checks.len()
    ));
    let report = lines.join("\n") + "\n";
    print!("{report}");
    if let Some(path) = arg_value("--report") {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("chaos: cannot write report {path}: {e}");
            std::process::exit(1);
        }
        println!("report written to {path}");
    }
    std::process::exit(i32::from(failed > 0));
}

/// Base config for every grid leg: tiny, canonical (volatile
/// wall-clock stats zeroed so JSON bodies are byte-comparable), one
/// sample per task.
fn grid_config(tasks: usize) -> HarnessConfig {
    HarnessConfig {
        samples: 1,
        task_limit: tasks,
        threads: 1,
        canonical: true,
        ..HarnessConfig::default()
    }
}

/// Runs the Verilog baseline + AIVRIL2 grid and renders canonical
/// results JSON.
fn grid_json(config: &HarnessConfig, recorder: Option<&Recorder>) -> String {
    grid(config, recorder).0
}

/// [`grid_json`], also returning the harness for its counters.
fn grid(config: &HarnessConfig, recorder: Option<&Recorder>) -> (String, Harness) {
    let mut harness = Harness::new(config.clone());
    if let Some(r) = recorder {
        harness = harness.with_recorder(r.clone());
    }
    let profile = profiles::claude35_sonnet();
    let mut sections = Vec::new();
    for flow in [Flow::Baseline, Flow::Aivril2] {
        let label = match flow {
            Flow::Baseline => "chaos baseline",
            Flow::Aivril2 => "chaos aivril2",
        };
        let (outcomes, stats) = harness.evaluate_with_stats(&profile, true, flow);
        sections.push(ResultSection {
            label: label.to_string(),
            outcomes,
            stats,
        });
    }
    (results_json(&sections), harness)
}

fn tool_faults() -> EdaFaultPlan {
    EdaFaultPlan::parse(TOOL_PLAN).expect("TOOL_PLAN parses")
}

fn llm_faults() -> FaultConfig {
    FaultConfig::parse("0.15").expect("llm plan parses")
}

/// Check 1: LLM + EDA faults on, results byte-identical across worker
/// counts.
fn thread_invariance(tasks: usize) -> Vec<Check> {
    let mut config = grid_config(tasks);
    config.faults = llm_faults();
    config.eda_faults = tool_faults();
    let one = grid_json(&config, None);
    config.threads = 2;
    let two = grid_json(&config, None);
    vec![check(
        "faulted-grid-thread-invariance",
        one == two,
        if one == two {
            format!("{} bytes identical across threads 1 and 2", one.len())
        } else {
            "results JSON diverged between 1 and 2 worker threads".to_string()
        },
    )]
}

/// Check 2: disk chaos changes no result bytes, and the torn packs the
/// fault plan forced stay inert under a faults-off rerun.
fn disk_chaos(tasks: usize) -> Vec<Check> {
    let dir = scratch_dir("disk");
    let clean = grid_json(&grid_config(tasks), None);
    let mut config = grid_config(tasks);
    config.eda_cache_dir = Some(dir.to_string_lossy().into_owned());
    config.eda_faults = EdaFaultPlan::parse(DISK_PLAN).expect("DISK_PLAN parses");
    let chaotic = grid_json(&config, None);
    let mut checks = vec![check(
        "disk-chaos-invisible-in-results",
        clean == chaotic,
        if clean == chaotic {
            "fault-injected persistent cache run equals cache-free run".to_string()
        } else {
            "disk fault plan leaked into result bytes".to_string()
        },
    )];

    // Pack names carry the process id, so the detail names counts only:
    // a replayed report must be byte-identical.
    let torn = torn_packs(&dir);
    config.eda_faults = EdaFaultPlan::off();
    let (rerun, harness) = grid(&config, None);
    let hits = harness.disk_cache_stats().map_or(0, |d| d.hits);
    let untouched = torn
        .iter()
        .all(|(path, bytes)| std::fs::read(path).ok().as_ref() == Some(bytes));
    checks.push(check(
        "torn-pack-isolation",
        !torn.is_empty() && rerun == clean && hits == 0 && untouched,
        format!(
            "{} torn pack(s) after the faulted run; faults-off rerun: results {}, \
             {hits} disk hit(s), torn packs {}",
            torn.len(),
            if rerun == clean { "equal" } else { "differ" },
            if untouched { "untouched" } else { "modified" },
        ),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    checks
}

/// Check 3: checkpointing under log corruption, and resuming over the
/// damaged directory, both reproduce the checkpoint-free baseline.
fn checkpoint_resume(tasks: usize) -> Vec<Check> {
    let dir = scratch_dir("ckpt");
    let mut config = grid_config(tasks);
    config.eda_faults = EdaFaultPlan::parse(CKPT_PLAN).expect("CKPT_PLAN parses");
    let baseline = grid_json(&config, None);
    config.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    let first = grid_json(&config, None);
    let resumed = grid_json(&config, None);
    let _ = std::fs::remove_dir_all(&dir);
    let pass = first == baseline && resumed == baseline;
    vec![check(
        "checkpoint-resume-equality",
        pass,
        if pass {
            "faulted checkpoint run and its resume both equal the baseline".to_string()
        } else {
            format!(
                "divergence: first==baseline {}, resumed==baseline {}",
                first == baseline,
                resumed == baseline
            )
        },
    )]
}

/// Check 4: under `crash=1.0,retry_max=N` every tool invocation
/// crashes every attempt, so the counters must satisfy
/// `injected == retries + exhausted` and
/// `retries == retry_max * exhausted` exactly.
fn counter_consistency() -> Vec<Check> {
    const RETRY_MAX: u64 = 2;
    let mut config = grid_config(2);
    config.eda_faults =
        EdaFaultPlan::parse(&format!("crash=1.0,retry_max={RETRY_MAX}")).expect("plan parses");
    let recorder = Recorder::new();
    let _ = grid_json(&config, Some(&recorder));
    let metrics = recorder.metrics();
    let injected = counter_sum(&metrics, "eda_fault_injected_total");
    let retries = counter_sum(&metrics, "resilience_eda_retries_total");
    let exhausted = counter_sum(&metrics, "resilience_eda_exhausted_total");
    let pass = injected > 0 && injected == retries + exhausted && retries == RETRY_MAX * exhausted;
    vec![check(
        "fault-counter-arithmetic",
        pass,
        format!(
            "injected {injected}, retries {retries}, exhausted {exhausted} \
             (retry_max {RETRY_MAX})"
        ),
    )]
}

fn counter_sum(metrics: &MetricsRegistry, name: &str) -> u64 {
    metrics
        .snapshot()
        .iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| match v {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

/// Check 5: the serve journal makes a SIGKILLed server's jobs
/// replayable byte-for-byte. Runs an uninterrupted reference child,
/// then a journaled child killed at a seed-derived admitted-job
/// count, restarts it over the same journal directory and compares
/// every job's frame stream.
fn serve_kill_restart(seed: u64) -> Vec<Check> {
    let serve = match serve_binary() {
        Ok(p) => p,
        Err(e) => return vec![check("serve-kill-restart", false, e)],
    };
    let jobs = ["chaos-1", "chaos-2"];
    let journal_dir = scratch_dir("journal");

    // Reference: an uninterrupted, journal-free server under the same
    // fault plans.
    let mut reference = match spawn_serve(&serve, None) {
        Ok(r) => r,
        Err(e) => return vec![check("serve-kill-restart", false, e)],
    };
    let mut want = Vec::new();
    for job in jobs {
        match submit(reference.addr, "acme", job, true) {
            Ok(t) => want.push(t),
            Err(e) => {
                let _ = reference.child.kill();
                return vec![check("serve-kill-restart", false, e)];
            }
        }
    }
    shutdown(&mut reference);

    // Chaos: journaled server, killed right after the ack of job
    // `kill_at` — admitted (and therefore journaled) but possibly
    // unfinished. Jobs before the kill point run to completion first,
    // so both "pending at kill" and "done before kill" recovery paths
    // get exercised as the seed varies.
    let kill_at = (seed as usize) % jobs.len();
    let mut victim = match spawn_serve(&serve, Some(&journal_dir)) {
        Ok(r) => r,
        Err(e) => return vec![check("serve-kill-restart", false, e)],
    };
    for (i, job) in jobs.iter().enumerate() {
        let r = if i < kill_at {
            submit(victim.addr, "acme", job, true).map(|_| ())
        } else {
            // Ack only: leave it admitted, then pull the plug.
            submit(victim.addr, "acme", job, false).map(|_| ())
        };
        if let Err(e) = r {
            let _ = victim.child.kill();
            return vec![check("serve-kill-restart", false, e)];
        }
        if i == kill_at {
            break;
        }
    }
    let _ = victim.child.kill();
    let _ = victim.child.wait();

    // Restart over the same journal. Recovery re-admits whatever the
    // journal says is unfinished; resubmitting every id must replay
    // the reference transcripts byte-for-byte (recovered jobs out of
    // the memo, already-done ones via a fresh deterministic run).
    let mut revived = match spawn_serve(&serve, Some(&journal_dir)) {
        Ok(r) => r,
        Err(e) => return vec![check("serve-kill-restart", false, e)],
    };
    let mut checks = Vec::new();
    for (job, want) in jobs.iter().zip(&want) {
        match submit_with_retry(revived.addr, "acme", job) {
            Ok(got) => {
                let pass = got == *want;
                checks.push(check(
                    "serve-kill-restart",
                    pass,
                    if pass {
                        format!(
                            "{job}: {} frame(s) byte-identical after kill+restart",
                            got.len()
                        )
                    } else {
                        format!("{job}: replayed frames diverged from uninterrupted run")
                    },
                ));
            }
            Err(e) => checks.push(check("serve-kill-restart", false, format!("{job}: {e}"))),
        }
    }
    shutdown(&mut revived);
    let _ = std::fs::remove_dir_all(&journal_dir);
    checks
}

struct ServeChild {
    child: Child,
    addr: SocketAddr,
}

fn serve_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("binary has no parent dir")?;
    let path = dir.join(format!("aivril-serve{}", std::env::consts::EXE_SUFFIX));
    if path.exists() {
        Ok(path)
    } else {
        Err(format!("aivril-serve not found next to {}", me.display()))
    }
}

/// Spawns an `aivril-serve` child on an ephemeral port with one
/// worker and the composed fault plans, scrubbing inherited env, and
/// parses the bound address off its stdout.
fn spawn_serve(binary: &Path, journal_dir: Option<&Path>) -> Result<ServeChild, String> {
    let mut cmd = Command::new(binary);
    for key in SCRUBBED_ENV {
        cmd.env_remove(key);
    }
    cmd.env("AIVRIL_SERVE_ADDR", "127.0.0.1:0")
        .env("AIVRIL_SERVE_WORKERS", "1")
        .env("AIVRIL_FAULTS", SERVE_LLM_PLAN)
        .env("AIVRIL_EDA_FAULTS", SERVE_EDA_PLAN)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(dir) = journal_dir {
        cmd.env("AIVRIL_SERVE_JOURNAL_DIR", dir);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn aivril-serve: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read serve stdout: {e}"))?;
        if n == 0 {
            let _ = child.kill();
            return Err("serve exited before printing its address".to_string());
        }
        if let Some(rest) = line.trim().strip_prefix("[serve] listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|e| format!("parse serve addr from {rest:?}: {e}"))?;
            return Ok(ServeChild { child, addr });
        }
    }
}

/// Submits one job over TCP. With `to_result` reads the full frame
/// stream (ack, progress…, result); otherwise returns after the ack,
/// leaving the job admitted but (likely) unfinished.
fn submit(
    addr: SocketAddr,
    tenant: &str,
    job: &str,
    to_result: bool,
) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("hello: {e}"))?;
    if !line.contains("\"type\":\"hello\"") {
        return Err(format!("expected hello frame, got {line:?}"));
    }
    let submit = format!(
        "{{\"type\":\"submit\",\"tenant\":\"{tenant}\",\"job\":\"{job}\",\
         \"task\":\"prob001_or2\"}}\n"
    );
    writer
        .write_all(submit.as_bytes())
        .map_err(|e| format!("submit: {e}"))?;
    let mut transcript = Vec::new();
    loop {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("frame: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-stream".to_string());
        }
        let line = line.trim_end().to_string();
        if line.contains("\"type\":\"error\"") || line.contains("\"type\":\"reject\"") {
            return Err(format!("unexpected frame: {line}"));
        }
        let terminal = line.contains("\"type\":\"result\"");
        transcript.push(line);
        if !to_result || terminal {
            return Ok(transcript);
        }
    }
}

/// Post-restart resubmit. A resubmission can attach to a recovered
/// job that is mid-execution and whose frames already went to the
/// recovery sink; the server memoizes completed frame streams, so
/// backing off and resubmitting converges on the byte-exact replay.
fn submit_with_retry(addr: SocketAddr, tenant: &str, job: &str) -> Result<Vec<String>, String> {
    let mut last = String::new();
    for _ in 0..40 {
        match submit(addr, tenant, job, true) {
            Ok(t) => return Ok(t),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    Err(format!("no result after retries: {last}"))
}

fn shutdown(serve: &mut ServeChild) {
    if let Ok(stream) = TcpStream::connect(serve.addr) {
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => {
                let _ = serve.child.kill();
                let _ = serve.child.wait();
                return;
            }
        };
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        let _ = writer.write_all(b"{\"type\":\"shutdown\"}\n");
    }
    let _ = serve.child.wait();
}

fn scratch_dir(leg: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aivril-chaos-{leg}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The packs in `dir` that end in an unterminated record, with their
/// bytes.
fn torn_packs(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "pack"))
        .filter_map(|p| std::fs::read(&p).ok().map(|bytes| (p, bytes)))
        .filter(|(_, bytes)| !bytes.ends_with(b"\n"))
        .collect()
}
