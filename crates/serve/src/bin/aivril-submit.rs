//! `aivril-submit` — command-line client for `aivril-serve`.
//!
//! ```text
//! aivril-submit --addr 127.0.0.1:4117 --tenant acme \
//!     --task prob000_and2 --jobs j1,j2 [--lang verilog] [--flow aivril2] \
//!     [--out DIR] [--expect-reject]
//! aivril-submit --addr 127.0.0.1:4117 --ping
//! aivril-submit --addr 127.0.0.1:4117 --shutdown
//! ```
//!
//! Submits every job in one burst, then reads response frames until
//! each job reached a terminal frame (`result` or `reject`). With
//! `--out DIR`, writes one transcript per job —
//! `DIR/TENANT-JOB.ndjson`, the job's `ack`/`progress`/`result` (or
//! `reject`) lines verbatim — so two transcripts of the same job can be
//! compared with `diff` alone.
//!
//! Exit codes: `0` all jobs produced results (with `--expect-reject`:
//! at least one rejection seen, the overload-probe mode); `1` expected
//! a rejection and saw none; `2` protocol/transport error; `3` a job
//! was rejected.

use aivril_bench::{arg_value, Flow};
use aivril_obs::json;
use aivril_serve::protocol::{render_request, Request, SubmitRequest};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn fatal(msg: &str) -> ! {
    eprintln!("[submit] {msg}");
    std::process::exit(2);
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| fatal(&format!("cannot connect to {addr}: {e}")));
    // A stuck server must yield a visible error, never a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("socket supports read timeouts");
    // Requests go out as soon as they are written, never held by Nagle
    // behind an unacknowledged earlier one.
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream.try_clone().unwrap_or_else(|e| fatal(&e.to_string())));
    (reader, stream)
}

fn send(stream: &mut TcpStream, req: &Request) {
    let mut line = render_request(req);
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .unwrap_or_else(|e| fatal(&format!("write failed: {e}")));
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => fatal("server closed the connection"),
        Ok(_) => line.trim_end().to_string(),
        Err(e) => fatal(&format!("read failed (timeout?): {e}")),
    }
}

/// Reads frames until one of `types` arrives, skipping others.
fn await_frame(reader: &mut BufReader<TcpStream>, types: &[&str]) -> String {
    loop {
        let line = read_line(reader);
        let typ = json::parse(&line)
            .and_then(|v| v.get("type").and_then(json::Value::str).map(String::from))
            .unwrap_or_else(|| fatal(&format!("unparseable frame: {line}")));
        if typ == "error" {
            fatal(&line);
        }
        if types.contains(&typ.as_str()) {
            return line;
        }
    }
}

fn main() {
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:4117".to_string());
    let (mut reader, mut stream) = connect(&addr);

    if has_flag("--ping") {
        send(&mut stream, &Request::Ping);
        println!("{}", await_frame(&mut reader, &["pong"]));
        return;
    }
    if has_flag("--shutdown") {
        send(&mut stream, &Request::Shutdown);
        println!("{}", await_frame(&mut reader, &["bye"]));
        return;
    }

    let tenant = arg_value("--tenant").unwrap_or_else(|| fatal("--tenant is required"));
    let task = arg_value("--task").unwrap_or_else(|| fatal("--task is required"));
    let jobs: Vec<String> = arg_value("--jobs")
        .unwrap_or_else(|| fatal("--jobs is required (comma-separated ids)"))
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if jobs.is_empty() {
        fatal("--jobs named no job ids");
    }
    let verilog = match arg_value("--lang").as_deref() {
        None | Some("verilog") => true,
        Some("vhdl") => false,
        Some(other) => fatal(&format!("--lang must be verilog|vhdl, got {other}")),
    };
    let flow = match arg_value("--flow").as_deref() {
        None => Flow::Aivril2,
        Some(label) => Flow::from_label(label)
            .unwrap_or_else(|| fatal(&format!("--flow must be aivril2|baseline, got {label}"))),
    };
    let out_dir = arg_value("--out");
    let expect_reject = has_flag("--expect-reject");

    // Burst-submit everything, then collect.
    for job in &jobs {
        send(
            &mut stream,
            &Request::Submit(SubmitRequest {
                tenant: tenant.clone(),
                job: job.clone(),
                task: task.clone(),
                verilog,
                flow,
            }),
        );
    }

    let mut transcripts: HashMap<String, Vec<String>> =
        jobs.iter().map(|j| (j.clone(), Vec::new())).collect();
    let mut pending: Vec<String> = jobs.clone();
    let mut rejected = 0usize;
    let mut results = 0usize;
    while !pending.is_empty() {
        let line = read_line(&mut reader);
        let Some(v) = json::parse(&line) else {
            fatal(&format!("unparseable frame: {line}"));
        };
        let typ = v.get("type").and_then(json::Value::str).unwrap_or("");
        match typ {
            "hello" | "pong" => continue,
            "error" => fatal(&line),
            "ack" | "progress" | "result" | "reject" => {
                let job = v.get("job").and_then(json::Value::str).unwrap_or("");
                let Some(t) = transcripts.get_mut(job) else {
                    continue; // not ours (shared-connection hygiene)
                };
                t.push(line.clone());
                if typ == "result" || typ == "reject" {
                    pending.retain(|j| j != job);
                    if typ == "reject" {
                        rejected += 1;
                        eprintln!("[submit] {line}");
                    } else {
                        results += 1;
                    }
                }
            }
            _ => continue,
        }
    }

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| fatal(&format!("cannot create {dir}: {e}")));
        for (job, lines) in &transcripts {
            let path = format!("{dir}/{tenant}-{job}.ndjson");
            let body = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
            std::fs::write(&path, body)
                .unwrap_or_else(|e| fatal(&format!("cannot write {path}: {e}")));
        }
    }

    println!("[submit] {tenant}: {results} results, {rejected} rejected");
    let code = if expect_reject {
        i32::from(rejected == 0) // 0 iff the overload probe saw a reject
    } else if rejected > 0 {
        3
    } else {
        0
    };
    std::process::exit(code);
}
