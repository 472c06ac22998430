//! Bounded per-connection send queues: the backpressure boundary
//! between job execution and client sockets.
//!
//! Submission handling and job execution must never perform socket I/O
//! themselves — the `ack`/`reject` frame is emitted under the
//! [`crate::queue::JobQueue`] state lock (to pin its ordering before
//! the job becomes claimable), and a blocking write there would let one
//! stalled client freeze every tenant's admission path; a blocking
//! write from a worker thread would pin the worker for as long as the
//! client dawdles. Instead every frame producer pushes into the
//! connection's [`Outbox`] — a bounded in-memory queue drained by a
//! dedicated writer thread that owns all socket writes for that
//! connection.
//!
//! Delivery: the socket has `TCP_NODELAY` set, and the writer takes
//! *everything* queued in one lock and sends it, each frame followed by
//! its newline, with a single `write_all`. A job's `ack`, ~23 progress
//! frames and `result` (about 29 KB) leave in a few syscalls instead
//! of ~48. The earlier writer sent every frame as `writeln!` on a
//! Nagle socket: two writes, the body and then a one-byte newline.
//! Nagle's algorithm held the newline (and every frame behind it)
//! until the client acknowledged the body, and the client delayed that
//! ACK to piggyback it on its next segment — the next submit, one
//! arrival interval later — or until its delayed-ACK timer fired. So
//! the `ack` frame waited out the gap between submits: the end-to-end
//! benchmark's median latency was 20.3 ms at 50 jobs/s and 3.5 ms at
//! 300 jobs/s, and is 1.6 ms and 1.3 ms with coalesced writes on a
//! `TCP_NODELAY` socket (2 vCPUs, loopback).
//!
//! Overload policy: a client that stops reading fills first its socket
//! buffers (the writer blocks, bounded by the configured write
//! timeout), then the outbox. On overflow — or on any write error or
//! timeout — the connection is *condemned*: the socket is shut down,
//! queued frames are dropped, and every later push becomes a no-op.
//! The jobs themselves still run to completion and feed the admission
//! accounting; only their frames vanish, exactly like writing to a
//! disconnected client before this layer existed. Memory per
//! connection is bounded by `cap` frames, counting both the queued
//! frames and the batch being written — which must exceed the largest
//! single-job frame burst, because a completed job's whole transcript
//! is enqueued faster than the writer can drain it and overflow
//! condemns reading clients just the same.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

#[derive(Default)]
struct OutboxState {
    frames: VecDeque<String>,
    /// Frames the writer has taken from `frames` and is writing to the
    /// socket as one batch (0 when idle). They count against `cap`
    /// until the write returns, and `drain` waits for them.
    in_flight: usize,
    /// No further pushes will arrive; the writer drains and exits.
    closed: bool,
    /// Connection condemned (overflow / write failure): drop
    /// everything, every push is a no-op, the writer exits.
    dead: bool,
}

/// One connection's bounded send queue plus the socket its writer
/// thread drains into. Shared (`Arc`) between the connection handler,
/// the job sinks and the writer thread.
pub struct Outbox {
    cap: usize,
    stream: TcpStream,
    state: Mutex<OutboxState>,
    cvar: Condvar,
}

impl Outbox {
    /// Wraps `stream` in an outbox holding at most `cap` frames, sets
    /// `TCP_NODELAY` and the socket write timeout to `send_timeout_s`,
    /// and spawns the writer thread. Frames pushed before the writer is
    /// condemned are written in push order, one line each.
    pub fn spawn(stream: TcpStream, cap: usize, send_timeout_s: f64) -> Arc<Outbox> {
        // A zero timeout would disable the guard entirely; clamp into a
        // sane floor instead (config validates this upstream too).
        let timeout = Duration::from_secs_f64(send_timeout_s.max(0.01));
        let _ = stream.set_write_timeout(Some(timeout));
        let _ = stream.set_nodelay(true);
        let outbox = Arc::new(Outbox {
            cap: cap.max(1),
            stream,
            state: Mutex::new(OutboxState::default()),
            cvar: Condvar::new(),
        });
        let writer = Arc::clone(&outbox);
        let _ = std::thread::Builder::new()
            .name("serve-outbox".to_string())
            .spawn(move || writer.run_writer());
        outbox
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one frame. Never blocks beyond the brief state mutex —
    /// safe to call under the queue lock. Pushing past `cap` queued
    /// plus in-flight frames condemns the connection (the client has
    /// demonstrably stopped reading).
    pub fn push(&self, frame: &str) {
        let mut g = self.lock();
        if g.dead || g.closed {
            return;
        }
        if g.frames.len() + g.in_flight >= self.cap {
            Self::condemn_locked(&mut g, &self.stream);
        } else {
            g.frames.push_back(frame.to_string());
        }
        drop(g);
        self.cvar.notify_all();
    }

    /// Announces that no further frames will be pushed: the writer
    /// drains what is queued and exits. Called when the last sink
    /// handle for the connection drops.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cvar.notify_all();
    }

    /// `true` once the connection has been condemned (overflow, write
    /// error or timeout).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Blocks until every queued frame has been written to the socket,
    /// the connection is condemned, or `timeout` elapses. The one
    /// caller that needs a delivery guarantee is the `shutdown`
    /// request's `bye` frame: the process exits right after, which
    /// would race the writer thread.
    pub fn drain(&self, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.lock();
        while !g.dead && (!g.frames.is_empty() || g.in_flight > 0) {
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return;
            };
            g = self
                .cvar
                .wait_timeout(g, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Marks the connection dead, drops queued frames and shuts the
    /// socket down (which also pops the connection's reader out of its
    /// blocking read).
    fn condemn_locked(g: &mut OutboxState, stream: &TcpStream) {
        g.dead = true;
        g.frames.clear();
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// The writer thread: takes every queued frame at once and performs
    /// the only socket writes for this connection, one `write_all` per
    /// batch. Exits when the outbox is closed and drained, or as soon
    /// as it is condemned.
    fn run_writer(&self) {
        let mut taken = VecDeque::new();
        let mut batch = Vec::new();
        loop {
            {
                let mut g = self.lock();
                while g.frames.is_empty() {
                    if g.dead || g.closed {
                        return;
                    }
                    g = self.cvar.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                // Condemnation clears `frames`, so a non-empty queue
                // means the connection is alive.
                g.in_flight = g.frames.len();
                std::mem::swap(&mut g.frames, &mut taken);
            }
            // Build and write outside the state lock: pushes stay
            // non-blocking while the socket dawdles. A failed or
            // timed-out write condemns the connection; remaining frames
            // are dropped.
            batch.clear();
            for frame in taken.drain(..) {
                batch.extend_from_slice(frame.as_bytes());
                batch.push(b'\n');
            }
            let written = (&self.stream).write_all(&batch).is_ok();
            let mut g = self.lock();
            g.in_flight = 0;
            if !written {
                Self::condemn_locked(&mut g, &self.stream);
            }
            drop(g);
            self.cvar.notify_all();
            if !written {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpListener;

    /// A connected localhost socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    #[test]
    fn frames_arrive_in_push_order_and_close_drains() {
        let (server, client) = pair();
        let outbox = Outbox::spawn(server, 64, 5.0);
        for i in 0..10 {
            outbox.push(&format!("frame-{i}"));
        }
        outbox.close();
        let mut reader = BufReader::new(client);
        for i in 0..10 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), format!("frame-{i}"));
        }
        assert!(!outbox.is_dead(), "a clean drain is not a condemnation");
        // The stream lives as long as the outbox: once the writer has
        // exited and the last handle drops, the client sees EOF.
        drop(outbox);
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
    }

    /// Regression: the `bye` frame used to race process exit once
    /// writes moved onto the writer thread — `drain` must not return
    /// before queued frames are on the wire.
    #[test]
    fn drain_blocks_until_frames_hit_the_wire() {
        let (server, client) = pair();
        let outbox = Outbox::spawn(server, 64, 5.0);
        for i in 0..5 {
            outbox.push(&format!("d-{i}"));
        }
        outbox.drain(Duration::from_secs(10));
        // Every frame is in the kernel buffer already: reads complete
        // even though the outbox is still open.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(client);
        for i in 0..5 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), format!("d-{i}"));
        }
    }

    /// Regression: every frame used to leave as two writes (body, then
    /// newline) on a Nagle socket, so a frame waited for the client's
    /// ACK of the previous one. A client that never writes only ACKs on
    /// its delayed-ACK timer, which stretched these 200 job-shaped
    /// bursts (an `ack`, then 23 progress-sized frames) to ~3 s on
    /// 2 vCPUs; coalesced writes on a `TCP_NODELAY` socket take ~20 ms.
    #[test]
    fn job_shaped_bursts_are_not_held_by_nagle() {
        let (server, client) = pair();
        let outbox = Outbox::spawn(server, 64, 5.0);
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        let mut burst = |i: usize| {
            outbox.push(&format!("ack-{i}"));
            line.clear();
            reader.read_line(&mut line).expect("ack");
            assert_eq!(line.trim_end(), format!("ack-{i}"));
            let body = "p".repeat(1200);
            for k in 0..23 {
                outbox.push(&format!("progress-{i}-{k}:{body}"));
            }
            for k in 0..23 {
                line.clear();
                reader.read_line(&mut line).expect("progress");
                assert!(line.starts_with(&format!("progress-{i}-{k}:")));
            }
        };
        // Warm the connection past its initial quick-ACK phase.
        for i in 0..10 {
            burst(i);
        }
        let start = std::time::Instant::now();
        for i in 10..210 {
            burst(i);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "200 bursts took {elapsed:?}: frames are waiting on ACKs"
        );
        assert!(!outbox.is_dead());
    }

    /// An outbox whose writer holds one `n`-frame batch of 1 MB frames
    /// it cannot finish: the client does not read, and the batch is far
    /// larger than loopback socket buffers absorb.
    fn stuck_batch(n: usize, cap: usize) -> (Arc<Outbox>, TcpStream) {
        let (server, client) = pair();
        let outbox = Outbox::spawn(server, cap, 30.0);
        let pad = "x".repeat(1 << 20);
        {
            // Queue the frames under one lock so the writer takes them
            // as a single batch.
            let mut g = outbox.lock();
            g.frames.extend((0..n).map(|i| format!("big-{i}:{pad}")));
        }
        outbox.cvar.notify_all();
        let start = std::time::Instant::now();
        while outbox.lock().in_flight != n {
            assert!(start.elapsed() < Duration::from_secs(10), "writer idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        (outbox, client)
    }

    #[test]
    fn frames_pushed_during_a_write_follow_it_and_drain_waits_for_the_batch() {
        let (outbox, client) = stuck_batch(16, 64);
        // Nothing is queued, but the batch is not on the wire yet:
        // drain must wait out its whole timeout.
        let start = std::time::Instant::now();
        outbox.drain(Duration::from_millis(200));
        assert!(
            start.elapsed() >= Duration::from_millis(200),
            "drain returned while the batch was still being written"
        );
        for i in 0..5 {
            outbox.push(&format!("late-{i}"));
        }
        {
            let g = outbox.lock();
            assert_eq!(g.in_flight, 16, "the stuck batch is still in flight");
            assert_eq!(g.frames.len(), 5, "later frames wait their turn");
        }
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        for i in 0..16 {
            line.clear();
            reader.read_line(&mut line).expect("big frame");
            let prefix = format!("big-{i}:");
            assert!(line.starts_with(&prefix));
            assert_eq!(line.len(), prefix.len() + (1 << 20) + 1);
        }
        for i in 0..5 {
            line.clear();
            reader.read_line(&mut line).expect("late frame");
            assert_eq!(line.trim_end(), format!("late-{i}"));
        }
        outbox.drain(Duration::from_secs(10));
        let g = outbox.lock();
        assert!(g.frames.is_empty() && g.in_flight == 0 && !g.dead);
    }

    /// The batch being written still counts against `cap`: queued plus
    /// in-flight frames never exceed it.
    #[test]
    fn in_flight_frames_count_against_the_cap() {
        let (outbox, client) = stuck_batch(16, 20);
        for i in 0..4 {
            outbox.push(&format!("late-{i}"));
        }
        assert!(
            !outbox.is_dead(),
            "16 in flight + 4 queued fits a cap of 20"
        );
        outbox.push("one-too-many");
        assert!(outbox.is_dead(), "the 21st frame overflows the cap");
        drop(client);
    }

    /// Regression (review): a client that bursts submits without
    /// draining responses used to block the ack write — while the
    /// global queue lock was held. Now the stall is absorbed by the
    /// bounded outbox: pushes stay non-blocking, the connection is
    /// condemned on overflow, and memory stays bounded.
    #[test]
    fn stalled_client_overflows_and_is_condemned_without_blocking() {
        let (server, client) = pair();
        // Tiny queue, short write timeout, and a payload large enough
        // to fill the kernel socket buffers quickly.
        let outbox = Outbox::spawn(server, 4, 0.2);
        let big = "x".repeat(1 << 20);
        let start = std::time::Instant::now();
        for _ in 0..64 {
            outbox.push(&big); // never blocks, whatever the socket does
            if outbox.is_dead() {
                break;
            }
        }
        // The writer hits the send timeout (or the queue overflows)
        // and condemns the connection promptly.
        while !outbox.is_dead() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "condemnation must arrive in bounded time"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "pushes must not block on a stalled client"
        );
        // Pushes after death are silent no-ops.
        outbox.push("late");
        outbox.close();
        // The client side sees the connection shut down.
        let mut sink = Vec::new();
        let mut client = client;
        let _ = client.read_to_end(&mut sink);
        drop(client);
    }
}
