//! The load generator's HTTP/1.1 client: keep-alive connections,
//! pipelined open-loop sending timed from each request's due time, and
//! closed-loop round trips.

use crate::util::Digest;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One parsed response; the body is kept only when asked for, otherwise
/// just its length and digest.
#[derive(Debug, Clone)]
pub struct Resp {
    pub status: u16,
    /// `X-Cache: hit|miss`, when present.
    pub cache_hit: Option<bool>,
    pub body_len: usize,
    pub body_digest: u64,
    pub body: Option<Vec<u8>>,
}

pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn post(target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads more bytes, waiting at most `wait`. `Ok(false)` on timeout.
    fn fill(&mut self, wait: Duration) -> io::Result<bool> {
        // A socket read timeout is rounded to the kernel tick (up to
        // 10 ms), which would make the generator late; ppoll is not.
        if !crate::sys::wait_readable(self.stream.as_raw_fd(), wait)? {
            return Ok(false);
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Takes one complete response off the buffer, if there is one.
    fn take(&mut self, keep_body: bool) -> io::Result<Option<Resp>> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut len, mut cache_hit) = (None, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse::<usize>().ok(),
                "x-cache" => cache_hit = Some(value == "hit"),
                _ => {}
            }
        }
        let len = len.ok_or_else(|| bad("no Content-Length"))?;
        let body_start = head_end + 4;
        if self.buf.len() < body_start + len {
            return Ok(None);
        }
        let body = &self.buf[body_start..body_start + len];
        let mut d = Digest::default();
        d.update(body);
        let resp = Resp {
            status,
            cache_hit,
            body_len: len,
            body_digest: d.value(),
            body: keep_body.then(|| body.to_vec()),
        };
        self.buf.drain(..body_start + len);
        Ok(Some(resp))
    }

    /// Sends one request and waits for its response.
    pub fn roundtrip(
        &mut self,
        request: &[u8],
        keep_body: bool,
        limit: Duration,
    ) -> io::Result<Resp> {
        self.send(request)?;
        self.recv(keep_body, limit)
    }

    /// Waits for the next response.
    pub fn recv(&mut self, keep_body: bool, limit: Duration) -> io::Result<Resp> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(resp) = self.take(keep_body)? {
                return Ok(resp);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "response timed out",
                ));
            }
            self.fill(left)?;
        }
    }
}

/// A request's fate in an open-loop run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// From the request's due time to its complete response.
    pub latency: Duration,
    /// How late the generator sent it.
    pub late: Duration,
    pub resp: Resp,
}

/// Result of an open-loop run over a schedule.
#[derive(Debug)]
pub struct OpenLoop {
    /// Per scheduled request: `None` when never sent (backlog cut-off)
    /// or when it failed (connection error, timeout).
    pub outcomes: Vec<Option<Outcome>>,
    /// Per scheduled request: whether it was sent.
    pub attempted: Vec<bool>,
    /// The generator stopped sending because the backlog outgrew its cap.
    pub backlog_cut: bool,
}

/// Sends `requests[i]` at `t0 + due[i]`, pipelined over `conns`
/// keep-alive connections (request `i` on connection `i % conns`, one
/// thread each), and times every response from its due time.
/// Sending stops once more than `max_backlog` requests are outstanding
/// on a connection, or once `stop` is set; responses still missing
/// `drain` after the last send count as failed.
pub fn open_loop(
    streams: &mut [Conn],
    requests: &[Vec<u8>],
    due: &[Duration],
    max_backlog: usize,
    drain: Duration,
    stop: Option<&AtomicBool>,
) -> OpenLoop {
    let conns = streams.len();
    // Start slightly in the future so every connection thread is ready.
    let t0 = Instant::now() + Duration::from_millis(20);
    type ConnResult = (Vec<(usize, Option<Outcome>)>, Vec<usize>, bool);
    let per_conn: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                    let mut results: Vec<(usize, Option<Outcome>)> = Vec::with_capacity(mine.len());
                    let mut inflight: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
                    let mut next = 0usize;
                    let mut cut = false;
                    let mut drain_deadline: Option<Instant> = None;
                    'run: loop {
                        let now = Instant::now();
                        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                            mine.truncate(next);
                        }
                        while !cut && next < mine.len() && t0 + due[mine[next]] <= now {
                            if inflight.len() >= max_backlog {
                                cut = true;
                                break;
                            }
                            let i = mine[next];
                            let sent = Instant::now();
                            if conn.send(&requests[i]).is_err() {
                                break 'run;
                            }
                            inflight.push_back((i, t0 + due[i], sent));
                            next += 1;
                        }
                        loop {
                            match conn.take(false) {
                                Ok(Some(resp)) => {
                                    let done = Instant::now();
                                    let Some((i, due_at, sent)) = inflight.pop_front() else {
                                        break 'run;
                                    };
                                    results.push((
                                        i,
                                        Some(Outcome {
                                            latency: done.saturating_duration_since(due_at),
                                            late: sent.saturating_duration_since(due_at),
                                            resp,
                                        }),
                                    ));
                                }
                                Ok(None) => break,
                                Err(_) => break 'run,
                            }
                        }
                        let finished_sending = cut || next == mine.len();
                        if finished_sending && inflight.is_empty() {
                            break;
                        }
                        let now = Instant::now();
                        let wait = if finished_sending {
                            let deadline = *drain_deadline.get_or_insert(now + drain);
                            if now >= deadline {
                                break;
                            }
                            deadline - now
                        } else {
                            (t0 + due[mine[next]]).saturating_duration_since(now)
                        };
                        if wait.is_zero() {
                            continue;
                        }
                        if conn.fill(wait).is_err() {
                            break;
                        }
                    }
                    for (i, _, _) in inflight {
                        results.push((i, None));
                    }
                    mine.truncate(next);
                    (results, mine, cut)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (Vec::new(), Vec::new(), true)))
            .collect()
    });
    let mut outcomes: Vec<Option<Outcome>> = vec![None; requests.len()];
    let mut attempted = vec![false; requests.len()];
    let mut backlog_cut = false;
    for (results, sent, cut) in per_conn {
        for i in sent {
            attempted[i] = true;
        }
        backlog_cut |= cut;
        for (i, o) in results {
            outcomes[i] = o;
        }
    }
    OpenLoop {
        outcomes,
        attempted,
        backlog_cut,
    }
}

/// Closed loop with pipelining: each of `conns` connections keeps
/// `depth` requests outstanding until all of `requests` are answered.
/// Returns each response (`None` when it failed) and the elapsed time.
pub fn saturate(
    streams: &mut [Conn],
    requests: &[Vec<u8>],
    depth: usize,
    limit: Duration,
) -> (Vec<Option<Resp>>, Duration) {
    let conns = streams.len();
    let started = Instant::now();
    let deadline = started + limit;
    let per_conn: Vec<Vec<(usize, Resp)>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mine: Vec<usize> = (c..requests.len()).step_by(conns).collect();
                    let mut done = Vec::with_capacity(mine.len());
                    let mut inflight = VecDeque::new();
                    let mut next = 0;
                    loop {
                        while inflight.len() < depth && next < mine.len() {
                            if conn.send(&requests[mine[next]]).is_err() {
                                return done;
                            }
                            inflight.push_back(mine[next]);
                            next += 1;
                        }
                        while let Ok(Some(resp)) = conn.take(false) {
                            if let Some(i) = inflight.pop_front() {
                                done.push((i, resp));
                            }
                        }
                        let left = deadline.saturating_duration_since(Instant::now());
                        if (inflight.is_empty() && next == mine.len()) || left.is_zero() {
                            return done;
                        }
                        let full = inflight.len() == depth || next == mine.len();
                        if full && conn.fill(left).is_err() {
                            return done;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = started.elapsed();
    let mut out: Vec<Option<Resp>> = vec![None; requests.len()];
    for (i, resp) in per_conn.into_iter().flatten() {
        out[i] = Some(resp);
    }
    (out, elapsed)
}

/// Connects two keep-alive connections that the server serves on
/// different event loops. servd's loops share one listener and each
/// accepts whatever is pending, so two connections often land on one
/// loop, which then serves them one request at a time. A pair passes
/// when a fast request on the second connection is answered while a
/// slow one (`slow(attempt)`, uncached) is still running on the first.
pub fn distinct_pair(
    addr: SocketAddr,
    slow: impl Fn(usize) -> Vec<u8>,
    fast: &[u8],
) -> io::Result<Vec<Conn>> {
    let limit = Duration::from_secs(60);
    let mut last = None;
    for attempt in 0..16 {
        let mut a = Conn::connect(addr)?;
        let mut b = Conn::connect(addr)?;
        a.roundtrip(fast, false, limit)?;
        b.roundtrip(fast, false, limit)?;
        a.send(&slow(attempt))?;
        std::thread::sleep(Duration::from_millis(1));
        b.roundtrip(fast, false, limit)?;
        // If the slow request has not finished, `a` has nothing buffered.
        let distinct = a.buf.is_empty() && !wait_readable(&a, Duration::ZERO)?;
        a.recv(false, limit)?;
        if distinct {
            return Ok(vec![a, b]);
        }
        last = Some(vec![a, b]);
    }
    last.ok_or_else(|| io::Error::other("no connection pair"))
}

fn wait_readable(c: &Conn, wait: Duration) -> io::Result<bool> {
    crate::sys::wait_readable(c.stream.as_raw_fd(), wait)
}
