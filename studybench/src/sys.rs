//! Child processes under test: spawn, read their stdout line by line,
//! stop them, and reap them with `wait4` so their peak resident memory
//! comes back with their exit status.

use std::io::{BufRead, BufReader};
use std::process::{ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod ffi {
    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const [i64; 2],
            sigmask: *const u8,
        ) -> i32;
    }

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
}

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;

/// Waits until `fd` is readable (or hung up), at most `wait`, with
/// nanosecond timer precision. `Ok(false)` on timeout.
pub fn wait_readable(fd: i32, wait: Duration) -> std::io::Result<bool> {
    const POLLIN: i16 = 1;
    let mut pfd = ffi::PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = [wait.as_secs() as i64, i64::from(wait.subsec_nanos())];
    // SAFETY: one live pollfd and a live timespec (two longs), as ppoll(2)
    // reads; a null sigmask leaves the signal mask alone.
    let rc = unsafe { ffi::ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        -1 if std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted => {
            Ok(false)
        }
        -1 => Err(std::io::Error::last_os_error()),
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    pub success: bool,
    /// Peak resident set size, in MiB (`ru_maxrss`).
    pub peak_rss_mib: f64,
    /// When `wait4` returned.
    pub at: Instant,
    /// Everything the child wrote to stdout.
    pub stdout: String,
}

/// A running child whose stdout is read by a helper thread.
#[derive(Debug)]
pub struct Proc {
    pid: i32,
    pub started: Instant,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    seen: Vec<String>,
    reader: Option<JoinHandle<()>>,
    reaped: bool,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        let started = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
        let pid = child.id() as i32;
        let stdout = child.stdout.take().ok_or("child stdout missing")?;
        let stdin = child.stdin.take();
        // The std handle is dropped unreaped on purpose: `wait4` below
        // reaps the pid and returns its resource usage.
        drop(child);
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            pid,
            started,
            stdin,
            lines,
            seen: Vec::new(),
            reader: Some(reader),
            reaped: false,
        })
    }

    /// Waits for a stdout line starting with `prefix` and returns it.
    pub fn wait_line(&mut self, prefix: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    let hit = line.starts_with(prefix);
                    self.seen.push(line.clone());
                    if hit {
                        return Ok(line);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("no {prefix:?} line within {timeout:?}"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("child exited before printing {prefix:?}"))
                }
            }
        }
    }

    /// Closes the child's stdin (the benchmark's own server mode shuts
    /// down on EOF).
    pub fn close_stdin(&mut self) {
        self.stdin = None;
    }

    /// Sends SIGTERM (graceful shutdown for `delta-serve`).
    pub fn terminate(&self) {
        if !self.reaped {
            // SAFETY: kill(2) takes plain integers; the pid is our own
            // unreaped child, so it cannot have been recycled.
            unsafe { ffi::kill(self.pid, SIGTERM) };
        }
    }

    /// Reaps the child, killing it if it has not exited by `timeout`.
    pub fn wait(&mut self, timeout: Duration) -> Result<Exit, String> {
        let pid = self.pid;
        let (cancel, cancelled) = mpsc::channel::<()>();
        let watchdog = std::thread::spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = cancelled.recv_timeout(timeout) {
                // SAFETY: as in `terminate`; the main thread is blocked in
                // wait4 on this pid, so it is still our unreaped child.
                unsafe { ffi::kill(pid, SIGKILL) };
                return true;
            }
            false
        });
        let mut status = 0i32;
        let mut usage = [0i64; 18];
        let rc = loop {
            // SAFETY: both pointers are to live locals of the sizes
            // wait4(2) writes (int status; struct rusage = 18 longs on
            // 64-bit Linux).
            let rc = unsafe { ffi::wait4(pid, &mut status, 0, &mut usage) };
            if rc == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted
            {
                continue;
            }
            break rc;
        };
        let at = Instant::now();
        self.reaped = true;
        let _ = cancel.send(());
        let timed_out = watchdog.join().unwrap_or(false);
        self.stdin = None;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let mut stdout = std::mem::take(&mut self.seen);
        stdout.extend(self.lines.try_iter());
        if rc != pid {
            return Err(format!(
                "wait4({pid}) failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        if timed_out {
            return Err(format!("child {pid} killed after {timeout:?}"));
        }
        // WIFEXITED && WEXITSTATUS == 0
        let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
        Ok(Exit {
            success,
            peak_rss_mib: usage[4] as f64 / 1024.0,
            at,
            stdout: stdout.join("\n"),
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            // SAFETY: as in `terminate`.
            unsafe { ffi::kill(self.pid, SIGKILL) };
            let _ = self.wait(Duration::from_secs(10));
        }
    }
}
