//! The daemon under test and the closed-loop client that loads it.
//!
//! Each workload runs against a real `osn-serve` child process. One client
//! process drives it over a fixed number of connections; every connection
//! is a closed loop that sends its next request only after the previous
//! reply has been read in full.

use crate::stats::{classify, Latencies, Outcome};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a reply may take before the client gives up on the connection
/// (counted as a transport failure).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the daemon may take to print its `listening on` line.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a `SHUTDOWN`ed daemon may take to drain and exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `osn-serve`. Dropping it kills and reaps the process, so no
/// error path leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    /// Drains the daemon's stdout; ends when the daemon exits.
    drain: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawn `bin --data data --addr 127.0.0.1:0` and wait for the
    /// `listening on` line that carries the bound address.
    pub fn spawn(bin: &Path, data: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--data")
            .arg(data)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        // The line is read on a helper thread so a daemon that never
        // prints cannot hang the benchmark past START_TIMEOUT.
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let got = reader.read_line(&mut line).map(|_| line);
            let _ = tx.send(got);
            // Keep draining so a later write can never block on a full pipe.
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        let mut daemon = Daemon {
            child: Some(child),
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = match rx.recv_timeout(START_TIMEOUT) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("reading daemon stdout: {e}")),
            Err(_) => return Err("daemon did not report a listening address".into()),
        };
        daemon.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in daemon status".to_string())
    }

    /// `SHUTDOWN`, then wait for a clean exit. Errors if the daemon does
    /// not answer `BYE` or exits unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(self.addr)?;
        let bye = conn
            .request("SHUTDOWN")
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        drop(conn);
        let mut child = self.child.take().expect("live daemon");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after SHUTDOWN".into());
                }
            }
        };
        self.join_drain();
        if bye != ["BYE"] {
            return Err(format!("SHUTDOWN answered {bye:?}"));
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }

    fn join_drain(&mut self) {
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.join_drain();
    }
}

/// One protocol connection (the benchmark frames replies itself, so a
/// change in the program's client library cannot change what is measured).
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).ok();
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: stream,
        })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.by_ref().take(1 << 24).read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    /// Send one line; read one reply line, or `OK …` through `END`.
    pub fn request(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let first = self.read_line()?;
        let bracketed = first == "OK" || first.starts_with("OK ");
        let mut lines = vec![first];
        if bracketed {
            loop {
                let l = self.read_line()?;
                let end = l == "END";
                lines.push(l);
                if end {
                    break;
                }
            }
        }
        Ok(lines)
    }

    /// `INFO` as `key → value` pairs.
    pub fn info(&mut self) -> Result<Vec<(String, String)>, String> {
        let lines = self.request("INFO").map_err(|e| format!("INFO: {e}"))?;
        Ok(lines
            .iter()
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect())
    }
}

/// One finished request of a loaded run.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Position in the global request sequence.
    pub seq: usize,
    pub outcome: Outcome,
    /// Send-to-last-byte time, from the start of the run.
    pub start_ms: f64,
    pub end_ms: f64,
    /// The reply's deterministic payload (kept for rate extraction).
    pub payload: Vec<String>,
}

/// What a loaded run observed.
pub struct LoadResult {
    pub samples: Vec<Sample>,
    /// First send to last reply.
    pub wall_s: f64,
}

impl LoadResult {
    pub fn latencies(&self) -> Latencies {
        let mut l = Latencies::default();
        for s in &self.samples {
            l.record(s.outcome, s.end_ms - s.start_ms);
        }
        l
    }

    pub fn count(&self, outcome: Outcome) -> usize {
        self.samples.iter().filter(|s| s.outcome == outcome).count()
    }
}

/// Drive `addr` with `connections` closed loops for `seconds`. Requests are
/// handed out in one global sequence: the `seq`-th is `cycle[order(seq)]`,
/// and its reply is compared with `expected[order(seq)]`, the serial
/// reference payload of that request.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    seconds: f64,
    cycle: &[String],
    order: &(dyn Fn(usize) -> usize + Sync),
    expected: &[Vec<String>],
) -> LoadResult {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = Conn::connect(addr).ok();
                    while t0.elapsed() < deadline {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let i = order(seq);
                        let start = t0.elapsed();
                        if conn.is_none() {
                            conn = Conn::connect(addr).ok();
                        }
                        let reply = match conn.as_mut() {
                            Some(c) => c.request(&cycle[i]).ok(),
                            None => None,
                        };
                        let end = t0.elapsed();
                        let (outcome, payload) = match reply {
                            Some(lines) => (
                                classify(&lines, &expected[i]),
                                crate::stats::payload(&lines),
                            ),
                            None => {
                                // Reconnect on the next request; pause so a
                                // dead daemon does not turn into a spin.
                                conn = None;
                                std::thread::sleep(Duration::from_millis(10));
                                (Outcome::Transport, Vec::new())
                            }
                        };
                        out.push(Sample {
                            seq,
                            outcome,
                            start_ms: start.as_secs_f64() * 1e3,
                            end_ms: end.as_secs_f64() * 1e3,
                            payload,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.seq);
    let wall_ms = samples.iter().map(|s| s.end_ms).fold(0.0, f64::max);
    LoadResult {
        samples,
        wall_s: wall_ms / 1e3,
    }
}
