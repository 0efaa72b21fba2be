//! The `simserved` child process and the JSON-lines client.
//!
//! Requests go out in one `write` each, on sockets with `TCP_NODELAY`, so
//! a request never waits for Nagle's algorithm and the peer's delayed
//! ACK. The latency measured here is the server's.

use std::fs::File;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a reply may take before the exchange counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `simserved`, stopped (and waited for) on drop.
pub struct ServerProc {
    child: Child,
    pub addr: String,
}

impl ServerProc {
    /// Launches `bin` with default flags plus `--cache-dir` and
    /// `--port-file`, and returns once it has written its address.
    pub fn launch(
        bin: &Path,
        cache_dir: &Path,
        port_file: &Path,
        log: &Path,
    ) -> io::Result<ServerProc> {
        let _ = std::fs::remove_file(port_file);
        let child = Command::new(bin)
            .arg("--cache-dir")
            .arg(cache_dir)
            .arg("--port-file")
            .arg(port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut server = ServerProc {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_owned();
                    return Ok(server);
                }
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "simserved exited early: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("simserved wrote no address in 20 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> io::Result<Conn> {
        Conn::connect(&self.addr)
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = self.connect()?.roundtrip(r#"{"cmd":"shutdown"}"#);
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("simserved did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        reply.map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends `line` in a single write and waits for its reply, at most
    /// [`REPLY_TIMEOUT`].
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(at) = self.buf.iter().position(|&b| b == b'\n') {
                let reply: Vec<u8> = self.buf.drain(..=at).collect();
                return Ok(String::from_utf8_lossy(&reply).trim_end().to_owned());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.stream.set_read_timeout(Some(left))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One request and what became of it.
#[derive(Debug)]
pub struct Exchange {
    /// The request's index in its schedule.
    pub seq: u64,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub reply: Result<String, String>,
}

impl Exchange {
    /// Latency from the due instant, so a late send counts against it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Closed loop on one connection: sends request `seq` as soon as the
/// reply to `seq - 1` lands, until `deadline` or until `line_for` has no
/// more requests.
pub fn closed_loop(
    conn: &mut Conn,
    deadline: Instant,
    mut line_for: impl FnMut(u64) -> Option<String>,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    let mut seq = 0;
    while Instant::now() < deadline {
        let Some(line) = line_for(seq) else { break };
        let sent = Instant::now();
        let reply = conn.roundtrip(&line).map_err(|e| e.to_string());
        let failed = reply.is_err();
        out.push(Exchange {
            seq,
            due: sent,
            sent,
            done: Instant::now(),
            reply,
        });
        if failed {
            break;
        }
        seq += 1;
    }
    out
}

/// Open loop over a pool of connections with one request in flight on
/// each: whichever connection is free takes the next request in schedule
/// order and sends it at its due instant, or as soon as it frees up if
/// that instant has passed. Latency is timed from the due instant, so
/// time a request waited for a free connection counts against it.
pub fn pooled_open_loop(
    conn: &mut Conn,
    schedule: &[(u64, Instant, String)],
    next: &AtomicUsize,
) -> Vec<Exchange> {
    let mut out = Vec::new();
    while let Some((seq, due, line)) = schedule.get(next.fetch_add(1, Ordering::SeqCst)) {
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let reply = conn.roundtrip(line).map_err(|e| e.to_string());
        let failed = reply.is_err();
        out.push(Exchange {
            seq: *seq,
            due: *due,
            sent,
            done: Instant::now(),
            reply,
        });
        if failed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-connection server that answers each line with `ok <line>`,
    /// holding the first reply back for `first_delay`.
    fn echo_server(first_delay: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if first {
                    std::thread::sleep(first_delay);
                    first = false;
                }
                if writer.write_all(format!("ok {line}\n").as_bytes()).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn pooled_open_loop_counts_the_wait_for_a_free_connection() {
        let (addr, server) = echo_server(Duration::from_millis(60));
        let mut conn = Conn::connect(&addr).expect("connect");
        let start = Instant::now();
        let schedule: Vec<(u64, Instant, String)> = (0..4)
            .map(|i| (i, start + Duration::from_millis(i * 10), format!("r{i}")))
            .collect();
        let next = AtomicUsize::new(0);
        let out = pooled_open_loop(&mut conn, &schedule, &next);
        drop(conn);
        server.join().expect("server");
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|x| x.reply.is_ok()));
        // Request 1 was due at 10 ms but its connection was busy until the
        // held reply came back at 60 ms: late, and timed from its due instant.
        assert!(
            out[1].lateness() >= Duration::from_millis(45),
            "{:?}",
            out[1].lateness()
        );
        assert!(out[1].latency() >= out[1].lateness());
        assert!(out[0].lateness() < Duration::from_millis(8));
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let (addr, server) = echo_server(Duration::ZERO);
        let mut conn = Conn::connect(&addr).expect("connect");
        let out = closed_loop(&mut conn, Instant::now() + Duration::from_millis(30), |i| {
            Some(format!("c{i}"))
        });
        drop(conn);
        server.join().expect("server");
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|x| x.reply.is_ok() && x.lateness().is_zero()));
    }
}
