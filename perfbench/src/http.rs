//! A minimal HTTP/1.1 client for the daemon's one-request-per-connection
//! surface, and the handle to a spawned `mantra daemon` process.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One answered (or failed) request.
#[derive(Clone, Debug)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// `GET path`, reading until the server closes. Any transport error or
/// a read past `timeout` is an `Err`.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> Result<Reply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| e.to_string())?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response without a header end".to_string())?;
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// A running `mantra daemon` child process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    pub spawned: Instant,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts `mantra daemon` on an ephemeral port and waits for its
    /// listening line.
    pub fn spawn(
        mantra: &Path,
        archive_dir: &Path,
        seed: u64,
        extra: &[&str],
    ) -> Result<Daemon, String> {
        let spawned = Instant::now();
        let mut child = Command::new(mantra)
            .args([
                "daemon",
                "--addr",
                "127.0.0.1:0",
                "--seed",
                &seed.to_string(),
            ])
            .arg("--archive-dir")
            .arg(archive_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", mantra.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let listening = match lines.read_line(&mut line) {
                Ok(0) | Err(_) => Err("daemon exited before listening".to_string()),
                Ok(_) => match line.trim().strip_prefix("mantrad listening on http://") {
                    Some(rest) => rest
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("{rest}: {e}")),
                    None => continue,
                },
            };
            match listening {
                Ok(addr) => break addr,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(e);
                }
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(Daemon {
            child,
            addr,
            spawned,
            stderr: Some(stderr),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the daemon to exit (SIGTERM), waits for it, and kills it if
    /// it has not exited within five seconds.
    pub fn stop(self) {
        // Dropping does the work; `stop` names the intent at call sites.
        drop(self);
    }
}

impl Drop for Daemon {
    /// A daemon never outlives the benchmark, even on an early return or
    /// a panic.
    fn drop(&mut self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: `kill(2)` only sends a signal; the pid is our own live
        // child, which has not been waited on yet, so it cannot have
        // been reused.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
