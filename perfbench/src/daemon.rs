//! The `iolbd` child process and a minimal keep-alive HTTP/1.1 client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// A running `iolbd`; killed and reaped on drop unless shut down first.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns `iolbd --store DIR` on an ephemeral loopback port and waits
    /// for its `listening on` banner.
    pub fn spawn(binary: &Path, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut line = String::new();
        let banner = BufReader::new(stdout).read_line(&mut line);
        let addr = match (banner, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("unexpected daemon banner {line:?}"));
            }
        };
        Ok(Daemon { child, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Graceful stop: `POST /shutdown`, then wait for the exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = Conn::open(&self.addr)?.call("POST", "/shutdown", "");
        if !matches!(&answer, Ok(r) if r.status == 200) {
            return Err(format!("shutdown refused: {answer:?}"));
        }
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// The `X-Iolb-Cache` header, when present.
    pub cache: Option<String>,
    pub body: String,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut request = head.into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.stream
            .write_all(&request)
            .map_err(|e| format!("send: {e}"))?;
        self.read_response()
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16384];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, String> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let mut length = 0usize;
        let mut cache = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad content-length {value:?}"))?;
                    }
                    "x-iolb-cache" => cache = Some(value.trim().to_string()),
                    _ => {}
                }
            }
        }
        let start = head_end + 4;
        while self.buf.len() < start + length {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[start..start + length].to_vec())
            .map_err(|_| "response body is not UTF-8".to_string())?;
        self.buf.drain(..start + length);
        Ok(Response {
            status,
            cache,
            body,
        })
    }
}

/// The typed `/analyze` request body for a kernel text and option pairs.
pub fn analyze_body(text: &str, sets: &[(String, String)]) -> String {
    let opts: Vec<String> = sets
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {}",
                iolb_bench::sweep::json_str(k),
                iolb_bench::sweep::json_str(v)
            )
        })
        .collect();
    format!(
        "{{\"source\": {}, \"options\": {{{}}}}}",
        iolb_bench::sweep::json_str(text),
        opts.join(", ")
    )
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}
