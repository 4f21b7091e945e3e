//! The serving process and the load generator's HTTP connections.
//!
//! Each server cycle runs a fresh `gde-server` process, so repeated
//! uploads never accumulate in one process and its `VmHWM` is the peak of
//! one set-up plus its traffic. The load generator keeps its own bodies
//! pre-encoded and reads raw response bytes: the digest of those bytes is
//! what the oracle check compares.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// How to start a serving process.
#[derive(Clone, Debug)]
pub enum ServerKind {
    /// The deployed `gde-server` binary, one OS process per cycle.
    Binary(PathBuf),
    /// `gde_server::start` in this process, for the benchmark's own
    /// tests, which need no separate build. Reports no peak RSS.
    #[cfg(test)]
    InProcess,
}

/// One running server.
pub enum Server {
    Process {
        child: Child,
        // kept open so the server never writes into a closed pipe
        _stdout: BufReader<ChildStdout>,
        addr: SocketAddr,
    },
    #[cfg(test)]
    InProcess(gde_server::ServerHandle),
}

impl Server {
    /// Start a server with `threads` engine threads and `threads`
    /// connection workers, bound to an ephemeral loopback port.
    pub fn start(kind: &ServerKind, threads: usize) -> io::Result<Server> {
        match kind {
            ServerKind::Binary(bin) => {
                let mut child = Command::new(bin)
                    .arg("127.0.0.1:0")
                    .env("GDE_MAX_THREADS", threads.to_string())
                    .env("GDE_SERVER_WORKERS", threads.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
                let mut line = String::new();
                stdout.read_line(&mut line)?;
                // "gde-server listening on 127.0.0.1:PORT (N workers)"
                let addr = line
                    .split_whitespace()
                    .nth(3)
                    .and_then(|a| a.parse::<SocketAddr>().ok());
                match addr {
                    Some(addr) => Ok(Server::Process {
                        child,
                        _stdout: stdout,
                        addr,
                    }),
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unexpected server banner {line:?}"),
                        ))
                    }
                }
            }
            #[cfg(test)]
            ServerKind::InProcess => Ok(Server::InProcess(gde_server::start(
                gde_server::ServerConfig {
                    workers: threads.max(1),
                    ..gde_server::ServerConfig::default()
                },
            )?)),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Process { addr, .. } => *addr,
            #[cfg(test)]
            Server::InProcess(h) => h.addr(),
        }
    }

    /// High-water resident set (`VmHWM`) of the serving process, in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let child = match self {
            Server::Process { child, .. } => child,
            #[cfg(test)]
            Server::InProcess(_) => return None,
        };
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Stop the server and wait until it has exited.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        match self {
            Server::Process { child, .. } => {
                let _ = child.kill();
                let _ = child.wait();
            }
            #[cfg(test)]
            Server::InProcess(h) => h.shutdown(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A response: status and the exact body bytes.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One keep-alive connection. No reconnects: a dropped connection is a
/// failure the run must count, not hide.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: gde\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let len = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = self.buf[head_end + 4..].to_vec();
        body.reserve(len.saturating_sub(body.len()));
        while body.len() < len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        Ok(Reply { status, body })
    }
}
