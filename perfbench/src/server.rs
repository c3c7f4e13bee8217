//! A `coolopt-serve` child on loopback TCP, built from this checkout as
//! shipped (default features, default `--collect-every`).

use crate::pin::{CpuSet, Pinned};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The cargo target directory: `CARGO_TARGET_DIR`, else `.bench_build`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
}

/// Builds `coolopt-serve` (release, default features) and returns its path.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let target = target_dir();
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "coolopt-service"])
        .args(["--bin", "coolopt-serve", "--target-dir"])
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building coolopt-serve failed ({status})"));
    }
    Ok(target.join("release").join("coolopt-serve"))
}

/// A running server; killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    port: u16,
}

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    /// Buffered reply side.
    pub reader: BufReader<QuickAck>,
    /// Request side.
    pub writer: TcpStream,
}

impl Server {
    /// Spawns the server on a free loopback port with `scenarios`
    /// registered, on `cpus` when given, and waits for `probe` (a plan
    /// line) to be answered `ok`. Returns the server and the
    /// spawn-to-first-ok time, s.
    pub fn spawn(
        bin: &Path,
        scenarios: &[&str],
        probe: &str,
        cpus: Option<CpuSet>,
    ) -> Result<(Server, f64), String> {
        let mut last = String::new();
        for _ in 0..5 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let start = Instant::now();
            let mut cmd = Command::new(bin);
            cmd.arg("--listen").arg(format!("127.0.0.1:{port}"));
            for s in scenarios {
                cmd.arg("--scenario").arg(s);
            }
            // The child inherits the spawning thread's CPU set.
            let pinned = Pinned::to(cpus);
            let child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            drop(pinned);
            let mut server = Server { child, port };
            match server.await_first_ok(probe) {
                Ok(()) => return Ok((server, start.elapsed().as_secs_f64())),
                Err(e) => last = e, // dropped (killed); retry on a new port
            }
        }
        Err(format!("server never answered: {last}"))
    }

    fn await_first_ok(&mut self, probe: &str) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut conn = loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited early ({status})"));
            }
            match self.connect() {
                Ok(conn) => break conn,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(50))
                }
                Err(e) => return Err(format!("connect: {e}")),
            }
        };
        let mut reply = String::new();
        conn.round_trip(probe, &mut reply)
            .map_err(|e| format!("probe: {e}"))?;
        if reply.contains("\"ok\":true") {
            Ok(())
        } else {
            Err(format!("probe answered {}", reply.trim_end()))
        }
    }

    /// Opens a new connection (Nagle off, quick ACKs, 30 s read timeout).
    pub fn connect(&self) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 20, QuickAck(stream)),
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The reply side of a connection, which asks the kernel to acknowledge
/// at once before every read.
///
/// `coolopt-serve` writes a reply as two writes (the JSON, then the
/// newline) with Nagle on, so the newline waits until the client has
/// acknowledged the JSON. A client in delayed-ACK mode holds that ACK for
/// up to ~40 ms, and every request would then time the timer instead of
/// the server. Linux re-enters delayed-ACK mode on its own, so the option
/// is set again before each read. Elsewhere this is a plain socket.
#[derive(Debug)]
pub struct QuickAck(TcpStream);

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        quick_ack(&self.0);
        self.0.read(buf)
    }
}

#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    const IPPROTO_TCP: c_int = 6;
    const TCP_QUICKACK: c_int = 12;
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    let on: c_int = 1;
    // SAFETY: a valid socket descriptor and a pointer to a live `c_int` of
    // the length given. A failure only leaves delayed ACKs on.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_: &TcpStream) {}

impl Conn {
    /// Sends `line` (newline-terminated) and reads one reply line into
    /// `reply`; returns the round trip.
    pub fn round_trip(&mut self, line: &str, reply: &mut String) -> std::io::Result<Duration> {
        reply.clear();
        let start = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        let n = self.reader.read_line(reply)?;
        let elapsed = start.elapsed();
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(elapsed)
    }
}
