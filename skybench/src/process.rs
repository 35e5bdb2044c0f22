//! The program under test as child processes: `skycube build` runs and a
//! `skycube serve` daemon.

use crate::loadgen::Conn;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Build the `skycube` binary from the checkout's sources and return its
/// path. Cargo honours `CARGO_TARGET_DIR`; without it the binary lands in
/// `target/`.
pub fn build_program() -> Result<PathBuf, String> {
    if !Path::new("crates/serve").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the root of a skycube checkout (crates/ not found)".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "skycube",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of skycube failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("skycube");
    if !bin.is_file() {
        return Err(format!("{} missing after cargo build", bin.display()));
    }
    Ok(bin)
}

/// `VmHWM` (peak resident set) of a live process, in MiB.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Run `cmd` to completion; returns its wall time in seconds and its peak
/// RSS in MiB. The peak is sampled from `/proc` while the child runs: the
/// kernel's `ru_maxrss` for a child also counts the parent's peak when the
/// child is spawned with a shared address space, as `posix_spawn` does.
pub fn run_measured(cmd: &mut Command) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let pid = child.id();
    let running = AtomicBool::new(true);
    let (status, peak) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0f64;
            while running.load(Ordering::SeqCst) {
                if let Some(mb) = peak_rss_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let status = child.wait();
        running.store(false, Ordering::SeqCst);
        (status, sampler.join().expect("rss sampler panicked"))
    });
    let secs = start.elapsed().as_secs_f64();
    let status = status.map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    if !status.success() {
        return Err(format!("{cmd:?} failed: {status}"));
    }
    Ok((secs, peak))
}

/// A running `skycube serve --listen 127.0.0.1:0`.
pub struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
    /// Seconds from spawn until the daemon reported its TCP listener.
    pub setup_s: f64,
}

impl Server {
    pub fn spawn(bin: &Path, csv: &Path, extra: &[String]) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--data")
            .arg(csv)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut server = Server {
            child,
            stderr: BufReader::new(stderr),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let mut seen = String::new();
        loop {
            let mut line = String::new();
            let n = server
                .stderr
                .read_line(&mut line)
                .map_err(|e| format!("reading serve stderr: {e}"))?;
            if n == 0 {
                return Err(format!("serve exited before it was ready:\n{seen}"));
            }
            if let Some(addr) = line.trim().strip_prefix("# ready: listening on tcp ") {
                server.setup_s = start.elapsed().as_secs_f64();
                server.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                return Ok(server);
            }
            seen.push_str(&line);
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id()).ok_or_else(|| "no VmHWM for the daemon".to_string())
    }

    /// Scrape the `stats` block.
    pub fn stats(&self) -> Result<BTreeMap<String, u64>, String> {
        let mut conn = Conn::connect(self.addr).map_err(|e| format!("stats connect: {e}"))?;
        conn.send("stats").map_err(|e| format!("stats: {e}"))?;
        let mut out = BTreeMap::new();
        loop {
            let line = conn.recv_line().map_err(|e| format!("stats: {e}"))?;
            let line = String::from_utf8_lossy(&line);
            let Some((name, value)) = line.split_once(' ') else {
                break;
            };
            if let Ok(v) = value.trim().parse() {
                out.insert(name.to_owned(), v);
            }
        }
        Ok(out)
    }

    /// `shutdown` over the protocol, then wait for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.send("shutdown");
            while conn.recv_line().is_ok() {}
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("serve exited with {status}: {rest}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("serve did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
