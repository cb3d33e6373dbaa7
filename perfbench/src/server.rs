//! Building and running the real `blossom serve` binary.

use blossom_server::{Client, Response};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Cargo's target directory for the repository build: `CARGO_TARGET_DIR`
/// (relative paths resolve against the repository root, where cargo is
/// run) or `target`.
pub fn target_dir() -> PathBuf {
    let root = repo_root();
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Build `blossom` from the repository's own manifest and profile, and
/// return the binary's path. Cargo's progress goes to stderr so stdout
/// stays the benchmark's report.
pub fn build_server() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "blossom",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .current_dir(&root)
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building blossom failed ({status})"));
    }
    let bin = target_dir().join("release").join("blossom");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok(bin)
}

/// `blossom serve` flags the benchmark sets, recorded in every report.
#[derive(Debug, Clone)]
pub struct ServerFlags {
    /// `--workers` (execution pool).
    pub workers: usize,
    /// `--io-threads` (event-loop threads).
    pub io_threads: usize,
    /// `--store-dir`, when documents are served from BLM2 generations.
    pub store_dir: Option<PathBuf>,
    /// `--access-log` file for the trace records of `trace=1` requests;
    /// `None` turns the log off.
    pub access_log: Option<PathBuf>,
}

impl ServerFlags {
    /// The argument list after `serve`.
    pub fn args(&self) -> Vec<String> {
        let mut a = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--workers".to_string(),
            self.workers.to_string(),
            "--io-threads".to_string(),
            self.io_threads.to_string(),
            "--access-log".to_string(),
            self.access_log
                .as_ref()
                .map_or("off".to_string(), |p| p.display().to_string()),
        ];
        if let Some(dir) = &self.store_dir {
            a.push("--store-dir".to_string());
            a.push(dir.display().to_string());
        }
        a
    }
}

/// How long a setup step (start-up, a load, a scrape) may take before the
/// run is abandoned.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server process.
pub struct ServerProc {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
}

impl ServerProc {
    /// Spawn `bin serve <flags>` and wait for its listening line. Stdout
    /// goes to a file under `work` (no reader thread needed), stderr is
    /// passed through.
    pub fn spawn(bin: &Path, flags: &ServerFlags, work: &Path) -> Result<ServerProc, String> {
        let out_path = work.join(format!("serve-{}.out", std::process::id()));
        let out = File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
        let child = Command::new(bin)
            .arg("serve")
            .args(flags.args())
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(Stdio::from(std::io::stderr()))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = ServerProc {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("blossomd listening on "))
            {
                proc.addr = addr.trim().to_string();
                return Ok(proc);
            }
            if let Ok(Some(status)) = proc.child.try_wait() {
                return Err(format!("blossom serve exited during start-up ({status})"));
            }
            if started.elapsed() > SETUP_TIMEOUT {
                return Err("blossom serve did not print its address".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Process id (for `/proc` reads).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// A setup-time client with a bounded read timeout.
    pub fn client(&self) -> Result<Client, String> {
        let client = Client::connect(&*self.addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(SETUP_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// One setup-time request that must answer 200.
    pub fn ok(
        &self,
        client: &mut Client,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<Response, String> {
        let r = client
            .request(method, target, body)
            .map_err(|e| format!("{method} {target}: {e}"))?;
        if r.status != 200 {
            return Err(format!(
                "{method} {target}: status {} {}",
                r.status,
                r.body_str()
            ));
        }
        Ok(r)
    }

    /// `GET /metrics` and `GET /stats` bodies.
    pub fn scrape(&self) -> Result<Scrape, String> {
        let mut c = self.client()?;
        let metrics = self.ok(&mut c, "GET", "/metrics", b"")?.body_str();
        let stats = self.ok(&mut c, "GET", "/stats", b"")?.body_str();
        Ok(Scrape { metrics, stats })
    }

    /// Ask for a graceful stop, then make sure the process has ended.
    pub fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
            let _ = c.request("POST", "/shutdown", b"");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `/metrics` + `/stats` scrape.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// Prometheus text exposition.
    pub metrics: String,
    /// `/stats` JSON.
    pub stats: String,
}

impl Scrape {
    /// A `/metrics` sample's value (0 when absent).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        blossom_server::promtext::value(&self.metrics, name, labels).unwrap_or(0.0)
    }

    /// The first number after `"key": ` in `/stats` (0 when absent).
    pub fn stat(&self, key: &str) -> f64 {
        let needle = format!("\"{key}\": ");
        self.stats
            .find(&needle)
            .map(|i| &self.stats[i + needle.len()..])
            .and_then(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                    .unwrap_or(rest.len());
                rest[..end].parse().ok()
            })
            .unwrap_or(0.0)
    }
}
