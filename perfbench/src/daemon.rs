//! The `elpc-serve` daemon as a child process: boot, resource readings
//! from `/proc`, and a drained shutdown.

use elpc_serving::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads in the daemon's pool: one per CPU of the 2-CPU sandbox
/// the benchmark was sized on.
pub const WORKERS: usize = 2;
/// `/proc/<pid>/stat` CPU times are in clock ticks of this many per
/// second (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A running daemon. Dropping it kills the process if [`Daemon::stop`]
/// was not reached.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `bin serve` on `socket` and waits until it answers a ping.
    pub fn boot(bin: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--workers")
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
        };
        let start = Instant::now();
        loop {
            if let Ok(mut c) = Client::connect(&daemon.socket) {
                if c.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during boot: {status}"));
            }
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("daemon did not answer a ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("the child is held until stop")
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    fn pid(&self) -> u32 {
        self.child
            .as_ref()
            .expect("the child is held until stop")
            .id()
    }

    /// User plus system CPU seconds the daemon process has used so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read the daemon's /proc stat: {e}"))?;
        // fields after the parenthesised command name, which may hold spaces
        let rest = &stat[stat.rfind(')').ok_or("malformed /proc stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // utime and stime are fields 14 and 15 of stat(5); `rest` starts at 3
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
    }

    /// Peak resident set size (VmHWM) of the daemon, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Asks the daemon to drain and exit, and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let mut child = self.child.take().expect("the child is held until stop");
        let start = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return asked,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if start.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown; killed".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
