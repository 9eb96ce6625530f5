//! Process accounting from `/proc`, the machine description printed
//! with every result, and the server process the benchmark drives.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Fields of `/proc/<pid>/stat` after the `(comm)` field.
fn stat_fields(pid: u32) -> io::Result<Vec<u64>> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    // Field 3 (state) is a letter; keep positions by mapping it to 0.
    Ok(rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect())
}

/// CPU seconds used by `pid` and by every child it has reaped.
pub fn cpu_s(pid: u32) -> f64 {
    match stat_fields(pid) {
        // utime, stime, cutime, cstime are fields 14..=17.
        Ok(f) if f.len() > 14 => (f[11] + f[12] + f[13] + f[14]) as f64 / TICKS_PER_S,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) of `pid` in MB, 0 once it is gone.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(text) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Live children of `pid`.
pub fn children(pid: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&child| stat_fields(child).is_ok_and(|f| f.get(1) == Some(&u64::from(pid))))
        .collect()
}

/// Waits (up to `limit`) until `pid` has reaped every child, so their
/// CPU time has moved into its `cutime`/`cstime`.
pub fn wait_for_no_children(pid: u32, limit: Duration) {
    let start = Instant::now();
    while !children(pid).is_empty() && start.elapsed() < limit {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Machine-wide CPU ticks since boot: `(all, stolen)`. Stolen ticks are
/// time the hypervisor ran something else on this guest's CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// `nproc`, `git describe` and `rustc -V`, recorded with every result.
pub fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "nproc={nproc} git_describe={} rustc={}",
        run("git", &["describe", "--always", "--dirty"]),
        run("rustc", &["-V"])
    )
}

/// A `leakage-server` child process on an ephemeral port.
pub struct ServerProc {
    child: Child,
    /// The read end of the server's stdout, held open until it exits.
    _stdout: BufReader<ChildStdout>,
    /// `HOST:PORT` the server printed on start-up.
    pub addr: String,
}

impl ServerProc {
    /// Starts `<bin_dir>/leakage-server` with `args` and `env`, and
    /// waits for its `listening on` line.
    pub fn start(bin_dir: &Path, args: &[String], env: &[(&str, &Path)]) -> io::Result<Self> {
        let mut command = Command::new(bin_dir.join("leakage-server"));
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        for (key, value) in env {
            command.env(key, value);
        }
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        match read_addr(&mut stdout) {
            Ok(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            Err(err) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(err)
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain (SIGTERM) and waits for it to exit,
    /// killing it if it has not exited within ten seconds.
    pub fn stop(mut self) -> io::Result<()> {
        self.terminate()
    }

    fn terminate(&mut self) -> io::Result<()> {
        if self.child.try_wait()?.is_some() {
            return Ok(());
        }
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("server did not drain within 10 s"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.terminate();
    }
}

fn read_addr(stdout: &mut BufReader<ChildStdout>) -> io::Result<String> {
    let mut line = String::new();
    while stdout.read_line(&mut line)? > 0 {
        if let Some(addr) = line.strip_prefix("listening on ") {
            return Ok(addr.trim().to_string());
        }
        line.clear();
    }
    Err(io::Error::other(
        "server exited before printing its address",
    ))
}
