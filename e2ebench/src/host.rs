//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the host stamp every result carries.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// has exported `USER_HZ = 100` to user space on every architecture for
/// decades; reading `sysconf` would need a foreign call.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds of this process plus its reaped children (utime, stime,
/// cutime, cstime of `/proc/self/stat`). Farm workers are reaped when
/// their farm drops, so a farmed study's workers are included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime..cstime are fields 14..=17.
    let ticks: u64 = fields
        .get(11..15)
        .ok_or("short /proc/self/stat")?
        .iter()
        .map(|f| {
            f.parse::<u64>()
                .map_err(|e| format!("/proc/self/stat: {e}"))
        })
        .sum::<Result<u64, String>>()?;
    Ok(ticks as f64 / TICKS_PER_S)
}

/// Reset this process's peak resident set size to its current size.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", b"5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The execution context a result was measured in.
#[derive(Debug, Clone)]
pub struct Host {
    pub parallelism: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub profile: &'static str,
    /// Filesystem type of the directory holding the run journals.
    pub scratch_fs: String,
}

impl Host {
    pub fn probe(scratch: &Path) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            scratch_fs: fs_type(scratch),
        }
    }

    /// fsync on tmpfs is free, which would hide the journal layer.
    pub fn scratch_on_tmpfs(&self) -> bool {
        self.scratch_fs == "tmpfs" || self.scratch_fs == "ramfs"
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \
             \"git_rev\": {}, \"profile\": {}, \"scratch_fs\": {}, \"scratch_tmpfs\": {}}}",
            self.parallelism,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            json_str(self.profile),
            json_str(&self.scratch_fs),
            self.scratch_on_tmpfs()
        )
    }
}

/// First line of a command's standard output, or `unknown` when the
/// command fails (as `git` does outside a git checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir`: the longest mount point in
/// `/proc/self/mountinfo` that prefixes its canonical path.
fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let cpu = cpu_seconds().unwrap();
        assert!(cpu >= 0.0);
        reset_peak_rss().unwrap();
        let before = peak_rss_mb().unwrap();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb().unwrap() >= before + 32.0);
    }

    #[test]
    fn host_stamp_names_every_field() {
        let host = Host::probe(Path::new("."));
        assert!(host.parallelism >= 1);
        let json = host.to_json();
        for key in [
            "available_parallelism",
            "cpu_model",
            "rustc",
            "git_rev",
            "profile",
            "scratch_fs",
            "scratch_tmpfs",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "{json}");
        }
        assert_ne!(host.scratch_fs, "unknown");
    }
}
