//! The host fingerprint carried by every run's record line: a number
//! measured on one machine means nothing beside one from another.

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// Cores, CPU model, compiler and commit. The benchmark also runs from
/// exported trees that are no git repository; the commit is then
/// `unknown`, which is itself worth recording.
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    Json::obj()
        .field(
            "cores",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .field("cpu", cpu_model().unwrap_or_else(unknown))
        .field(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        .field(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .field("os", std::env::consts::OS)
        .field("arch", std::env::consts::ARCH)
}
