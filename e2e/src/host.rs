//! What the host was doing while a number was taken: two fixed probes
//! (a spin loop and a memory sweep) timed before and after each
//! workload, the process's peak resident set, and the build's identity.
//! None of these measure the program; they say whether the other
//! numbers did.

use std::hint::black_box;
use std::time::Instant;

/// Results of one pass of the two probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub cpu_ms: f64,
    pub mem_gbps: f64,
}

const SPIN_STEPS: u64 = 20_000_000;
const SWEEP_BYTES: usize = 32 << 20;
const SWEEP_PASSES: usize = 2;

/// A dependent integer chain: one core, no memory, fixed work.
fn spin() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Sequential reads over a buffer larger than the last-level cache.
fn sweep() -> f64 {
    let buffer = vec![1u64; SWEEP_BYTES / 8];
    let started = Instant::now();
    let mut sum = 0u64;
    for _ in 0..SWEEP_PASSES {
        sum = sum.wrapping_add(black_box(&buffer).iter().copied().sum::<u64>());
    }
    black_box(sum);
    (SWEEP_BYTES * SWEEP_PASSES) as f64 / started.elapsed().as_secs_f64() / 1e9
}

/// Three passes of each probe. The spin reports its fastest pass —
/// the one least disturbed, and not the first pass of a fresh process,
/// which runs before the core has clocked up. The sweep reports its
/// median pass: its fastest is whichever pass happened to find part of
/// the buffer still in cache.
pub fn probe() -> Probe {
    let cpu_ms = (0..3).map(|_| spin()).fold(f64::INFINITY, f64::min);
    let sweeps: Vec<f64> = (0..3).map(|_| sweep()).collect();
    Probe {
        cpu_ms,
        mem_gbps: crate::stats::median(&sweeps),
    }
}

/// Relative change of the spin probe between two passes. The sweep is
/// reported but not judged: on this kind of host a fresh 32 MiB buffer
/// reads at 14 or at 22 GB/s depending on whether the allocation got
/// huge pages, which says nothing about drift.
pub fn drift(before: Probe, after: Probe) -> f64 {
    if before.cpu_ms > 0.0 {
        (after.cpu_ms / before.cpu_ms - 1.0).abs()
    } else {
        0.0
    }
}

/// This process's peak resident set (`VmHWM`) in MiB; `None` where
/// `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, or `"unknown"` outside a git repository (the
/// benchmark driver runs from a plain copy of the files).
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_the_relative_change_of_the_spin_probe() {
        let a = Probe {
            cpu_ms: 100.0,
            mem_gbps: 10.0,
        };
        let slower = Probe {
            cpu_ms: 112.0,
            mem_gbps: 20.0,
        };
        let faster = Probe { cpu_ms: 88.0, ..a };
        assert!((drift(a, slower) - 0.12).abs() < 1e-12);
        assert!((drift(a, faster) - 0.12).abs() < 1e-12);
        assert_eq!(drift(a, a), 0.0);
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
