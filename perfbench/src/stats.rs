//! Small numeric helpers and the machine fingerprint.

use std::process::Command;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive ratios; `NaN` for an empty slice.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Normalized hypervolume of `(energy, latency)` points against the box
/// `[0, 2·base_energy] × [0, 2·base_latency]`: the share of the box the
/// points dominate. Computed here, apart from the program's own
/// `fact_core::hypervolume`.
pub fn normalized_hypervolume(points: &[(f64, f64)], base_energy: f64, base_latency: f64) -> f64 {
    let (re, rl) = (2.0 * base_energy, 2.0 * base_latency);
    let mut pts: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(e, l)| e < re && l < rl)
        .collect();
    pts.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.total_cmp(&b.0)));
    // Sweep by ascending latency; each point adds the strip below the
    // lowest energy seen so far.
    let (mut area, mut level) = (0.0, re);
    for (e, l) in pts {
        let e = e.max(0.0);
        if e < level {
            area += (rl - l) * (level - e);
            level = e;
        }
    }
    area / (re * rl)
}

/// `VmHWM` (peak resident set) of process `pid` (or this process for
/// `None`) in MB, read from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine fingerprint recorded with every output, as one JSON
/// object: nproc, CPU model, git revision and rustc version.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // `-dirty` marks a tree with uncommitted changes; outside a git
    // repository the revision reads `unknown`.
    let rev = command_line("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    let rustc = command_line("rustc", &["--version"]);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"git_rev\": {}, \"rustc\": {}}}",
        json_str(&cpu),
        json_str(&rev),
        json_str(&rustc)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    fact_serve::json::Value::Str(s.to_string()).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn hypervolume_of_the_baseline_is_a_quarter() {
        // The baseline itself dominates the upper-right quarter of the box.
        assert!((normalized_hypervolume(&[(1.0, 1.0)], 1.0, 1.0) - 0.25).abs() < 1e-12);
        // A dominated extra point adds nothing.
        let hv = normalized_hypervolume(&[(1.0, 1.0), (1.5, 1.5)], 1.0, 1.0);
        assert!((hv - 0.25).abs() < 1e-12);
        // A staircase adds its strips.
        let hv = normalized_hypervolume(&[(1.0, 1.0), (0.5, 1.5)], 1.0, 1.0);
        assert!((hv - (0.25 + 0.5 * 0.5 / 4.0)).abs() < 1e-12);
    }
}
