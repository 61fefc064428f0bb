//! Result bookkeeping: named metrics with units, order statistics, process
//! counters read from `/proc/self`, host facts, and the JSON the benchmark
//! prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        // A value that is not a finite number cannot be written as JSON; it
        // only arises from a division by an empty count, so record zero.
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name, value, unit)),
        }
    }

    /// The metrics as the JSON object the result line carries.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The last line of standard output: the outcome of one run.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.to_json()
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits (Rust's shortest round-trip form).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The `q`-quantile of `samples` by the nearest-rank rule; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// CPU time and page faults of this process, from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

/// Clock ticks per second of the `/proc` CPU-time fields (`USER_HZ`), which
/// Linux fixes at 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

impl ProcCounters {
    pub fn read() -> ProcCounters {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state); minflt is field 10, utime 14,
        // stime 15 (1-based, as in proc(5)).
        let field =
            |n: usize| -> u64 { fields.get(n - 3).and_then(|v| v.parse().ok()).unwrap_or(0) };
        ProcCounters {
            user_s: field(14) as f64 / USER_HZ,
            sys_s: field(15) as f64 / USER_HZ,
            minor_faults: field(10),
        }
    }

    pub fn since(self, start: ProcCounters) -> ProcCounters {
        ProcCounters {
            user_s: self.user_s - start.user_s,
            sys_s: self.sys_s - start.sys_s,
            minor_faults: self.minor_faults.saturating_sub(start.minor_faults),
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Facts about the host and the build that every result is recorded with.
pub fn host_facts(extra: &[(&str, String)]) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let extension = if morph_vector::x86::avx2_available() {
        "avx2"
    } else {
        "portable"
    };
    let command_line = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let mut fields = vec![
        ("available_parallelism", parallelism.to_string()),
        ("cpu_model", cpu_model),
        ("l3_cache", l3),
        ("vector_extension", extension.to_string()),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", git_commit()),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"host\": {{{}}}}}", body.join(", "))
}

/// The commit checked out in the working directory, read from `.git` without
/// running git (which would search directories above the checkout).
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|id| id.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.9), 90.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("qps", 1.5, "1/s");
        m.set("qps", 2.0, "1/s");
        m.set("bad", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"qps\": {\"value\": 2, \"unit\": \"1/s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}"
        );
        assert_eq!(
            result_line(3, 0, &Metrics::default()),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
