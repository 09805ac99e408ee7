//! Host fingerprint and process memory high-water mark.

/// What the numbers were measured on; embedded in every `--out` record.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
}

impl Host {
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\"}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], " "),
            self.rustc.replace(['"', '\\'], " ")
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Thread-team size every training workload uses: the paper's scheme at
/// the parallelism this box really has, capped so results stay comparable
/// with the 2-core box the workloads were sized on.
pub fn team_size() -> usize {
    nproc().min(2)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
