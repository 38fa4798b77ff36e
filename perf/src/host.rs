//! What the benchmark reads from the host: peak memory, core count, the
//! commit, and where files go.

use std::path::{Path, PathBuf};

/// The repository root: `perf/` is always built in place, one level below.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perf/ sits inside the repository")
        .to_path_buf()
}

/// Where every file the benchmark writes goes (ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The engine's spill root for this process. The engine's own default is
/// `TEXTMR_TMP`, else `/dev/shm`, else the system temp dir — all outside
/// the checkout, where a benchmark run may not write — so every workload
/// sets `ClusterConfig::temp_dir` to this directory instead.
pub fn spill_root() -> PathBuf {
    out_dir().join(format!("spill-{}", std::process::id()))
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Short commit hash of the repository, or `unknown` outside a git checkout
/// (the driver's checkouts are plain directories).
pub fn commit() -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// This process's peak resident set in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so that
/// `peak_rss_mb` after the timed repetitions reports the engine's peak and
/// not input generation's. Returns whether the kernel allowed it; where it
/// does not, the peak covers set-up too, on every commit alike.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The `[profile.release]` table of a manifest as sorted `key = value`
/// lines, comments and blank lines dropped.
#[cfg(test)]
fn release_profile(manifest: &str) -> Vec<String> {
    let mut out: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\ttextmr-perf\nUmask:\t0022\nState:\tR (running)\n\
        VmPeak:\t  412340 kB\nVmSize:\t  401212 kB\nVmLck:\t       0 kB\n\
        VmHWM:\t  182736 kB\nVmRSS:\t  120004 kB\nThreads:\t1\n";

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(182_736));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 kB\n"), Some(12));
    }

    #[test]
    fn vm_hwm_parser_rejects_what_it_does_not_understand() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t  120004 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t  lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t  12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn live_status_has_a_peak() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn release_profile_reads_only_its_table() {
        let m = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug   =  \"line-tables-only\"\n\
                 overflow-checks = true\n\n[profile.bench]\ndebug = false\n";
        assert_eq!(
            release_profile(m),
            vec!["debug = \"line-tables-only\"", "overflow-checks = true"]
        );
        assert!(release_profile("[package]\n").is_empty());
    }

    /// The benchmark must be built like the program it measures.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let read =
            |p: PathBuf| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
        let ours = release_profile(&read(repo_root().join("perf/Cargo.toml")));
        let root = release_profile(&read(repo_root().join("Cargo.toml")));
        assert!(!root.is_empty(), "root manifest has a [profile.release]");
        assert_eq!(
            ours, root,
            "perf/Cargo.toml [profile.release] drifted from the root's"
        );
    }
}
