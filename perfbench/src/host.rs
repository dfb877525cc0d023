//! The host a run is measured on: provenance stamps, memory, ceilings and
//! the run's scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Where every run keeps its scratch files, relative to the working
/// directory.
pub const SCRATCH_ROOT: &str = ".bench_tmp";

/// The git revision of the working directory and whether the tree differs
/// from it; `None` outside a git checkout.  The search for a repository
/// stops at the working directory.
pub fn git_revision() -> Option<(String, bool)> {
    let cwd = std::env::current_dir().ok()?;
    let git = |args: &[&str]| {
        let mut command = Command::new("git");
        command.args(args).current_dir(&cwd);
        if let Some(parent) = cwd.parent() {
            command.env("GIT_CEILING_DIRECTORIES", parent);
        }
        command
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).filter(|r| !r.is_empty())?;
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_none_or(|s| !s.is_empty());
    Some((rev, dirty))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the last-level cache of CPU 0, from the kernel's cache
/// description; `None` where the kernel does not describe it.
pub fn llc_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|v| v * 1024)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|v| v * 1024 * 1024)
        } else {
            size.parse::<u64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Memory-bandwidth and checksum ceilings over one buffer at least four
/// times the last-level cache: `(memcpy GB/s, fnv1a64 GB/s)`, each the
/// best of three passes.  The copy moves the buffer's first half onto its
/// second half and counts bytes read plus bytes written.
pub fn ceilings(llc: u64) -> (f64, f64) {
    let len = usize::try_from((4 * llc).max(256 << 20)).unwrap_or(usize::MAX) & !4095;
    let mut buffer: Vec<u8> = (0..len).map(|i| i as u8).collect();
    let half = len / 2;
    let mut memcpy = 0.0f64;
    let mut checksum = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        buffer.copy_within(..half, half);
        std::hint::black_box(&mut buffer);
        memcpy = memcpy.max((2 * half) as f64 / start.elapsed().as_secs_f64() / 1e9);
        let start = Instant::now();
        std::hint::black_box(dpl_store::format::fnv1a64(std::hint::black_box(&buffer)));
        checksum = checksum.max(len as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    (memcpy, checksum)
}

/// The scratch directory of one run, removed with everything in it when
/// dropped — on success, on failed checks and while unwinding a panic.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/run-<pid>-<n>`, first removing the directories
    /// of earlier runs whose process is gone (a run killed by a signal
    /// cannot clean up after itself).
    pub fn create() -> std::io::Result<Self> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let root = Path::new(SCRATCH_ROOT);
        std::fs::create_dir_all(root)?;
        let own = std::process::id();
        for entry in std::fs::read_dir(root)?.flatten() {
            let name = entry.file_name();
            let Some(pid) = name
                .to_str()
                .and_then(|n| n.strip_prefix("run-"))
                .and_then(|rest| rest.split('-').next())
                .and_then(|p| p.parse::<u32>().ok())
            else {
                continue;
            };
            if pid != own && !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = root.join(format!(
            "run-{own}-{}",
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scratch_directory_is_removed_when_a_run_panics() {
        let mut path = PathBuf::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let scratch = ScratchDir::create().unwrap();
            path = scratch.path().to_path_buf();
            std::fs::write(path.join("archive.dpltrc"), [0u8; 64]).unwrap();
            panic!("a failed campaign");
        }));
        assert!(outcome.is_err());
        assert!(!path.as_os_str().is_empty());
        assert!(!path.exists(), "{} survived the panic", path.display());
    }

    #[test]
    fn host_facts_are_plausible() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        if let Some(llc) = llc_bytes() {
            assert!(llc >= 1 << 10);
        }
    }
}
