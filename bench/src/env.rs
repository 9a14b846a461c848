//! Where things live (repo root, build directory, output directory), how the
//! measured binaries get built, and the host descriptor every result carries.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: this package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ has a parent directory")
        .to_path_buf()
}

/// Cargo's build directory for the *root* workspace: `CARGO_TARGET_DIR`
/// when set (relative values resolve against the current directory, as
/// cargo does), else `<root>/target`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir()
                    .map(|cwd| cwd.join(&dir))
                    .unwrap_or(dir)
            }
        }
        _ => repo_root().join("target"),
    }
}

/// Everything the bench writes goes under `<target>/bench/`.
pub fn out_dir() -> PathBuf {
    target_dir().join("bench")
}

/// The measured release binaries.
pub struct Binaries {
    pub campaign: PathBuf,
    pub campaignd: PathBuf,
}

/// Build `campaign` and `campaignd` in release mode at the repo root and
/// return their paths.  Cargo decides what is stale, so a binary older than
/// its sources cannot be measured by accident; the build is a no-op of a
/// fraction of a second when nothing changed and is never part of a timing.
pub fn ensure_binaries() -> Result<Binaries, String> {
    let root = repo_root();
    if !root.join("Cargo.toml").is_file() || !root.join("src").is_dir() {
        return Err(format!(
            "{} holds no Cargo.toml and src/: the bench measures the release binaries of the \
             repository it sits in and cannot run without its sources",
            root.display()
        ));
    }
    let target = target_dir();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "campaign",
            "--bin",
            "campaignd",
        ])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --bin campaign --bin campaignd` failed in {} ({status})",
            root.display()
        ));
    }
    let bins = Binaries {
        campaign: target.join("release").join("campaign"),
        campaignd: target.join("release").join("campaignd"),
    };
    for bin in [&bins.campaign, &bins.campaignd] {
        if !bin.is_file() {
            return Err(format!(
                "{} is missing after a successful build; is CARGO_TARGET_DIR set differently \
                 for cargo and for the bench?",
                bin.display()
            ));
        }
    }
    Ok(bins)
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub gf256_backend: String,
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn describe() -> Host {
        let root = repo_root();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name") || l.starts_with("Model"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            rustc: command_line("rustc", &["--version"], &root)
                .unwrap_or_else(|| "unknown".to_string()),
            gf256_backend: mobile_congest::codes::kernels::gf256_backend().to_string(),
            // A driver's checkout is not a git repository; the rev is then
            // whatever the caller records beside the file.
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"], &root)
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }
}
