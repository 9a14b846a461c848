//! What the tests that drive the real binaries share: a per-test temp dir
//! that is removed on drop, and a run with a deadline that captures both
//! streams.  Each test crate that includes it uses its own subset.
#![allow(dead_code)]

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long any one wait of these tests may take before it fails the test
/// instead of stalling the suite.
pub const DEADLINE: Duration = Duration::from_secs(120);

/// A checked-in spec, by stem.
pub fn spec_path(stem: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("specs/{stem}.json"))
}

/// A fresh directory under the system temp root, removed with everything in
/// it when dropped (a failed assert unwinds through the drop too).  Every
/// file a test's binaries write goes under it, and they run with it as their
/// working directory, so a default `target/…` path lands in it as well.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cli-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        TempDir(dir)
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// A command for one of this package's binaries, run in this directory.
    pub fn command(&self, bin: &str) -> Command {
        let mut cmd = Command::new(bin);
        cmd.current_dir(&self.0);
        cmd
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A finished process: its exit status and both streams.
pub struct Run {
    pub status: ExitStatus,
    pub stdout: String,
    pub stderr: String,
}

impl Run {
    /// Panic with both streams unless the process exited 0.
    pub fn ok(self) -> Self {
        assert!(
            self.status.success(),
            "exit {:?}\nstdout:\n{}\nstderr:\n{}",
            self.status.code(),
            self.stdout,
            self.stderr
        );
        self
    }
}

/// Run `cmd` to completion, reading both streams on their own threads so a
/// full pipe never blocks it.  Past [`DEADLINE`] the process is killed and
/// the test fails.
pub fn run(cmd: &mut Command) -> Run {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot start {cmd:?}: {e}"));
    let drain = |mut stream: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            stream.read_to_string(&mut text).expect("utf-8 output");
            text
        })
    };
    let stdout = drain(Box::new(child.stdout.take().unwrap()));
    let stderr = drain(Box::new(child.stderr.take().unwrap()));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on the child") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{cmd:?} still running after {DEADLINE:?}; killed");
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    Run {
        status,
        stdout: stdout.join().unwrap(),
        stderr: stderr.join().unwrap(),
    }
}

/// A file's text, or a panic that names the file.
pub fn file_text(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}
