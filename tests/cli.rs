//! The binaries end to end: what only a real `campaign`, `redteam`,
//! `campaignd` or `campaignctl` process can get wrong — flag parsing and exit
//! codes, the stderr diagnostics, `--resume` over a torn file on disk,
//! `--trace-dir` output, counterexample files, and a server that is
//! SIGKILLed mid-job and restarted.  The library-level contracts these rest
//! on are tested in `spec_campaign`, `redteam`, `campaignd` and
//! `artifact_cache`; `spec_campaign::campaign_cli_bytes_are_golden` pins the
//! bytes `campaign` writes at any thread count, cache on or off.
//!
//! Every process runs in a per-test temp dir that holds all its output, every
//! wait has a deadline, and every server is killed and reaped on drop.

mod common;

use common::{file_text, run, spec_path, Run, TempDir, DEADLINE};
use mobile_congest::harness::CampaignSpec;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_campaign");
const REDTEAM: &str = env!("CARGO_BIN_EXE_redteam");
const CAMPAIGND: &str = env!("CARGO_BIN_EXE_campaignd");
const CAMPAIGNCTL: &str = env!("CARGO_BIN_EXE_campaignctl");

/// `bin --spec SPEC --out OUT [extra…]`, run in `dir`.
fn run_spec(dir: &TempDir, bin: &str, spec: &Path, out: &Path, extra: &[&str]) -> Run {
    run(dir
        .command(bin)
        .arg("--spec")
        .arg(spec)
        .arg("--out")
        .arg(out)
        .args(extra))
}

/// The value of the first `"key":"…"` string field of a JSON document.
fn json_str(doc: &str, key: &str) -> String {
    let tag = format!("\"{key}\":\"");
    let start = doc
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {doc}"))
        + tag.len();
    let len = doc[start..].find('"').expect("closed string");
    doc[start..start + len].to_string()
}

/// The number in `text` right after `prefix` (digits only).
fn number_after(text: &str, prefix: &str) -> usize {
    let start = text
        .find(prefix)
        .unwrap_or_else(|| panic!("no `{prefix}` in:\n{text}"))
        + prefix.len();
    let digits: String = text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number after `{prefix}` in:\n{text}"))
}

fn lines_with(text: &str, needle: &str) -> usize {
    text.lines().filter(|line| line.contains(needle)).count()
}

/// A trajectory cut the way a crash cuts it: the header, the first half of
/// the record lines, and the first 40 bytes of the next one.
fn torn_half(trajectory: &str) -> String {
    let lines: Vec<&str> = trajectory.split_inclusive('\n').collect();
    let half = (lines.len() - 1) / 2;
    let mut cut: String = lines[..1 + half].concat();
    cut.push_str(&lines[1 + half][..40]);
    cut
}

#[test]
fn campaign_resume_rewrites_the_one_shot_bytes_over_a_torn_half() {
    let dir = TempDir::new("resume");
    let spec = spec_path("e16-small");
    let one_shot = dir.join("one-shot.jsonl");
    let out = dir.join("trajectory.jsonl");
    let cached = run_spec(&dir, CAMPAIGN, &spec, &one_shot, &[]).ok();
    // The grid repeats its cells' artifacts, and the CLI reports the hits.
    assert!(
        number_after(&cached.stderr, "artifact cache: ") > 0,
        "{}",
        cached.stderr
    );
    let one_shot = file_text(&one_shot);

    std::fs::write(&out, torn_half(&one_shot)).unwrap();
    run_spec(&dir, CAMPAIGN, &spec, &out, &["--resume", "--quiet"]).ok();
    assert_eq!(file_text(&out), one_shot, "a resumed trajectory differs");

    // Over the complete trajectory a resume executes nothing.
    let again = run_spec(&dir, CAMPAIGN, &spec, &out, &["--resume"]).ok();
    assert!(again.stderr.contains("0 cells to run"), "{}", again.stderr);
    assert!(again.stderr.contains("nothing to do"), "{}", again.stderr);
    assert_eq!(file_text(&out), one_shot);
}

#[test]
fn dry_run_prints_its_two_lines_and_unknown_flags_fail_by_name() {
    let dir = TempDir::new("dry-run");
    let spec = spec_path("async-partial-sync");
    let dry = run(dir
        .command(CAMPAIGN)
        .arg("--spec")
        .arg(&spec)
        .arg("--dry-run"))
    .ok();
    let valid = format!("dry run: spec {} is valid", spec.display());
    assert!(dry.stderr.contains(&valid), "{}", dry.stderr);
    assert!(
        dry.stderr.contains("40 cells total; 0 executed"),
        "{}",
        dry.stderr
    );
    assert_eq!(dry.stdout, "", "a dry run prints no summary lines");

    let flag = run(dir.command(CAMPAIGN).arg("--frobnicate"));
    assert!(!flag.status.success(), "an unknown flag must fail");
    assert!(
        flag.stderr.contains("unknown flag `--frobnicate`"),
        "{}",
        flag.stderr
    );
}

#[test]
fn traced_campaign_emits_every_phase_and_closes_every_span() {
    let dir = TempDir::new("trace");
    let traces = dir.join("traces");
    let out = dir.join("trajectory.jsonl");
    let trace_dir = ["--trace-dir", traces.to_str().unwrap()];
    let traced = run_spec(&dir, CAMPAIGN, &spec_path("e16-small"), &out, &trace_dir).ok();

    let mut files: Vec<_> = std::fs::read_dir(&traces)
        .expect("the trace dir is written")
        .map(|entry| entry.unwrap().path())
        .collect();
    files.sort();
    let events: String = files.iter().map(|path| file_text(path)).collect();
    for phase in [
        "graph_build",
        "csr_index",
        "packing",
        "key_schedule",
        "round_exchange",
        "correction",
        "decode",
    ] {
        assert!(
            events.contains(&format!("\"phase\":\"{phase}\"")),
            "no {phase} span in the traces"
        );
    }
    assert!(events.contains("\"ev\":\"corruption\""));
    let opens = lines_with(&events, "\"ev\":\"span_open\"");
    let closes = lines_with(&events, "\"ev\":\"span_close\"");
    assert!(opens > 0);
    assert_eq!(opens, closes, "every opened span closes");

    // The profile table goes to stderr, the profile and congestion facets
    // ride on the stdout summary lines.
    assert!(
        traced.stderr.contains("round_exchange"),
        "{}",
        traced.stderr
    );
    assert!(traced.stdout.contains("\"profile\":{"));
    assert!(traced.stdout.contains("\"cong_p99\""));
}

#[test]
fn redteam_emits_a_replayable_counterexample_and_resumes() {
    let dir = TempDir::new("redteam");
    let spec = spec_path("redteam-v1-frontier");
    let out = dir.join("redteam.jsonl");
    let ce_dir = dir.join("ce");
    let ce = ["--ce-dir", ce_dir.to_str().unwrap()];
    let search = |extra: &[&str]| run_spec(&dir, REDTEAM, &spec, &out, &[&ce, extra].concat()).ok();
    search(&["--quiet"]);
    let one_shot = file_text(&out);
    assert!(one_shot.contains("\"kind\":\"unit\""));
    assert!(one_shot.contains("\"ce\":{"), "no counterexample found");

    let mut ce_specs = Vec::new();
    let mut replays = Vec::new();
    for entry in std::fs::read_dir(&ce_dir).expect("the ce dir is written") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.ends_with("-replay.jsonl") {
            replays.push(path);
        } else if name.contains("-unit") && name.ends_with(".json") {
            ce_specs.push(path);
        }
    }
    ce_specs.sort();
    assert!(!ce_specs.is_empty(), "no counterexample spec written");
    assert!(!replays.is_empty(), "no replay trace written");
    // Each replay trace records the synthesized corruption schedule …
    for replay in &replays {
        assert!(file_text(replay).contains("\"kind\":\"round\""));
    }
    // … and a counterexample spec replays through the ordinary campaign CLI
    // to the pinned failure.
    let replayed = dir.join("replayed.jsonl");
    run_spec(&dir, CAMPAIGN, &ce_specs[0], &replayed, &["--quiet"]).ok();
    assert!(file_text(&replayed).contains("\"agrees\":false"));

    std::fs::write(&out, torn_half(&one_shot)).unwrap();
    search(&["--resume", "--quiet"]);
    assert_eq!(file_text(&out), one_shot, "a resumed trajectory differs");
    let again = search(&["--resume"]);
    assert!(again.stderr.contains("nothing to do"), "{}", again.stderr);
}

/// Engine threads per server: several, so each batch runs on the engine's
/// work-stealing pool, as on a multi-core host.
const SERVER_WORKERS: usize = 4;

/// A `campaignd` process on an ephemeral port, SIGKILLed and reaped when
/// dropped, so a failed assert leaves no daemon behind.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Start a server of [`SERVER_WORKERS`] engine threads on `dir/data`,
    /// stderr to `dir/<log>`, and wait for the `listening` line.
    fn start(dir: &TempDir, log: &str) -> Server {
        let stderr = std::fs::File::create(dir.join(log)).unwrap();
        let mut child = dir
            .command(CAMPAIGND)
            .arg("--data-dir")
            .arg(dir.join("data"))
            .args(["--addr", "127.0.0.1:0", "--threads"])
            .arg(SERVER_WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("campaignd starts");
        let stdout = child.stdout.take().unwrap();
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let line = rx
            .recv_timeout(DEADLINE)
            .expect("campaignd prints its listening line in time");
        reader.join().expect("the listening-line reader");
        assert!(
            line.contains("\"kind\":\"listening\""),
            "campaignd did not start: {line:?}\n{}",
            file_text(&dir.join(log))
        );
        server.addr = json_str(&line, "addr");
        server
    }

    fn ctl(&self, dir: &TempDir, args: &[&str]) -> Run {
        run(dir
            .command(CAMPAIGNCTL)
            .args(["--addr", &self.addr, "--quiet"])
            .args(args))
        .ok()
    }

    fn kill(mut self) {
        let exited = self.child.try_wait().expect("poll campaignd");
        assert!(exited.is_none(), "campaignd exited on its own: {exited:?}");
        self.child.kill().expect("SIGKILL campaignd");
        self.child.wait().expect("reap campaignd");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Repetitions of the 27-cell e16 grid for the job the server is killed in,
/// against a kill that follows the first durable batch within milliseconds.
/// The server runs a job as eight batches of `⌈cells / 8⌉` (675 cells in
/// debug, 6 750 in release), one after another.  When the kill lands,
/// `cells.log` held 675 of 5 400 lines in debug, and in release 6 750 of
/// 54 000, or 5 740 when the kill cut the first append short, so seven
/// eighths of the job are still to run.
const KILL_REPETITIONS: usize = if cfg!(debug_assertions) { 200 } else { 2000 };

#[test]
fn campaignd_matches_the_cli_and_recovers_from_sigkill() {
    let dir = TempDir::new("campaignd");
    let spec = spec_path("e16-small");
    let server = Server::start(&dir, "server1.log");

    // A served campaign is byte-identical to the one-shot CLI run.
    let status = server.ctl(
        &dir,
        &["submit", "--spec", spec.to_str().unwrap(), "--watch"],
    );
    assert!(
        status.stdout.contains("\"state\":\"done\""),
        "{}",
        status.stdout
    );
    let fp = json_str(&status.stdout, "fingerprint");
    let direct_out = dir.join("direct.jsonl");
    let direct = run_spec(&dir, CAMPAIGN, &spec, &direct_out, &["--quiet"]).ok();
    assert_eq!(server.ctl(&dir, &["summary", &fp]).stdout, direct.stdout);
    assert_eq!(
        server.ctl(&dir, &["trajectory", &fp]).stdout,
        file_text(&direct_out)
    );

    // A done job's directory holds exactly what recovery reads.
    let job_dir = |fp: &str| dir.join("data").join("jobs").join(fp);
    let mut files: Vec<String> = std::fs::read_dir(job_dir(&fp))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["cells.log", "spec.json"]);

    // SIGKILL the server mid-job: right after the first durable batch.
    let text = file_text(&spec);
    let scaled = text.replace(
        "\"repetitions\": 2,",
        &format!("\"repetitions\": {KILL_REPETITIONS},"),
    );
    assert_ne!(scaled, text, "specs/e16-small.json sets its repetitions");
    let total = CampaignSpec::from_json(&scaled).unwrap().cell_count();
    let big_spec = dir.join("e16-big.json");
    std::fs::write(&big_spec, &scaled).unwrap();
    let submitted = server.ctl(&dir, &["submit", "--spec", big_spec.to_str().unwrap()]);
    let big = json_str(&submitted.stdout, "fingerprint");
    let log = job_dir(&big).join("cells.log");
    let start = Instant::now();
    while !std::fs::read_to_string(&log).is_ok_and(|log| log.contains('\n')) {
        assert!(start.elapsed() < DEADLINE, "no durable batch in time");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.kill();
    let durable = file_text(&log).matches('\n').count();
    assert!(
        0 < durable && durable < total,
        "the kill did not land mid-job ({durable} of {total} cells durable), \
         so this run checks no recovery: make the job bigger"
    );

    // Restarted on the same store, the server keeps every durable cell and
    // requeues exactly the rest.
    let server = Server::start(&dir, "server2.log");
    let recovered = file_text(&dir.join("server2.log"));
    let prefix = format!("recovered job {big}: ");
    assert_eq!(number_after(&recovered, &prefix), durable, "{recovered}");
    let requeued = format!("{prefix}{durable} cells done, requeued ");
    assert_eq!(
        number_after(&recovered, &requeued),
        total - durable,
        "{recovered}"
    );
    let done = server.ctl(&dir, &["watch", &big]);
    assert!(
        done.stdout.contains("\"state\":\"done\""),
        "{}",
        done.stdout
    );

    // The resumed report is still byte-identical to the one-shot run.
    let direct_out = dir.join("direct-big.jsonl");
    let direct = run_spec(&dir, CAMPAIGN, &big_spec, &direct_out, &["--quiet"]).ok();
    assert_eq!(server.ctl(&dir, &["summary", &big]).stdout, direct.stdout);
    assert_eq!(
        server.ctl(&dir, &["trajectory", &big]).stdout,
        file_text(&direct_out)
    );
    server.kill();
}

/// Specs that used to kill `campaign` with exit 101, and one that silently
/// disagreed, with what each run must write instead.  A payload wider than
/// the compilers' `words` (the width assert in the Theorem 1.3 send loop /
/// `KeyPool::apply`); a disconnected graph under congestion-sensitive (the
/// secure broadcast's packing, built inside `execute`); a key schedule of
/// `ℓ = r + t` past the 2^16 − 1 points of GF(2^16) — `t: 65536` under
/// static-to-mobile, `f: 40000` under congestion-sensitive (`t = 2·f·r`), the
/// `expect` in `KeyPool::establish`; and a flood of 2^41 + 5 through the
/// sketch-correction compilers (masked to the 40-bit lane of a sketch
/// element).  Each entry: name, spec, skipped cells, and (message, lines).
const MISCONFIGURATIONS: [(&str, &str, usize, (&str, usize)); 4] = [
    (
        "too-wide",
        r#"{"kind":"campaign-spec","seed":9,"repetitions":1,"grid":{
 "graphs":[{"family":"complete","n":8}],
 "adversaries":[{"kind":"eavesdropper","f":1}],
 "compilers":[{"id":"congestion-sensitive","f":1,"words":1,"seed":5},
              {"id":"static-to-mobile","t":4,"words":1,"seed":5}],
 "payload":{"kind":"token-dissemination","batch":2}}}"#,
        2,
        ("wider than the configured words_per_message = 1", 2),
    ),
    (
        "disconnected-secure",
        r#"{"kind":"campaign-spec","seed":9,"repetitions":2,"grid":{
 "graphs":[{"family":"expander-d-regular","n":24,"d":2,"seed":2}],
 "adversaries":[{"kind":"eavesdropper","f":1}],
 "compilers":[{"id":"congestion-sensitive","f":1,"words":2,"seed":5}],
 "payload":{"kind":"exchange-ids"}}}"#,
        2,
        ("needs a connected graph", 2),
    ),
    (
        "oversized-key-schedule",
        r#"{"kind":"campaign-spec","seed":9,"repetitions":1,"grid":{
 "graphs":[{"family":"complete","n":4}],
 "adversaries":[{"kind":"eavesdropper","f":1}],
 "compilers":[{"id":"static-to-mobile","t":65536,"words":1,"seed":5},
              {"id":"congestion-sensitive","f":40000,"words":1,"seed":5}],
 "payload":{"kind":"flood-broadcast","source":0,"value":7}}}"#,
        2,
        ("past the 65535 distinct non-zero points of GF(2^16)", 2),
    ),
    // Every byzantine cell of the wide-word grid is a skip: 18 rejected at
    // the first sent round, 6 clique cells off the clique.
    (
        "wide-word",
        r#"{"kind":"campaign-spec","seed":9,"repetitions":3,"grid":{
 "graphs":[{"family":"complete","n":12},{"family":"circulant","n":18,"k":4}],
 "adversaries":[{"kind":"random-mobile","f":1},
                {"kind":"greedy-heaviest","f":1,"mode":"flip-low-bit"}],
 "compilers":[{"id":"clique","f":1,"seed":5},{"id":"tree-packing","f":1,"seed":5}],
 "payload":{"kind":"flood-broadcast","source":0,"value":2199023255557}}}"#,
        24,
        ("wider than the 40-bit lane", 18),
    ),
];

#[test]
fn misconfigurations_are_skipped_cells_not_panics() {
    let dir = TempDir::new("misconfigurations");
    for (name, spec, skipped, (message, with_message)) in MISCONFIGURATIONS {
        let spec_file = dir.join(&format!("{name}.json"));
        std::fs::write(&spec_file, spec).unwrap();
        let [cached, uncached] = ["", "--no-cache"].map(|cache| {
            let out = dir.join(&format!("{name}{cache}.jsonl"));
            let mut extra = vec!["--threads", "1", "--quiet"];
            extra.extend((!cache.is_empty()).then_some(cache));
            let run = run_spec(&dir, CAMPAIGN, &spec_file, &out, &extra);
            assert!(!run.stderr.contains("panicked"), "{name}: {}", run.stderr);
            let run = run.ok();
            (file_text(&out), run.stdout)
        });
        assert_eq!(cached, uncached, "{name}: cache on and off differ");
        let trajectory = &cached.0;
        assert_eq!(
            lines_with(trajectory, "\"status\":\"skipped\""),
            skipped,
            "{name}"
        );
        assert_eq!(lines_with(trajectory, message), with_message, "{name}");
    }
}

#[test]
fn a_flood_on_a_disconnected_graph_is_refused_with_exit_1() {
    let dir = TempDir::new("disconnected-flood");
    let spec = dir.join("disconnected-flood.json");
    std::fs::write(
        &spec,
        r#"{"kind":"campaign-spec","seed":9,"repetitions":1,"grid":{
 "graphs":[{"family":"expander-d-regular","n":24,"d":2,"seed":2}],
 "adversaries":[{"kind":"random-mobile","f":1}],
 "compilers":[{"id":"uncompiled"}],
 "payload":{"kind":"flood-broadcast","source":0,"value":7}}}"#,
    )
    .unwrap();
    let refused = run_spec(&dir, CAMPAIGN, &spec, &dir.join("t.jsonl"), &["--quiet"]);
    assert_eq!(refused.status.code(), Some(1), "{}", refused.stderr);
    assert!(!refused.stderr.contains("panicked"), "{}", refused.stderr);
    assert!(
        refused.stderr.contains(
            "payload flood-broadcast needs a connected graph, and `expander(24,2)` is disconnected"
        ),
        "{}",
        refused.stderr
    );
}
