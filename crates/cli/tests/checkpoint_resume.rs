//! Crash-safety end-to-end test: SIGKILL a checkpointing streaming
//! sweep mid-run, tear the newest checkpoint generation on disk, then
//! `--resume` and demand the final report be byte-identical to an
//! uninterrupted run. This is the whole point of generation-based
//! checkpointing — no fsync dance survives `kill -9` plus a torn file
//! unless older generations stay intact and loadable.

#![cfg(unix)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const MODEL: &str = "network ckpt-net 8x16x16\nconv c1 16 3 s1 p1\n";

fn codesign() -> Command {
    Command::new(env!("CARGO_BIN_EXE_codesign"))
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Fresh scratch directory for one test, with the model file inside.
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("codesign-ckpt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir creates");
    let model = dir.join("ckpt-net.net");
    fs::write(&model, MODEL).expect("model file writes");
    (dir, model)
}

/// A buffer axis long enough that the child reliably writes several
/// checkpoint generations before finishing.
fn buffer_axis(n: usize) -> String {
    (0..n).map(|i| (64 + i).to_string()).collect::<Vec<_>>().join(",")
}

fn generation_files(base: &Path) -> Vec<PathBuf> {
    let dir = base.parent().expect("base has a parent");
    let prefix = format!("{}.gen-", base.file_name().expect("base file name").to_string_lossy());
    let mut found: Vec<PathBuf> = fs::read_dir(dir)
        .expect("checkpoint dir lists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(&prefix)))
        .collect();
    found.sort();
    found
}

#[test]
fn killed_sweep_resumes_bit_identically_even_with_a_torn_newest_generation() {
    let (dir, model) = scratch("resume");
    let model = model.to_str().expect("utf-8 path");
    let base = dir.join("sweep.ck");
    let axis = buffer_axis(4000);
    let sweep_args =
        ["sweep", model, "--jobs", "2", "--arrays", "8", "--rfs", "8", "--buffers-kib", &axis];

    // Reference: the same sweep, uninterrupted, no checkpointing.
    let reference = codesign().args(sweep_args).output().expect("reference sweep runs");
    assert!(reference.status.success(), "reference failed: {}", stderr(&reference));
    let expected = stdout(&reference);
    assert!(expected.contains("best energy-delay:"), "no report in:\n{expected}");

    // Victim: same sweep, checkpointing every 100 points. Kill it as
    // soon as at least two generations exist, so the tear below still
    // leaves an older intact generation behind.
    let mut child = codesign()
        .args(sweep_args)
        .args(["--checkpoint", base.to_str().expect("utf-8 base"), "--checkpoint-every", "100"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim sweep spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if generation_files(&base).len() >= 2 {
            // SIGKILL: no atexit handlers, no final checkpoint, no
            // chance to tidy up. (If the child already finished, its
            // forced final checkpoint plus rotation still leaves
            // multiple generations — the resume path below is
            // exercised either way.)
            let _ = child.kill();
            break;
        }
        if child.try_wait().expect("child waits").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoints appeared within 120s");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.wait();
    let generations = generation_files(&base);
    assert!(generations.len() >= 2, "expected >=2 generations, got {generations:?}");

    // Tear the newest generation in half, as a crash mid-write would.
    let newest = generations.last().expect("newest generation");
    let len = fs::metadata(newest).expect("newest stats").len();
    let torn = fs::OpenOptions::new().write(true).open(newest).expect("newest opens");
    torn.set_len(len / 2).expect("newest truncates");

    // Resume must fall back to the older intact generation, replay the
    // remainder, and land on the exact bytes of the uninterrupted run.
    let resumed = codesign()
        .args(sweep_args)
        .args(["--checkpoint", base.to_str().expect("utf-8 base"), "--resume"])
        .output()
        .expect("resumed sweep runs");
    assert!(resumed.status.success(), "resume failed: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed), expected, "resumed report diverged from uninterrupted run");
    let notes = stderr(&resumed);
    assert!(notes.contains("resumed from checkpoint generation"), "no resume notice in:\n{notes}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pruned_sweep_reports_the_same_frontier_as_unpruned() {
    let (dir, model) = scratch("prune");
    let model = model.to_str().expect("utf-8 path");
    let axis = buffer_axis(600);
    let args = |prune: bool| {
        let mut v = vec![
            "sweep",
            model,
            "--frontier",
            "--arrays",
            "8,16",
            "--rfs",
            "8",
            "--buffers-kib",
            &axis,
        ];
        if prune {
            v.push("--prune");
        }
        v
    };

    let plain = codesign().args(args(false)).output().expect("unpruned sweep runs");
    assert!(plain.status.success(), "unpruned failed: {}", stderr(&plain));
    let pruned = codesign().args(args(true)).output().expect("pruned sweep runs");
    assert!(pruned.status.success(), "pruned failed: {}", stderr(&pruned));

    // Branch-and-bound is an optimization, never a semantics change.
    assert_eq!(stdout(&pruned), stdout(&plain), "--prune changed the report");
    // And on a long monotone buffer axis it must actually prune.
    let notes = stderr(&pruned);
    // `; swept E of T point(s) (P pruned, S skipped, F failed) in ...`
    let pruned_points: u64 = notes
        .lines()
        .find(|l| l.starts_with("; swept"))
        .and_then(|l| l.split('(').nth(2)?.split(' ').next()?.parse().ok())
        .unwrap_or(0);
    assert!(pruned_points > 0, "nothing pruned on a plateau-heavy axis:\n{notes}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_ignores_a_checkpoint_of_a_same_named_network_with_other_shapes() {
    let (dir, _) = scratch("fingerprint");
    let narrow = dir.join("narrow.net");
    let wide = dir.join("wide.net");
    fs::write(&narrow, "network fpnet 3x32x32\nconv c1 16 3 s1 p1\nconv c2 32 3 s1 p1\n")
        .expect("narrow model writes");
    fs::write(&wide, "network fpnet 3x32x32\nconv c1 64 3 s1 p1\nconv c2 128 3 s1 p1\n")
        .expect("wide model writes");
    let base = dir.join("sweep.ck");
    let base = base.to_str().expect("utf-8 base");
    let sweep = |model: &Path, extra: &[&str]| {
        codesign()
            .args(["sweep", model.to_str().expect("utf-8 path"), "--frontier"])
            .args(["--arrays", "8,16", "--rfs", "8", "--buffers-kib", "64,128"])
            .args(extra)
            .output()
            .expect("sweep runs")
    };

    // Same name, same layer count, different layer shapes: the narrow
    // network's checkpoint must not be mistaken for the wide one's.
    let first = sweep(&narrow, &["--checkpoint", base]);
    assert!(first.status.success(), "checkpointed sweep failed: {}", stderr(&first));
    let reference = sweep(&wide, &[]);
    assert!(reference.status.success(), "reference failed: {}", stderr(&reference));
    let resumed = sweep(&wide, &["--checkpoint", base, "--resume"]);
    assert!(resumed.status.success(), "resume failed: {}", stderr(&resumed));
    assert!(
        !stderr(&resumed).contains("resumed"),
        "resumed a foreign checkpoint:\n{}",
        stderr(&resumed)
    );
    assert_eq!(stdout(&resumed), stdout(&reference), "report is not the wide network's");
    assert_ne!(stdout(&resumed), stdout(&first), "narrow and wide reports must differ");

    let _ = fs::remove_dir_all(&dir);
}
