//! What the `asj` binary itself prints: the peak RSS line of the join report,
//! the warning for a fault clause that names a stage the job never runs,
//! both journal grant counts of a durable server, fresh and recovered, and
//! the error of an output path that cannot be written, before any work.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asj-cli-reports-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `asj` with `args`; the run must succeed.
fn asj(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_asj"))
        .args(args)
        .output()
        .expect("spawn asj");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "asj {args:?} failed: {stderr}");
    out
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// The value of the first `label : value` line of `stdout`.
fn value<'a>(stdout: &'a str, label: &str) -> &'a str {
    let line = stdout.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == label).then(|| value.trim())
    });
    line.unwrap_or_else(|| panic!("no '{label}' line in:\n{stdout}"))
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn join_reports_peak_rss_and_warns_about_unreached_fault_stages() {
    let dir = scratch("join");
    let input = dir.join("r.csv");
    let trace = dir.join("trace.jsonl");
    let pairs = dir.join("pairs.csv");
    asj(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "400",
        "--out",
        path(&input),
    ]);
    let join = |faults: &str| {
        asj(&[
            "join",
            "--r",
            path(&input),
            "--s",
            path(&input),
            "--eps",
            "0.5",
            "--nodes",
            "3",
            "--partitions",
            "6",
            "--faults",
            faults,
            "--trace",
            path(&trace),
            "--trace-format",
            "jsonl",
            "--out",
            path(&pairs),
        ])
    };
    let warning = "warning: fault plan names stage 'marking', which this job never ran";

    // The mapping runs inside `shuffle.R` / `shuffle.S`: a plan that targets
    // the old `marking` stage injects nothing, and says so.
    let out = join("fail:marking:0@1");
    assert_eq!(text(&out.stderr).trim(), warning);
    assert!(std::fs::read_to_string(&trace)
        .expect("trace")
        .contains(warning));
    // The whole process's peak: printed last, after the trace and pair
    // files are written and timed.
    let stdout = text(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let tail = &lines[lines.len().saturating_sub(3)..];
    assert_eq!(tail.len(), 3, "{stdout}");
    assert!(tail[0].starts_with("wrote "), "{stdout}");
    assert!(tail[1].starts_with("output time"), "{stdout}");
    assert!(tail[2].starts_with("peak RSS"), "{stdout}");
    let mib: u64 = value(&stdout, "peak RSS")
        .strip_suffix(" MiB")
        .and_then(|v| v.parse().ok())
        .expect("peak RSS in MiB");
    assert!(mib > 0);

    // A plan whose stage runs fires, and warns about nothing.
    let out = join("fail:shuffle.R:0@1");
    assert_eq!(text(&out.stderr), "");
    assert!(value(&text(&out.stdout), "task attempts").contains("(1 retries"));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn serve_reports_journal_grants_written_and_replayed() {
    let dir = scratch("serve");
    let (jobs, journal, ckpt) = (dir.join("jobs.txt"), dir.join("journal"), dir.join("ckpt"));
    std::fs::write(
        &jobs,
        "job alpha algo=lpib eps=0.5 n=600 partitions=8 seed=11\n\
         job beta algo=uni-r eps=0.3 n=900 partitions=8 seed=23 weight=2\n",
    )
    .expect("write queue");
    let serve = |recover: bool| {
        let mut args = vec![
            "serve",
            "--jobs",
            path(&jobs),
            "--nodes",
            "4",
            "--journal",
            path(&journal),
            "--checkpoint-dir",
            path(&ckpt),
        ];
        if recover {
            args.push("--recover");
        }
        let stdout = text(&asj(&args).stdout);
        let count = |label| -> usize { value(&stdout, label).parse().expect("a count") };
        (
            count("journal grants written"),
            count("journal grants replayed"),
            count("quanta granted"),
        )
    };
    let (written, replayed, quanta) = serve(false);
    assert_eq!(
        (written, replayed),
        (quanta, 0),
        "a fresh run journals every grant"
    );
    assert!(written > 0);
    let (written_again, replayed, quanta) = serve(true);
    assert_eq!(
        replayed, written,
        "recovery reads back the first run's grants"
    );
    assert_eq!(written_again, quanta);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Runs `asj` with `args`; the run must fail with exit status 1 and no
/// panic. Returns (stdout, stderr).
fn asj_fails(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_asj"))
        .args(args)
        .output()
        .expect("spawn asj");
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "asj {args:?}: {stdout}{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    (stdout, stderr)
}

#[test]
fn an_unwritable_output_fails_before_any_input_is_read() {
    let dir = scratch("outputs");
    let input = dir.join("r.csv");
    let jobs = dir.join("jobs.txt");
    asj(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "400",
        "--out",
        path(&input),
    ]);
    std::fs::write(&jobs, "job alpha eps=0.5 n=300 partitions=4\n").expect("write queue");
    let join = [
        "join",
        "--r",
        path(&input),
        "--s",
        path(&input),
        "--eps",
        "0.5",
    ];

    // A directory where a file must go: the command stops on it before it
    // joins, reports nothing and names the path.
    for flag in ["--out", "--trace"] {
        let (stdout, stderr) = asj_fails(&[&join[..], &[flag, path(&dir)]].concat());
        assert_eq!(stdout, "", "{flag}: no report line");
        assert!(stderr.starts_with("error: creating "), "{flag}: {stderr}");
        assert!(stderr.contains(path(&dir)), "{flag}: {stderr}");
    }
    let (stdout, stderr) = asj_fails(&["serve", "--jobs", path(&jobs), "--trace", path(&dir)]);
    assert_eq!(stdout, "", "serve: no report line");
    assert!(stderr.contains(path(&dir)), "serve: {stderr}");

    // An existing output is truncated only once there is something to
    // write: a join that fails on its input leaves it as it was.
    let pairs = dir.join("pairs.csv");
    std::fs::write(&pairs, "1,2\n").expect("write pairs");
    let missing = dir.join("missing.csv");
    let (_, stderr) = asj_fails(&[
        "join",
        "--r",
        path(&missing),
        "--s",
        path(&input),
        "--eps",
        "0.5",
        "--out",
        path(&pairs),
    ]);
    assert!(stderr.contains("missing.csv"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&pairs).expect("pairs"), "1,2\n");
    // A join that succeeds replaces it.
    asj(&[&join[..], &["--out", path(&pairs)]].concat());
    let written = std::fs::read_to_string(&pairs).expect("pairs");
    assert!(written.lines().count() > 1, "{written}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The pair file does not depend on which attempts failed or raced: a
/// join whose `cogroup_join` task fails once and whose node 1 straggles
/// under speculation writes the clean run's bytes. A join that fails
/// after some of its partitions were written leaves nothing under
/// `--out`'s name, and no sibling behind.
#[test]
fn pair_files_survive_retries_and_failed_joins_leave_none() {
    let dir = scratch("sink");
    let (r, s) = (dir.join("r.csv"), dir.join("s.csv"));
    for (file, kind, seed) in [(&r, "gaussian", "11"), (&s, "uniform", "12")] {
        let args = ["generate", "--kind", kind, "--n", "3000", "--seed", seed];
        asj(&[&args[..], &["--out", path(file)]].concat());
    }
    let join = ["join", "--r", path(&r), "--s", path(&s), "--eps", "0.4"];
    let (clean, faulted) = (dir.join("clean.csv"), dir.join("faulted.csv"));
    asj(&[&join[..], &["--out", path(&clean)]].concat());
    let faults = [
        "--faults",
        "fail:cogroup_join:0@1,slow:1=8.0",
        "--speculation",
    ];
    let out = asj(&[&join[..], &faults, &["--out", path(&faulted)]].concat());
    let stdout = text(&out.stdout);
    assert!(
        value(&stdout, "task attempts").contains("1 retries"),
        "{stdout}"
    );
    let bytes = std::fs::read(&clean).expect("clean pairs");
    assert!(bytes.len() > 1_000, "the join finds pairs");
    assert!(std::fs::read(&faulted).expect("faulted pairs") == bytes);

    let failed = dir.join("failed.csv");
    let (_, stderr) = asj_fails(
        &[
            &join[..],
            &["--faults", "stage:cogroup_join=0.5", "--max-attempts", "1"],
            &["--out", path(&failed)],
        ]
        .concat(),
    );
    assert!(stderr.contains("stage 'cogroup_join'"), "{stderr}");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    assert_eq!(names, ["clean.csv", "faulted.csv", "r.csv", "s.csv"]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
