//! End-to-end tests of the `varbuf` command-line interface, driving the
//! real binary through generate → info → optimize → skew, plus the
//! resident `serve` mode over a stdin/stdout pipe.

use std::io::Write;
use std::process::{Command, Stdio};

fn varbuf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_varbuf"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = varbuf().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Like [`run`] but returning the raw exit code — the degradation
/// contract distinguishes 0 (clean) from 2 (degraded success).
fn run_code(args: &[&str]) -> (i32, String, String) {
    let out = varbuf().args(args).output().expect("binary runs");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pipes `script` into `varbuf serve` with the given extra flags and
/// returns `(exit_code, stdout, stderr)`.
fn serve(flags: &[&str], script: &str) -> (i32, String, String) {
    let mut child = varbuf()
        .arg("serve")
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // A broken pipe is fine: flag-validation failures exit before
    // reading stdin at all.
    let _ = child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes());
    let out = child.wait_with_output().expect("serve exits");
    (
        out.status.code().expect("no signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
    assert!(stdout.contains("varbuf gen"));
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
}

#[test]
fn gen_info_opt_skew_roundtrip() {
    let dir = std::env::temp_dir().join(format!("varbuf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let tree_path = dir.join("net.tree");
    let tree = tree_path.to_str().expect("utf8 path");

    // gen
    let (ok, stdout, stderr) = run(&["gen", "random:40:9", "--subdivide", "500", "-o", tree]);
    assert!(ok, "gen failed: {stderr}");
    assert!(stdout.contains("40 sinks"), "{stdout}");

    // info
    let (ok, stdout, _) = run(&["info", tree]);
    assert!(ok);
    assert!(stdout.contains("sinks:       40"));
    assert!(stdout.contains("wire length:"));

    // opt (with a small MC cross-check)
    let (ok, stdout, stderr) = run(&["opt", tree, "--mode", "wid", "--mc", "500"]);
    assert!(ok, "opt failed: {stderr}");
    assert!(stdout.contains("mode WID:"), "{stdout}");
    assert!(stdout.contains("silicon (WID):"));
    assert!(stdout.contains("monte carlo"));

    // opt with sizing
    let (ok, stdout, stderr) = run(&["opt", tree, "--sizing"]);
    assert!(ok, "opt --sizing failed: {stderr}");
    assert!(stdout.contains("widened edges"), "{stdout}");

    // skew
    let (ok, stdout, stderr) = run(&["skew", tree]);
    assert!(ok, "skew failed: {stderr}");
    assert!(stdout.contains("global skew"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_named_benchmark_to_stdout() {
    let (ok, stdout, _) = run(&["gen", "r1"]);
    assert!(ok);
    assert!(stdout.starts_with("varbuf-tree v1"));
    // 267 sinks → 267 sink lines.
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("sink ")).count(),
        267
    );
}

#[test]
fn info_rejects_missing_file() {
    let (ok, _, stderr) = run(&["info", "/nonexistent/never.tree"]);
    assert!(!ok);
    assert!(stderr.contains("cannot open"));
}

#[test]
fn degraded_opt_exits_two_with_report() {
    let dir = std::env::temp_dir().join(format!("varbuf-cli-deg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let tree_path = dir.join("net.tree");
    let tree = tree_path.to_str().expect("utf8 path");
    let (ok, ..) = run(&["gen", "random:120:6", "-o", tree]);
    assert!(ok);

    // 4P under a solution budget it cannot meet: the governor falls back
    // to 2P, the run succeeds, and the exit code flags the degradation.
    let (code, stdout, stderr) =
        run_code(&["opt", tree, "--rule", "4p", "--budget-solutions", "200"]);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("degraded run"), "{stdout}");
    assert!(stdout.contains("fell back from 4P"), "{stdout}");
    assert!(stdout.contains("mode WID:"), "a design is still printed");
    assert!(stdout.contains("silicon (WID):"));

    // The same budget with headroom to spare: clean exit 0, no report.
    let (code, stdout, _) = run_code(&["opt", tree, "--degrade", "--budget-solutions", "100000"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.contains("degraded run"), "{stdout}");
    assert!(stdout.contains("mode WID:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_flags_are_validated() {
    let dir = std::env::temp_dir().join(format!("varbuf-cli-bv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let tree_path = dir.join("net.tree");
    let tree = tree_path.to_str().expect("utf8 path");
    let (ok, ..) = run(&["gen", "random:10:1", "-o", tree]);
    assert!(ok);

    let (code, _, stderr) = run_code(&["opt", tree, "--budget-solutions", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--budget-solutions"), "{stderr}");

    // A bare budget flag is a typo, not a request for defaults.
    let (code, _, stderr) = run_code(&["opt", tree, "--budget-solutions"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("needs a value"), "{stderr}");

    for secs in ["-3", "1e300"] {
        let (code, _, stderr) = run_code(&["opt", tree, "--budget-time", secs]);
        assert_eq!(code, 1, "--budget-time {secs}: {stderr}");
        assert!(stderr.contains("--budget-time"), "{stderr}");
    }
    // Near the top of the range the 2x hard limit saturates instead of
    // overflowing.
    let (code, _, stderr) = run_code(&["opt", tree, "--budget-time", "1e19"]);
    assert_eq!(code, 0, "--budget-time 1e19: {stderr}");

    let (code, _, stderr) = run_code(&["opt", tree, "--rule", "5p"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown rule"), "{stderr}");

    let (code, _, stderr) = run_code(&["opt", tree, "--mode", "nom", "--degrade"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("statistical mode"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_documents_exit_code_contract() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("--degrade"), "{stdout}");
    assert!(stdout.contains("exit codes"), "{stdout}");
    assert!(stdout.contains("success with degradation"), "{stdout}");
}

/// A tree file whose last sink hangs under the sink before it.
const SINK_PARENT_TREE: &str = "varbuf-tree v1
wire 0.000076 0.118
source 0 0 0 0.1
sink 1 0 100 0 100 1 10 0
sink 2 1 200 0 100 1 10 0
";

#[test]
fn malformed_specs_and_flags_exit_one_without_panicking() {
    // Inputs that used to trip generator asserts or be silently
    // swallowed must be typed exit-1 errors.
    for args in [
        &["gen", "random:0"][..],
        &["gen", "random:5:notanumber"],
        &["gen", "htree:0"],
        &["gen", "htree:30"],
        &["gen", "random:5:1", "--subdivide", "0"],
        &["gen", "random:5:1", "--subdivide", "abc"],
    ] {
        let (code, _, stderr) = run_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }

    let dir = std::env::temp_dir().join(format!("varbuf-cli-mal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let tree_path = dir.join("net.tree");
    let tree = tree_path.to_str().expect("utf8 path");
    let (ok, ..) = run(&["gen", "random:10:1", "-o", tree]);
    assert!(ok);
    // A node placed under a sink must be a parse error naming its line,
    // not the tree builder's assert.
    let sink_parent_path = dir.join("sink-parent.tree");
    std::fs::write(&sink_parent_path, SINK_PARENT_TREE).expect("write tree");
    let sink_parent = sink_parent_path.to_str().expect("utf8 path");
    for args in [
        &["info", sink_parent][..],
        &["opt", sink_parent],
        &["skew", sink_parent],
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(
            stderr.contains("line 5: parent n1 is a sink"),
            "{args:?}: {stderr}"
        );
        assert!(!stdout.contains("panicked") && !stderr.contains("panicked"));
    }
    for (args, needle) in [
        (&["opt", tree, "--mode", "bogus"][..], "unknown --mode"),
        (&["opt", tree, "--spatial", "bogus"], "unknown --spatial"),
        (&["opt", tree, "--mc", "abc"], "bad --mc"),
        (&["opt", tree, "--mc", "0"], "bad --mc"),
        (
            &["gen", "random:5:1", "--subdivide", "1e-300"],
            "--subdivide",
        ),
        (&["opt", tree, "--p", "abc"], "bad --p"),
        (&["skew", tree, "--spatial", "bogus"], "unknown --spatial"),
    ] {
        let (code, _, stderr) = run_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    // Flags the post-analysis reads are rejected before the optimizer
    // or the H-tree pipeline runs, so nothing reaches stdout.
    for (args, needle) in [
        (&["opt", tree, "--mc", "0"][..], "bad --mc"),
        (&["opt", tree, "--mc", "5", "--sizing"], "--sizing"),
        (
            &["cts", "--levels", "3", "--skew-target", "nan"],
            "--skew-target",
        ),
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} did work first: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_answers_a_scripted_session_and_contains_a_panic() {
    let (code, stdout, stderr) = serve(
        &["--faults"],
        "ping\n\
         open random:8:7\n\
         opt s0.0\n\
         inject panic 2\n\
         opt s0.0\n\
         opt s0.0\n\
         close s0.0\n\
         opt s0.0\n\
         stats\n\
         quit\n",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "ok pong");
    assert!(lines[1].starts_with("ok open session=s0.0"), "{stdout}");
    assert!(lines[2].starts_with("ok opt id=1"), "{stdout}");
    assert_eq!(lines[3], "ok inject id=2");
    // The injected panic is contained: a structured error, then the
    // session only accepts close, then the handle goes stale.
    assert!(
        lines[4].starts_with("err internal contained panic"),
        "{stdout}"
    );
    assert!(lines[5].starts_with("err poisoned"), "{stdout}");
    assert!(lines[6].starts_with("ok close"), "{stdout}");
    assert!(lines[7].starts_with("err stale"), "{stdout}");
    assert!(lines[8].contains("panics=1"), "{stdout}");
    assert_eq!(*lines.last().unwrap(), "ok bye");
}

#[test]
fn serve_batches_preserve_order_and_malformed_lines_do_not_kill_it() {
    let (code, stdout, _) = serve(
        &[],
        "open random:6:3\n\
         begin\n\
         opt s0.0\n\
         opt s0.0\n\
         close s0.0\n\
         commit\n\
         open random:0\n\
         inject panic 1\n\
         frobnicate\n\
         quit\n",
    );
    assert_eq!(code, 0);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[1].starts_with("ok begin"));
    assert!(lines[2].starts_with("ok opt id=1"), "{stdout}");
    assert!(lines[3].starts_with("ok opt id=2"), "{stdout}");
    assert!(lines[4].starts_with("ok close"), "{stdout}");
    assert_eq!(lines[5], "ok commit");
    // Bad spec, faults not enabled, unknown verb: typed errors, service
    // keeps going.
    assert!(lines[6].starts_with("err malformed"), "{stdout}");
    assert!(lines[7].starts_with("err faults-disabled"), "{stdout}");
    assert!(lines[8].starts_with("err malformed"), "{stdout}");
    assert_eq!(*lines.last().unwrap(), "ok bye");
}

#[test]
fn serve_watchdog_cancels_and_sheds_under_overload() {
    // Watchdog: a delay-faulted request comes back cancelled with its
    // best-so-far design rather than hanging the service.
    let (code, stdout, _) = serve(
        &["--faults", "--watchdog", "0.05"],
        "open random:8:7\n\
         inject delay 1 9\n\
         opt s0.0\n\
         quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("cancelled=1"), "{stdout}");

    // Overload: the third queued request exceeds the hard queue budget
    // and is shed with a typed retry-after; order is preserved.
    let (code, stdout, _) = serve(
        &["--queue-soft", "17", "--queue-hard", "34"],
        "open random:8:7\n\
         begin\n\
         opt s0.0\n\
         opt s0.0\n\
         opt s0.0\n\
         commit\n\
         stats\n\
         quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("err overloaded"), "{stdout}");
    assert!(stdout.contains("retry_after_ms="), "{stdout}");
    assert!(stdout.contains("shed=1"), "{stdout}");
}

#[test]
fn serve_loads_an_inline_tree() {
    // Round-trip a generated net through the protocol's `load` block.
    let (ok, tree_text, _) = run(&["gen", "random:5:4"]);
    assert!(ok);
    let script = format!("load\n{tree_text}end\nopt s0.0\nclose s0.0\nquit\n");
    let (code, stdout, _) = serve(&[], &script);
    assert_eq!(code, 0);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("ok open session=s0.0"), "{stdout}");
    assert!(lines[1].starts_with("ok opt id=1"), "{stdout}");
    assert!(lines[2].starts_with("ok close"), "{stdout}");

    // A truncated load block is a typed error, not a hang or a panic.
    let (code, stdout, _) = serve(&[], "load\nvarbuf-tree v1\n");
    assert_eq!(code, 0);
    assert!(stdout.contains("err malformed"), "{stdout}");

    // So is a node under a sink, and the service keeps answering.
    let script = format!("load\n{SINK_PARENT_TREE}end\nping\nquit\n");
    let (code, stdout, _) = serve(&[], &script);
    assert_eq!(code, 0);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].starts_with("err malformed"), "{stdout}");
    assert!(lines[0].contains("parent n1 is a sink"), "{stdout}");
    assert_eq!(lines[1], "ok pong", "{stdout}");
}

#[test]
fn serve_validates_startup_flags() {
    for secs in ["-1", "1e300"] {
        let (code, _, stderr) = serve(&["--watchdog", secs], "quit\n");
        assert_eq!(code, 1, "--watchdog {secs}: {stderr}");
        assert!(stderr.contains("--watchdog"), "{stderr}");
    }

    let (code, _, stderr) = serve(&["--queue-soft", "100", "--queue-hard", "50"], "quit\n");
    assert_eq!(code, 1);
    assert!(stderr.contains("--queue-soft"), "{stderr}");
}

#[test]
fn opt_rejects_bad_p_threshold_gracefully() {
    // `--p 0.4` violates the 2P precondition; the CLI must report a
    // clean typed error (exit 1), not a panic backtrace.
    let dir = std::env::temp_dir().join(format!("varbuf-cli-p-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let tree_path = dir.join("net.tree");
    let tree = tree_path.to_str().expect("utf8 path");
    let (ok, ..) = run(&["gen", "random:10:1", "-o", tree]);
    assert!(ok);
    let (code, _, stderr) = run_code(&["opt", tree, "--p", "0.4"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("invalid 2P configuration"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_and_retired_flags_exit_one_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("varbuf-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let tree_path = dir.join("net.tree");
    let tree = tree_path.to_str().expect("utf8 path");
    let (ok, ..) = run(&["gen", "random:10:1", "-o", tree]);
    assert!(ok);
    for (args, flag) in [
        // Retired with their layers (bound-guided pruning, the Li–Shi
        // skip): an error, not a no-op.
        (&["opt", tree, "--no-bounds"][..], "--no-bounds"),
        (&["opt", tree, "--no-lishi"], "--no-lishi"),
        // A typo of a real flag must not run with the default.
        (&["opt", tree, "--no-lazy-wrie"], "--no-lazy-wrie"),
        // Flags are per subcommand: `--jobs` belongs to opt and serve.
        (&["skew", tree, "--jobs", "2"], "--jobs"),
        (&["info", tree, "-x"], "-x"),
        (&["gen", "r1", "--subdivde", "500"], "--subdivde"),
        (&["cts", "--levels", "2", "--degrade"], "--degrade"),
    ] {
        let (code, stdout, stderr) = run_code(args);
        assert_eq!(code, 1, "{args:?}: {stdout}{stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?} ran anyway: {stdout}");
    }
    let (code, _, stderr) = serve(&["--no-cahce"], "quit\n");
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown flag `--no-cahce`"), "{stderr}");

    // A value that looks like a flag is still the key's value.
    let (code, _, stderr) = run_code(&["opt", tree, "--budget-time", "-3"]);
    assert_eq!(code, 1);
    assert!(!stderr.contains("unknown flag"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The flags a subcommand's synopsis in `varbuf help` lists: every
/// `[-flag …]` group from its `varbuf <cmd>` line up to the next one.
fn usage_flags(usage: &str) -> Vec<(String, Vec<String>)> {
    let mut sections: Vec<(String, Vec<String>)> = Vec::new();
    for line in usage.lines() {
        if line.starts_with("exit codes") {
            break;
        }
        if let Some(rest) = line.strip_prefix("  varbuf ") {
            let cmd = rest.split_whitespace().next().expect("subcommand name");
            sections.push((cmd.to_owned(), Vec::new()));
        }
        let Some((_, flags)) = sections.last_mut() else {
            continue;
        };
        for group in line.split('[').skip(1) {
            let token = group.split([' ', ']']).next().unwrap_or("");
            if token.starts_with('-') {
                flags.push(token.to_owned());
            }
        }
    }
    sections
}

#[test]
fn every_flag_in_the_usage_is_accepted() {
    let (ok, usage, _) = run(&["help"]);
    assert!(ok);
    let sections = usage_flags(&usage);
    let names: Vec<&str> = sections.iter().map(|(c, _)| c.as_str()).collect();
    assert_eq!(names, ["gen", "info", "opt", "skew", "cts", "serve"]);
    let mut checked = 0;
    for (cmd, flags) in &sections {
        // Arguments that make each subcommand fail right after flag
        // validation, before any real work (the first occurrence of a
        // key wins, so a probed `--levels`/`--max-sessions` is moot).
        let fail_fast: &[&str] = match cmd.as_str() {
            "gen" => &["no-such-benchmark"],
            "cts" => &["--levels", "0"],
            "serve" => &["--max-sessions", "0"],
            _ => &["/nonexistent/never.tree"],
        };
        for flag in flags {
            // A value after every flag: for a switch it is just a stray
            // positional, which validation ignores.
            let mut args = vec![cmd.as_str()];
            args.extend_from_slice(fail_fast);
            args.extend([flag.as_str(), "1"]);
            let out = varbuf()
                .args(&args)
                .stdin(Stdio::null())
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(!stderr.contains("unknown flag"), "{args:?}: {stderr}");
            checked += 1;
        }
    }
    assert!(checked >= 30, "only {checked} usage flags found");
}
