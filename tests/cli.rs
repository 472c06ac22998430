//! The command-line binaries against a reader that stops early, as
//! `aivril suite list | head -1` does: the binary must end quietly, not
//! panic on the closed pipe.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

/// Spawns `aivril <args>`, reads the first line of its stdout, closes
/// the pipe, and waits for the process to end.
fn first_line_then_close(args: &[&str]) -> (String, Output) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aivril"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aivril");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .expect("read the first line");
    (first, child.wait_with_output().expect("wait for aivril"))
}

fn assert_quiet(what: &str, output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
        "{what}: {stderr}"
    );
    assert!(output.status.success(), "{what}: {}", output.status);
}

#[test]
fn a_closed_stdout_ends_the_binary_quietly() {
    let (first, output) = first_line_then_close(&["suite", "list"]);
    assert!(first.starts_with("prob000_"), "{first}");
    assert_quiet("suite list", &output);

    // A simulation log far larger than a pipe's buffer: the write is
    // still pending when the reader goes away, so it always meets the
    // closed pipe.
    let path = std::env::temp_dir().join(format!("aivril-cli-{}.v", std::process::id()));
    std::fs::write(
        &path,
        "module tb;\n  integer i;\n  initial begin\n    \
         for (i = 0; i < 20000; i = i + 1) $display(\"line %0d of a long log\", i);\n    \
         $finish;\n  end\nendmodule\n",
    )
    .expect("write the testbench");
    let (first, output) = first_line_then_close(&["simulate", path.to_str().expect("utf-8")]);
    let _ = std::fs::remove_file(&path);
    assert!(first.contains("Analyzing Verilog file"), "{first}");
    assert_quiet("simulate", &output);
}
