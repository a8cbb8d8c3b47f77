//! End-to-end tests for `smc serve`: golden NDJSON round trips over
//! stdin (pass/fail, input errors, exhaustion, overload shedding,
//! shutdown), the worst-of exit code, and verdict/trace consistency
//! with the serial `smc check`.

use std::io::Write;
use std::process::{Command, Stdio};

fn smc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("smc_serve_test_{name}_{}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

/// A free boolean whose `AF x` fails with a lasso counterexample.
const FREEBIT: &str = "MODULE main\nVAR x : boolean;\nSPEC AF x\n";

/// A 2-bit counter whose specs all hold — a pure pass job.
const COUNTER: &str = "MODULE main\nVAR b0 : boolean; b1 : boolean;\nASSIGN\n  \
                       init(b0) := FALSE; init(b1) := FALSE;\n  next(b0) := !b0;\n  \
                       next(b1) := (b0 & !b1) | (!b0 & b1);\nSPEC AG (EF (b0 & b1))\nSPEC AF b0\n";

/// JSON-escapes a model source for embedding in a request line.
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\t', "\\t")
}

/// Runs `smc serve <args>` feeding `requests` on stdin (EOF after the
/// last line), returning (exit code, stdout lines).
fn serve(args: &[&str], requests: &[String]) -> (i32, Vec<String>) {
    let mut child = smc()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn smc serve");
    {
        let stdin = child.stdin.as_mut().expect("child stdin");
        for line in requests {
            writeln!(stdin, "{line}").expect("write request");
        }
    } // drop -> EOF -> graceful drain
    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect();
    (out.status.code().expect("exit code"), stdout)
}

/// Asserts a response line is `<head>,"trace_id":"<16 hex>",<tail>…`.
fn golden_head(line: &str, head: &str, tail: &str) {
    let full_head = format!("{head},\"trace_id\":\"");
    assert!(line.starts_with(&full_head), "{line}");
    let rest = &line[full_head.len()..];
    let id = rest.split('"').next().expect("closing quote");
    assert_eq!(id.len(), 16, "derived trace id is 16 hex chars: {line}");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{line}");
    assert!(rest[id.len()..].starts_with(&format!("\",{tail}")), "{line}");
}

#[test]
fn golden_round_trip_pass_fail_and_drain_on_eof() {
    let (code, lines) = serve(
        &[],
        &[
            format!(r#"{{"op":"check","id":"ok","source":"{}"}}"#, esc(COUNTER)),
            format!(r#"{{"op":"check","id":"bad","source":"{}"}}"#, esc(FREEBIT)),
        ],
    );
    assert_eq!(lines.len(), 3, "two responses + drained summary: {lines:?}");
    // Golden head: schema, per-server sequence, echoed id, trace id,
    // batch-shaped job fields. The derived trace id is 16 hex chars
    // (content hash × admission seq), pinned by shape here and by value
    // in the engine's unit tests.
    golden_head(
        &lines[0],
        r#"{"schema":1,"seq":0,"id":"ok","op":"check","name":"ok""#,
        r#""outcome":"pass","exit_class":0,"#,
    );
    golden_head(
        &lines[1],
        r#"{"schema":1,"seq":1,"id":"bad","op":"check","name":"bad""#,
        r#""outcome":"fail","exit_class":1,"#,
    );
    assert!(lines[1].contains(r#""specs":[{"formula":""#), "{}", lines[1]);
    assert!(lines[1].contains(r#""holds":false"#), "{}", lines[1]);
    assert!(
        lines[2]
            .starts_with(r#"{"schema":1,"op":"drained","served":2,"rejected":0,"worst_exit":1"#),
        "{}",
        lines[2]
    );
    assert_eq!(code, 1, "worst executed request is the failing spec");
}

#[test]
fn input_errors_answer_in_band_with_exit_class_2() {
    let (code, lines) = serve(
        &[],
        &[
            r#"{"op":"check","id":"syntax","source":"MODULE main\nVAR x : bool"}"#.to_string(),
            r#"{"op":"check","id":"io","path":"/nonexistent/serve-model.smv"}"#.to_string(),
        ],
    );
    // The unreadable path answers from the admission thread while the
    // syntax job runs on a worker, so the two responses may arrive in
    // either order — find them by id.
    let by_id = |id: &str| {
        lines
            .iter()
            .find(|l| l.contains(&format!(r#""id":"{id}""#)))
            .unwrap_or_else(|| panic!("no response for {id}: {lines:?}"))
    };
    assert!(by_id("syntax").contains(r#""outcome":"input_error","exit_class":2"#), "{lines:?}");
    assert!(by_id("io").contains(r#""outcome":"input_error","exit_class":2"#), "{lines:?}");
    assert!(by_id("io").contains("cannot read"), "{lines:?}");
    assert_eq!(code, 2);
}

#[test]
fn a_too_wide_range_is_an_input_error_and_the_server_keeps_serving() {
    // One worker: the wide job must finish before the next one can run,
    // so an abort while listing the domain would leave `next` unanswered.
    let wide = "MODULE main\nVAR x : 0..4000000000;\nSPEC AG x >= 0\n";
    let (code, lines) = serve(
        &["--jobs", "1"],
        &[
            format!(r#"{{"op":"check","id":"wide","source":"{}"}}"#, esc(wide)),
            format!(r#"{{"op":"check","id":"next","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    assert_eq!(lines.len(), 3, "two responses + drained summary: {lines:?}");
    assert!(lines[0].contains(r#""id":"wide""#), "{lines:?}");
    assert!(lines[0].contains(r#""outcome":"input_error","exit_class":2"#), "{lines:?}");
    assert!(lines[0].contains("the limit is 65536"), "{lines:?}");
    assert!(lines[1].contains(r#""id":"next""#), "{lines:?}");
    assert!(lines[1].contains(r#""outcome":"pass""#), "{lines:?}");
    assert!(
        lines[2]
            .starts_with(r#"{"schema":1,"op":"drained","served":2,"rejected":0,"worst_exit":2"#),
        "{}",
        lines[2]
    );
    assert_eq!(code, 2);
}

#[test]
fn exhaustion_and_shutdown_op_round_trip() {
    let (code, lines) = serve(
        &["--quarantine-after", "0"],
        &[
            format!(r#"{{"op":"check","id":"tight","source":"{}","max_iters":1}}"#, esc(COUNTER)),
            r#"{"op":"shutdown"}"#.to_string(),
        ],
    );
    // The shutdown ack comes from the reader thread and may precede the
    // worker's exhausted response — find each line by content.
    let tight = lines
        .iter()
        .find(|l| l.contains(r#""id":"tight""#))
        .unwrap_or_else(|| panic!("no response for tight: {lines:?}"));
    assert!(
        tight.contains(r#""outcome":"exhausted","exit_class":3"#),
        "per-request quota trips in-band: {tight}"
    );
    assert!(tight.contains(r#""phase":"#), "{tight}");
    let shutdown = lines.iter().find(|l| l.contains(r#""op":"shutdown""#)).expect("shutdown ack");
    assert!(shutdown.contains(r#""draining":true"#), "{shutdown}");
    assert!(lines.last().expect("lines").contains(r#""op":"drained""#));
    assert_eq!(code, 3);
}

#[test]
fn overload_sheds_with_a_retry_hint_and_clean_exit() {
    let (code, lines) = serve(
        &["--jobs", "1", "--max-queue", "0", "--retry-after-ms", "42"],
        &[
            format!(r#"{{"op":"check","id":"slow","source":"{}","hold_ms":400}}"#, esc(COUNTER)),
            format!(r#"{{"op":"check","id":"shed","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    // The rejection goes out while "slow" still holds the only worker;
    // a shed request was admitted far enough to carry its trace id.
    assert!(lines[0].contains(r#""id":"shed","op":"check","trace_id":""#), "{}", lines[0]);
    assert!(
        lines[0].contains(r#""outcome":"rejected","reason":"overload","retry_after_ms":42"#),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""id":"slow""#) && lines[1].contains(r#""outcome":"pass""#));
    assert!(lines[2].contains(r#""served":1,"rejected":1"#), "{}", lines[2]);
    assert_eq!(code, 0, "shedding load is flow control, not a failure");
}

#[test]
fn serve_traces_match_the_serial_checker() {
    let model = write_temp("trace_model", FREEBIT);
    let check = smc().args(["check", "--trace"]).arg(&model).output().expect("smc check runs");
    assert_eq!(check.status.code(), Some(1));
    let check_out = String::from_utf8_lossy(&check.stdout).into_owned();

    let (code, lines) = serve(
        &[],
        &[format!(
            r#"{{"op":"check","path":"{}","trace":true}}"#,
            esc(&model.display().to_string())
        )],
    );
    assert_eq!(code, 1);
    assert!(lines[0].contains(r#""trace":{"loopback":"#), "{}", lines[0]);
    // Every rendered state line of the serial checker appears verbatim
    // (JSON-escaped) in the served trace.
    let mut states = 0;
    for line in check_out.lines() {
        if let Some((_, state)) = line.split_once(": ") {
            if line.starts_with("state ") {
                assert!(lines[0].contains(&esc(state)), "state {state:?} missing: {}", lines[0]);
                states += 1;
            }
        }
    }
    assert!(states > 0, "the serial run rendered at least one state: {check_out}");
    // And the verdict survives a warm repeat: run the same request again
    // in a fresh server; responses must agree field-for-field.
    let (code2, lines2) = serve(
        &[],
        &[format!(
            r#"{{"op":"check","path":"{}","trace":true}}"#,
            esc(&model.display().to_string())
        )],
    );
    assert_eq!(code2, 1);
    let specs = |s: &str| s[s.find(r#""specs":"#).expect("specs")..].to_string();
    assert_eq!(specs(&lines[0]), specs(&lines2[0]), "verdict+trace are reproducible");
    std::fs::remove_file(model).ok();
}

#[test]
fn client_trace_ids_are_echoed_and_derived_ids_are_reproducible() {
    // A client-supplied trace_id is echoed verbatim in the response.
    let (code, lines) = serve(
        &[],
        &[format!(
            r#"{{"op":"check","id":"tagged","trace_id":"req-7f.alpha","source":"{}"}}"#,
            esc(COUNTER)
        )],
    );
    assert_eq!(code, 0);
    assert!(lines[0].contains(r#""trace_id":"req-7f.alpha""#), "{}", lines[0]);

    // Without one, the server derives it from the source content and the
    // admission sequence — two fresh servers assign identical ids.
    let request = [format!(r#"{{"op":"check","id":"derived","source":"{}"}}"#, esc(COUNTER))];
    let id_of = |lines: &[String]| {
        lines[0]
            .split(r#""trace_id":""#)
            .nth(1)
            .and_then(|p| p.split('"').next())
            .expect("trace_id in response")
            .to_string()
    };
    let (_, first) = serve(&[], &request);
    let (_, second) = serve(&[], &request);
    assert_eq!(id_of(&first), id_of(&second), "derived ids are run-independent");
    assert_eq!(id_of(&first).len(), 16, "{first:?}");
}

#[test]
fn status_op_reports_schema_queue_and_worker_shape() {
    let (code, lines) = serve(
        &[],
        &[
            r#"{"op":"status"}"#.to_string(),
            format!(r#"{{"op":"check","id":"job","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    assert_eq!(code, 0);
    let status = lines
        .iter()
        .find(|l| l.contains(r#""op":"status""#))
        .unwrap_or_else(|| panic!("no status response: {lines:?}"));
    assert!(status.contains(r#""status_schema":1"#), "{status}");
    for key in [
        "\"draining\":",
        "\"queue_depth\":",
        "\"in_flight\":",
        "\"served\":",
        "\"rejected\":",
        "\"workers\":",
        "\"quarantine\":",
        "\"cache\":",
    ] {
        assert!(status.contains(key), "status key {key} missing: {status}");
    }
}

#[test]
fn watchdog_trip_writes_a_parseable_black_box_dump() {
    let dir = std::env::temp_dir().join(format!("smc_serve_dumps_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("dump dir");
    let (code, lines) = serve(
        &["--watchdog", "1", "--dump-dir", &dir.display().to_string()],
        &[format!(r#"{{"op":"check","id":"stuck","source":"{}","hold_ms":3000}}"#, esc(COUNTER))],
    );
    let stuck = lines
        .iter()
        .find(|l| l.contains(r#""id":"stuck""#))
        .unwrap_or_else(|| panic!("no response for stuck: {lines:?}"));
    assert!(stuck.contains(r#""outcome":"exhausted""#), "{stuck}");
    assert!(stuck.contains(r#""dump":""#), "response references its dump: {stuck}");
    let dump_path = stuck
        .split(r#""dump":""#)
        .nth(1)
        .and_then(|p| p.split('"').next())
        .expect("dump path in response");
    let text = std::fs::read_to_string(dump_path).expect("dump file exists");
    let header = text.lines().next().expect("header line");
    assert!(header.contains(r#""dump_schema":1"#), "{header}");
    assert!(header.contains(r#""reason":""#), "{header}");
    assert!(header.contains(r#""trace_id":""#), "{header}");
    // The CLI's own reader understands the file.
    let debug = smc().args(["debug", "dump", dump_path]).output().expect("smc debug runs");
    assert_eq!(debug.status.code(), Some(0), "{}", String::from_utf8_lossy(&debug.stderr));
    let pretty = String::from_utf8_lossy(&debug.stdout);
    assert!(pretty.contains("dump_schema : 1"), "{pretty}");
    assert_eq!(code, 3, "watchdog trips are the exhausted class");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_requests_are_rejected_without_killing_the_server() {
    let (code, lines) = serve(
        &[],
        &[
            "not json at all".to_string(),
            r#"{"op":"evaporate"}"#.to_string(),
            r#"{"op":"check"}"#.to_string(),
            format!(r#"{{"op":"check","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    for line in &lines[..3] {
        assert!(line.contains(r#""outcome":"rejected","reason":"bad_request""#), "{line}");
    }
    assert!(lines[3].contains(r#""outcome":"pass""#), "server survives garbage: {}", lines[3]);
    assert_eq!(code, 0, "bad requests are rejections, not failures");
}

#[test]
fn hostile_nesting_is_refused_and_the_server_keeps_serving() {
    // One worker: every job runs on the same thread, so an overflow on
    // any of them would leave `next` unanswered.
    let model = "MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE; next(x) := !x;\n";
    let deep_spec = format!("{model}SPEC {}x{}\n", "(".repeat(2_000), ")".repeat(2_000));
    let chain_spec = format!("{model}SPEC {}\n", vec!["x"; 5_000].join(" & "));
    // Exactly at the limit: a 512-atom chain is 512 levels high.
    let at_limit = vec!["x"; 512].join(" & ");
    let (code, lines) = serve(
        &["--jobs", "1"],
        &[
            "[".repeat(300_000),
            format!(r#"{{"op":"check","id":"parens","source":"{}"}}"#, esc(&deep_spec)),
            format!(r#"{{"op":"check","id":"chain","source":"{}"}}"#, esc(&chain_spec)),
            format!(
                r#"{{"op":"check","id":"nots","source":"{}","spec":"{}x"}}"#,
                esc(model),
                "!".repeat(50_000)
            ),
            format!(
                r#"{{"op":"check","id":"limit","source":"{}","spec":"{at_limit}","trace":true}}"#,
                esc(model)
            ),
            format!(r#"{{"op":"check","id":"next","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    assert_eq!(lines.len(), 7, "six answers + drained summary: {lines:?}");
    assert!(lines[0].contains(r#""outcome":"rejected","reason":"bad_request""#), "{}", lines[0]);
    for (line, id) in lines[1..4].iter().zip(["parens", "chain", "nots"]) {
        assert!(line.contains(&format!(r#""id":"{id}""#)), "{line}");
        assert!(line.contains(r#""outcome":"input_error","exit_class":2"#), "{line}");
        assert!(line.contains("nested deeper than 512 levels"), "{line}");
    }
    assert!(lines[4].contains(r#""id":"limit""#), "{}", lines[4]);
    assert!(lines[4].contains(r#""outcome":"fail","exit_class":1"#), "{}", lines[4]);
    assert!(lines[4].contains(r#""trace":"#), "a counterexample rides along: {}", lines[4]);
    assert!(lines[5].contains(r#""id":"next""#), "{}", lines[5]);
    assert!(lines[5].contains(r#""outcome":"pass""#), "{}", lines[5]);
    assert!(
        lines[6]
            .starts_with(r#"{"schema":1,"op":"drained","served":5,"rejected":1,"worst_exit":2"#),
        "{}",
        lines[6]
    );
    assert_eq!(code, 2);
}

#[test]
fn define_expansion_past_the_depth_bound_is_an_input_error() {
    // d256 sits 514 levels above `x` once its DEFINE chain is expanded.
    let mut deep = String::from("MODULE main\nVAR x : boolean;\nDEFINE d0 := x;\n");
    for i in 1..=256 {
        deep.push_str(&format!("DEFINE d{i} := d{} & x;\n", i - 1));
    }
    deep.push_str("SPEC AG (d256 -> x)\n");
    let (code, lines) = serve(
        &["--jobs", "1"],
        &[
            format!(r#"{{"op":"check","id":"defines","source":"{}"}}"#, esc(&deep)),
            format!(r#"{{"op":"check","id":"next","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    assert_eq!(lines.len(), 3, "two answers + drained summary: {lines:?}");
    assert!(lines[0].contains(r#""id":"defines""#), "{}", lines[0]);
    assert!(lines[0].contains(r#""outcome":"input_error","exit_class":2"#), "{}", lines[0]);
    assert!(
        lines[0].contains("nested deeper than 512 levels once DEFINEs are expanded"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains(r#""outcome":"pass""#), "{}", lines[1]);
    assert_eq!(code, 2);
}

#[test]
fn iff_chains_past_the_size_bound_are_input_errors() {
    // A 24-link `<->` chain desugars to ~134M nodes, and an accepted
    // 14-link chain behind `x | …` chained on to ~2.7e8: refused at parse
    // time, in a SPEC and in an ad-hoc formula alike, and the worker is
    // free for the next request.
    let model = "MODULE main\nVAR x : boolean;\nASSIGN init(x) := FALSE; next(x) := !x;\n";
    let iffs = |n: usize| vec!["x"; n].join(" <-> ");
    let wrapped = format!("(x | ({})) <-> {}", iffs(14), iffs(13));
    let chain = iffs(24);
    let (code, lines) = serve(
        &["--jobs", "1"],
        &[
            format!(
                r#"{{"op":"check","id":"spec","source":"{}"}}"#,
                esc(&format!("{model}SPEC {wrapped}\n"))
            ),
            format!(r#"{{"op":"check","id":"adhoc","source":"{}","spec":"{chain}"}}"#, esc(model)),
            format!(r#"{{"op":"check","id":"next","source":"{}"}}"#, esc(COUNTER)),
        ],
    );
    assert_eq!(lines.len(), 4, "three answers + drained summary: {lines:?}");
    for (line, id) in lines[..2].iter().zip(["spec", "adhoc"]) {
        assert!(line.contains(&format!(r#""id":"{id}""#)), "{line}");
        assert!(line.contains(r#""outcome":"input_error","exit_class":2"#), "{line}");
        assert!(line.contains("expands past 65536 nodes"), "{line}");
    }
    assert!(lines[2].contains(r#""id":"next""#), "{}", lines[2]);
    assert!(lines[2].contains(r#""outcome":"pass""#), "{}", lines[2]);
    assert_eq!(code, 2);
}

#[test]
fn coi_serve_answers_with_identical_verdicts() {
    // `AF b0` depends only on b0, so the COI planner slices COUNTER down
    // to 1/2 variables for that spec — the verdict payload must not move.
    let req = format!(r#"{{"op":"check","id":"c","source":"{}"}}"#, esc(COUNTER));
    let (plain_code, plain) = serve(&[], std::slice::from_ref(&req));
    let (coi_code, coi) = serve(&["--coi"], &[req]);
    assert_eq!((plain_code, coi_code), (0, 0), "{plain:?} vs {coi:?}");
    // Work counters (wall_us, created_nodes, ...) legitimately differ
    // under slicing; the per-spec verdict array must be byte-identical.
    let verdicts = |line: &str| {
        let at = line.find("\"specs\":").unwrap_or_else(|| panic!("no specs field: {line}"));
        line[at..].to_string()
    };
    assert_eq!(verdicts(&plain[0]), verdicts(&coi[0]));
    assert!(coi[0].contains(r#""outcome":"pass""#), "{}", coi[0]);
    assert!(
        coi[1].starts_with(r#"{"schema":1,"op":"drained","served":1,"rejected":0,"worst_exit":0"#),
        "{}",
        coi[1]
    );
}
