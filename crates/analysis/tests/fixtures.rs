//! The fixture corpus: every rule has a `fires` / `clean` / `suppressed`
//! triple under `tests/fixtures/<rule>/`, each a miniature workspace root
//! run through the same engine as the live tree. The live tree itself is
//! the final fixture: it must scan clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use habf_analysis::{analyze, report, Report, Workspace};

const RULES: [&str; 9] = [
    "decode-no-panic",
    "alloc-cap-before-len",
    "safety-comment",
    "no-probe-under-lock",
    "registry-fixture-parity",
    "wire-frame-parity",
    "no-unwrap-in-serve",
    "bench-artifact-parity",
    "no-block-in-reactor",
];

fn fixture_root(rule: &str, variant: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(variant)
}

fn run(rule: &str, variant: &str) -> Report {
    let root = fixture_root(rule, variant);
    let ws = Workspace::load(&root).expect("load fixture root");
    analyze(&ws)
}

#[test]
fn every_rule_fires_on_its_fires_fixture() {
    for rule in RULES {
        let rep = run(rule, "fires");
        assert!(
            rep.findings.iter().any(|f| f.rule == rule),
            "{rule}: fires fixture drew no {rule} finding: {:?}",
            rep.findings
        );
        // Fixture purity: a fixture demonstrates exactly one rule.
        assert!(
            rep.findings.iter().all(|f| f.rule == rule),
            "{rule}: fires fixture leaked other rules: {:?}",
            rep.findings
        );
        // Findings carry a real anchor for suppressions and CI logs.
        for f in rep.findings.iter() {
            assert!(
                !f.file.is_empty() && f.line >= 1,
                "{rule}: unanchored finding {f:?}"
            );
        }
    }
}

#[test]
fn every_rule_is_quiet_on_its_clean_fixture() {
    for rule in RULES {
        let rep = run(rule, "clean");
        assert!(
            rep.findings.is_empty(),
            "{rule}: clean fixture still fires: {:?}",
            rep.findings
        );
        assert_eq!(
            rep.suppressed, 0,
            "{rule}: clean fixture needed suppressions"
        );
    }
}

#[test]
fn every_rule_is_silenced_by_a_justified_allow() {
    for rule in RULES {
        let rep = run(rule, "suppressed");
        assert!(
            rep.findings.is_empty(),
            "{rule}: justified allow did not suppress: {:?}",
            rep.findings
        );
        assert!(rep.suppressed >= 1, "{rule}: nothing was suppressed");
    }
}

/// The decode lints scan every `habf-core` source file, not a fixed
/// list: each rule's `fires` fixture has a violation in `compat.rs` as
/// well as in `persist.rs`.
#[test]
fn decode_rules_cover_every_core_source_file() {
    for rule in ["decode-no-panic", "alloc-cap-before-len"] {
        let rep = run(rule, "fires");
        for file in ["crates/core/src/persist.rs", "crates/core/src/compat.rs"] {
            assert!(
                rep.findings.iter().any(|f| f.file == file),
                "{rule}: no finding in {file}: {:?}",
                rep.findings
            );
        }
    }
}

/// A tenant rebuild is flagged in the reactor and in the request handler
/// its workers call, where it blocks the worker one call deeper.
#[test]
fn rebuild_now_is_flagged_in_the_reactor_and_the_request_handler() {
    let rep = run("no-block-in-reactor", "fires");
    for file in ["crates/serve/src/reactor.rs", "crates/serve/src/server.rs"] {
        assert!(
            rep.findings
                .iter()
                .any(|f| f.file == file && f.message.contains("rebuild_now")),
            "no rebuild_now finding in {file}: {:?}",
            rep.findings
        );
    }
}

/// Every registry id needs a v2 fixture; only the ids frozen with the v1
/// container also need a v1 one.
#[test]
fn registry_parity_requires_v1_fixtures_only_for_frozen_ids() {
    let rep = run("registry-fixture-parity", "fires");
    let messages: Vec<&str> = rep.findings.iter().map(|f| f.message.as_str()).collect();
    let has = |needle: &str| messages.iter().any(|m| m.contains(needle));
    assert!(has("container_habf_v1.bin"), "{messages:?}");
    assert!(has("container_demo_v2.bin"), "{messages:?}");
    assert!(has("`demo` is not pinned"), "{messages:?}");
    assert!(!has("container_demo_v1.bin"), "{messages:?}");
    assert_eq!(messages.len(), 3, "{messages:?}");
}

#[test]
fn an_allow_without_a_reason_does_not_suppress() {
    let rep = run("decode-no-panic", "unjustified");
    assert_eq!(rep.suppressed, 0);
    let f = rep
        .findings
        .iter()
        .find(|f| f.rule == "decode-no-panic")
        .expect("finding survives");
    assert!(
        f.message.contains("missing ` -- <reason>`"),
        "omission must be annotated: {}",
        f.message
    );
}

#[test]
fn live_workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("load workspace");
    let rep = analyze(&ws);
    assert!(
        rep.findings.is_empty(),
        "the workspace has unsuppressed violations:\n{}",
        report::render_human(&rep)
    );
    assert!(rep.files_scanned > 20, "workspace walk looks truncated");
}

#[test]
fn cli_reports_rule_id_and_location_and_gates_on_exit_code() {
    let bin = env!("CARGO_BIN_EXE_habf-analysis");

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture_root("decode-no-panic", "fires"))
        .args(["--format", "json"])
        .output()
        .expect("run analyzer");
    assert!(!out.status.success(), "violations must exit nonzero");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"rule\": \"decode-no-panic\""), "{json}");
    assert!(json.contains("crates/core/src/persist.rs"), "{json}");
    assert!(json.contains("\"line\": 6"), "{json}");

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture_root("decode-no-panic", "fires"))
        .output()
        .expect("run analyzer");
    let human = String::from_utf8_lossy(&out.stdout);
    assert!(
        human.contains("crates/core/src/persist.rs:6: [decode-no-panic]"),
        "{human}"
    );

    let out = Command::new(bin)
        .arg("--root")
        .arg(fixture_root("decode-no-panic", "clean"))
        .args(["--format", "json"])
        .output()
        .expect("run analyzer");
    assert!(out.status.success(), "a clean tree must exit 0");
}
