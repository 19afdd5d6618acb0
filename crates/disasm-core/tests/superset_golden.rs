//! Golden pin for the superset candidate table.
//!
//! The fixture is a *committed* byte blob (`tests/data/superset_fixture.bin`
//! — a bingen workload frozen at generation time, so later generator changes
//! cannot move it) and a committed per-offset candidate dump. Any storage
//! rewrite of `Superset` — packing changes, prescan changes — must keep
//! producing byte-for-byte these candidates.
//!
//! Regenerate the golden after an *intentional* semantic change with:
//!
//! ```text
//! UPDATE_SUPERSET_GOLDEN=1 cargo test -p disasm-core --test superset_golden
//! ```

use disasm_core::superset::{CandFlow, Candidate, Superset, NO_TARGET};

const FIXTURE: &[u8] = include_bytes!("data/superset_fixture.bin");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/superset_fixture.golden"
);

fn flow_tag(f: CandFlow) -> &'static str {
    match f {
        CandFlow::Seq => "seq",
        CandFlow::Jmp => "jmp",
        CandFlow::Cond => "cond",
        CandFlow::Call => "call",
        CandFlow::JmpInd => "jmpi",
        CandFlow::CallInd => "calli",
        CandFlow::Ret => "ret",
        CandFlow::Term => "term",
    }
}

fn render_line(off: u32, c: &Candidate) -> String {
    let target = if c.target == NO_TARGET {
        "-".to_string()
    } else {
        c.target.to_string()
    };
    format!(
        "{off} {} {:?} {} {target} {}{}{}",
        c.len,
        c.opclass,
        flow_tag(c.flow),
        u8::from(c.target_escapes),
        u8::from(c.suspicious),
        u8::from(c.padding),
    )
}

fn render(ss: &Superset) -> String {
    let mut out = String::with_capacity(ss.len() * 24);
    out.push_str("# off len opclass flow target escapes|suspicious|padding\n");
    for (off, c) in ss.valid() {
        out.push_str(&render_line(off, &c));
        out.push('\n');
    }
    // invalid offsets are pinned too, compactly
    let invalid: Vec<String> = (0..ss.len() as u32)
        .filter(|&off| !ss.at(off).is_valid())
        .map(|off| off.to_string())
        .collect();
    out.push_str("# invalid offsets\n");
    out.push_str(&invalid.join(" "));
    out.push('\n');
    out
}

#[test]
fn build_matches_committed_golden() {
    let ss = Superset::build(FIXTURE);
    let rendered = render(&ss);
    if std::env::var_os("UPDATE_SUPERSET_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing tests/data/superset_fixture.golden — run with UPDATE_SUPERSET_GOLDEN=1 once",
    );
    assert_eq!(
        rendered, golden,
        "superset candidates diverged from the committed golden"
    );
}

#[test]
fn fixture_is_nontrivial() {
    // The pin is only meaningful if the fixture exercises the interesting
    // candidate shapes: direct branches with in-section targets, escaping
    // branches, padding, and invalid decodes.
    let ss = Superset::build(FIXTURE);
    assert!(
        FIXTURE.len() >= 2048,
        "fixture too small: {}",
        FIXTURE.len()
    );
    let cands: Vec<Candidate> = ss.valid().map(|(_, c)| c).collect();
    assert!(cands.iter().any(|c| c.target != NO_TARGET));
    assert!(cands.iter().any(|c| c.target_escapes));
    assert!(cands.iter().any(|c| c.padding));
    assert!(cands.iter().any(|c| c.flow == CandFlow::Ret));
    assert!((0..ss.len() as u32).any(|off| !ss.at(off).is_valid()));
}
