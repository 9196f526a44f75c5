//! `dgl pin` rebuilds every pinned artifact and must find each hash equal
//! to its cell in the committed table. A deliberate behaviour change
//! rewrites the table with `dgl pin --out baselines/bench-quick.json`.

use std::process::Command;

#[test]
fn the_committed_pin_table_matches() {
    let out = Command::new(env!("CARGO_BIN_EXE_dgl"))
        .arg("pin")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn dgl");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "simulated behaviour moved; the cells below differ from the table:\n{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("cells match baselines/bench-quick.json"),
        "{text}"
    );
}
