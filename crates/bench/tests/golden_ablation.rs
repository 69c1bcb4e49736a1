//! Golden-fixture diff test for the design-choice ablation.
//!
//! `tests/golden/ablation_omnetpp_test.json` pins the JSON ablation rows
//! for omnetpp under the `test` profile. It is the only fixture that
//! runs the native page-walk cache: its "PWC only" and "PWC + PCC" rows
//! depend on how many levels every PWC-shortened walk references, and
//! `json::num` prints six decimals, so any change to the structure-cache
//! walk, its LRU order or its invalidation shows up here. omnetpp is
//! used because its PWC row moves far from the baseline; on BFS it
//! barely moves.
//!
//! Regenerate (only after an *intentional* semantic change) by printing
//! `hpage_bench::json::ablation_json("omnetpp", &rows)` for the rows
//! computed below, with no trailing newline.

use hpage_sim::{ablation_design_choices_on, Harness, SimProfile};
use hpage_trace::AppId;

#[test]
fn ablation_matches_committed_golden() {
    let rows =
        ablation_design_choices_on(&Harness::sequential(), &SimProfile::test(), AppId::Omnetpp);
    let got = hpage_bench::json::ablation_json("omnetpp", &rows);
    let want = include_str!("golden/ablation_omnetpp_test.json");
    assert!(
        got == want,
        "ablation output drifted from the committed golden fixture\n\
         --- expected ---\n{want}\n--- got ---\n{got}"
    );
}
