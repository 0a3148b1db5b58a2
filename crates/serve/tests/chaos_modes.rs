//! The chaos harness's one kill loop, end to end on the real binary, in
//! both of its modes: one node relaunched on its own journal, and a
//! replicated pair whose standby is promoted at the kill. One kill under
//! two clients keeps each run to about a second.

use squid_serve::{run_chaos, ChaosConfig, ChaosReport};

fn one_kill(standby: bool) -> ChaosReport {
    let report = run_chaos(&ChaosConfig {
        server_cmd: vec![env!("CARGO_BIN_EXE_squid-serve").into(), "mini".into()],
        clients: 2,
        kills: 1,
        standby,
    })
    .unwrap_or_else(|e| panic!("chaos run failed: {e}"));
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.lost_turns, 0, "{}", report.summary());
    assert_eq!(report.sql_mismatches, 0, "{}", report.summary());
    report
}

#[test]
fn a_killed_single_node_recovers_every_acknowledged_turn() {
    assert_eq!(one_kill(false).promotions, 0);
}

#[test]
fn a_killed_primary_fails_over_to_its_promoted_standby() {
    assert_eq!(one_kill(true).promotions, 1);
}
