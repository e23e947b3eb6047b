//! Golden-report regression tests for the hot-path optimizations.
//!
//! The optimization contract is byte identity: incremental accounting,
//! ordered index sets, dense paging tables and buffer reuse may change
//! *when* work happens, never *what* comes out. These tests pin the
//! exact report bytes produced by the pre-optimization code (captured
//! from the release CLI at the seed grids below) and fail on any drift —
//! a float summed in a different order, a tie broken toward a different
//! host, a column padded differently.
//!
//! Goldens live in `tests/golden/` and were captured with `--jobs 2` to
//! also lock the parallel-collection path. Regenerate them only for an
//! intentional output change, with a note in the commit message:
//!
//! ```text
//! ZL_DC_SERVERS=48 ZL_DC_DAYS=1 zombieland-cli experiment fig10 --jobs 2
//! ZL_SCALE=0.04    zombieland-cli experiment table1 --jobs 2
//! ZL_SCALE=0.04    zombieland-cli experiment fig8 --jobs 2
//! ZL_SCALE=0.04    zombieland-cli experiment table2 --jobs 2
//! ```
//!
//! Fig. 8 and Table 2 pin the paging engine and the remote-memory
//! manager: every fault-path change (page table, eviction, batching)
//! must keep their bytes, Table 2's Explicit-SD column through the
//! rack's swap pool.

use zombieland::hypervisor::Policy;
use zombieland_bench::experiments;

/// Fig. 10 at the 48-server × 1-day grid renders the exact pre-change
/// bytes.
#[test]
fn figure10_bytes_match_prechange_golden() {
    let trace = experiments::fig10_trace(48, 1, 11);
    let modified = trace.modified();
    let groups = experiments::figure10_grid(&trace, &modified, 2);
    let rendered = experiments::render_figure10(&groups);
    let golden = include_str!("golden/fig10_48x1.txt");
    assert_eq!(
        rendered, golden,
        "Fig. 10 report bytes drifted from the pre-optimization golden"
    );
}

/// Table 1 at scale 0.04 renders the exact pre-change bytes.
#[test]
fn table1_bytes_match_prechange_golden() {
    let rows = experiments::table1_jobs(0.04, 2);
    let rendered = experiments::render_table1(&rows);
    let golden = include_str!("golden/table1_s004.txt");
    assert_eq!(
        rendered, golden,
        "Table 1 report bytes drifted from the pre-optimization golden"
    );
}

/// Fig. 8 at scale 0.04 renders the exact pre-change bytes.
#[test]
fn figure8_bytes_match_prechange_golden() {
    let sweep = |policy| experiments::figure8_jobs(policy, 0.04, 2);
    let rendered = experiments::render_figure8(
        &sweep(Policy::Fifo),
        &sweep(Policy::Clock),
        &sweep(Policy::MIXED_DEFAULT),
    );
    let golden = include_str!("golden/fig8_s004.txt");
    assert_eq!(
        rendered, golden,
        "Fig. 8 report bytes drifted from the pre-change golden"
    );
}

/// Table 2 (all four workloads) at scale 0.04 renders the exact
/// pre-change bytes.
#[test]
fn table2_bytes_match_prechange_golden() {
    let rendered: String = experiments::WORKLOADS
        .iter()
        .map(|w| experiments::render_table2(w, &experiments::table2_jobs(w, 0.04, 2)))
        .collect();
    let golden = include_str!("golden/table2_s004.txt");
    assert_eq!(
        rendered, golden,
        "Table 2 report bytes drifted from the pre-change golden"
    );
}
