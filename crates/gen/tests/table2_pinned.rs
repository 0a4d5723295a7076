//! Table 2 at paper scale, pinned.
//!
//! Runs all twelve rows through [`run_row`] at scale 1 (5152 experiments)
//! with the per-row seed bases of `repwf table2 --full` at its default
//! seed (row `i` starts at `20090301 + 10 000 000·i`) and the default
//! campaign cap. Pins, per row, the experiment total, the no-critical and
//! simulated counts and the bit pattern of the maximum gap, so a change
//! to the campaign runner that moves a single Table 2 outcome fails here.

use repwf_core::model::CommModel;
use repwf_gen::campaign::DEFAULT_CAMPAIGN_CAP;
use repwf_gen::table2::{run_row, table2_rows};

/// The default `--seed` of `repwf table2`.
const SEED: u64 = 20_090_301;

/// `(total, no_critical, simulated, max_gap_pct bits)` per row, in paper
/// order (six overlap rows, then six strict rows).
const PINNED: [(usize, usize, usize, u64); 12] = [
    (220, 0, 0, 4400382829897090083),
    (220, 0, 0, 0),
    (68, 0, 0, 0),
    (68, 0, 0, 0),
    (1000, 0, 0, 4405933393598744258),
    (1000, 0, 0, 4406259614267731878),
    (220, 33, 0, 4615129657103673244),
    (220, 12, 0, 4616581968389706081),
    (68, 9, 0, 4616415677961441024),
    (68, 4, 0, 4608723512639739895),
    (1000, 25, 0, 4618250246364478610),
    (1000, 15, 0, 4617413014596588661),
];

#[test]
fn full_table2_matches_the_pinned_rows() {
    let rows = table2_rows();
    let got: Vec<(usize, usize, usize, u64)> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let r = run_row(row, 1.0, SEED + 10_000_000 * i as u64, 2, DEFAULT_CAMPAIGN_CAP);
            (r.total, r.no_critical, r.simulated, r.max_gap_pct.to_bits())
        })
        .collect();
    assert_eq!(got, PINNED);

    let no_critical = |model: CommModel| -> Vec<usize> {
        rows.iter().zip(&got).filter(|(r, _)| r.model == model).map(|(_, g)| g.1).collect()
    };
    assert_eq!(no_critical(CommModel::Strict), [33, 12, 9, 4, 25, 15]);
    assert_eq!(no_critical(CommModel::Overlap), [0; 6]);
    assert_eq!(got.iter().map(|g| g.0).sum::<usize>(), 5152);
}
