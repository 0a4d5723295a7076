//! Witness circuits of strict-model ratio graphs, pinned by digest.
//!
//! The period digests of `crates/gen/tests/outcome_digest.rs` fold only
//! period and `M_ct` bits, so a solver change that moves the critical
//! circuit while its ratio keeps the same bits passes them. This test
//! builds the strict TPN ratio graph of each draw and folds what
//! `maxplus::Workspace::max_cycle_ratio` returns — the ratio bits and the
//! witness circuit's vertex ids — together with the number of strongly
//! connected components into one FNV-1a digest per family:
//!
//! * 100 draws of every strict Table 2 size, with `repwf table2`'s seeds;
//! * 2 000 draws of the default `repwf campaign` spec (2 × 7);
//! * 500 strict 3 × 9 draws with comp and comm in 5..15;
//! * 100 strict 4 × 16 draws with every time 1, where the digest also
//!   folds the number of cold Howard rounds and the error of each draw
//!   that fails.
//!
//! On the last family nearly every circuit ties with another, so a change
//! of float association in the potentials can change the path to the
//! same answer: the chain-contracted kernel runs 4 rounds where the
//! uncontracted one ran 6 on seed 3, and 3 where it ran 2 on seed 40,
//! with the same ratio bits and circuits. Seed 95, among others, fails
//! with `NoConvergence` under both kernels.

use maxplus::{RatioGraph, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use repwf_core::model::CommModel;
use repwf_core::tpn_build::{build_tpn, BuildOptions};
use repwf_gen::campaign::DEFAULT_CAMPAIGN_CAP;
use repwf_gen::{sample_instance, table2_rows, GenConfig, Range};
use repwf_obs::CounterId::HowardItersCold;

/// The default `--seed` of `repwf table2`.
const TABLE2_SEED: u64 = 20_090_301;

/// Digest per strict Table 2 row and size, in paper row order and each
/// row's size order.
const PINNED_TABLE2: [u64; 10] = [
    0x34a9_87e0_b5bd_6dce,
    0x9ece_fa06_16c9_ef92,
    0x42f2_128b_237f_c609,
    0x2efa_8607_352f_f2d1,
    0x4f3e_c446_8ffe_6aa2,
    0x5ca4_462f_a733_3459,
    0x6806_cf72_b929_2b7f,
    0xd5c8_1b15_1e9c_a7c8,
    0x91bc_cb07_3903_e671,
    0xacaa_cf3f_80ee_2fa2,
];

/// Digest of 2 000 draws of the default campaign spec from seed 2009.
const PINNED_DEFAULT: u64 = 0x4979_ee6a_fac7_f70d;

/// Digest of 500 strict 3 × 9 draws (comp and comm 5..15) from seed 1.
const PINNED_3X9: u64 = 0x4596_fe45_f006_4211;

/// Digest of 100 strict 4 × 16 draws with every time 1, from seed 1,
/// with round counts and errors.
const PINNED_4X16_TIES: u64 = 0xb2a6_96f6_0b3d_097f;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The strict ratio graph of draw `seed` of `cfg` (every draw here is
/// under the campaign cap, so a campaign solves it rather than simulating).
fn ratio_graph(cfg: &GenConfig, seed: u64) -> RatioGraph {
    let inst = sample_instance(cfg, &mut StdRng::seed_from_u64(seed));
    let opts = BuildOptions { labels: false, max_transitions: DEFAULT_CAMPAIGN_CAP };
    let built = build_tpn(&inst, CommModel::Strict, &opts).expect("draw is under the cap");
    tpn::analysis::ratio_graph(&built.net)
}

/// Folds `(seed, components, ratio bits, tokens, circuit length, circuit
/// vertex ids)` of `count` draws from `seed_base`, in seed order.
fn digest(cfg: &GenConfig, seed_base: u64, count: u64) -> u64 {
    let mut ws = Workspace::new();
    let mut h = Fnv::new();
    for seed in seed_base..seed_base + count {
        h.word(seed);
        let g = ratio_graph(cfg, seed);
        h.word(ws.scc(&g).num_components() as u64);
        let sol = ws.max_cycle_ratio(&g).expect("strict draws solve").expect("and are cyclic");
        h.word(sol.ratio.to_bits());
        h.word(sol.tokens);
        h.word(sol.cycle.len() as u64);
        for &v in &sol.cycle {
            h.word(u64::from(v));
        }
    }
    h.0
}

/// Folds `(seed, components, rounds, ratio bits, tokens, circuit length,
/// circuit vertex ids)` of `count` draws from `seed_base`, in seed order;
/// a failed draw folds its error instead of the solution.
fn digest_with_rounds(cfg: &GenConfig, seed_base: u64, count: u64) -> u64 {
    let mut ws = Workspace::new();
    let mut h = Fnv::new();
    for seed in seed_base..seed_base + count {
        h.word(seed);
        let g = ratio_graph(cfg, seed);
        h.word(ws.scc(&g).num_components() as u64);
        let (res, counts) = repwf_obs::counted(|| ws.max_cycle_ratio(&g));
        h.word(counts[HowardItersCold]);
        match res {
            Ok(Some(sol)) => {
                h.word(sol.ratio.to_bits());
                h.word(sol.tokens);
                h.word(sol.cycle.len() as u64);
                for &v in &sol.cycle {
                    h.word(u64::from(v));
                }
            }
            other => {
                for b in format!("{other:?}").bytes() {
                    h.word(u64::from(b));
                }
            }
        }
    }
    h.0
}

#[test]
fn strict_table2_witnesses_match_the_pinned_digests() {
    let mut got = Vec::new();
    for (i, row) in table2_rows().iter().enumerate() {
        if row.model != CommModel::Strict {
            continue;
        }
        for (k, &(stages, procs)) in row.sizes.iter().enumerate() {
            let cfg = GenConfig { stages, procs, comp: row.comp, comm: row.comm };
            let seed_base = TABLE2_SEED + 10_000_000 * i as u64 + 1_000_000 * k as u64;
            got.push(digest(&cfg, seed_base, 100));
        }
    }
    assert_eq!(got, PINNED_TABLE2, "{got:#018x?}");
}

#[test]
fn default_campaign_witnesses_match_the_pinned_digest() {
    let cfg =
        GenConfig { stages: 2, procs: 7, comp: Range::constant(1.0), comm: Range::new(5.0, 10.0) };
    let got = digest(&cfg, 2009, 2000);
    assert_eq!(got, PINNED_DEFAULT, "{got:#018x}");
}

#[test]
fn strict_3x9_witnesses_match_the_pinned_digest() {
    let cfg =
        GenConfig { stages: 3, procs: 9, comp: Range::new(5.0, 15.0), comm: Range::new(5.0, 15.0) };
    let got = digest(&cfg, 1, 500);
    assert_eq!(got, PINNED_3X9, "{got:#018x}");
}

#[test]
fn tied_4x16_witnesses_and_rounds_match_the_pinned_digest() {
    let one = Range::constant(1.0);
    let cfg = GenConfig { stages: 4, procs: 16, comp: one, comm: one };
    let got = digest_with_rounds(&cfg, 1, 100);
    assert_eq!(got, PINNED_4X16_TIES, "{got:#018x}");
}
