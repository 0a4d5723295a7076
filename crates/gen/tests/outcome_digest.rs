//! Outcome bits of every Table 2 size, pinned by digest.
//!
//! `table2_pinned.rs` pins each row's aggregates and its maximum gap, so
//! a change that moves one non-maximal outcome by an ulp can pass it.
//! This test folds `(seed, period bits, M_ct bits)` of 200 draws per
//! Table 2 row and size into an FNV-1a digest, once through the serial
//! per-instance path (`run_one_with` seed by seed on one engine) and once
//! through the campaign runner (`run_spec`, shape-batched chunks), and
//! pins both to the same constants. The two paths run on two threads.
//!
//! 200 draws are too few lanes per shape to exercise what the batched
//! kernel reuses across chunks of one shape, so a second digest pins the
//! 20 000-draw default `repwf campaign` spec through the runner at 1 and
//! 2 threads.

use repwf_gen::campaign::{
    engine_for_cap, run_one_with, run_spec, CampaignSpec, ExperimentOutcome, DEFAULT_CAMPAIGN_CAP,
};
use repwf_gen::table2::table2_rows;
use repwf_gen::{GenConfig, Topology};

/// Draws per row and size.
const DRAWS: usize = 200;

/// The default `--seed` of `repwf table2`.
const SEED: u64 = 20_090_301;

/// Digest per `(row, size)`, in paper row order and each row's size order
/// (overlap rows first, then strict).
const PINNED: [u64; 20] = [
    0x0cefb4768d0169b4,
    0xcfa6b430dad8ba9e,
    0xd06c93cb32399e8a,
    0xe849735b73d855e6,
    0x0ba9ab7b840fd81e,
    0x99e12b7571f1f9ec,
    0x13d383847ca5eb2a,
    0xaa944cb771a25e24,
    0x2c226c8483f391e5,
    0x5c9ee4e07bf2dcd8,
    0x765d524ff57fe1c4,
    0xc32083e44c1ffbd7,
    0xed800996fda634d4,
    0x1357fff099f1dedb,
    0x17029d42236e5f73,
    0xd331f3e26edb7960,
    0xc2076db952db2e22,
    0x37ab6f8121d5c060,
    0x30143495470c133d,
    0x902db477d136e55f,
];

/// FNV-1a over the little-endian bytes of `(seed, period bits, M_ct
/// bits)` of each outcome, in seed order.
fn digest<'a>(outcomes: impl IntoIterator<Item = &'a ExperimentOutcome>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        for w in [o.seed, o.period.to_bits(), o.mct.to_bits()] {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One campaign spec per Table 2 row and size, with `repwf table2`'s seed
/// bases (row `i`, size `k` starts at `SEED + 10 000 000·i + 1 000 000·k`).
fn specs() -> Vec<CampaignSpec> {
    let mut out = Vec::new();
    for (i, row) in table2_rows().iter().enumerate() {
        for (k, &(stages, procs)) in row.sizes.iter().enumerate() {
            out.push(CampaignSpec {
                cfg: GenConfig { stages, procs, comp: row.comp, comm: row.comm },
                model: row.model,
                count: DRAWS,
                seed_base: SEED + 10_000_000 * i as u64 + 1_000_000 * k as u64,
                cap: DEFAULT_CAMPAIGN_CAP,
            });
        }
    }
    out
}

#[test]
fn table2_outcome_bits_match_the_pinned_digests() {
    let specs = specs();
    assert_eq!(specs.len(), PINNED.len());
    let (serial, batched) = std::thread::scope(|s| {
        let serial = s.spawn(|| {
            let mut engine = engine_for_cap(DEFAULT_CAMPAIGN_CAP);
            specs
                .iter()
                .map(|spec| {
                    let outcomes: Vec<ExperimentOutcome> = (0..spec.count as u64)
                        .map(|k| {
                            run_one_with(&spec.cfg, spec.model, spec.seed_base + k, &mut engine)
                        })
                        .collect();
                    digest(&outcomes)
                })
                .collect::<Vec<u64>>()
        });
        let batched = specs
            .iter()
            .map(|spec| {
                digest(&run_spec(spec, &Topology::chain(spec.cfg.stages), 1, |_| {}).outcomes)
            })
            .collect::<Vec<u64>>();
        (serial.join().expect("serial path"), batched)
    });
    assert_eq!(serial, PINNED, "serial per-instance path");
    assert_eq!(batched, PINNED, "campaign runner");
}

/// Draws of the full-size default campaign: enough lanes per shape that
/// the batched kernel sees the same policies over and over.
const DEFAULT_CAMPAIGN_DRAWS: usize = 20_000;

/// Digest of the 20 000-draw default `repwf campaign` spec.
const PINNED_DEFAULT_CAMPAIGN: u64 = 0x09a9_f32b_d8fb_08bf;

/// The default `repwf campaign` spec (strict, 2 stages on 7 processors,
/// comp 1, comm 5..10, seed 2009) at 20 000 draws, through the campaign
/// runner at 1 and at 2 threads.
#[test]
fn default_campaign_outcome_bits_match_the_pinned_digest() {
    let spec = CampaignSpec {
        cfg: GenConfig {
            stages: 2,
            procs: 7,
            comp: repwf_gen::Range::constant(1.0),
            comm: repwf_gen::Range::new(5.0, 10.0),
        },
        model: repwf_core::model::CommModel::Strict,
        count: DEFAULT_CAMPAIGN_DRAWS,
        seed_base: 2009,
        cap: DEFAULT_CAMPAIGN_CAP,
    };
    let topo = Topology::chain(spec.cfg.stages);
    for threads in [1, 2] {
        let result = run_spec(&spec, &topo, threads, |_| {});
        assert_eq!(result.outcomes.len(), DEFAULT_CAMPAIGN_DRAWS);
        assert_eq!(
            digest(&result.outcomes),
            PINNED_DEFAULT_CAMPAIGN,
            "{threads} thread(s): {:#018x}",
            digest(&result.outcomes)
        );
    }
}
