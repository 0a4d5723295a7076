//! The campaign JSON document, shared by `repwf campaign --json` and
//! `repwf merge --json`.
//!
//! Both commands build their output through [`campaign_doc`], so "a
//! merged campaign is byte-identical to the unsharded run" is a
//! structural property of the code — there is exactly one serializer —
//! rather than two implementations kept in sync by tests alone.

use crate::json::Json;
use crate::manifest::{model_name, CampaignSpec};
use repwf_gen::campaign::{CampaignResult, Resolution};
use repwf_gen::Range;

/// Builds the structured campaign document: the spec echo, the
/// associative aggregates (via [`CampaignResult::accum`], the same folds
/// the shard merger recombines) and the per-experiment outcomes in seed
/// order.
pub fn campaign_doc(spec: &CampaignSpec, res: &CampaignResult) -> Json {
    let accum = res.accum();
    // Shape statistics are computed from the *spec* (replaying only the
    // replica RNG prefix of every seed), never from the outcomes: a
    // merged sharded campaign reports the same values as the unsharded
    // run regardless of which runner executed the experiments.
    let (distinct_shapes, batch_hit_rate) =
        repwf_gen::campaign::shape_stats(&spec.cfg, spec.count, spec.seed_base);
    let outcomes: Vec<Json> = res
        .outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("seed", Json::UInt(u128::from(o.seed))),
                ("num_paths", Json::UInt(o.num_paths)),
                ("mct", Json::Num(o.mct)),
                ("period", Json::Num(o.period)),
                ("gap", Json::Num(o.gap())),
                (
                    "resolution",
                    Json::str(match o.resolution {
                        Resolution::Exact => "exact",
                        Resolution::Simulated => "simulated",
                    }),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("model", Json::str(model_name(spec.model))),
        (
            "config",
            Json::Obj(vec![
                ("stages", Json::UInt(spec.cfg.stages as u128)),
                ("procs", Json::UInt(spec.cfg.procs as u128)),
                ("comp", range_json(spec.cfg.comp)),
                ("comm", range_json(spec.cfg.comm)),
            ]),
        ),
        ("count", Json::UInt(spec.count as u128)),
        ("seed", Json::UInt(u128::from(spec.seed_base))),
        ("cap", Json::UInt(spec.cap as u128)),
        ("distinct_shapes", Json::UInt(distinct_shapes as u128)),
        ("batch_hit_rate", Json::Num(batch_hit_rate)),
        ("no_critical", Json::UInt(accum.no_critical as u128)),
        ("max_gap_pct", Json::Num(accum.max_gap() * 100.0)),
        ("simulated", Json::UInt(accum.simulated as u128)),
        ("outcomes", Json::Arr(outcomes)),
    ])
}

/// [`campaign_doc`] for a **partial** merge (`repwf merge
/// --allow-partial` with gaps): the same document — identical spec echo,
/// aggregates over the covered outcomes — plus a `"partial": true`
/// marker and the exact uncovered seed ranges, inserted *before* the
/// outcomes array. A degraded campaign is structurally distinguishable
/// from a complete one; the two documents can never be byte-identical.
pub fn campaign_doc_partial(
    spec: &CampaignSpec,
    res: &CampaignResult,
    missing: &[(u64, u64)],
) -> Json {
    let Json::Obj(mut fields) = campaign_doc(spec, res) else {
        unreachable!("campaign_doc builds an object")
    };
    let ranges: Vec<Json> = missing
        .iter()
        .map(|&(start, end)| {
            Json::Obj(vec![
                ("seed_start", Json::UInt(u128::from(start))),
                ("seed_end", Json::UInt(u128::from(end))),
            ])
        })
        .collect();
    let at = fields.iter().position(|(k, _)| *k == "outcomes").unwrap_or(fields.len());
    fields.insert(at, ("partial", Json::Bool(true)));
    fields.insert(at + 1, ("missing_ranges", Json::Arr(ranges)));
    Json::Obj(fields)
}

fn range_json(r: Range) -> Json {
    Json::Obj(vec![("lo", Json::Num(r.lo)), ("hi", Json::Num(r.hi))])
}
