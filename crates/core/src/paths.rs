//! Proposition 1: paths followed by the input data.
//!
//! With stage `S_i` replicated on `m_i` processors served round-robin, data
//! set `j` traverses processors `(P_{0, j mod m_0}, …, P_{n−1, j mod m_{n−1}})`,
//! and the number of distinct paths is `m = lcm(m_0, …, m_{n−1})` — data set
//! `j` takes the same path as data set `j − m` (Table 1 of the paper).

use crate::model::{Instance, Mapping, ProcId};

/// `gcd` over `u128`.
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `lcm` over `u128`, `None` on overflow.
pub fn lcm(a: u128, b: u128) -> Option<u128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b)
}

/// `m = lcm(m_0, …, m_{n−1})`: the number of distinct paths (and the number
/// of rows of the full TPN). `None` on u128 overflow — astronomically large
/// replication patterns.
pub fn num_paths(replicas: &[usize]) -> Option<u128> {
    replicas.iter().try_fold(1u128, |acc, &m| lcm(acc, m as u128))
}

/// Number of distinct paths of a mapping (Proposition 1), without
/// materializing the replica-count vector — the hot-path variant used by
/// the period engine on every oracle call.
pub fn mapping_num_paths(mapping: &Mapping) -> Option<u128> {
    mapping.assignment().iter().try_fold(1u128, |acc, procs| lcm(acc, procs.len() as u128))
}

/// Number of distinct paths of an instance (Proposition 1).
pub fn instance_num_paths(inst: &Instance) -> Option<u128> {
    mapping_num_paths(&inst.mapping)
}

/// The path followed by data set `j`: one processor per stage.
pub fn path_of(inst: &Instance, j: u128) -> Vec<ProcId> {
    path_of_view(inst.view(), j)
}

/// [`path_of`] on a borrowed view.
pub fn path_of_view(view: crate::model::InstanceView<'_>, j: u128) -> Vec<ProcId> {
    (0..view.num_stages())
        .map(|i| {
            let procs = view.mapping.procs(i);
            procs[(j % procs.len() as u128) as usize]
        })
        .collect()
}

/// Iterator over the paths of the first `limit` data sets.
pub fn paths(inst: &Instance, limit: u128) -> impl Iterator<Item = Vec<ProcId>> + '_ {
    (0..limit).map(move |j| path_of(inst, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mapping, Pipeline, Platform};

    fn inst(replicas: &[usize]) -> Instance {
        let n = replicas.len();
        let pipeline = Pipeline::new(vec![1.0; n], vec![1.0; n - 1]).unwrap();
        let p: usize = replicas.iter().sum();
        let platform = Platform::uniform(p, 1.0, 1.0);
        let mut next = 0;
        let assignment: Vec<Vec<usize>> = replicas
            .iter()
            .map(|&m| {
                let v: Vec<usize> = (next..next + m).collect();
                next += m;
                v
            })
            .collect();
        let mapping = Mapping::new(assignment).unwrap();
        Instance::new(pipeline, platform, mapping).unwrap()
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(21, 27), 3);
        assert_eq!(lcm(4, 6), Some(12));
        assert_eq!(lcm(0, 5), Some(0));
        assert_eq!(num_paths(&[1, 2, 3, 1]), Some(6));
    }

    #[test]
    fn lcm_overflow_detected() {
        assert_eq!(lcm(u128::MAX, u128::MAX - 1), None);
    }

    #[test]
    fn example_a_paths() {
        // Example A of the paper: replicas (1, 2, 3, 1) ⇒ m = 6 and the
        // paths of Table 1.
        let inst = inst(&[1, 2, 3, 1]);
        assert_eq!(instance_num_paths(&inst), Some(6));
        let got: Vec<Vec<usize>> = paths(&inst, 8).collect();
        // procs: S0={0}, S1={1,2}, S2={3,4,5}, S3={6}
        assert_eq!(got[0], vec![0, 1, 3, 6]);
        assert_eq!(got[1], vec![0, 2, 4, 6]);
        assert_eq!(got[2], vec![0, 1, 5, 6]);
        assert_eq!(got[3], vec![0, 2, 3, 6]);
        assert_eq!(got[4], vec![0, 1, 4, 6]);
        assert_eq!(got[5], vec![0, 2, 5, 6]);
        // Table 1: data set i takes the same path as data set i − 6.
        assert_eq!(got[6], got[0]);
        assert_eq!(got[7], got[1]);
    }

    #[test]
    fn example_c_m_value() {
        // Example C: replicas (5, 21, 27, 11) ⇒ m = 10395.
        assert_eq!(num_paths(&[5, 21, 27, 11]), Some(10395));
    }

    #[test]
    fn paths_are_distinct_within_m() {
        let inst = inst(&[2, 3]);
        let m = instance_num_paths(&inst).unwrap();
        assert_eq!(m, 6);
        let all: Vec<_> = paths(&inst, m).collect();
        for a in 0..all.len() {
            for b in (a + 1)..all.len() {
                assert_ne!(all[a], all[b], "paths {a} and {b} must differ");
            }
        }
    }
}
