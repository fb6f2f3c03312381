//! Seeded input generation shared by the workloads.
//!
//! Every input is a function of the workload seed: the same seed gives the
//! same programs, criteria and request streams. Sizes are spread
//! log-uniformly along a van der Corput sequence, so every prefix of an
//! input stream covers the size range evenly and a run that stops early
//! still sees the whole size mix; the two families alternate and share
//! each size.

use jumpslice_core::Analysis;
use jumpslice_lang::{print_program, Program, StmtId, StmtKind};
use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
use jumpslice_testkit::Rng;

/// The two generator families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Nested structured control flow with break/continue/return.
    Structured,
    /// Goto-heavy unstructured code, jump density 0.25.
    Unstructured,
}

impl Family {
    /// Alternates the families: even indices structured.
    pub fn alternate(i: usize) -> Family {
        if i % 2 == 0 {
            Family::Structured
        } else {
            Family::Unstructured
        }
    }
}

/// Derives an independent stream seed from the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut r = Rng::seed_from_u64(
        seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    r.next_u64()
}

/// Radical inverse of `i` in base 2.
fn van_der_corput(mut i: u64) -> f64 {
    let (mut x, mut f) = (0.0, 0.5);
    while i > 0 {
        if i & 1 == 1 {
            x += f;
        }
        i >>= 1;
        f *= 0.5;
    }
    x
}

/// The `i`-th size of a log-uniform stream over `[lo, hi]`. The sizes are
/// the same for every seed, so runs with different seeds differ in program
/// content only, never in their size mix.
pub fn log_size(i: usize, lo: usize, hi: usize) -> usize {
    let u = van_der_corput(i as u64 + 1);
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    (l + u * (h - l)).exp().round() as usize
}

/// Generates one program of roughly `size` statements.
pub fn program(seed: u64, family: Family, size: usize) -> Program {
    let cfg = GenConfig::sized(seed, size.max(8));
    match family {
        Family::Structured => gen_structured(&cfg),
        Family::Unstructured => gen_unstructured(&cfg.with_jump_density(0.25)),
    }
}

/// One generated program as the source text a client would send.
pub fn source(seed: u64, family: Family, size: usize) -> String {
    print_program(&program(seed, family, size))
}

/// Reachable `write` statements, in statement order.
pub fn live_writes(p: &Program, a: &Analysis<'_>) -> Vec<StmtId> {
    p.stmt_ids()
        .filter(|&s| matches!(p.stmt(s).kind, StmtKind::Write { .. }) && a.is_live(s))
        .collect()
}

/// `k` distinct live writes picked by `rng` (fewer when the program has
/// fewer), in pick order.
pub fn pick_writes(p: &Program, a: &Analysis<'_>, rng: &mut Rng, k: usize) -> Vec<StmtId> {
    let mut writes = live_writes(p, a);
    let mut out = Vec::with_capacity(k);
    while out.len() < k && !writes.is_empty() {
        out.push(writes.swap_remove(rng.gen_range(0..writes.len())));
    }
    out
}

/// The batch criterion pool: every live write, topped up with other live
/// statements picked by `rng` until the pool holds `n` criteria.
pub fn criterion_pool(p: &Program, a: &Analysis<'_>, rng: &mut Rng, n: usize) -> Vec<StmtId> {
    let mut pool = live_writes(p, a);
    let mut rest: Vec<StmtId> = p
        .stmt_ids()
        .filter(|&s| a.is_live(s) && !matches!(p.stmt(s).kind, StmtKind::Write { .. }))
        .collect();
    while pool.len() < n && !rest.is_empty() {
        pool.push(rest.swap_remove(rng.gen_range(0..rest.len())));
    }
    pool.truncate(n.max(1));
    pool
}

/// 1-based paper line of every statement (`0` for statements outside the
/// body), from one walk of the lexical order.
pub fn line_table(p: &Program) -> Vec<u32> {
    let mut lines = vec![0u32; p.len()];
    for (i, s) in p.lexical_order().into_iter().enumerate() {
        lines[s.index()] = i as u32 + 1;
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_stay_in_range_and_cover_it() {
        let sizes: Vec<usize> = (0..16).map(|i| log_size(i, 1000, 13000)).collect();
        assert!(sizes.iter().all(|&s| (1000..=13000).contains(&s)));
        assert!(sizes.iter().any(|&s| s < 2000));
        assert!(sizes.iter().any(|&s| s > 7000));
    }

    #[test]
    fn line_table_matches_program_lines() {
        let p = program(5, Family::Unstructured, 60);
        let lines = line_table(&p);
        for s in p.lexical_order() {
            assert_eq!(lines[s.index()] as usize, p.line_of(s));
        }
    }
}
