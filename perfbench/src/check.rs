//! Answer checking: reference comparisons, the projection oracle, and the
//! answer digest.
//!
//! Each workload checks its answers against a reference computed on a
//! fresh `Analysis` of the same source (never through the cache, the store
//! or an incremental session), runs the executable-slice projection oracle
//! on a seeded sample, and folds a fixed prefix of its answers into a
//! digest that repeated runs with one seed must reproduce.

use jumpslice_core::Slice;
use jumpslice_interp::{check_projection, Input};
use jumpslice_lang::Program;

/// Inputs per oracle check.
const ORACLE_INPUTS: usize = 4;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice in: its statements and re-associated labels.
    pub fn slice(&mut self, s: &Slice) {
        self.word(s.stmts.len() as u64);
        for st in s.stmts.iter() {
            self.word(st.index() as u64);
        }
        for (label, target) in &s.moved_labels {
            self.word(label.index() as u64);
            self.word(target.map_or(u64::MAX, |t| t.index() as u64));
        }
    }

    /// Folds a list of line numbers in.
    pub fn lines(&mut self, lines: &[u32]) {
        self.word(lines.len() as u64);
        for &l in lines {
            self.word(u64::from(l));
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Tallies of one run's checks.
#[derive(Clone, Debug, Default)]
pub struct Verdicts {
    /// Answers compared against a fresh reference.
    pub compared: usize,
    /// Ops that failed or answered wrongly.
    pub failed: usize,
    /// Oracle verdicts: terminating runs that agreed.
    pub oracle_verified: usize,
    /// Oracle verdicts: fuel ran out, only a prefix agreed.
    pub oracle_inconclusive: usize,
    /// Oracle verdicts: the slice's projection disagreed or got stuck.
    pub oracle_failed: usize,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Verdicts {
    /// Records a failed op with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Runs the projection oracle on one slice of `prog`. An oracle
    /// failure also fails the op it came from.
    pub fn oracle(&mut self, prog: &Program, s: &Slice, what: &str) {
        match check_projection(
            prog,
            &s.stmts,
            &s.moved_labels,
            &Input::family(ORACLE_INPUTS),
        ) {
            Ok(r) if r.is_conclusive() => self.oracle_verified += 1,
            Ok(_) => self.oracle_inconclusive += 1,
            Err(e) => {
                self.oracle_failed += 1;
                self.fail(format!("oracle rejected {what}: {e}"));
            }
        }
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.oracle_failed == 0
    }
}

/// Drops one statement from a collected answer: the checker self-test.
pub fn corrupt(s: &mut Slice) {
    let victim = s.stmts.iter().next().expect("a slice holds its criterion");
    s.stmts.remove(victim);
}
