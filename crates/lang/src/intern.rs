//! A tiny string interner shared by variable names, function names, and
//! labels.

use std::fmt;

/// Append-only string interner handing out dense `u32` ids.
///
/// Every distinct string is stored once, in one buffer. The id table is
/// open-addressed and hashed with [`hash`], a multiply-rotate word hash:
/// names are short, and SipHash's flood resistance costs more than the
/// rest of interning put together. Interning is not hardened against
/// crafted colliding names; a colliding input slows parsing down, it never
/// changes an id.
#[derive(Clone, Default)]
pub(crate) struct Interner {
    /// Every interned string, concatenated in id order.
    text: String,
    /// `ends[id]` is where string `id` ends in `text`; it starts where
    /// string `id - 1` ends.
    ends: Vec<u32>,
    /// `slots[i]` holds an id + 1, or 0 when empty. The length is zero or
    /// a power of two, and at most half the slots are full.
    slots: Vec<u32>,
}

impl Interner {
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let slot = match self.probe(s) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.ends.len()).expect("interner overflow");
        self.text.push_str(s);
        self.ends
            .push(u32::try_from(self.text.len()).expect("interner overflow"));
        self.slots[slot] = id + 1;
        id
    }

    /// The id of `s`, or the empty slot where it belongs. The table must
    /// have at least one empty slot.
    fn probe(&self, s: &str) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash(s.as_bytes()) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                slot if self.resolve(slot - 1) == s => return Ok(slot - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the id table and re-seats every id.
    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        for id in 0..self.ends.len() as u32 {
            if let Err(slot) = self.probe(self.resolve(id)) {
                self.slots[slot] = id + 1;
            }
        }
    }

    /// Rebuilds an interner from its resolved strings, in id order — the
    /// inverse of resolving `0..len()`. Returns `None` if any entry is
    /// empty or repeats: duplicates would give two ids for one string, and
    /// `lookup` could then disagree with `resolve`.
    pub(crate) fn from_entries(strings: Vec<String>) -> Option<Interner> {
        u32::try_from(strings.len()).ok()?;
        let mut interner = Interner::default();
        for (i, s) in strings.iter().enumerate() {
            if s.is_empty() || interner.intern(s) as usize != i {
                return None;
            }
        }
        Some(interner)
    }

    pub(crate) fn lookup(&self, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(s).ok()
    }

    pub(crate) fn resolve(&self, id: u32) -> &str {
        let end = self.ends[id as usize] as usize;
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1] as usize,
        };
        &self.text[start..end]
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// Two interners are equal when they hand out the same ids for the same
/// strings; the table layout is derived state.
impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl Eq for Interner {}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.ends.len() as u32).map(|id| self.resolve(id)))
            .finish()
    }
}

/// FxHash-style string hash: each 8-byte word is folded in with a rotate,
/// an xor and a multiply; the high half of the result indexes the table.
fn hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut h = mix(0, bytes.len() as u64);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(last));
    }
    h >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::default();
        let a = i.intern("x");
        let b = i.intern("y");
        assert_ne!(a, b);
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.resolve(a), "x");
        assert_eq!(i.lookup("y"), Some(b));
        assert_eq!(i.lookup("z"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn ids_survive_growth_and_rebuild() {
        let mut i = Interner::default();
        assert_eq!(i.lookup("v0"), None);
        let names: Vec<String> = (0..1000).map(|k| format!("v{k}")).collect();
        for (k, s) in names.iter().enumerate() {
            assert_eq!(i.intern(s) as usize, k);
        }
        for (k, s) in names.iter().enumerate() {
            assert_eq!(i.intern(s) as usize, k, "re-interning {s}");
            assert_eq!(i.lookup(s), Some(k as u32));
            assert_eq!(i.resolve(k as u32), s);
        }
        assert_eq!(i.len(), 1000);
        let back = Interner::from_entries(names.clone()).expect("distinct names");
        assert_eq!(back, i);
        let mut dup = names;
        dup.push("v7".to_owned());
        assert!(Interner::from_entries(dup).is_none());
        assert!(Interner::from_entries(vec![String::new()]).is_none());
    }
}
