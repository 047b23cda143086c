//! Dense register numbering and bit sets over it.
//!
//! The compile path's analyses run on every (program, model, width)
//! point, over blocks of a dozen instructions, so hashing registers costs
//! more than the dataflow itself. [`RegSlots`] numbers the registers a
//! function (or block) mentions densely — integer registers first, then
//! floating-point — and [`RegSet`] is one bit per register, laid out the
//! same way, so set operations are word operations.

use std::fmt;

use sentinel_isa::{Insn, Reg};

use crate::Function;

/// A dense numbering of the registers `0..int` of the integer class and
/// `0..fp` of the floating-point class: integer register `i` is slot `i`,
/// floating-point register `i` is slot `int + i`.
///
/// # Examples
///
/// ```
/// use sentinel_isa::{Insn, Reg};
/// use sentinel_prog::regset::RegSlots;
///
/// let insns = [Insn::addi(Reg::int(3), Reg::int(1), 1), Insn::fli(Reg::fp(1), 2.0)];
/// let slots = RegSlots::of_insns(&insns);
/// assert_eq!(slots.len(), 4 + 2);
/// assert_eq!(slots.slot(Reg::int(3)), 3);
/// assert_eq!(slots.slot(Reg::fp(1)), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSlots {
    int: usize,
    fp: usize,
}

impl RegSlots {
    /// Slots for every register `insns` read or write (including `r0`).
    pub fn of_insns<'a>(insns: impl IntoIterator<Item = &'a Insn>) -> RegSlots {
        let mut slots = RegSlots::default();
        for insn in insns {
            for r in insn.raw_srcs().chain(insn.dest) {
                let n = usize::from(r.index()) + 1;
                if r.is_int() {
                    slots.int = slots.int.max(n);
                } else {
                    slots.fp = slots.fp.max(n);
                }
            }
        }
        slots
    }

    /// Slots for every register `func` mentions.
    pub fn of_function(func: &Function) -> RegSlots {
        let (int, fp) = func.max_reg_indices();
        RegSlots {
            int: int.map_or(0, |i| usize::from(i) + 1),
            fp: fp.map_or(0, |i| usize::from(i) + 1),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.int + self.fp
    }

    /// Returns `true` if no register has a slot.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of `r`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `r` lies outside the numbering.
    pub fn slot(&self, r: Reg) -> usize {
        let i = usize::from(r.index());
        if r.is_int() {
            debug_assert!(i < self.int, "{r} outside the slot numbering");
            i
        } else {
            debug_assert!(i < self.fp, "{r} outside the slot numbering");
            self.int + i
        }
    }
}

/// A set of registers, one bit per register.
///
/// The integer-class words come first, then the floating-point words, so
/// [`RegSet::iter`] yields registers in ascending `(class, index)` order.
/// A set has room for the registers of the [`RegSlots`] it was sized by;
/// it never contains any other. Equality compares members, whatever the
/// two sets' sizes.
#[derive(Clone)]
pub struct RegSet {
    words: Vec<u64>,
    int_words: usize,
}

fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

impl RegSet {
    /// An empty set with room for every register of `slots`.
    pub fn for_slots(slots: RegSlots) -> RegSet {
        let int_words = words_for(slots.int);
        RegSet {
            words: vec![0; int_words + words_for(slots.fp)],
            int_words,
        }
    }

    /// The word index and bit mask of `r`, if the set has room for it.
    fn locate(&self, r: Reg) -> Option<(usize, u64)> {
        let i = usize::from(r.index());
        let (base, limit) = if r.is_int() {
            (0, self.int_words)
        } else {
            (self.int_words, self.words.len() - self.int_words)
        };
        (i / 64 < limit).then(|| (base + i / 64, 1u64 << (i % 64)))
    }

    /// Returns `true` if `r` is in the set.
    pub fn contains(&self, r: Reg) -> bool {
        self.locate(r)
            .is_some_and(|(w, bit)| self.words[w] & bit != 0)
    }

    /// Adds `r`.
    ///
    /// # Panics
    ///
    /// Panics if the set has no room for `r`.
    pub fn insert(&mut self, r: Reg) {
        let (w, bit) = self
            .locate(r)
            .unwrap_or_else(|| panic!("{r} outside the set's register numbering"));
        self.words[w] |= bit;
    }

    /// Removes `r` (a no-op if absent).
    pub fn remove(&mut self, r: Reg) {
        if let Some((w, bit)) = self.locate(r) {
            self.words[w] &= !bit;
        }
    }

    /// Adds every member of `other`, which must have the same size (two
    /// sets of one analysis always do).
    ///
    /// # Panics
    ///
    /// Panics if the two sets are sized differently.
    pub fn union_with(&mut self, other: &RegSet) {
        assert!(
            self.int_words == other.int_words && self.words.len() == other.words.len(),
            "sets of different sizes"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Makes `self` a copy of `other` without reallocating when the sizes
    /// match.
    pub fn copy_from(&mut self, other: &RegSet) {
        self.words.clone_from(&other.words);
        self.int_words = other.int_words;
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Members in ascending `(class, index)` order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(move |(w, &bits)| {
            let int = w < self.int_words;
            let base = if int { w } else { w - self.int_words } * 64;
            BitIter(bits).map(move |b| {
                let index = (base + b) as u16;
                if int {
                    Reg::int(index)
                } else {
                    Reg::fp(index)
                }
            })
        })
    }

    /// The integer and floating-point words.
    fn classes(&self) -> (&[u64], &[u64]) {
        self.words.split_at(self.int_words)
    }
}

/// Positions of the set bits of a word, lowest first.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// Equal when the two word slices agree, reading missing words as zero.
fn same_bits(a: &[u64], b: &[u64]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long[..short.len()] == *short && long[short.len()..].iter().all(|&w| w == 0)
}

impl PartialEq for RegSet {
    fn eq(&self, other: &RegSet) -> bool {
        let (ai, af) = self.classes();
        let (bi, bf) = other.classes();
        same_bits(ai, bi) && same_bits(af, bf)
    }
}

impl Eq for RegSet {}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(slots: RegSlots, regs: &[Reg]) -> RegSet {
        let mut s = RegSet::for_slots(slots);
        for &r in regs {
            s.insert(r);
        }
        s
    }

    #[test]
    fn iteration_is_class_then_index_order() {
        let slots = RegSlots { int: 71, fp: 65 };
        let s = set(slots, &[Reg::fp(1), Reg::int(70), Reg::int(5), Reg::fp(64)]);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![Reg::int(5), Reg::int(70), Reg::fp(1), Reg::fp(64)]
        );
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn registers_outside_the_numbering_are_never_members() {
        let mut s = set(RegSlots { int: 3, fp: 2 }, &[Reg::fp(1)]);
        assert!(!s.contains(Reg::int(130)) && !s.contains(Reg::fp(130)));
        s.remove(Reg::fp(999));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg::fp(1)]);
    }

    #[test]
    #[should_panic(expected = "outside the set's register numbering")]
    fn inserting_outside_the_numbering_panics() {
        set(RegSlots { int: 3, fp: 0 }, &[Reg::fp(0)]);
    }

    #[test]
    fn equality_ignores_size() {
        let small = set(RegSlots { int: 2, fp: 0 }, &[Reg::int(1)]);
        let mut big = RegSet::for_slots(RegSlots { int: 200, fp: 70 });
        assert_ne!(small, big);
        big.insert(Reg::int(1));
        assert_eq!(small, big);
        assert_eq!(big, small);
        big.insert(Reg::fp(0));
        assert_ne!(small, big);
    }

    #[test]
    fn union_copy_clear() {
        let slots = RegSlots { int: 8, fp: 8 };
        let mut a = set(slots, &[Reg::int(2)]);
        let b = set(slots, &[Reg::fp(3)]);
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![Reg::int(2), Reg::fp(3)]);
        let mut c = RegSet::for_slots(slots);
        c.copy_from(&a);
        assert_eq!(a, c);
        a.clear();
        assert!(a.is_empty() && !c.is_empty());
    }
}
