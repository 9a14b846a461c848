//! One-sparse recovery cells — the building block of ℓ0-samplers and
//! `s`-sparse recovery sketches.
//!
//! A cell summarises a turnstile stream of `(element, frequency-change)` pairs
//! with three counters: the total frequency, the frequency-weighted sum of
//! element values, and a random polynomial fingerprint.  If the summarised
//! multiset has exactly one element with non-zero frequency, the cell recovers
//! it exactly (and the fingerprint check fails with probability `≤ poly(n)/p`
//! otherwise).
//!
//! The fingerprint `Σ δ·r^(e+1)` costs one `Fp61::pow` per term, and the
//! singleton check another.  A cell whose updates have all named one element
//! `e` does not need either: its fingerprint is `count·r^(e+1)` exactly
//! (ℤ → F_p is a ring homomorphism), `e = weighted/count − 1` whenever
//! `count ≠ 0`, and with `count = 0` it is the empty cell.  So the cell
//! keeps its fingerprint *implicit* until an update or a merge brings a
//! second distinct element: that one materialises it (two powers), and every
//! later update costs one power, as an always-materialised cell's does.  A
//! cell that stays implicit decodes to `Zero` or `Single` without a power.
//! Every answer — `decode`, `is_zero`, `==`, `Debug` — is the one the
//! materialised fingerprint gives, as long as the counters stay inside
//! `i128` (which the materialised check needs as well); the tests hold the
//! cell to the always-materialised cell, kept as their oracle.

use coding::field::Field;
use coding::fp::Fp61;

/// What a cell's decode step concluded about its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneSparseResult {
    /// All frequencies cancelled: the summarised multiset is empty.
    Zero,
    /// Exactly one element has non-zero frequency.
    Single {
        /// The element.
        element: u64,
        /// Its net frequency.
        frequency: i64,
    },
    /// More than one element has non-zero frequency (or the fingerprint check failed).
    Collision,
}

/// A mergeable one-sparse recovery cell.
///
/// Two cells can be merged iff they were created with the same fingerprint
/// point (i.e. the same shared randomness).
#[derive(Clone)]
pub struct OneSparseCell {
    /// Σ frequencies.
    count: i128,
    /// Σ frequency · (element + 1)   (the +1 keeps element 0 distinguishable).
    weighted: i128,
    /// Σ frequency · r^(element + 1) over F_p, or `None` while every update
    /// has named one element `e`, when it is `count · r^(e + 1)`.
    fingerprint: Option<Fp61>,
    /// The fingerprint evaluation point (from shared randomness).
    point: Fp61,
}

impl OneSparseCell {
    /// An empty cell with fingerprint point derived from `randomness`.
    pub fn new(randomness: u64) -> Self {
        // Any non-zero field element works as the evaluation point.
        let point = Fp61::from_u64(randomness | 1);
        OneSparseCell {
            count: 0,
            weighted: 0,
            fingerprint: None,
            point,
        }
    }

    /// Add `delta` to the frequency of `element`.
    pub fn update(&mut self, element: u64, delta: i64) {
        if delta == 0 {
            return;
        }
        let val = element as i128 + 1;
        if !self.names_only(val) {
            let term = signed_to_field(delta as i128) * self.power(val);
            self.fingerprint = Some(self.fingerprint() + term);
        }
        self.count += delta as i128;
        self.weighted += delta as i128 * val;
    }

    /// Merge another cell created with the same randomness into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two cells use different fingerprint points.
    pub fn merge(&mut self, other: &OneSparseCell) {
        assert_eq!(
            self.point, other.point,
            "cannot merge cells with different randomness"
        );
        let stays_implicit = self.fingerprint.is_none()
            && other.fingerprint.is_none()
            && (self.count == 0 || other.names_only(self.weighted / self.count));
        if !stays_implicit {
            self.fingerprint = Some(self.fingerprint() + other.fingerprint());
        }
        self.count += other.count;
        self.weighted += other.weighted;
    }

    /// Attempt to decode the summarised multiset.
    pub fn decode(&self) -> OneSparseResult {
        let fingerprint = match self.fingerprint {
            None if self.count == 0 => return OneSparseResult::Zero,
            None => {
                return OneSparseResult::Single {
                    element: (self.weighted / self.count - 1) as u64,
                    frequency: self.count as i64,
                }
            }
            Some(fingerprint) => fingerprint,
        };
        if self.count == 0 && self.weighted == 0 && fingerprint == Fp61::ZERO {
            return OneSparseResult::Zero;
        }
        if self.count == 0 {
            return OneSparseResult::Collision;
        }
        if self.weighted % self.count != 0 {
            return OneSparseResult::Collision;
        }
        let candidate = self.weighted / self.count;
        if candidate <= 0 || candidate > u64::MAX as i128 + 1 {
            return OneSparseResult::Collision;
        }
        // Verify the fingerprint: it must equal count · r^(element+1).
        let expect = signed_to_field(self.count) * self.power(candidate);
        if expect == fingerprint {
            OneSparseResult::Single {
                element: (candidate - 1) as u64,
                frequency: self.count as i64,
            }
        } else {
            OneSparseResult::Collision
        }
    }

    /// Whether the cell currently summarises the empty multiset.
    pub fn is_zero(&self) -> bool {
        self.count == 0 && self.weighted == 0 && self.fingerprint() == Fp61::ZERO
    }

    /// The fingerprint `Σ frequency · r^(element + 1)`, materialised.
    fn fingerprint(&self) -> Fp61 {
        match self.fingerprint {
            Some(fingerprint) => fingerprint,
            None if self.count == 0 => Fp61::ZERO,
            None => signed_to_field(self.count) * self.power(self.weighted / self.count),
        }
    }

    /// Whether the fingerprint stays implicit after an update naming the
    /// element `val − 1`: it is implicit, and empty or already that element.
    fn names_only(&self, val: i128) -> bool {
        self.fingerprint.is_none()
            && (self.count == 0 || self.count.checked_mul(val) == Some(self.weighted))
    }

    /// `r^val`, the fingerprint term of the element `val − 1`.
    fn power(&self, val: i128) -> Fp61 {
        self.point.pow(val as u64)
    }
}

/// Equal counters and equal fingerprints, implicit ones compared by value.
impl PartialEq for OneSparseCell {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.weighted == other.weighted
            && self.point == other.point
            // Two implicit cells with equal counters name the same element.
            && ((self.fingerprint.is_none() && other.fingerprint.is_none())
                || self.fingerprint() == other.fingerprint())
    }
}

impl Eq for OneSparseCell {}

/// The materialised fingerprint, whatever the cell holds.
impl std::fmt::Debug for OneSparseCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneSparseCell")
            .field("count", &self.count)
            .field("weighted", &self.weighted)
            .field("fingerprint", &self.fingerprint())
            .field("point", &self.point)
            .finish()
    }
}

fn signed_to_field(x: i128) -> Fp61 {
    let p = coding::fp::P61 as i128;
    let r = ((x % p) + p) % p;
    Fp61::from_u64(r as u64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The always-materialised cell — every update pays its power, every
    /// decode of a non-empty cell the check's — kept as the oracle of the
    /// implicit fingerprint.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct EagerCell {
        count: i128,
        weighted: i128,
        fingerprint: Fp61,
        point: Fp61,
    }

    impl EagerCell {
        /// An empty cell with the fingerprint point of `cell`.
        pub(crate) fn like(cell: &OneSparseCell) -> Self {
            EagerCell {
                count: 0,
                weighted: 0,
                fingerprint: Fp61::ZERO,
                point: cell.point,
            }
        }

        pub(crate) fn update(&mut self, element: u64, delta: i64) {
            if delta == 0 {
                return;
            }
            let val = element as i128 + 1;
            self.count += delta as i128;
            self.weighted += delta as i128 * val;
            let term = self.point.pow(element.wrapping_add(1));
            let delta_f = signed_to_field(delta as i128);
            self.fingerprint = self.fingerprint + delta_f * term;
        }

        pub(crate) fn merge(&mut self, other: &EagerCell) {
            assert_eq!(self.point, other.point);
            self.count += other.count;
            self.weighted += other.weighted;
            self.fingerprint = self.fingerprint + other.fingerprint;
        }

        pub(crate) fn decode(&self) -> OneSparseResult {
            if self.count == 0 && self.weighted == 0 && self.fingerprint == Fp61::ZERO {
                return OneSparseResult::Zero;
            }
            if self.count == 0 {
                return OneSparseResult::Collision;
            }
            if self.weighted % self.count != 0 {
                return OneSparseResult::Collision;
            }
            let candidate = self.weighted / self.count;
            if candidate <= 0 || candidate > u64::MAX as i128 + 1 {
                return OneSparseResult::Collision;
            }
            let element = (candidate - 1) as u64;
            let expect = signed_to_field(self.count) * self.point.pow(element.wrapping_add(1));
            if expect == self.fingerprint {
                OneSparseResult::Single {
                    element,
                    frequency: self.count as i64,
                }
            } else {
                OneSparseResult::Collision
            }
        }

        pub(crate) fn is_zero(&self) -> bool {
            matches!(self.decode(), OneSparseResult::Zero)
        }
    }

    /// One step on a pair of cells `[a, b]`.
    #[derive(Debug, Clone)]
    enum Op {
        Update {
            slot: usize,
            element: u64,
            delta: i64,
        },
        /// Merge the other slot into `into`.
        MergeSlots { into: usize },
        /// Merge a fresh cell fed `updates` into `into`.
        MergeFresh {
            into: usize,
            updates: Vec<(u64, i64)>,
        },
    }

    /// Few distinct elements, so repeats and cancellations are common, plus
    /// the extremes `0` and `u64::MAX` (whose `element + 1` wraps the
    /// exponent) and arbitrary words.
    fn element() -> impl Strategy<Value = u64> {
        (0..4u8, any::<u64>()).prop_map(|(kind, word)| match kind {
            0 => word % 4,
            1 => u64::MAX,
            2 => u64::MAX - 1,
            _ => word,
        })
    }

    /// Unit-size and larger frequency changes, `0` (a no-op) included.
    fn delta() -> impl Strategy<Value = i64> {
        (0..2u8, -3i64..=3, -1000i64..=1000).prop_map(|(kind, small, large)| match kind {
            0 => small,
            _ => large,
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        let updates = prop::collection::vec((element(), delta()), 0..4);
        (0..6u8, 0..2usize, element(), delta(), updates).prop_map(
            |(kind, slot, element, delta, updates)| match kind {
                0 => Op::MergeSlots { into: slot },
                1 => Op::MergeFresh {
                    into: slot,
                    updates,
                },
                _ => Op::Update {
                    slot,
                    element,
                    delta,
                },
            },
        )
    }

    /// A fresh implicit cell and a fresh oracle fed `updates`.
    fn fed(seed: u64, updates: &[(u64, i64)]) -> (OneSparseCell, EagerCell) {
        let mut cell = OneSparseCell::new(seed);
        let mut eager = EagerCell::like(&cell);
        for &(element, delta) in updates {
            cell.update(element, delta);
            eager.update(element, delta);
        }
        (cell, eager)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // After every step, each cell decodes and reports emptiness as its
        // oracle does, `a == b` holds exactly when it holds between the
        // oracles, and each cell equals a fresh cell fed only its net
        // multiset (an implicit cell against a materialised one whenever
        // elements came and cancelled).  At most 40 steps keep the
        // counters of repeated slot merges far inside `i128`.
        #[test]
        fn the_implicit_cell_answers_as_the_eager_cell(
            seed in any::<u64>(),
            ops in prop::collection::vec(op(), 1..40),
        ) {
            let mut cells = [OneSparseCell::new(seed), OneSparseCell::new(seed)];
            let mut oracles = [EagerCell::like(&cells[0]), EagerCell::like(&cells[0])];
            let mut nets: [BTreeMap<u64, i64>; 2] = Default::default();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    &Op::Update { slot, element, delta } => {
                        cells[slot].update(element, delta);
                        oracles[slot].update(element, delta);
                        *nets[slot].entry(element).or_default() += delta;
                    }
                    &Op::MergeSlots { into } => {
                        let (cell, oracle, net) =
                            (cells[1 - into].clone(), oracles[1 - into].clone(), nets[1 - into].clone());
                        cells[into].merge(&cell);
                        oracles[into].merge(&oracle);
                        for (element, delta) in net {
                            *nets[into].entry(element).or_default() += delta;
                        }
                    }
                    Op::MergeFresh { into, updates } => {
                        let (cell, oracle) = fed(seed, updates);
                        cells[*into].merge(&cell);
                        oracles[*into].merge(&oracle);
                        for &(element, delta) in updates {
                            *nets[*into].entry(element).or_default() += delta;
                        }
                    }
                }
                for slot in 0..2 {
                    prop_assert_eq!(
                        cells[slot].decode(), oracles[slot].decode(),
                        "decode differs from the eager cell: slot {} step {}", slot, step
                    );
                    prop_assert_eq!(
                        cells[slot].is_zero(), oracles[slot].is_zero(),
                        "is_zero differs from the eager cell: slot {} step {}", slot, step
                    );
                    let net: Vec<(u64, i64)> = nets[slot].iter().map(|(&e, &d)| (e, d)).collect();
                    let (replayed, replayed_oracle) = fed(seed, &net);
                    prop_assert_eq!(&replayed_oracle, &oracles[slot]);
                    prop_assert!(replayed == cells[slot], "slot {} step {}", slot, step);
                    prop_assert_eq!(format!("{:?}", cells[slot]), format!("{:?}", replayed));
                }
                prop_assert_eq!(
                    cells[0] == cells[1], oracles[0] == oracles[1],
                    "== differs from the eager cell at step {}", step
                );
            }
        }
    }

    #[test]
    fn empty_cell_is_zero() {
        let c = OneSparseCell::new(17);
        assert_eq!(c.decode(), OneSparseResult::Zero);
        assert!(c.is_zero());
    }

    #[test]
    fn single_element_recovered() {
        let mut c = OneSparseCell::new(17);
        c.update(1234, 3);
        assert_eq!(
            c.decode(),
            OneSparseResult::Single {
                element: 1234,
                frequency: 3
            }
        );
    }

    #[test]
    fn element_zero_is_representable() {
        let mut c = OneSparseCell::new(5);
        c.update(0, 1);
        assert_eq!(
            c.decode(),
            OneSparseResult::Single {
                element: 0,
                frequency: 1
            }
        );
    }

    #[test]
    fn cancelling_updates_return_to_zero() {
        let mut c = OneSparseCell::new(99);
        c.update(42, 5);
        c.update(42, -5);
        assert_eq!(c.decode(), OneSparseResult::Zero);
        c.update(7, 1);
        c.update(9, 1);
        c.update(7, -1);
        assert_eq!(
            c.decode(),
            OneSparseResult::Single {
                element: 9,
                frequency: 1
            }
        );
    }

    #[test]
    fn collision_detected() {
        let mut c = OneSparseCell::new(3);
        c.update(10, 1);
        c.update(20, 1);
        assert_eq!(c.decode(), OneSparseResult::Collision);
        // Opposite frequencies of different elements: count = 0 but not empty.
        let mut d = OneSparseCell::new(3);
        d.update(10, 1);
        d.update(20, -1);
        assert_eq!(d.decode(), OneSparseResult::Collision);
    }

    #[test]
    fn adversarial_weighted_average_collision_caught_by_fingerprint() {
        // {8: 1, 12: 1} has weighted average 10+1... choose elements so that
        // weighted/count is integral and a valid element: {(9,1),(11,1)} →
        // count 2, weighted (10+12)=22, candidate 11-1=10 which is NOT in the set.
        let mut c = OneSparseCell::new(1234567);
        c.update(9, 1);
        c.update(11, 1);
        assert_eq!(c.decode(), OneSparseResult::Collision);
    }

    #[test]
    fn merge_combines_streams() {
        let mut a = OneSparseCell::new(7);
        let mut b = OneSparseCell::new(7);
        a.update(5, 2);
        b.update(5, -2);
        b.update(33, 4);
        a.merge(&b);
        assert_eq!(
            a.decode(),
            OneSparseResult::Single {
                element: 33,
                frequency: 4
            }
        );
    }

    #[test]
    #[should_panic]
    fn merge_requires_same_randomness() {
        let mut a = OneSparseCell::new(7);
        let b = OneSparseCell::new(8);
        a.merge(&b);
    }

    #[test]
    fn zero_delta_is_ignored() {
        let mut a = OneSparseCell::new(7);
        a.update(5, 0);
        assert!(a.is_zero());
    }

    #[test]
    fn large_elements_supported() {
        let mut a = OneSparseCell::new(7);
        a.update(u64::MAX, 1);
        assert_eq!(
            a.decode(),
            OneSparseResult::Single {
                element: u64::MAX,
                frequency: 1
            }
        );
    }
}
