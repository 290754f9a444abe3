//! One sort-order replica of a property's two-column table (Figure 1 of
//! the paper): distinct sorted keys, a CSR offsets table, and one
//! contiguous sorted-per-group values area.
//!
//! The replica picks its physical layout from its shape, and nothing
//! else does:
//!
//! * **Runs** — the paper's CSR: an offsets table plus the values area,
//!   either raw `u32`s or block-compressed runs ([`PackedValues`]).
//! * **Units** — every key has exactly one value (`num_keys ==
//!   num_triples`), so the offsets table is the identity and is not
//!   stored: key position `i` owns value `i`. The values are raw `u32`s
//!   or frame-of-reference frames ([`UnitFrames`]) read in O(1).
//!
//! Every constructor — build, [`Replica::compress`],
//! [`Replica::decompress`], delta compaction (which builds) and snapshot
//! load ([`Replica::from_raw_parts`]) — re-derives the layout from the
//! shape, and [`Replica::compress`] keeps a packed form only when it
//! actually saves memory. Keys always stay raw — the join layer's
//! adaptive key search runs on them unchanged — and every logical
//! accessor is layout-transparent through [`Group`].

use std::borrow::Cow;

use parj_dict::Id;

use crate::codec::{PackedRun, PackedRunIter, PackedValues, UnitFrames, WalkCursor};
use crate::idpos::IdPosIndex;

/// Physical layout of a replica's values.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    /// CSR offsets plus plain contiguous `u32` values (the seed layout).
    RawRuns { offsets: Vec<u32>, values: Vec<Id> },
    /// CSR offsets plus block-compressed runs; see [`crate::codec`].
    PackedRuns { offsets: Vec<u32>, values: PackedValues },
    /// One value per key, plain: `values[pos]` belongs to key `pos`.
    RawUnits(Vec<Id>),
    /// One value per key, in frame-of-reference frames.
    PackedUnits(UnitFrames),
}

impl Default for Layout {
    fn default() -> Self {
        Layout::RawUnits(Vec::new())
    }
}

/// One key's sorted value group, borrowed from any layout.
///
/// Probes and scans go through this type so the executor, delta merges
/// and audits stay byte-identical whether the replica is compressed or
/// not.
#[derive(Debug, Clone, Copy)]
pub enum Group<'a> {
    /// Borrowed slice of a raw values area.
    Raw(&'a [Id]),
    /// Borrowed run of a block-compressed values area.
    Packed(PackedRun<'a>),
    /// The one value of a key in a packed unit replica.
    Single(Id),
}

impl<'a> Group<'a> {
    /// Number of values in the group.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Group::Raw(s) => s.len(),
            Group::Packed(r) => r.len(),
            Group::Single(_) => 1,
        }
    }

    /// True when the group holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first (smallest) value, if any.
    pub fn first(&self) -> Option<Id> {
        match self {
            Group::Raw(s) => s.first().copied(),
            Group::Packed(r) => r.first(),
            Group::Single(v) => Some(*v),
        }
    }

    /// Sorted membership probe: binary search on raw groups, skip-table
    /// block pick plus a streaming block walk on packed ones.
    #[inline]
    pub fn contains(&self, v: Id) -> bool {
        match self {
            Group::Raw(s) => s.binary_search(&v).is_ok(),
            Group::Packed(r) => r.contains(v),
            Group::Single(x) => *x == v,
        }
    }

    /// Iterates the group's values in increasing order.
    pub fn iter(&self) -> GroupIter<'a> {
        match self {
            Group::Raw(s) => GroupIter::Raw(s.iter()),
            Group::Packed(r) => GroupIter::Packed(r.iter()),
            Group::Single(v) => GroupIter::Single(Some(*v).into_iter()),
        }
    }

    /// Appends the group's values, in order, to `out`.
    pub fn decode_into(&self, out: &mut Vec<Id>) {
        match self {
            Group::Raw(s) => out.extend_from_slice(s),
            Group::Packed(r) => r.decode_into(out),
            Group::Single(v) => out.push(*v),
        }
    }

    /// The group's values as an owned vector.
    pub fn to_vec(&self) -> Vec<Id> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_into(&mut out);
        out
    }

    /// The borrowed slice when the group is raw (the common case for
    /// hot paths that want zero-copy access).
    #[inline]
    pub fn as_raw(&self) -> Option<&'a [Id]> {
        match self {
            Group::Raw(s) => Some(s),
            Group::Packed(_) | Group::Single(_) => None,
        }
    }
}

impl<'a> IntoIterator for Group<'a> {
    type Item = Id;
    type IntoIter = GroupIter<'a>;

    fn into_iter(self) -> GroupIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Group`]'s values.
#[derive(Debug, Clone)]
pub enum GroupIter<'a> {
    /// Raw-slice cursor.
    Raw(std::slice::Iter<'a, Id>),
    /// Streaming packed-run cursor.
    Packed(PackedRunIter<'a>),
    /// A unit group's one value.
    Single(std::option::IntoIter<Id>),
}

impl Iterator for GroupIter<'_> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        match self {
            GroupIter::Raw(it) => it.next().copied(),
            GroupIter::Packed(it) => it.next(),
            GroupIter::Single(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            GroupIter::Raw(it) => it.size_hint(),
            GroupIter::Packed(it) => it.size_hint(),
            GroupIter::Single(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for GroupIter<'_> {}

/// A single replica (S-O or O-S) of a property partition.
///
/// Invariants (checked by [`Replica::check_invariants`], relied on by the
/// join layer):
///
/// 1. `keys` is strictly increasing (distinct, sorted).
/// 2. The logical offsets table ([`Replica::offsets`]) has
///    `keys.len() + 1` entries, starts at 0, is strictly increasing
///    (every key has ≥ 1 value), and ends at the number of values.
/// 3. Each group `values[offsets[i]..offsets[i+1]]` is strictly
///    increasing (values are distinct within a key: RDF graphs are sets).
/// 4. The layout is units exactly when `num_keys() == num_triples()`.
///
/// Equality compares the *logical* content (keys, offsets, decoded
/// values, index) — a compressed replica equals its raw original.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    keys: Vec<Id>,
    layout: Layout,
    idpos: Option<IdPosIndex>,
}

impl PartialEq for Replica {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys
            && self.idpos == other.idpos
            && match (&self.layout, &other.layout) {
                (a @ Layout::RawRuns { .. }, b @ Layout::RawRuns { .. })
                | (a @ Layout::PackedRuns { .. }, b @ Layout::PackedRuns { .. })
                | (a @ Layout::RawUnits(_), b @ Layout::RawUnits(_))
                | (a @ Layout::PackedUnits(_), b @ Layout::PackedUnits(_)) => a == b,
                _ => {
                    self.offsets() == other.offsets()
                        && self.decoded_values() == other.decoded_values()
                }
            }
    }
}

impl Eq for Replica {}

impl Replica {
    /// Builds a replica from CSR arrays the caller has already checked,
    /// choosing the layout from the shape: units when every key has
    /// exactly one value (the offsets are then the identity and are
    /// dropped), runs otherwise.
    fn from_csr(keys: Vec<Id>, offsets: Vec<u32>, values: Vec<Id>) -> Replica {
        let layout = if keys.len() == values.len() {
            Layout::RawUnits(values)
        } else {
            Layout::RawRuns { offsets, values }
        };
        Replica {
            keys,
            layout,
            idpos: None,
        }
    }

    /// The distinct, sorted first-column values.
    #[inline]
    pub fn keys(&self) -> &[Id] {
        &self.keys
    }

    /// Number of distinct keys.
    #[inline]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of `(key, value)` pairs, i.e. triples in this replica.
    #[inline]
    pub fn num_triples(&self) -> usize {
        match &self.layout {
            Layout::RawRuns { values, .. } => values.len(),
            Layout::PackedRuns { values, .. } => values.num_values(),
            Layout::RawUnits(v) => v.len(),
            Layout::PackedUnits(f) => f.len(),
        }
    }

    /// True if the replica holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_triples() == 0
    }

    /// True when the values are block-compressed (packed runs or unit
    /// frames).
    #[inline]
    pub fn is_compressed(&self) -> bool {
        matches!(self.layout, Layout::PackedRuns { .. } | Layout::PackedUnits(_))
    }

    /// True when every key has exactly one value, so the replica keeps
    /// no offsets table.
    #[inline]
    pub fn is_unit(&self) -> bool {
        matches!(self.layout, Layout::RawUnits(_) | Layout::PackedUnits(_))
    }

    /// The sorted values group for the key at position `pos`, across
    /// every layout.
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()`.
    #[inline]
    pub fn group_at(&self, pos: usize) -> Group<'_> {
        self.group_at_cursor(pos, &mut WalkCursor::default())
    }

    /// [`Replica::group_at`], continuing a packed run replica's
    /// positional walk from `cursor` (and leaving `cursor` at `pos`);
    /// other layouts ignore the cursor. A caller visiting ascending
    /// positions keeps one cursor per replica.
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()`.
    #[inline]
    pub fn group_at_cursor(&self, pos: usize, cursor: &mut WalkCursor) -> Group<'_> {
        match &self.layout {
            Layout::RawRuns { offsets, values } => {
                Group::Raw(&values[offsets[pos] as usize..offsets[pos + 1] as usize])
            }
            Layout::PackedRuns { offsets, values } => {
                Group::Packed(values.run_at(pos, offsets, cursor))
            }
            Layout::RawUnits(v) => Group::Raw(std::slice::from_ref(&v[pos])),
            Layout::PackedUnits(f) => Group::Single(f.get(pos)),
        }
    }

    /// The sorted values group for the key at position `pos`, as a raw
    /// slice. Valid only on uncompressed replicas — compressed-aware
    /// callers use [`Replica::group_at`].
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()` or if the replica is compressed.
    #[inline]
    pub fn values_at(&self, pos: usize) -> &[Id] {
        self.group_at(pos)
            .as_raw()
            .unwrap_or_else(|| compressed_panic())
    }

    /// The key at position `pos`.
    #[inline]
    pub fn key_at(&self, pos: usize) -> Id {
        self.keys[pos]
    }

    /// Group size for the key at `pos` without touching the values array.
    ///
    /// # Panics
    /// Panics if `pos >= num_keys()`.
    #[inline]
    pub fn group_len(&self, pos: usize) -> usize {
        match &self.layout {
            Layout::RawRuns { offsets, .. } | Layout::PackedRuns { offsets, .. } => {
                (offsets[pos + 1] - offsets[pos]) as usize
            }
            Layout::RawUnits(_) | Layout::PackedUnits(_) => {
                assert!(pos < self.keys.len(), "key position {pos} out of range");
                1
            }
        }
    }

    /// The CSR offsets table (`num_keys() + 1` entries): borrowed from a
    /// run replica, synthesized as the identity for a unit replica.
    pub fn offsets(&self) -> Cow<'_, [u32]> {
        match &self.layout {
            Layout::RawRuns { offsets, .. } | Layout::PackedRuns { offsets, .. } => {
                Cow::Borrowed(offsets)
            }
            Layout::RawUnits(_) | Layout::PackedUnits(_) => {
                Cow::Owned((0..=self.keys.len() as u32).collect())
            }
        }
    }

    /// The contiguous values area of an uncompressed replica.
    /// Compressed-aware callers use [`Replica::decoded_values`] or
    /// per-group access.
    ///
    /// # Panics
    /// Panics if the replica is compressed.
    #[inline]
    pub fn values(&self) -> &[Id] {
        match &self.layout {
            Layout::RawRuns { values, .. } | Layout::RawUnits(values) => values,
            Layout::PackedRuns { .. } | Layout::PackedUnits(_) => compressed_panic(),
        }
    }

    /// The full values area, decoding when compressed (borrowed when
    /// raw).
    pub fn decoded_values(&self) -> Cow<'_, [Id]> {
        let mut out = Vec::new();
        match &self.layout {
            Layout::RawRuns { values, .. } | Layout::RawUnits(values) => {
                return Cow::Borrowed(values)
            }
            Layout::PackedRuns { offsets, values } => values.decode_all(offsets, &mut out),
            Layout::PackedUnits(f) => f.decode_all(&mut out),
        }
        Cow::Owned(out)
    }

    /// Plain binary search for `key` over the whole keys array.
    #[inline]
    pub fn find_key(&self, key: Id) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// Position of `key`, using the ID-to-Position index when present.
    #[inline]
    pub fn position_of(&self, key: Id) -> Option<usize> {
        match &self.idpos {
            Some(idx) => idx.lookup(key),
            None => self.find_key(key),
        }
    }

    /// The values group for `key`, empty if absent (uses the
    /// ID-to-Position index when present). Valid only on uncompressed
    /// replicas — compressed-aware callers use
    /// [`Replica::group_for_key`].
    pub fn values_for_key(&self, key: Id) -> &[Id] {
        match self.position_of(key) {
            Some(p) => self.values_at(p),
            None => &[],
        }
    }

    /// The values group for `key` across every layout, empty if absent.
    pub fn group_for_key(&self, key: Id) -> Group<'_> {
        match self.position_of(key) {
            Some(p) => self.group_at(p),
            None => Group::Raw(&[]),
        }
    }

    /// The ID-to-Position index, if built.
    #[inline]
    pub fn idpos(&self) -> Option<&IdPosIndex> {
        self.idpos.as_ref()
    }

    /// Builds (or rebuilds) the ID-to-Position index over `universe`
    /// dictionary ids with the given block interval.
    pub fn build_idpos(&mut self, universe: usize, interval: usize) {
        self.idpos = Some(IdPosIndex::build(&self.keys, universe, interval));
    }

    /// Drops the ID-to-Position index (the paper notes the index is
    /// auxiliary: "our system can operate without all or some of these
    /// indexes").
    pub fn drop_idpos(&mut self) {
        self.idpos = None;
    }

    /// Block-compresses the values when the replica holds at least
    /// `min_values` triples **and** the packed encoding is actually
    /// smaller than the raw one: unit frames for a unit replica, packed
    /// runs otherwise. Returns whether the replica is compressed
    /// afterwards. Idempotent.
    pub fn compress(&mut self, min_values: usize) -> bool {
        let n = self.num_triples();
        if self.is_compressed() {
            return true;
        }
        if n < min_values.max(1) {
            return false;
        }
        let raw_bytes = n * std::mem::size_of::<Id>();
        let packed = match &self.layout {
            Layout::RawRuns { offsets, values } => {
                let p = PackedValues::pack(offsets, values);
                (p.memory_bytes() < raw_bytes).then(|| Layout::PackedRuns {
                    offsets: offsets.clone(),
                    values: p,
                })
            }
            Layout::RawUnits(values) => {
                let f = UnitFrames::pack(values);
                (f.memory_bytes() < raw_bytes).then_some(Layout::PackedUnits(f))
            }
            Layout::PackedRuns { .. } | Layout::PackedUnits(_) => None,
        };
        match packed {
            Some(layout) => {
                self.layout = layout;
                true
            }
            None => false,
        }
    }

    /// Restores the raw representation (no-op when already raw).
    pub fn decompress(&mut self) {
        let raw = match &self.layout {
            Layout::RawRuns { .. } | Layout::RawUnits(_) => return,
            Layout::PackedRuns { offsets, .. } => Layout::RawRuns {
                offsets: offsets.clone(),
                values: self.decoded_values().into_owned(),
            },
            Layout::PackedUnits(_) => Layout::RawUnits(self.decoded_values().into_owned()),
        };
        self.layout = raw;
    }

    /// Iterates `(key, values_group)` pairs in key order. Valid only on
    /// uncompressed replicas (used by the baseline engines, which run
    /// on raw stores); compressed-aware callers pair
    /// [`Replica::keys`] with [`Replica::group_at`].
    pub fn iter_groups(&self) -> impl Iterator<Item = (Id, &[Id])> + '_ {
        (0..self.num_keys()).map(move |i| (self.keys[i], self.values_at(i)))
    }

    /// Iterates all `(key, value)` pairs in `(key, value)` order,
    /// across every layout.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (Id, Id)> + '_ {
        let mut cursor = WalkCursor::default();
        (0..self.num_keys()).flat_map(move |i| {
            let k = self.keys[i];
            self.group_at_cursor(i, &mut cursor).iter().map(move |v| (k, v))
        })
    }

    /// Bytes used by the arrays (excluding the optional index); the
    /// values contribution reflects the physical layout, so compressing
    /// shrinks this number and unit replicas count no offsets.
    pub fn memory_bytes(&self) -> usize {
        let offsets = match &self.layout {
            Layout::RawRuns { offsets, .. } | Layout::PackedRuns { offsets, .. } => {
                offsets.len() * 4
            }
            Layout::RawUnits(_) | Layout::PackedUnits(_) => 0,
        };
        self.keys.len() * std::mem::size_of::<Id>()
            + offsets
            + self.value_bytes()
            + self.idpos.as_ref().map_or(0, |i| i.memory_bytes())
    }

    /// Bytes used by the values area alone (the part compression
    /// targets), in its physical layout.
    pub fn value_bytes(&self) -> usize {
        match &self.layout {
            Layout::RawRuns { values, .. } | Layout::RawUnits(values) => {
                values.len() * std::mem::size_of::<Id>()
            }
            Layout::PackedRuns { values, .. } => values.memory_bytes(),
            Layout::PackedUnits(f) => f.memory_bytes(),
        }
    }

    /// Structural check of a packed unit replica's frame table (Ok for
    /// every other layout). On failure, returns the key position where
    /// the first bad frame starts and what is wrong with it. Once this
    /// passes, positional reads and decodes stay in bounds.
    pub fn check_unit_frames(&self) -> Result<(), (usize, String)> {
        match &self.layout {
            Layout::PackedUnits(f) => f
                .check()
                .map_err(|(frame, msg)| (frame * crate::codec::BLOCK_LEN, msg)),
            _ => Ok(()),
        }
    }

    /// Overwrites one unit frame's bit width: a deliberately corrupt
    /// replica for audit tests. Returns false when the replica holds no
    /// unit frames.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn corrupt_unit_frame_width(&mut self, frame: usize, width: u8) -> bool {
        match &mut self.layout {
            Layout::PackedUnits(f) => {
                f.corrupt_width(frame, width);
                true
            }
            _ => false,
        }
    }

    /// Verifies all structural invariants; returns a description of the
    /// first violation. Used by tests and the snapshot loader. On a
    /// compressed replica this decodes and checks every group, so it
    /// also proves the codec round-trips this replica.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_csr(&self.keys, &self.offsets(), self.num_triples())?;
        if self.is_unit() != (self.num_keys() == self.num_triples()) {
            return Err(format!(
                "layout mismatch: unit layout {} for {} keys and {} values",
                self.is_unit(),
                self.num_keys(),
                self.num_triples()
            ));
        }
        self.check_unit_frames()
            .map_err(|(pos, msg)| format!("unit frame at key {pos}: {msg}"))?;
        let mut cursor = WalkCursor::default();
        for i in 0..self.num_keys() {
            let g = self.group_at_cursor(i, &mut cursor);
            let mut n = 0usize;
            let mut prev: Option<Id> = None;
            for v in g.iter() {
                if let Some(p) = prev {
                    if p >= v {
                        return Err(format!("group {i} not strictly increasing"));
                    }
                }
                if !g.contains(v) {
                    return Err(format!("group {i} probe misses its own value {v}"));
                }
                prev = Some(v);
                n += 1;
            }
            if n != self.group_len(i) {
                return Err(format!(
                    "group {i} decodes {n} values, offsets promise {}",
                    self.group_len(i)
                ));
            }
        }
        if let Some(idx) = &self.idpos {
            for (pos, &k) in self.keys.iter().enumerate() {
                if idx.lookup(k) != Some(pos) {
                    return Err(format!("idpos lookup({k}) != {pos}"));
                }
            }
        }
        Ok(())
    }

    /// Raw parts for snapshot encoding: keys, the logical offsets, and
    /// the decoded values area (snapshots always store the raw CSR, so
    /// their bytes are independent of the in-memory layout).
    pub(crate) fn raw_parts(&self) -> (&[Id], Cow<'_, [u32]>, Cow<'_, [Id]>) {
        (&self.keys, self.offsets(), self.decoded_values())
    }

    /// Rebuilds from raw CSR parts, validating invariants and deriving
    /// the layout again.
    pub(crate) fn from_raw_parts(
        keys: Vec<Id>,
        offsets: Vec<u32>,
        values: Vec<Id>,
    ) -> Result<Self, String> {
        // The offsets are checked before `from_csr` may drop them.
        check_csr(&keys, &offsets, values.len())?;
        let r = Replica::from_csr(keys, offsets, values);
        r.check_invariants()?;
        Ok(r)
    }
}

/// CSR shape: `offsets` has one entry per key plus one, starts at 0,
/// is strictly increasing and ends at `num_values`; keys are strictly
/// increasing.
fn check_csr(keys: &[Id], offsets: &[u32], num_values: usize) -> Result<(), String> {
    if offsets.len() != keys.len() + 1 {
        return Err(format!(
            "offsets len {} != keys len {} + 1",
            offsets.len(),
            keys.len()
        ));
    }
    if offsets.first() != Some(&0) {
        return Err("offsets[0] != 0".into());
    }
    if *offsets.last().expect("non-empty offsets") as usize != num_values {
        return Err("offsets tail != values len".into());
    }
    for w in keys.windows(2) {
        if w[0] >= w[1] {
            return Err(format!("keys not strictly increasing at {}..{}", w[0], w[1]));
        }
    }
    for w in offsets.windows(2) {
        if w[0] >= w[1] {
            return Err("empty value group (offsets not strictly increasing)".into());
        }
    }
    Ok(())
}

#[cold]
fn compressed_panic() -> ! {
    panic!("replica is block-compressed; use group_at()/decoded_values()")
}

/// Builds a [`Replica`] from `(first, second)` column pairs.
///
/// The input need not be sorted or deduplicated; `finish` sorts,
/// deduplicates (RDF set semantics) and emits the CSR arrays.
#[derive(Debug, Default)]
pub struct ReplicaBuilder {
    pairs: Vec<(Id, Id)>,
}

impl ReplicaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity for `n` pairs.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            pairs: Vec::with_capacity(n),
        }
    }

    /// Adds one `(key, value)` pair.
    #[inline]
    pub fn push(&mut self, key: Id, value: Id) {
        self.pairs.push((key, value));
    }

    /// Number of buffered pairs (before dedup).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no pairs buffered.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Sorts, deduplicates and emits the replica.
    pub fn finish(mut self) -> Replica {
        self.pairs.sort_unstable();
        self.pairs.dedup();
        Self::from_sorted_unique(self.pairs)
    }

    /// Builds directly from pairs already sorted and deduplicated
    /// (debug-asserted).
    pub fn from_sorted_unique(pairs: Vec<(Id, Id)>) -> Replica {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "pairs not sorted+unique");
        assert!(
            pairs.len() <= u32::MAX as usize,
            "replica exceeds u32 offset range ({} pairs)",
            pairs.len()
        );
        let mut keys: Vec<Id> = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut values: Vec<Id> = Vec::with_capacity(pairs.len());
        for (k, v) in pairs {
            if keys.last() != Some(&k) {
                if !keys.is_empty() {
                    offsets.push(values.len() as u32);
                }
                keys.push(k);
            }
            values.push(v);
        }
        offsets.push(values.len() as u32);
        if keys.is_empty() {
            // Canonical empty replica: offsets = [0].
            offsets = vec![0];
        }
        let r = Replica::from_csr(keys, offsets, values);
        debug_assert_eq!(r.check_invariants(), Ok(()));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact example of Figure 1: property table containing triples
    /// 5-8, 7-8, 7-34, 13-40, 18-3, 24-9, 24-16, 24-41, 29-40, 33-22,
    /// 45-4 (keys 5,7,13,18,24,29,33,45).
    fn figure1() -> Replica {
        let mut b = ReplicaBuilder::new();
        for (k, v) in [
            (5, 8),
            (7, 8),
            (7, 34),
            (13, 40),
            (18, 3),
            (24, 9),
            (24, 16),
            (24, 41),
            (29, 40),
            (33, 22),
            (45, 4),
        ] {
            b.push(k, v);
        }
        b.finish()
    }

    #[test]
    fn figure1_example() {
        let r = figure1();
        assert_eq!(r.keys(), &[5, 7, 13, 18, 24, 29, 33, 45]);
        assert_eq!(r.num_triples(), 11);
        assert_eq!(r.values_for_key(5), &[8]);
        assert_eq!(r.values_for_key(7), &[8, 34]);
        assert_eq!(r.values_for_key(24), &[9, 16, 41]);
        assert_eq!(r.values_for_key(45), &[4]);
        assert_eq!(r.values_for_key(6), &[] as &[Id]);
        assert_eq!(r.check_invariants(), Ok(()));
    }

    #[test]
    fn unsorted_duplicated_input() {
        let mut b = ReplicaBuilder::new();
        for (k, v) in [(9, 1), (3, 2), (9, 1), (3, 1), (9, 0), (3, 2)] {
            b.push(k, v);
        }
        let r = b.finish();
        assert_eq!(r.keys(), &[3, 9]);
        assert_eq!(r.values_for_key(3), &[1, 2]);
        assert_eq!(r.values_for_key(9), &[0, 1]);
        assert_eq!(r.num_triples(), 4);
    }

    #[test]
    fn empty_replica() {
        let r = ReplicaBuilder::new().finish();
        assert_eq!(r.num_keys(), 0);
        assert_eq!(r.num_triples(), 0);
        assert!(r.is_empty());
        assert_eq!(r.values_for_key(0), &[] as &[Id]);
        assert_eq!(r.check_invariants(), Ok(()));
        assert_eq!(r.iter_pairs().count(), 0);
    }

    #[test]
    fn iter_pairs_roundtrip() {
        let r = figure1();
        let pairs: Vec<(Id, Id)> = r.iter_pairs().collect();
        assert_eq!(pairs.len(), 11);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(pairs[0], (5, 8));
        assert_eq!(pairs[10], (45, 4));
    }

    #[test]
    fn idpos_integration() {
        let mut r = figure1();
        r.build_idpos(64, 64);
        assert_eq!(r.check_invariants(), Ok(()));
        assert_eq!(r.values_for_key(24), &[9, 16, 41]);
        assert_eq!(r.values_for_key(25), &[] as &[Id]);
        r.drop_idpos();
        assert!(r.idpos().is_none());
    }

    #[test]
    fn group_len_matches_values() {
        let r = figure1();
        for i in 0..r.num_keys() {
            assert_eq!(r.group_len(i), r.values_at(i).len());
            assert_eq!(r.group_len(i), r.group_at(i).len());
        }
    }

    #[test]
    fn raw_parts_roundtrip() {
        let r = figure1();
        let (k, o, v) = r.raw_parts();
        let back = Replica::from_raw_parts(k.to_vec(), o.to_vec(), v.to_vec()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_raw_rejects_corruption() {
        let r = figure1();
        let (k, o, v) = r.raw_parts();
        // Break key ordering.
        let mut bad_keys = k.to_vec();
        bad_keys.swap(0, 1);
        assert!(Replica::from_raw_parts(bad_keys, o.to_vec(), v.to_vec()).is_err());
        // Break offsets tail.
        let mut bad_off = o.to_vec();
        *bad_off.last_mut().unwrap() += 1;
        assert!(Replica::from_raw_parts(k.to_vec(), bad_off, v.to_vec()).is_err());
        // Break group sorting.
        let mut bad_vals = v.to_vec();
        bad_vals.swap(5, 6); // inside the 24-group
        assert!(Replica::from_raw_parts(k.to_vec(), o.to_vec(), bad_vals).is_err());
    }

    /// A replica big enough to clear any sensible compression threshold,
    /// with runs long enough to span multiple blocks.
    fn large() -> Replica {
        let mut b = ReplicaBuilder::new();
        for k in 0..40u32 {
            // Run length varies: key k has 1 + (k*37 % 400) values.
            for j in 0..1 + (k * 37) % 400 {
                b.push(k, j * (1 + k % 3) + 7);
            }
        }
        b.finish()
    }

    #[test]
    fn compression_preserves_logical_content() {
        let raw = large();
        let mut zip = raw.clone();
        assert!(zip.compress(1), "large replica must compress");
        assert!(zip.is_compressed());
        assert_eq!(zip.check_invariants(), Ok(()));
        assert_eq!(zip.num_triples(), raw.num_triples());
        // Logical equality across representations.
        assert_eq!(zip, raw);
        assert_eq!(
            zip.iter_pairs().collect::<Vec<_>>(),
            raw.iter_pairs().collect::<Vec<_>>()
        );
        for pos in 0..raw.num_keys() {
            assert_eq!(zip.group_at(pos).to_vec(), raw.values_at(pos));
            for v in raw.values_at(pos) {
                assert!(zip.group_at(pos).contains(*v));
            }
            assert!(!zip.group_at(pos).contains(1_000_000));
        }
        // Compression must actually shrink the values area.
        assert!(zip.value_bytes() < raw.value_bytes(), "{} vs {}", zip.value_bytes(), raw.value_bytes());
        // Snapshot parts stay byte-identical to the raw replica's.
        assert_eq!(zip.raw_parts().2, raw.raw_parts().2);
        // And decompression restores the original representation.
        zip.decompress();
        assert!(!zip.is_compressed());
        assert_eq!(zip.values(), raw.values());
    }

    #[test]
    fn compression_threshold_and_idempotence() {
        let mut r = figure1();
        assert!(!r.compress(1000), "small replica stays raw");
        assert!(!r.is_compressed());
        let mut big = large();
        assert!(big.compress(1));
        assert!(big.compress(1), "compress is idempotent");
        assert!(big.compress(usize::MAX), "already-compressed stays compressed");
    }

    #[test]
    fn group_for_key_across_representations() {
        let raw = large();
        let mut zip = raw.clone();
        zip.compress(1);
        for &k in raw.keys() {
            assert_eq!(zip.group_for_key(k).to_vec(), raw.values_for_key(k));
        }
        assert!(zip.group_for_key(10_000).is_empty());
        // With an idpos index on top.
        zip.build_idpos(64, 64);
        assert_eq!(zip.check_invariants(), Ok(()));
        assert_eq!(zip.group_for_key(11).to_vec(), raw.values_for_key(11));
    }

    /// One value per key over `n` keys, in non-monotone key order.
    fn unit(n: u32) -> Replica {
        let mut b = ReplicaBuilder::new();
        for k in 0..n {
            b.push(k * 3, (k * 7919) % 5000);
        }
        b.finish()
    }

    #[test]
    fn layout_follows_shape_in_every_constructor() {
        // Built: one value per key is a unit replica without offsets.
        let raw = unit(300);
        assert!(raw.is_unit() && !raw.is_compressed());
        assert_eq!(raw.offsets().as_ref(), (0..=300u32).collect::<Vec<_>>());
        assert_eq!(raw.group_at(17).as_raw(), Some(&[(17 * 7919) % 5000][..]));
        assert_eq!(raw.memory_bytes(), 300 * 4 * 2, "keys and values, no offsets");
        assert!(!figure1().is_unit(), "key 7 has two values");
        assert!(ReplicaBuilder::new().finish().is_unit(), "empty is trivially unit");

        // Compressed: unit frames, O(1) single-value groups.
        let mut zip = raw.clone();
        assert!(zip.compress(1) && zip.is_unit() && zip.is_compressed());
        assert_eq!(zip, raw);
        assert!(zip.value_bytes() < raw.value_bytes());
        assert_eq!(zip.check_invariants(), Ok(()));
        for pos in [0usize, 127, 128, 129, 299] {
            let g = zip.group_at(pos);
            assert!(matches!(g, Group::Single(_)));
            assert_eq!(g.to_vec(), raw.values_at(pos));
            assert!(g.contains(raw.values_at(pos)[0]));
            assert!(!g.contains(raw.values_at(pos)[0] + 1));
            assert_eq!(g.iter().len(), 1);
        }
        assert_eq!(zip.iter_pairs().collect::<Vec<_>>(), raw.iter_pairs().collect::<Vec<_>>());

        // Decompressed and snapshot-loaded: unit again.
        let (k, o, v) = zip.raw_parts();
        let loaded = Replica::from_raw_parts(k.to_vec(), o.to_vec(), v.to_vec()).unwrap();
        assert!(loaded.is_unit() && !loaded.is_compressed());
        assert_eq!(loaded, raw);
        zip.decompress();
        assert!(zip.is_unit() && !zip.is_compressed());
        assert_eq!(zip.values(), raw.values());
    }

    #[test]
    fn from_raw_parts_checks_offsets_before_dropping_them() {
        // A unit-shaped snapshot whose offsets are not the identity is
        // corrupt, even though the unit layout would not keep them.
        let r = unit(5);
        let (k, _, v) = r.raw_parts();
        for bad in [vec![0u32, 2, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 5], vec![0, 1, 2, 3, 5]] {
            assert!(Replica::from_raw_parts(k.to_vec(), bad, v.to_vec()).is_err());
        }
    }

    #[test]
    fn walk_cursor_groups_match_fresh_groups() {
        let r = {
            let mut r = large();
            r.compress(1);
            r
        };
        let mut cursor = WalkCursor::default();
        for pos in (0..r.num_keys()).chain([3, 3, 39, 0]) {
            assert_eq!(r.group_at_cursor(pos, &mut cursor).to_vec(), r.group_at(pos).to_vec());
        }
    }

    #[test]
    #[should_panic(expected = "block-compressed")]
    fn raw_accessor_panics_on_compressed() {
        let mut r = large();
        r.compress(1);
        let _ = r.values_at(0);
    }
}
