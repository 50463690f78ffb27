//! Compressed sparse rows: one table idiom for every per-node adjacency.
//!
//! A [`Csr<T>`] stores `rows` variable-length rows back to back in one flat
//! values array, plus one offsets array of `rows + 1` entries: row `i` is
//! `values[off[i]..off[i + 1]]`. A table of any size is two allocations,
//! rows are contiguous slices, and iterating all rows in order walks both
//! arrays once.
//!
//! Tables are built one of two ways:
//!
//! * [`push_row`](Csr::push_row) appends rows in row order (fanin lists,
//!   cone shapes, pin rows, reused scratch rows after
//!   [`clear`](Csr::clear));
//! * [`group`](Csr::group) is a stable counting sort for tables whose
//!   entries arrive keyed by row in any order (fanout maps, rank and level
//!   rows, fault classes). It calls an emitter twice with the same sequence of `(row, value)` pairs: the
//!   first call counts each row, a prefix sum turns the counts into
//!   offsets, and the second call places every value. Each row keeps
//!   emission order, so a caller that emits in ascending source order gets
//!   ascending rows without sorting, and the emission itself never has to
//!   be stored as a pair list.
//!
//! Offsets are `u32`: half the bytes of `usize` offsets, and every table
//! here is indexed by node, AND node or fault, all of which are `u32`
//! themselves. Building a table past `u32::MAX` values panics, and so
//! does naming a row that does not exist.
//!
//! # Gap-coded id rows
//!
//! [`IdRows`] is the same layout for the largest table of all: rows of
//! ascending `u32` ids that are read whole, one row at a time (the
//! estimator's per-AND cone ids). Neighbouring ids in such a row are
//! close, so each row stores its ids as LEB128 gaps — a varint of 7 bits
//! per byte: 1 byte for a gap below 128, 2 below 16,384 — and the offsets
//! count bytes. On `multmesh:4x12x64` that stores the cone ids in about a
//! quarter of the bytes of `u32` values. The first id of a row is stored
//! as its signed distance from the row index (zigzag-mapped), so a row
//! whose ids lie near its own node on either side (a cone reads just
//! below its AND) starts with a short code.
//!
//! The price is access: a row is an iterator that decodes front to back,
//! with no indexing and no length short of decoding it. Use `IdRows` for a
//! table that is big and walked row by row; a caller that needs a slice
//! (binary search, positions) decodes the row into a reused buffer with
//! [`decode_into`](IdRows::decode_into). Keep small or randomly indexed
//! tables in a [`Csr`].

use std::ops::{Index, Range};

/// A table of variable-length rows over one flat values array (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `rows + 1` offsets into `values`, starting at 0.
    off: Vec<u32>,
    values: Vec<T>,
}

impl<T> Default for Csr<T> {
    /// A table with zero rows.
    fn default() -> Self {
        Csr {
            off: vec![0],
            values: Vec::new(),
        }
    }
}

/// A flat length as a `u32` offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("CSR table exceeds u32 offsets")
}

impl<T> Csr<T> {
    /// An empty table with room for `rows` rows of `values` values in
    /// total.
    pub fn with_capacity(rows: usize, values: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Csr {
            off,
            values: Vec::with_capacity(values),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The positions of row `i` in `values`.
    fn range(&self, i: usize) -> Range<usize> {
        self.off[i] as usize..self.off[i + 1] as usize
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.values[self.range(i)]
    }

    /// Row `i`, mutably (its length is fixed).
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let range = self.range(i);
        &mut self.values[range]
    }

    /// The rows in order.
    pub fn iter(&self) -> Rows<'_, T> {
        Rows {
            bounds: self.off.windows(2),
            values: &self.values,
        }
    }

    /// Every row's values, row after row.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Every row's values, mutably (rows keep their lengths).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Heap bytes of the two arrays' contents (lengths × element sizes).
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.off.as_slice()) + std::mem::size_of_val(self.values.as_slice())
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.values.extend(row);
        self.off.push(offset(self.values.len()));
    }

    /// Removes every row, keeping both arrays' capacity (a reused
    /// scratch table).
    pub fn clear(&mut self) {
        self.off.truncate(1);
        self.values.clear();
    }
}

impl<T: Clone> Csr<T> {
    /// Builds a table of `rows` rows by a stable counting sort. `each` is
    /// called twice and must hand the same `(row, value)` sequence to its
    /// emitter both times: the first call counts, the second places. Every
    /// row holds its values in emission order. Debug builds check that
    /// both calls emitted the same count per row.
    pub fn group(rows: usize, mut each: impl FnMut(&mut dyn FnMut(usize, T))) -> Self {
        let mut off = vec![0u32; rows + 1];
        let mut emitted = 0usize;
        each(&mut |r, _| {
            off[r + 1] = off[r + 1].wrapping_add(1);
            emitted += 1;
        });
        // No row count can exceed the total, so none of them wrapped.
        offset(emitted);
        Csr::place(off, each)
    }

    /// Builds a table whose row `r` holds `counts[r]` values, placed by one
    /// call of `each`, which must emit exactly that many for each row: the
    /// placing half of [`group`](Self::group), for a caller that counted
    /// its rows in a pass it runs anyway. Every row holds its values in
    /// emission order. The offsets reuse `counts`' buffer (one more entry
    /// fits without growing it if its capacity allows). Debug builds check
    /// the counts.
    pub fn from_counts(mut counts: Vec<u32>, each: impl FnOnce(&mut dyn FnMut(usize, T))) -> Self {
        counts.insert(0, 0);
        Csr::place(counts, each)
    }

    /// Turns `off`, holding row `r`'s count at `off[r + 1]`, into offsets
    /// and places the values `each` emits.
    fn place(mut off: Vec<u32>, each: impl FnOnce(&mut dyn FnMut(usize, T))) -> Self {
        let rows = off.len() - 1;
        for r in 0..rows {
            off[r + 1] = off[r]
                .checked_add(off[r + 1])
                .expect("CSR table exceeds u32 offsets");
        }
        let total = off[rows] as usize;
        // The first value emitted fills the array until its slot is placed.
        let mut values: Vec<T> = Vec::new();
        let mut cursor = off[..rows].to_vec();
        each(&mut |r, v| {
            if values.is_empty() {
                values = vec![v.clone(); total];
            }
            values[cursor[r] as usize] = v;
            cursor[r] += 1;
        });
        debug_assert!(
            cursor[..] == off[1..],
            "emitted counts differ from the row counts"
        );
        Csr { off, values }
    }
}

impl<T> Index<usize> for Csr<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        self.row(i)
    }
}

impl<'a, T> IntoIterator for &'a Csr<T> {
    type Item = &'a [T];
    type IntoIter = Rows<'a, T>;

    fn into_iter(self) -> Rows<'a, T> {
        self.iter()
    }
}

/// Iterator over the rows of a [`Csr`], each as a slice.
#[derive(Debug, Clone)]
pub struct Rows<'a, T> {
    bounds: std::slice::Windows<'a, u32>,
    values: &'a [T],
}

impl<'a, T> Rows<'a, T> {
    fn slice(&self, bounds: &[u32]) -> &'a [T] {
        &self.values[bounds[0] as usize..bounds[1] as usize]
    }
}

impl<'a, T> Iterator for Rows<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        let bounds = self.bounds.next()?;
        Some(self.slice(bounds))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.bounds.size_hint()
    }
}

impl<T> DoubleEndedIterator for Rows<'_, T> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let bounds = self.bounds.next_back()?;
        Some(self.slice(bounds))
    }
}

impl<T> ExactSizeIterator for Rows<'_, T> {}

/// A table of ascending `u32` id rows, each stored as LEB128 gaps (see the
/// [module docs](self#gap-coded-id-rows)). Rows may repeat an id (a gap of
/// 0). The coding is canonical, so two tables are equal exactly when
/// their rows are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdRows {
    /// `rows + 1` byte offsets into `bytes`, starting at 0.
    off: Vec<u32>,
    /// Every row's codes, row after row.
    bytes: Vec<u8>,
}

impl Default for IdRows {
    /// A table with zero rows.
    fn default() -> Self {
        IdRows {
            off: vec![0],
            bytes: Vec::new(),
        }
    }
}

/// The code of `id` in row `row` after the row's previous id `prev`: the
/// gap from `prev`, or for the row's first id its signed distance from
/// `row`, zigzag-mapped (0, -1, 1, -2, … to 0, 1, 2, 3, …).
#[inline]
fn gap_code(row: usize, prev: Option<u32>, id: u32) -> u64 {
    match prev {
        Some(p) => u64::from(id - p),
        None => {
            let d = i64::from(id) - row as i64;
            ((d << 1) ^ (d >> 63)) as u64
        }
    }
}

/// Appends the LEB128 varint of `v`: 7 bits per byte, low bits first, the
/// high bit set on every byte but the last.
#[inline]
fn push_varint(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

impl IdRows {
    /// An empty table with room for `rows` rows of `bytes` coded bytes in
    /// total.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        IdRows {
            off,
            bytes: Vec::with_capacity(bytes),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes of the offsets and the codes (lengths × element sizes).
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of_val(self.off.as_slice()) + self.bytes.len()
    }

    /// Appends one row; its ids must ascend (checked in debug builds).
    pub fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        let i = self.len();
        let mut row = row.into_iter();
        if let Some(first) = row.next() {
            push_varint(&mut self.bytes, gap_code(i, None, first));
            let mut prev = first;
            for id in row {
                debug_assert!(prev <= id, "IdRows row {i} descends");
                push_varint(&mut self.bytes, u64::from(id - prev));
                prev = id;
            }
        }
        self.off.push(offset(self.bytes.len()));
    }

    /// Row `i`, decoded as it is iterated.
    #[inline]
    pub fn row(&self, i: usize) -> IdRow<'_> {
        IdRow {
            bytes: &self.bytes[self.off[i] as usize..self.off[i + 1] as usize],
            row: i,
            prev: None,
        }
    }

    /// Replaces the contents of `out` with row `i`.
    pub fn decode_into(&self, i: usize, out: &mut Vec<u32>) {
        out.clear();
        // A plain loop: `extend` over the row measured up to 2x slower
        // (x86-64, mesh reader rows).
        for id in self.row(i) {
            out.push(id);
        }
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = IdRow<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }
}

/// Iterator over one row of an [`IdRows`], decoding an id per step.
#[derive(Debug, Clone)]
pub struct IdRow<'a> {
    /// The row's codes not yet decoded.
    bytes: &'a [u8],
    /// The row's index.
    row: usize,
    /// The id decoded last (`None` before the first).
    prev: Option<u32>,
}

impl IdRow<'_> {
    /// The rest of a varint whose first byte, `b`, has its high bit set.
    fn varint_rest(&mut self, b: u8) -> u64 {
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        while let Some((&b, rest)) = self.bytes.split_first() {
            self.bytes = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
        }
        v
    }
}

impl Iterator for IdRow<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let (&b, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        // Most gaps fit one byte.
        let v = if b < 0x80 {
            u64::from(b)
        } else {
            self.varint_rest(b)
        };
        let id = match self.prev {
            Some(p) => p + v as u32,
            // The inverse of `gap_code`'s zigzag distance.
            None => (self.row as i64 + ((v >> 1) as i64 ^ -((v & 1) as i64))) as u32,
        };
        self.prev = Some(id);
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.bytes.len().min(1), Some(self.bytes.len()))
    }
}

impl std::iter::FusedIterator for IdRow<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of<T: Clone>(csr: &Csr<T>) -> Vec<Vec<T>> {
        csr.iter().map(<[T]>::to_vec).collect()
    }

    #[test]
    fn push_row_reads_back_rows_in_order() {
        let mut csr = Csr::default();
        csr.push_row([3u32, 1]);
        csr.push_row([]);
        csr.push_row([7]);
        assert_eq!(csr.len(), 3);
        assert_eq!(&csr[0], &[3, 1]);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.values(), &[3, 1, 7]);
        assert_eq!(rows_of(&csr), vec![vec![3, 1], vec![], vec![7]]);
        assert_eq!(
            csr.iter().rev().map(<[u32]>::len).collect::<Vec<_>>(),
            [1, 0, 2]
        );
        csr.row_mut(0)[1] = 9;
        assert_eq!(&csr[0], &[3, 9]);
        assert_eq!(csr.storage_bytes(), 4 * 4 + 3 * 4);
    }

    #[test]
    fn clear_empties_the_table_and_keeps_its_capacity() {
        let mut csr = Csr::default();
        csr.push_row([1u32, 2, 3]);
        csr.push_row([4]);
        let cap = csr.values.capacity();
        csr.clear();
        assert_eq!(csr, Csr::default());
        assert_eq!(csr.values.capacity(), cap);
        csr.push_row([5]);
        assert_eq!(rows_of(&csr), vec![vec![5]]);
    }

    #[test]
    fn group_keeps_emission_order_within_rows() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e'), (2, 'f')];
        let csr = Csr::group(4, |emit| {
            for &(r, v) in &pairs {
                emit(r, v);
            }
        });
        let expected = vec![vec!['b', 'e'], vec!['d'], vec!['a', 'c', 'f'], vec![]];
        assert_eq!(rows_of(&csr), expected);
    }

    #[test]
    fn from_counts_places_rows_in_emission_order() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'e')];
        let csr = Csr::from_counts(vec![2, 0, 2], |emit| {
            for &(r, v) in &pairs {
                emit(r, v);
            }
        });
        assert_eq!(rows_of(&csr), vec![vec!['b', 'e'], vec![], vec!['a', 'c']]);
        let blank: Csr<u8> = Csr::from_counts(vec![0, 0], |_| {});
        assert_eq!(blank, Csr::group(2, |_| {}));
        assert_eq!(Csr::<u8>::from_counts(Vec::new(), |_| {}), Csr::default());
    }

    #[test]
    fn empty_rows_and_zero_rows_work() {
        let none: Csr<u8> = Csr::group(0, |_| {});
        assert!(none.is_empty());
        assert_eq!(none, Csr::default());
        assert_eq!(none.iter().count(), 0);
        let blank: Csr<u8> = Csr::group(3, |_| {});
        assert_eq!(blank.len(), 3);
        assert!(blank.iter().all(<[u8]>::is_empty));
        assert_eq!(blank.values().len(), 0);
        let mut pushed: Csr<u8> = Csr::with_capacity(3, 0);
        for _ in 0..3 {
            pushed.push_row([]);
        }
        assert_eq!(blank, pushed);
    }

    fn id_rows(rows: &[Vec<u32>]) -> IdRows {
        let mut t = IdRows::default();
        for row in rows {
            t.push_row(row.iter().copied());
        }
        t
    }

    fn decoded(t: &IdRows) -> Vec<Vec<u32>> {
        t.iter().map(Iterator::collect).collect()
    }

    #[test]
    fn id_rows_code_gaps_in_leb128_bytes() {
        let max = u32::MAX;
        let rows = vec![
            vec![],
            vec![1],                         // +0 from row 1: 1 byte
            vec![2, 129, 257, 16640, 33024], // gaps 127, 128, 16383, 16384
            vec![0, max],                    // first -3 (1 byte), gap max (5)
            vec![max],                       // first max - 4: 5 bytes
            vec![7, 7, 7],                   // repeats: gaps of 0
        ];
        let t = id_rows(&rows);
        assert_eq!((t.len(), t.is_empty()), (6, false));
        assert_eq!(decoded(&t), rows);
        let codes = 1 + (1 + 1 + 2 + 2 + 3) + (1 + 5) + 5 + 3;
        assert_eq!(t.storage_bytes(), 7 * 4 + codes);
        let mut buf = vec![9, 9, 9, 9];
        t.decode_into(2, &mut buf);
        assert_eq!(buf, rows[2]);
        t.decode_into(0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(t, t.clone());
        assert_ne!(t, id_rows(&rows[..5]));
    }

    #[test]
    fn empty_id_rows_have_only_their_offset() {
        let none = IdRows::default();
        assert!(none.is_empty());
        assert_eq!(none.storage_bytes(), 4);
        assert_eq!(none.iter().count(), 0);
        assert_eq!(IdRows::with_capacity(4, 16), none);
        let blank = id_rows(&[vec![], vec![], vec![]]);
        assert_eq!(decoded(&blank), vec![Vec::<u32>::new(); 3]);
        assert_eq!(blank.storage_bytes(), 4 * 4);
    }

    /// A gap that is small, on either side of a varint length step, or
    /// near `u32::MAX`.
    fn gap() -> impl proptest::strategy::Strategy<Value = u32> {
        use proptest::prelude::*;
        prop_oneof![
            0u32..4,
            0u32..200,
            prop_oneof![Just(127u32), Just(128), Just(16_383), Just(16_384)],
            prop_oneof![Just(u32::MAX), u32::MAX - 300..=u32::MAX, 0u32..=u32::MAX],
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn id_rows_round_trip_any_ascending_rows(
            gaps in proptest::collection::vec(proptest::collection::vec(gap(), 0..8), 0..10),
        ) {
            // Each row's ids are prefix sums of its gaps, cut where they
            // would pass u32::MAX.
            let rows: Vec<Vec<u32>> = gaps
                .iter()
                .map(|g| {
                    g.iter()
                        .scan(0u32, |at, &d| {
                            *at = at.checked_add(d)?;
                            Some(*at)
                        })
                        .collect()
                })
                .collect();
            let t = id_rows(&rows);
            proptest::prop_assert_eq!(t.len(), rows.len());
            proptest::prop_assert_eq!(&decoded(&t), &rows);
            let mut buf = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                t.decode_into(i, &mut buf);
                proptest::prop_assert_eq!(&buf, row);
            }
            proptest::prop_assert_eq!(id_rows(&rows), t);
        }
    }
}
