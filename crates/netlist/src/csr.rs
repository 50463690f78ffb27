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
//!   cone rows, pin rows, read sets);
//! * [`group`](Csr::group) is a stable counting sort for tables whose
//!   entries arrive keyed by row in any order (fanout maps, rank and level
//!   rows, fault classes, [`transpose`](Csr::transpose)). It calls an
//!   emitter twice with the same sequence of `(row, value)` pairs: the
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
}

impl<T: Clone> Csr<T> {
    /// Builds a table of `rows` rows by a stable counting sort. `each` is
    /// called twice and must hand the same `(row, value)` sequence to its
    /// emitter both times: the first call counts, the second places. Every
    /// row holds its values in emission order. Debug builds check that
    /// both calls emitted the same count per row.
    pub fn group(rows: usize, mut each: impl FnMut(&mut dyn FnMut(usize, T))) -> Self {
        let mut off = vec![0u32; rows + 1];
        let mut filler = None;
        let mut emitted = 0usize;
        each(&mut |r, v| {
            off[r + 1] = off[r + 1].wrapping_add(1);
            emitted += 1;
            filler.get_or_insert(v);
        });
        // No row count can exceed the total, so none of them wrapped.
        let total = offset(emitted);
        for r in 0..rows {
            off[r + 1] += off[r];
        }
        let Some(filler) = filler else {
            return Csr {
                off,
                values: Vec::new(),
            };
        };
        let mut values = vec![filler; total as usize];
        let mut cursor = off[..rows].to_vec();
        each(&mut |r, v| {
            values[cursor[r] as usize] = v;
            cursor[r] += 1;
        });
        debug_assert!(cursor[..] == off[1..], "group's two emissions differ");
        Csr { off, values }
    }
}

impl Csr<u32> {
    /// The inverse table over `rows` rows: row `j` lists, ascending, every
    /// row `i` of `self` that holds `j` (once per occurrence).
    pub fn transpose(&self, rows: usize) -> Csr<u32> {
        Csr::group(rows, |emit| {
            for (i, row) in self.iter().enumerate() {
                for &j in row {
                    emit(j as usize, i as u32);
                }
            }
        })
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

    #[test]
    fn transpose_of_a_transpose_returns_the_rows() {
        // Ascending rows with a repeated value and empty rows.
        let mut csr = Csr::default();
        for row in [&[1u32, 4][..], &[], &[0, 0, 2, 4], &[3], &[]] {
            csr.push_row(row.iter().copied());
        }
        let t = csr.transpose(6);
        assert_eq!(
            rows_of(&t),
            vec![vec![2, 2], vec![0], vec![2], vec![3], vec![0, 2], vec![]]
        );
        assert_eq!(t.transpose(csr.len()), csr);
    }
}
