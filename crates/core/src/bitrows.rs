//! A row-major bit matrix with AND + popcount between rows: the dense
//! form behind the join's verification (DESIGN.md §17) and the bit-matrix
//! link kernel (DESIGN.md §13).

use crate::cast;

/// `rows × cols` bits, row-major, each row padded to whole `u64` words.
/// Bit `c` of row `r` is bit `c % 64` of word `c / 64` of that row.
#[derive(Debug, Clone)]
pub(crate) struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// An all-zero matrix of `rows` rows holding `cols` bits each.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    /// Bytes a `rows × cols` matrix holds, before allocating it.
    pub(crate) fn bytes_for(rows: usize, cols: usize) -> u64 {
        cast::usize_to_u64(rows * cols.div_ceil(64) * std::mem::size_of::<u64>())
    }

    /// Bytes held by the bit storage.
    pub(crate) fn bytes(&self) -> u64 {
        cast::usize_to_u64(std::mem::size_of_val(self.bits.as_slice()))
    }

    /// Words per row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Sets bit `col` of row `row`.
    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1u64 << (col % 64);
    }

    /// The words of row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    /// `|row i ∩ row j|`: the popcount of their AND over every word.
    #[inline]
    pub(crate) fn and_count(&self, i: usize, j: usize) -> u32 {
        self.row(i)
            .iter()
            .zip(self.row(j))
            .map(|(x, y)| (x & y).count_ones())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_count_is_the_set_intersection_across_word_boundaries() {
        for cols in [1usize, 63, 64, 65, 127, 128, 129, 300] {
            let mut m = BitRows::new(3, cols);
            assert_eq!(m.words(), cols.div_ceil(64));
            assert_eq!(m.bytes(), BitRows::bytes_for(3, cols));
            let a: Vec<usize> = (0..cols).step_by(2).collect();
            let b: Vec<usize> = (0..cols).step_by(3).collect();
            for &c in &a {
                m.set(0, c);
            }
            for &c in &b {
                m.set(1, c);
            }
            m.set(2, cols - 1);
            let both = a.iter().filter(|c| b.contains(c)).count();
            assert_eq!(m.and_count(0, 1), cols_u32(both), "cols {cols}");
            assert_eq!(m.and_count(1, 0), cols_u32(both), "cols {cols}");
            assert_eq!(m.and_count(0, 0), cols_u32(a.len()), "cols {cols}");
            assert_eq!(
                m.and_count(2, 2),
                1,
                "the last column lands in the last word"
            );
            assert_eq!(m.row(2).len(), m.words());
        }
    }

    fn cols_u32(c: usize) -> u32 {
        u32::try_from(c).unwrap()
    }
}
