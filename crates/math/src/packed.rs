//! Canonical residues stored at their prime's width.
//!
//! HEAX sizes its key memories to the moduli, not to a machine word: a
//! residue below a `b`-bit prime needs `⌈b/8⌉` bytes, and the rest of a
//! 64-bit slot is zero. [`PackedRows`] keeps rows of such words at `w`
//! bytes each, back to back, and pads the buffer so that a 64-byte vector
//! load at any whole chunk of eight words — and an 8-byte window at any
//! word — stays inside it. Nothing widens a row in memory: the DyadMult
//! accumulate (`Modulus::dyad_acc_lazy`) spreads each key vector to eight
//! 64-bit lanes with one byte permute on the 8 lanes, and the scalar loop
//! reads a word as its 8-byte little-endian window, masked to `w` bytes.

use core::fmt;

use crate::word::Modulus;

/// `f::<W>(args)` for the runtime `width`, `W` in `1..=8` (wider is
/// refused at construction), so a slot loop copies a constant size.
macro_rules! by_width {
    ($width:expr, $f:ident($($arg:expr),*)) => {
        match $width {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            _ => $f::<8>($($arg),*),
        }
    };
}

/// Bytes a buffer of `width`-byte words carries past its last word: a
/// 64-byte load at the last chunk of eight words reads `64 − 8·width`
/// bytes beyond it, and an 8-byte window at the last word `8 − width`.
///
/// # Panics
///
/// Panics unless `width` is between 1 and 8.
pub const fn padding(width: usize) -> usize {
    assert!(width >= 1 && width <= 8, "a packed word is 1 to 8 bytes");
    64 - 8 * width
}

/// Bytes per word that hold every residue of a chain whose widest prime
/// has `bits` bits: `⌈bits/8⌉`.
pub const fn width_for(bits: u32) -> usize {
    (bits as usize).div_ceil(8)
}

/// The words a `width`-byte slot holds: the low `8·width` bits.
const fn mask(width: usize) -> u64 {
    u64::MAX >> (64 - 8 * width)
}

/// `rows` rows of `row_len` words, each stored in `width` bytes,
/// little-endian, in one padded buffer. A key-switching key keeps its
/// residues here; [`PackedRows::resident_bytes`] is all it holds.
#[derive(Clone, PartialEq, Eq)]
pub struct PackedRows {
    width: usize,
    rows: usize,
    row_len: usize,
    /// `rows·row_len·width` bytes of words, then [`padding`]`(width)`.
    bytes: Box<[u8]>,
}

impl fmt::Debug for PackedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedRows")
            .field("width", &self.width)
            .field("rows", &self.rows)
            .field("row_len", &self.row_len)
            .finish_non_exhaustive()
    }
}

impl PackedRows {
    /// `rows` rows of `row_len` zero words at `width` bytes each.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is between 1 and 8, or if the buffer's size
    /// overflows `usize`.
    pub fn zeroed(width: usize, rows: usize, row_len: usize) -> Self {
        let len = rows
            .checked_mul(row_len)
            .and_then(|words| words.checked_mul(width))
            .and_then(|bytes| bytes.checked_add(padding(width)))
            .expect("packed buffer size overflows usize");
        Self {
            width,
            rows,
            row_len,
            bytes: vec![0; len].into_boxed_slice(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bytes the buffer holds: `rows·row_len·width + padding(width)`.
    #[inline]
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> PackedRow<'_> {
        assert!(r < self.rows, "row out of range");
        let start = r * self.row_len * self.width;
        let end = start + self.row_len * self.width + padding(self.width);
        PackedRow {
            width: self.width,
            len: self.row_len,
            bytes: &self.bytes[start..end],
        }
    }

    /// Stores `words` as row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range, `words` is not one row long, or a
    /// word needs more than `width` bytes.
    pub fn set_row(&mut self, r: usize, words: &[u64]) {
        let mut seen = 0;
        self.write_row(
            r,
            words.len(),
            words.iter().map(|&x| {
                seen |= x;
                x.to_le_bytes()
            }),
        );
        assert!(
            seen <= mask(self.width),
            "a word is wider than the row's width"
        );
    }

    /// Stores row `r` from `src`, eight little-endian bytes per word, and
    /// reports whether every word is canonical (`< p`): validated and
    /// packed in one pass, with no full-width copy. The whole row is
    /// written either way; a row that fails holds truncated words.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `src` is not eight bytes per word
    /// of one row.
    #[must_use]
    pub fn decode_le_row(&mut self, r: usize, src: &[u8], p: &Modulus) -> bool {
        let (words, rest) = src.as_chunks::<8>();
        assert!(rest.is_empty(), "eight bytes per word");
        let p = p.value();
        let mut stray = false;
        self.write_row(
            r,
            words.len(),
            words.iter().map(|&w| {
                stray |= u64::from_le_bytes(w) >= p;
                w
            }),
        );
        // Every canonical word fits the width the chain sized it to.
        !stray && p - 1 <= mask(self.width)
    }

    /// Writes row `r`: each word's low `width` bytes into its slot, with
    /// the width a constant of the loop so every copy is a fixed-size
    /// store.
    fn write_row(&mut self, r: usize, len: usize, words: impl Iterator<Item = [u8; 8]>) {
        assert!(r < self.rows, "row out of range");
        assert_eq!(len, self.row_len, "one row of words");
        let width = self.width;
        let start = r * len * width;
        let row = &mut self.bytes[start..start + len * width];
        by_width!(width, write_slots(row, words));
    }
}

/// `slots[i] ← words[i]`'s low `W` bytes.
#[inline(always)]
fn write_slots<const W: usize>(slots: &mut [u8], words: impl Iterator<Item = [u8; 8]>) {
    for (slot, w) in slots.as_chunks_mut::<W>().0.iter_mut().zip(words) {
        *slot = *w.first_chunk::<W>().expect("a slot is at most 8 bytes");
    }
}

/// `words[i] ← slots[i]`, into the low `W` bytes; the others are left.
#[inline(always)]
fn read_slots<const W: usize>(slots: &[u8], words: &mut [[u8; 8]]) {
    for (w, slot) in words.iter_mut().zip(slots.as_chunks::<W>().0) {
        *w.first_chunk_mut::<W>().expect("a slot is at most 8 bytes") = *slot;
    }
}

/// One row of a [`PackedRows`]: `len` words of `width` bytes, followed
/// by at least [`padding`]`(width)` readable bytes.
#[derive(Clone, Copy)]
pub struct PackedRow<'a> {
    width: usize,
    len: usize,
    /// Exactly `len·width + padding(width)` bytes.
    bytes: &'a [u8],
}

impl fmt::Debug for PackedRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.windows(0).take(self.len))
            .finish()
    }
}

impl<'a> PackedRow<'a> {
    /// A row of no words.
    pub const EMPTY: PackedRow<'static> = PackedRow {
        width: 8,
        len: 0,
        bytes: &[],
    };

    /// Number of words.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the row has no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per word.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "word out of range");
        let at = i * self.width;
        let window: [u8; 8] = self.bytes[at..at + 8].try_into().expect("8 bytes");
        u64::from_le_bytes(window) & mask(self.width)
    }

    /// `dst[j] ←` word `from + j`.
    ///
    /// # Panics
    ///
    /// Panics if the words run past the row.
    pub fn unpack_into(&self, from: usize, dst: &mut [u64]) {
        assert!(from + dst.len() <= self.len, "words out of range");
        for (d, w) in dst.iter_mut().zip(self.windows(from)) {
            *d = w;
        }
    }

    /// Appends the row to `out` as eight little-endian bytes per word.
    pub fn encode_le(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + 8 * self.len, 0);
        let words = out[at..].as_chunks_mut::<8>().0;
        let slots = &self.bytes[..self.len * self.width];
        by_width!(self.width, read_slots(slots, words));
    }

    /// The bytes behind the row: its words, then the padding. A vector
    /// load of 64 bytes at byte `8·width·c` is in bounds for every whole
    /// chunk `c` of eight words.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Words `from..` as masked 8-byte windows (may run into the padding
    /// past the last word; callers bound it).
    fn windows(&self, from: usize) -> impl Iterator<Item = u64> + 'a {
        let mask = mask(self.width);
        self.bytes[from * self.width..]
            .windows(8)
            .step_by(self.width)
            .map(move |w| u64::from_le_bytes(w.try_into().expect("8 bytes")) & mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_at_every_width() {
        let p = Modulus::new((1 << 61) + 1).unwrap();
        for width in 1..=8 {
            let max = mask(width);
            let mut words: Vec<u64> = (1..=21u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i) & max)
                .collect();
            words[20] = max;
            let mut rows = PackedRows::zeroed(width, 3, words.len());
            assert_eq!(rows.resident_bytes(), 3 * 21 * width + padding(width));
            // Out of order: a row's write must not reach into the next.
            for r in [2, 0, 1] {
                rows.set_row(r, &words);
            }
            for r in 0..3 {
                let row = rows.row(r);
                let got: Vec<u64> = (0..row.len()).map(|i| row.get(i)).collect();
                assert_eq!(got, words, "width {width} row {r}");
                let mut tail = vec![0; 5];
                row.unpack_into(16, &mut tail);
                assert_eq!(tail, words[16..]);
                let mut le = Vec::new();
                row.encode_le(&mut le);
                assert_eq!(le.len(), 8 * words.len());
                let mut back = PackedRows::zeroed(width, 1, words.len());
                let canonical = back.decode_le_row(0, &le, &p);
                assert_eq!(back.row(0).windows(0).take(21).collect::<Vec<_>>(), words);
                let fits = p.value() - 1 <= max;
                assert_eq!(canonical, fits && words.iter().all(|&x| x < p.value()));
            }
        }
    }

    #[test]
    fn decode_refuses_a_word_at_or_above_p() {
        let p = Modulus::new((1 << 36) + 1).unwrap();
        let mut rows = PackedRows::zeroed(width_for(p.bits()), 1, 9);
        for (at, stray) in [(0, p.value()), (8, u64::MAX), (4, 1 << 40)] {
            let mut words = [p.value() - 1; 9];
            words[at] = stray;
            let le: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert!(!rows.decode_le_row(0, &le, &p), "{stray} at {at}");
        }
        let le: Vec<u8> = [p.value() - 1; 9]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert!(rows.decode_le_row(0, &le, &p));
        assert_eq!(rows, {
            let mut set = PackedRows::zeroed(5, 1, 9);
            set.set_row(0, &[p.value() - 1; 9]);
            set
        });
    }

    #[test]
    #[should_panic(expected = "wider than the row's width")]
    fn a_word_wider_than_the_row_is_refused() {
        PackedRows::zeroed(5, 1, 2).set_row(0, &[1 << 40, 0]);
    }
}
