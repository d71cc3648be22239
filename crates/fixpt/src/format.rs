//! Fixed-point formats: total width, integer bits and signedness.

use std::fmt;

/// Maximum supported total width in bits.
///
/// Values are stored in an `i128` mantissa; keeping operand widths at or
/// below 64 bits guarantees that sums (width + 1) and products
/// (width₁ + width₂) of mantissas are exactly representable in `i128`.
/// The paper's case study needs at most 24 bits.
pub const MAX_WIDTH: u32 = 64;

/// Signedness of a fixed-point or integer format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Signedness {
    /// Two's-complement signed (`sc_fixed`, `sc_int`).
    Signed,
    /// Unsigned (`sc_ufixed`, `sc_uint`).
    Unsigned,
}

impl Signedness {
    /// Returns `true` for [`Signedness::Signed`].
    pub fn is_signed(self) -> bool {
        matches!(self, Signedness::Signed)
    }
}

impl fmt::Display for Signedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signedness::Signed => f.write_str("signed"),
            Signedness::Unsigned => f.write_str("unsigned"),
        }
    }
}

/// Error constructing a [`Format`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Width was zero.
    ZeroWidth,
    /// Width exceeded [`MAX_WIDTH`].
    WidthTooLarge {
        /// The offending width.
        width: u32,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::ZeroWidth => f.write_str("format width must be at least 1 bit"),
            FormatError::WidthTooLarge { width } => {
                write!(
                    f,
                    "format width {width} exceeds the supported maximum {MAX_WIDTH}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A fixed-point format, mirroring SystemC's `sc_fixed<W, I>`.
///
/// `width` is the total number of bits and `int_bits` the number of bits to
/// the left of the binary point (including the sign bit for signed formats).
/// As in SystemC, `int_bits` may exceed `width` (coarse quantization, LSB
/// weight above 1) or be zero/negative (all-fractional values).
///
/// The real value represented by a mantissa `raw` is
/// `raw * 2^(int_bits - width)`.
///
/// # Examples
///
/// ```
/// use fixpt::{Format, Signedness};
///
/// // sc_fixed<8,3>: bbb.bbbbb
/// let f = Format::new(8, 3, Signedness::Signed)?;
/// assert_eq!(f.frac_bits(), 5);
/// assert_eq!(f.lsb_weight(), 2f64.powi(-5));
/// assert_eq!(f.max_value(), 3.96875);
/// # Ok::<(), fixpt::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Format {
    width: u32,
    int_bits: i32,
    signedness: Signedness,
}

impl Format {
    /// Creates a new format with `width` total bits and `int_bits` integer
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::ZeroWidth`] if `width == 0` and
    /// [`FormatError::WidthTooLarge`] if `width > MAX_WIDTH`.
    pub fn new(width: u32, int_bits: i32, signedness: Signedness) -> Result<Self, FormatError> {
        if width == 0 {
            return Err(FormatError::ZeroWidth);
        }
        if width > MAX_WIDTH {
            return Err(FormatError::WidthTooLarge { width });
        }
        Ok(Format {
            width,
            int_bits,
            signedness,
        })
    }

    /// Signed format, panicking on invalid widths. Intended for constants.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn signed(width: u32, int_bits: i32) -> Self {
        Format::new(width, int_bits, Signedness::Signed).expect("invalid signed format")
    }

    /// Unsigned format, panicking on invalid widths. Intended for constants.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn unsigned(width: u32, int_bits: i32) -> Self {
        Format::new(width, int_bits, Signedness::Unsigned).expect("invalid unsigned format")
    }

    /// Pure-integer format: `width` bits, binary point at the LSB.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn integer(width: u32, signedness: Signedness) -> Self {
        Format::new(width, width as i32, signedness).expect("invalid integer format")
    }

    /// Total number of bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of integer bits (bits left of the binary point).
    pub fn int_bits(&self) -> i32 {
        self.int_bits
    }

    /// Number of fractional bits: `width - int_bits`. Negative when the LSB
    /// weight is above one.
    pub fn frac_bits(&self) -> i32 {
        self.width as i32 - self.int_bits
    }

    /// Signedness of the format.
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// `true` if the format is signed.
    pub fn is_signed(&self) -> bool {
        self.signedness.is_signed()
    }

    /// Weight of the least significant bit as an `f64`.
    pub fn lsb_weight(&self) -> f64 {
        2f64.powi(-self.frac_bits())
    }

    /// Smallest representable mantissa.
    pub fn min_raw(&self) -> i128 {
        if self.is_signed() {
            -(1i128 << (self.width - 1))
        } else {
            0
        }
    }

    /// Largest representable mantissa.
    pub fn max_raw(&self) -> i128 {
        if self.is_signed() {
            (1i128 << (self.width - 1)) - 1
        } else {
            (1i128 << self.width) - 1
        }
    }

    /// Smallest representable real value.
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.lsb_weight()
    }

    /// Largest representable real value.
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.lsb_weight()
    }

    /// `true` if `raw` is a legal mantissa for this format.
    pub fn contains_raw(&self, raw: i128) -> bool {
        raw >= self.min_raw() && raw <= self.max_raw()
    }

    /// The exact (lossless) format of the sum of values in `self` and `other`
    /// with matching signedness rules: one extra integer bit, fractional bits
    /// covering both operands. When exactly one operand is unsigned it is
    /// first sign-extended (one more integer bit) so its full range fits the
    /// signed result.
    ///
    /// # Panics
    ///
    /// Panics if the exact result format exceeds [`MAX_WIDTH`] bits; see
    /// [`checked_add_format`](Format::checked_add_format).
    pub fn add_format(&self, other: &Format) -> Format {
        self.checked_add_format(other)
            .unwrap_or_else(|| too_wide("sum", self, other))
    }

    /// [`add_format`](Format::add_format), or `None` when the exact sum
    /// format would exceed [`MAX_WIDTH`] bits.
    pub fn checked_add_format(&self, other: &Format) -> Option<Format> {
        let signed = self.is_signed() || other.is_signed();
        let eff = |f: &Format| {
            if signed && !f.is_signed() {
                f.int_bits + 1
            } else {
                f.int_bits
            }
        };
        let int = eff(self).max(eff(other)).checked_add(1)?;
        let frac = self.frac_bits().max(other.frac_bits());
        exact_format(int, frac, signed)
    }

    /// The exact (lossless) format of the difference of values in `self` and
    /// `other`: always signed, with unsigned operands sign-extended.
    ///
    /// # Panics
    ///
    /// Panics if the exact result format exceeds [`MAX_WIDTH`] bits; see
    /// [`checked_sub_format`](Format::checked_sub_format).
    pub fn sub_format(&self, other: &Format) -> Format {
        self.checked_sub_format(other)
            .unwrap_or_else(|| too_wide("difference", self, other))
    }

    /// [`sub_format`](Format::sub_format), or `None` when the exact
    /// difference format would exceed [`MAX_WIDTH`] bits.
    pub fn checked_sub_format(&self, other: &Format) -> Option<Format> {
        let eff = |f: &Format| {
            if f.is_signed() {
                f.int_bits
            } else {
                f.int_bits + 1
            }
        };
        let int = eff(self).max(eff(other)).checked_add(1)?;
        let frac = self.frac_bits().max(other.frac_bits());
        exact_format(int, frac, true)
    }

    /// The exact (lossless) format of the product of values in `self` and
    /// `other`: integer bits and fractional bits both add.
    ///
    /// # Panics
    ///
    /// Panics if the exact result format exceeds [`MAX_WIDTH`] bits; see
    /// [`checked_mul_format`](Format::checked_mul_format).
    pub fn mul_format(&self, other: &Format) -> Format {
        self.checked_mul_format(other)
            .unwrap_or_else(|| too_wide("product", self, other))
    }

    /// [`mul_format`](Format::mul_format), or `None` when the exact
    /// product format would exceed [`MAX_WIDTH`] bits.
    pub fn checked_mul_format(&self, other: &Format) -> Option<Format> {
        let int = self.int_bits.checked_add(other.int_bits)?;
        let frac = self.frac_bits().checked_add(other.frac_bits())?;
        exact_format(int, frac, self.is_signed() || other.is_signed())
    }

    /// The exact format of the negation of values in `self`: signed, one
    /// extra integer bit when the operand was unsigned or at full negative
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if the exact result format exceeds [`MAX_WIDTH`] bits; see
    /// [`checked_neg_format`](Format::checked_neg_format).
    pub fn neg_format(&self) -> Format {
        self.checked_neg_format()
            .unwrap_or_else(|| panic!("exact negation of {self} exceeds the {MAX_WIDTH}-bit limit"))
    }

    /// [`neg_format`](Format::neg_format), or `None` when the exact
    /// negation format would exceed [`MAX_WIDTH`] bits.
    pub fn checked_neg_format(&self) -> Option<Format> {
        exact_format(self.int_bits.checked_add(1)?, self.frac_bits(), true)
    }
}

/// The exact result format with `int` integer and `frac` fractional bits,
/// or `None` when it is wider than [`MAX_WIDTH`].
fn exact_format(int: i32, frac: i32, signed: bool) -> Option<Format> {
    let width = u32::try_from(int.checked_add(frac)?.max(1)).ok()?;
    let signedness = if signed {
        Signedness::Signed
    } else {
        Signedness::Unsigned
    };
    Format::new(width, int, signedness).ok()
}

fn too_wide(what: &str, a: &Format, b: &Format) -> ! {
    panic!("exact {what} of {a} and {b} exceeds the {MAX_WIDTH}-bit limit")
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_signed() { "fixed" } else { "ufixed" };
        write!(f, "{tag}<{},{}>", self.width, self.int_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let f = Format::signed(8, 3);
        assert_eq!(f.width(), 8);
        assert_eq!(f.int_bits(), 3);
        assert_eq!(f.frac_bits(), 5);
        assert!(f.is_signed());
        assert_eq!(f.min_raw(), -128);
        assert_eq!(f.max_raw(), 127);
        assert_eq!(f.lsb_weight(), 1.0 / 32.0);
        assert_eq!(f.min_value(), -4.0);
        assert_eq!(f.max_value(), 127.0 / 32.0);
    }

    #[test]
    fn unsigned_ranges() {
        let f = Format::unsigned(4, 4);
        assert_eq!(f.min_raw(), 0);
        assert_eq!(f.max_raw(), 15);
        assert_eq!(f.min_value(), 0.0);
        assert_eq!(f.max_value(), 15.0);
    }

    #[test]
    fn int_bits_can_exceed_width() {
        // sc_fixed<4,6>: LSB weight 4.
        let f = Format::signed(4, 6);
        assert_eq!(f.frac_bits(), -2);
        assert_eq!(f.lsb_weight(), 4.0);
        assert_eq!(f.max_value(), 7.0 * 4.0);
    }

    #[test]
    fn negative_int_bits() {
        // sc_fixed<4,-2>: all fractional, MSB weight 2^-3.
        let f = Format::signed(4, -2);
        assert_eq!(f.frac_bits(), 6);
        assert_eq!(f.max_value(), 7.0 / 64.0);
    }

    #[test]
    fn rejects_bad_widths() {
        assert_eq!(
            Format::new(0, 0, Signedness::Signed).unwrap_err(),
            FormatError::ZeroWidth
        );
        assert_eq!(
            Format::new(65, 0, Signedness::Signed).unwrap_err(),
            FormatError::WidthTooLarge { width: 65 }
        );
    }

    #[test]
    fn arithmetic_result_formats() {
        let a = Format::signed(10, 0);
        let b = Format::signed(10, 0);
        let m = a.mul_format(&b);
        assert_eq!(m.width(), 20);
        assert_eq!(m.int_bits(), 0);
        let s = a.add_format(&b);
        assert_eq!(s.width(), 11);
        assert_eq!(s.int_bits(), 1);
    }

    #[test]
    fn add_format_mixed_points() {
        let a = Format::signed(8, 3); // 5 frac
        let b = Format::signed(6, 4); // 2 frac
        let s = a.add_format(&b);
        assert_eq!(s.int_bits(), 5);
        assert_eq!(s.frac_bits(), 5);
        assert_eq!(s.width(), 10);
    }

    #[test]
    fn checked_formats_refuse_only_past_the_width_limit() {
        let wide = Format::signed(64, 48);
        let narrow = Format::signed(16, 0);
        assert_eq!(wide.checked_add_format(&narrow), None);
        assert_eq!(wide.checked_sub_format(&narrow), None);
        assert_eq!(wide.checked_mul_format(&narrow), None);
        assert_eq!(wide.checked_neg_format(), None);
        let a = Format::signed(8, 3);
        let b = Format::unsigned(6, 4);
        assert_eq!(a.checked_add_format(&b), Some(a.add_format(&b)));
        assert_eq!(a.checked_sub_format(&b), Some(a.sub_format(&b)));
        assert_eq!(a.checked_mul_format(&b), Some(a.mul_format(&b)));
        assert_eq!(b.checked_neg_format(), Some(b.neg_format()));
        // The widest exact results still fit.
        let half = Format::signed(32, 0);
        assert_eq!(half.checked_mul_format(&half).map(|f| f.width()), Some(64));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-bit limit")]
    fn add_format_panics_past_the_width_limit() {
        Format::signed(64, 48).add_format(&Format::signed(16, 0));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Format::signed(8, 3).to_string(), "fixed<8,3>");
        assert_eq!(Format::unsigned(6, 6).to_string(), "ufixed<6,6>");
    }

    #[test]
    fn contains_raw_bounds() {
        let f = Format::signed(4, 4);
        assert!(f.contains_raw(-8));
        assert!(f.contains_raw(7));
        assert!(!f.contains_raw(8));
        assert!(!f.contains_raw(-9));
    }
}
