//! Shortest round-trip rendering of an `f64`, byte-identical to
//! `Display` (`format!("{v}")`) and several times faster.
//!
//! The digits come from Ryu (Adams, PLDI 2018): the value's rounding
//! interval is scaled to a decimal power with one 64×128-bit multiply per
//! bound against a 125-bit table of powers of five ([`tables`]), and
//! digits are then dropped while the interval still holds a shorter
//! decimal. Two choices make the bytes match `Display` rather than
//! textbook Ryu:
//!
//! * **Ties round half up.** When the value sits exactly halfway between
//!   the two shortest candidates, `Display` (Grisu with a Dragon4
//!   fallback) takes the upper one; Ryu rounds to even. So the last
//!   dropped digit alone decides: `≥ 5` rounds up.
//! * **Plain notation.** `Display` never writes an exponent: `1e300` is
//!   301 digits and `5e-324` is `0.` followed by 323 digits. Whole values
//!   carry no `.0`, and `-0.0` renders `-0`.

mod tables;

use tables::{POW5, POW5_INV};

/// Explicit mantissa bits of an IEEE-754 double.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an IEEE-754 double.
const BIAS: i32 = 1023;
/// Significant bits kept per table entry (both tables).
const POW5_BITS: i32 = 125;

/// Append finite `v` to `out` exactly as `Display` renders it.
pub(crate) fn push_display(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "callers render non-finite values themselves");
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if mantissa == 0 && exponent == 0 {
        out.push('0');
        return;
    }
    let (digits, exp10) = shortest(mantissa, exponent);
    push_plain(out, digits, exp10);
}

/// The shortest decimal `digits × 10^exp10` inside the rounding interval
/// of the double with these raw fields (not zero, not non-finite);
/// among equally short candidates, the closest, ties going up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The value is m2 · 2^e2 with two spare bits, so the interval
    // bounds (mv ± half an ulp) are integers too.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even mantissa wins round-to-even ties on parse, so the
    // interval includes its bounds.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower gap is half as wide at a power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = mv - 1 - mm_shift;
    let mp = mv + 2;

    // Scale the interval by 10^-e10 (one digit more than the shortest
    // answer can need, so at least one digit is always dropped and the
    // dropped digit can round).
    let mut vm_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = (-e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1) as u32;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        // Small q: a bound may be exactly representable at this scale
        // (at most one of mm, mv, mp is a multiple of 5).
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= u64::from(pow5_factor(mp) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = (q as i32 - (pow5_bits(i) - POW5_BITS)) as u32;
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal. Only
    // the last dropped digit of vr decides the rounding (ties half up).
    let mut removed = 0;
    let mut round_up = false;
    if !vm_trailing_zeros && vp / 100 > vm / 100 {
        // Two at a time first: the common case drops about two digits.
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm % 10 == 0;
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_trailing_zeros {
        // The lower bound itself is in the interval and ends in zeros:
        // it can be shorter still.
        while vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Take vr + 1 when vr is outside the interval or the dropped digits
    // round up.
    let digits = vr + u64::from((vr == vm && !vm_trailing_zeros) || round_up);
    (digits, e10 + removed)
}

/// `digits × 10^exp10` in `Display`'s plain notation.
fn push_plain(out: &mut String, digits: u64, exp10: i32) {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, digits);
    let text = std::str::from_utf8(&buf[start..]).expect("ASCII digits");
    let point = text.len() as i32 + exp10;
    if exp10 >= 0 {
        out.push_str(text);
        push_zeros(out, exp10 as usize);
    } else if point > 0 {
        let (int, frac) = text.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str("0.");
        push_zeros(out, (-point) as usize);
        out.push_str(text);
    }
}

fn push_zeros(out: &mut String, n: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    let mut left = n;
    while left > 0 {
        let take = left.min(ZEROS.len());
        out.push_str(&ZEROS[..take]);
        left -= take;
    }
}

/// Write the decimal digits of `v` at the end of `buf`; returns where
/// they start.
fn write_digits(buf: &mut [u8; 20], mut v: u64) -> usize {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                2021222324252627282930313233343536373839\
                                4041424344454647484950515253545556575859\
                                6061626364656667686970717273747576777879\
                                8081828384858687888990919293949596979899";
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[v as usize * 2..v as usize * 2 + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// `floor(m · mul / 2^j)` for a 56-bit `m` and a table entry.
#[inline]
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(mul as u64) * u128::from(m);
    let high = (mul >> 64) * u128::from(m);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732923) >> 20
}

/// Bit length of `5^e` (1 for `e = 0`), for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1217359) >> 19) as i32 + 1
}

/// How many times 5 divides `v` (`v > 0`).
fn pow5_factor(mut v: u64) -> u32 {
    let mut n = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: f64) -> String {
        let mut s = String::new();
        push_display(&mut s, v);
        s
    }

    /// A little-endian bignum: just the operations the table
    /// definitions need.
    #[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Big(Vec<u64>);

    impl Big {
        fn one() -> Big {
            Big(vec![1])
        }

        fn mul_small(&mut self, m: u64) {
            let mut carry = 0u128;
            for limb in &mut self.0 {
                let t = u128::from(*limb) * u128::from(m) + carry;
                *limb = t as u64;
                carry = t >> 64;
            }
            if carry > 0 {
                self.0.push(carry as u64);
            }
        }

        fn bit_len(&self) -> u32 {
            let top = self.0.len() - 1;
            64 * top as u32 + (64 - self.0[top].leading_zeros())
        }

        fn bit(&self, i: u32) -> bool {
            self.0
                .get((i / 64) as usize)
                .is_some_and(|limb| limb >> (i % 64) & 1 == 1)
        }

        /// `self · 2 + bit`.
        fn double_plus(&mut self, bit: bool) {
            let mut carry = u64::from(bit);
            for limb in &mut self.0 {
                let next = *limb >> 63;
                *limb = *limb << 1 | carry;
                carry = next;
            }
            if carry > 0 {
                self.0.push(carry);
            }
        }

        /// `self - other`, given `self >= other`.
        fn sub(&mut self, other: &Big) {
            let mut borrow = false;
            for (i, limb) in self.0.iter_mut().enumerate() {
                let rhs = other.0.get(i).copied().unwrap_or(0);
                let (d, b1) = limb.overflowing_sub(rhs);
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *limb = d;
                borrow = b1 || b2;
            }
            assert!(!borrow);
            while self.0.len() > 1 && self.0.last() == Some(&0) {
                self.0.pop();
            }
        }

        fn cmp_value(&self, other: &Big) -> std::cmp::Ordering {
            (self.0.len(), self.0.iter().rev().collect::<Vec<_>>())
                .cmp(&(other.0.len(), other.0.iter().rev().collect()))
        }
    }

    fn pow5(i: usize) -> Big {
        let mut p = Big::one();
        for _ in 0..i {
            p.mul_small(5);
        }
        p
    }

    #[test]
    fn power_tables_match_exact_arithmetic() {
        for (i, &entry) in POW5.iter().enumerate() {
            let p = pow5(i);
            let len = p.bit_len();
            // The top 125 bits of 5^i, left-aligned when shorter.
            let want = (0..POW5_BITS as u32).fold(0u128, |acc, t| {
                let bit = t < len && p.bit(len - 1 - t);
                acc << 1 | u128::from(bit)
            });
            assert_eq!(entry, want, "POW5[{i}]");
            assert_eq!(pow5_bits(i as i32), len as i32, "pow5_bits({i})");
        }
        for (i, &entry) in POW5_INV.iter().enumerate() {
            // floor(2^j / 5^i) + 1, j = bitlen(5^i) - 1 + 125, by long
            // division: the quotient fits 127 bits, the remainder stays
            // below 5^i.
            let p = pow5(i);
            let j = p.bit_len() - 1 + POW5_BITS as u32;
            let mut rem = Big(vec![0]);
            let mut quotient = 0u128;
            for k in (0..=j).rev() {
                rem.double_plus(k == j);
                let fits = rem.cmp_value(&p) != std::cmp::Ordering::Less;
                if fits {
                    rem.sub(&p);
                }
                quotient = quotient << 1 | u128::from(fits);
            }
            assert_eq!(entry, quotient + 1, "POW5_INV[{i}]");
        }
    }

    /// splitmix64: a deterministic bit source for the differential.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Render every value both ways; panic on the first difference.
    fn check(values: impl IntoIterator<Item = f64>) -> usize {
        let mut ours = String::new();
        let mut n = 0;
        for v in values.into_iter().filter(|v| v.is_finite()) {
            ours.clear();
            push_display(&mut ours, v);
            let want = format!("{v}");
            assert_eq!(ours, want, "bits {:#018x}", v.to_bits());
            n += 1;
        }
        n
    }

    /// The structured families: ±0, every exponent × edge mantissas,
    /// subnormals, integers around 2^53 and powers of ten, decimal
    /// grids, and the known half-up tie.
    fn structured(bits: &mut Bits) -> Vec<f64> {
        let mut out = vec![0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::EPSILON];
        let mask = (1u64 << MANTISSA_BITS) - 1;
        for exp in 0..0x7ffu64 {
            for m in [0, 1, 2, 3, mask - 1, mask, 1 << 51, bits.next() & mask] {
                for sign in [0, 1u64 << 63] {
                    out.push(f64::from_bits(sign | exp << MANTISSA_BITS | m));
                }
            }
        }
        for _ in 0..20_000 {
            out.push(f64::from_bits(bits.next() & mask));
        }
        for k in 0..2_000u64 {
            out.push(((1u64 << 53) - 1_000 + k) as f64);
            for d in 1..=22 {
                out.push(10f64.powi(d) + k as f64);
            }
        }
        for d in 0..=20 {
            let scale = 10f64.powi(d);
            for k in 0..1_000u64 {
                out.push(k as f64 / scale);
                out.push(k as f64 * scale);
                out.push((bits.next() % 100_000_000) as f64 / scale);
            }
        }
        out.push(f64::from_bits(0x4317_9085_685d_83c9));
        out
    }

    /// `n` values from each random family: raw bit patterns and [0, 1)
    /// uniforms.
    fn random(bits: &mut Bits, n: usize) -> impl Iterator<Item = f64> + '_ {
        (0..n).flat_map(move |_| {
            let raw = bits.next();
            [
                f64::from_bits(raw),
                (raw >> 11) as f64 / (1u64 << 53) as f64,
            ]
        })
    }

    #[test]
    fn half_up_tie_and_plain_notation() {
        let tie = f64::from_bits(0x4317_9085_685d_83c9);
        assert!(render(tie).ends_with("562.3"), "{}", render(tie));
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(1.0), "1");
        assert_eq!(render(0.1), "0.1");
        assert_eq!(render(1e300).len(), 301);
        assert_eq!(render(5e-324), format!("0.{}5", "0".repeat(323)));
        assert_eq!(render(-123.456), "-123.456");
    }

    #[test]
    fn renders_exactly_as_display() {
        let mut bits = Bits(0x5eed);
        let n = check(structured(&mut bits)) + check(random(&mut bits, 450_000));
        assert!(n >= 1_000_000, "only {n} values checked");
    }

    /// ≥10^8 values: `cargo test --release -p hom-obs -- --ignored`.
    #[test]
    #[ignore = "minutes in a debug build; CI runs it in release"]
    fn renders_exactly_as_display_at_scale() {
        let mut bits = Bits(0x0dd_ba11);
        let n = check(random(&mut bits, 50_100_000));
        assert!(n >= 100_000_000, "only {n} values checked");
    }
}
