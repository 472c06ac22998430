//! Verilog integer-literal parsing (`8'hFF`, `4'b10xz`, `42`).

use aivril_hdl::diag::{codes, Diagnostic, Diagnostics};
use aivril_hdl::logic::Logic;
use aivril_hdl::source::Span;
use aivril_hdl::vec::LogicVec;

/// Parses a literal's text into a [`LogicVec`], reporting malformed
/// literals to `diags` and substituting zero so elaboration can continue.
pub fn parse_literal(text: &str, span: Span, diags: &mut Diagnostics) -> LogicVec {
    match try_parse_literal(text) {
        Some(v) => v,
        None => {
            diags.push(Diagnostic::error(
                codes::VLOG_SYNTAX,
                format!("malformed number literal '{text}'"),
                span,
            ));
            LogicVec::zeros(32)
        }
    }
}

/// Pure parsing helper; `None` when the text is not a valid literal.
///
/// Underscores are ignored anywhere. A plain decimal is 32 bits and must
/// fit in 64; a based literal (`[size]'[s]<base><digits>`, size 1-4096,
/// 32 when omitted) is decoded straight into its value and unknown
/// planes, so a literal of 64 bits or fewer costs no heap allocation.
/// Based digits follow IEEE 1364-2005 §3.5.1: `x` and `z`/`?` digits,
/// left truncation and X/Z/0 extension for `b`/`o`/`h`; for `d`, any
/// number of decimal digits (kept modulo 2^size) or a single `x`, `z`
/// or `?`.
#[must_use]
pub fn try_parse_literal(text: &str) -> Option<LogicVec> {
    let Some(tick) = text.find('\'') else {
        return Some(LogicVec::from_u64(32, small_decimal(text)?));
    };
    let size = if digits(&text[..tick]).next().is_none() {
        32
    } else {
        u32::try_from(small_decimal(&text[..tick])?).ok()?
    };
    if size == 0 || size > 4096 {
        return None;
    }
    let mut rest = digits(&text[tick + 1..]);
    let mut base = rest.next()?;
    if base == b's' || base == b'S' {
        base = rest.next()?;
    }
    let bits_per = match base.to_ascii_lowercase() {
        b'b' => 1,
        b'o' => 3,
        b'h' => 4,
        b'd' => {
            // x/z digits are only legal alone in a decimal literal.
            let mut alone = rest.clone();
            return match (alone.next()?, alone.next()) {
                (b'x' | b'X', None) => Some(LogicVec::xes(size)),
                (b'z' | b'Z' | b'?', None) => Some(LogicVec::filled(size, Logic::Z)),
                _ => LogicVec::from_decimal_digits(rest, size),
            };
        }
        _ => return None,
    };
    LogicVec::from_radix_digits(rest, bits_per, size)
}

/// The bytes of `s` without its underscores.
fn digits(s: &str) -> impl DoubleEndedIterator<Item = u8> + Clone + '_ {
    s.bytes().filter(|&b| b != b'_')
}

/// The value of a decimal digit string (underscores skipped); `None`
/// when it is empty, holds a non-digit or overflows `u64`.
fn small_decimal(s: &str) -> Option<u64> {
    let mut value = None;
    for d in digits(s) {
        let d = u64::from(char::from(d).to_digit(10)?);
        value = Some(value.unwrap_or(0u64).checked_mul(10)?.checked_add(d)?);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-bit decoder the planes decoder replaced, kept as the
    /// oracle of the property tests below.
    fn oracle(text: &str) -> Option<LogicVec> {
        let text = text.replace('_', "");
        match text.find('\'') {
            None => {
                let v: u64 = text.parse().ok()?;
                Some(LogicVec::from_u64(32, v))
            }
            Some(tick) => {
                let size: u32 = if tick == 0 {
                    32
                } else {
                    text[..tick].parse().ok()?
                };
                if size == 0 || size > 4096 {
                    return None;
                }
                let mut rest = text[tick + 1..].chars().peekable();
                let mut base_c = rest.next()?;
                if base_c == 's' || base_c == 'S' {
                    base_c = rest.next()?;
                }
                let digits: String = rest.collect();
                if digits.is_empty() {
                    return None;
                }
                let bits_per = match base_c.to_ascii_lowercase() {
                    'b' => 1,
                    'o' => 3,
                    'h' => 4,
                    'd' => 0,
                    _ => return None,
                };
                if bits_per == 0 {
                    if digits.eq_ignore_ascii_case("x") {
                        return Some(LogicVec::xes(size));
                    }
                    if digits.eq_ignore_ascii_case("z") {
                        return Some(LogicVec::filled(size, Logic::Z));
                    }
                    let v: u64 = digits.parse().ok()?;
                    return Some(LogicVec::from_u64(size, v));
                }
                let mut bits: Vec<Logic> = Vec::new();
                for c in digits.chars() {
                    match c.to_ascii_lowercase() {
                        'x' => bits.extend(std::iter::repeat_n(Logic::X, bits_per)),
                        'z' | '?' => bits.extend(std::iter::repeat_n(Logic::Z, bits_per)),
                        d => {
                            let v = d.to_digit(1 << bits_per)?;
                            for i in (0..bits_per).rev() {
                                bits.push(Logic::from_bool(v >> i & 1 == 1));
                            }
                        }
                    }
                }
                let mut value = LogicVec::from_bits_msb_first(&bits);
                if value.width() > size {
                    value = value.slice(size - 1, 0);
                } else if value.width() < size {
                    let pad_bit = match bits.first() {
                        Some(Logic::X) => Logic::X,
                        Some(Logic::Z) => Logic::Z,
                        _ => Logic::Zero,
                    };
                    let pad = LogicVec::filled(size - value.width(), pad_bit);
                    value = pad.concat(&value);
                }
                Some(value)
            }
        }
    }

    /// The literals the oracle wrongly rejects: a based decimal whose
    /// value does not fit in 64 bits, or whose one digit is `?`.
    fn oracle_rejects_wrongly(text: &str) -> bool {
        let text = text.replace('_', "");
        let Some(tick) = text.find('\'') else {
            return false;
        };
        let rest = text[tick + 1..].trim_start_matches(['s', 'S']);
        let Some(digits) = rest.strip_prefix(['d', 'D']) else {
            return false;
        };
        digits == "?"
            || (!digits.is_empty()
                && digits.bytes().all(|b| b.is_ascii_digit())
                && digits.parse::<u64>().is_err())
    }

    /// Base letters with the digits the property test draws for them.
    const BASES: [(char, &str); 9] = [
        ('b', "01xXzZ?_"),
        ('B', "01xz?_2"),
        ('o', "01234567xXzZ?_"),
        ('O', "01234567xz_8"),
        ('d', "0123456789_"),
        ('D', "0123456789xXzZ?_"),
        ('h', "0123456789abcdefABCDEFxXzZ?_"),
        ('H', "0123456789abcdefxz?_g"),
        ('q', "0123456789"),
    ];

    /// `bits` written MSB first as a vector (`0 1 x z`).
    fn bits(s: &str) -> LogicVec {
        LogicVec::parse_binary(s).expect("test vector")
    }

    #[test]
    fn hand_worked_vectors_at_word_edges() {
        let ones = |n: usize| "1".repeat(n);
        let cases: Vec<(&str, String)> = vec![
            // 1 bit: exact, truncated, X, Z via `?`.
            ("1'b1", "1".into()),
            ("1'hF", "1".into()),
            ("1'bx", "x".into()),
            ("1'd?", "z".into()),
            // 63 bits: all ones exactly, and truncated from 64.
            ("63'h7FFF_FFFF_FFFF_FFFF", ones(63)),
            ("63'hFFFF_FFFF_FFFF_FFFF", ones(63)),
            ("63'd9223372036854775807", ones(63)),
            ("63'bz1", format!("{}1", "z".repeat(62))),
            // 64 bits.
            ("64'hFFFF_FFFF_FFFF_FFFF", ones(64)),
            ("64'd18446744073709551615", ones(64)),
            ("64'bx0", format!("{}0", "x".repeat(63))),
            ("64'o1", format!("{}1", "0".repeat(63))),
            // 65 bits: the first two-word width. The octal `2` straddles
            // the word boundary at bit 63.
            ("65'h1_0000_0000_0000_0000", format!("1{}", "0".repeat(64))),
            ("65'd18446744073709551616", format!("1{}", "0".repeat(64))),
            ("65'o2000000000000000000000", format!("1{}", "0".repeat(64))),
            ("65'o7777777777777777777777", ones(65)),
            ("65'hx", "x".repeat(65)),
            ("65'hz5", format!("{}0101", "z".repeat(61))),
            // 128 bits.
            (
                "128'd18446744073709551616",
                format!("{}1{}", "0".repeat(63), "0".repeat(64)),
            ),
            ("128'd340282366920938463463374607431768211455", ones(128)),
            ("128'hx0", format!("{}0000", "x".repeat(124))),
            ("128'b?", "z".repeat(128)),
            // 129 bits: padding, truncation and decimal wrap-around.
            (
                "129'h1_0000_0000_0000_0000_0000_0000_0000_0000",
                format!("1{}", "0".repeat(128)),
            ),
            (
                "129'h3_0000_0000_0000_0000_0000_0000_0000_0000",
                format!("1{}", "0".repeat(128)),
            ),
            ("129'bx1", format!("{}1", "x".repeat(128))),
            ("129'dz", "z".repeat(129)),
            (
                "129'd680564733841876926926749214863536422912",
                "0".repeat(129),
            ),
            (
                "129'd680564733841876926926749214863536422913",
                format!("{}1", "0".repeat(128)),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(try_parse_literal(text), Some(bits(&want)), "{text}");
        }
    }

    #[test]
    fn wide_decimals_and_question_marks_are_literals() {
        // IEEE 1364-2005 §3.5.1: a sized decimal may exceed 64 bits, and
        // `?` stands for `z` in any base.
        let mut two_pow_64 = LogicVec::zeros(128);
        two_pow_64.set(64, Logic::One);
        assert_eq!(
            try_parse_literal("128'd18446744073709551616"),
            Some(two_pow_64)
        );
        assert_eq!(
            try_parse_literal("8'd?"),
            Some(LogicVec::filled(8, Logic::Z))
        );
        assert_eq!(
            try_parse_literal("8'd_?_"),
            Some(LogicVec::filled(8, Logic::Z))
        );
        // A plain (unsized, unbased) decimal keeps its 64-bit limit, and
        // x/z/? digits stay illegal next to other decimal digits.
        assert!(try_parse_literal("18446744073709551616").is_none());
        assert!(try_parse_literal("8'd1?").is_none());
        assert!(try_parse_literal("8'd??").is_none());
    }

    proptest! {
        /// The planes decoder agrees with the per-bit oracle on every
        /// literal the lexer can form, except the forms the oracle
        /// wrongly rejected.
        #[test]
        fn decoder_matches_per_bit_oracle(
            size in "[0-9_]{0,3}",
            signed in "[sS]{0,1}",
            base in 0usize..BASES.len(),
            digits in proptest::collection::vec(0usize..64, 0..40),
            plain in 0u32..4,
        ) {
            // Digits drawn mostly from the base's own alphabet, so most
            // cases are valid literals.
            let (letter, alphabet) = BASES[base];
            let digits: String = digits
                .iter()
                .map(|&i| char::from(alphabet.as_bytes()[i % alphabet.len()]))
                .collect();
            let text = if plain == 0 {
                format!("{size}{digits}")
            } else {
                format!("{size}'{signed}{letter}{digits}")
            };
            let new = try_parse_literal(&text);
            match oracle(&text) {
                Some(old) => prop_assert_eq!(new, Some(old), "{}", text),
                None => prop_assert!(
                    new.is_none() || oracle_rejects_wrongly(&text),
                    "{} now decodes", text
                ),
            }
        }

        /// Long decimal digit strings agree with the oracle wherever it
        /// can represent them, and wrap modulo 2^size beyond.
        #[test]
        fn long_decimals_match_the_oracle(v in 0u64..u64::MAX, w in 1u32..=64, extra in "[0-9]{0,5}") {
            let text = format!("{w}'d{v}{extra}");
            match oracle(&text) {
                Some(old) => prop_assert_eq!(try_parse_literal(&text), Some(old)),
                None => prop_assert!(oracle_rejects_wrongly(&text)),
            }
        }

        /// No text makes the decoder panic.
        #[test]
        fn decoder_total_on_noise(text in "[ -~\u{e9}\u{20ac}]{0,24}") {
            let _ = try_parse_literal(&text);
        }

        /// Nor does literal-shaped noise of any size.
        #[test]
        fn decoder_total_on_literal_noise(text in "[0-9_]{0,5}'[sS?]{0,1}[bodhBODHx]{0,1}[0-9a-fxz?_'\u{e9}]{0,80}") {
            let _ = try_parse_literal(&text);
        }
    }

    #[test]
    fn plain_decimal_is_32_bit() {
        let v = try_parse_literal("42").expect("valid");
        assert_eq!(v.width(), 32);
        assert_eq!(v.to_u64(), Some(42));
    }

    #[test]
    fn sized_hex() {
        let v = try_parse_literal("8'hA5").expect("valid");
        assert_eq!(v.width(), 8);
        assert_eq!(v.to_u64(), Some(0xA5));
    }

    #[test]
    fn binary_with_x_and_z() {
        let v = try_parse_literal("4'b1xz0").expect("valid");
        assert_eq!(v.get(3), Logic::One);
        assert_eq!(v.get(2), Logic::X);
        assert_eq!(v.get(1), Logic::Z);
        assert_eq!(v.get(0), Logic::Zero);
    }

    #[test]
    fn x_extension_pads_left() {
        let v = try_parse_literal("8'bx1").expect("valid");
        assert_eq!(v.get(7), Logic::X);
        assert_eq!(v.get(1), Logic::X);
        assert_eq!(v.get(0), Logic::One);
    }

    #[test]
    fn zero_extension_for_known_digits() {
        let v = try_parse_literal("8'b11").expect("valid");
        assert_eq!(v.to_u64(), Some(3));
    }

    #[test]
    fn truncation_from_left() {
        let v = try_parse_literal("4'hFF").expect("valid");
        assert_eq!(v.to_u64(), Some(0xF));
    }

    #[test]
    fn unsized_based_literal() {
        let v = try_parse_literal("'d9").expect("valid");
        assert_eq!(v.width(), 32);
        assert_eq!(v.to_u64(), Some(9));
    }

    #[test]
    fn underscores_ignored() {
        let v = try_parse_literal("16'b1010_1010_1010_1010").expect("valid");
        assert_eq!(v.to_u64(), Some(0xAAAA));
    }

    #[test]
    fn octal() {
        let v = try_parse_literal("6'o17").expect("valid");
        assert_eq!(v.to_u64(), Some(0o17));
    }

    #[test]
    fn decimal_x() {
        let v = try_parse_literal("8'dx").expect("valid");
        assert!(v.iter().all(|b| b == Logic::X));
    }

    #[test]
    fn malformed_literals_rejected() {
        assert!(try_parse_literal("8'q1").is_none());
        assert!(try_parse_literal("8'h").is_none());
        assert!(try_parse_literal("abc").is_none());
        assert!(try_parse_literal("8'dzz").is_none());
        assert!(try_parse_literal("0'b1").is_none());
    }
}
