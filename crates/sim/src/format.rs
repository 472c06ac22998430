//! `$display`-style format-string rendering.
//!
//! Supports the directives the benchmark testbenches use: `%b` (binary),
//! `%h`/`%x` (hex), `%d` and `%0d` (decimal), `%s` (string argument,
//! rendered from a vector's bytes), `%t` (time), `%c` (character),
//! `%%` (literal percent). Unknown directives render literally, the
//! lenient behaviour real simulators exhibit.

use aivril_hdl::vec::LogicVec;

/// Renders `format` with `args` substituted for directives.
///
/// Surplus directives render as `x`; surplus arguments are appended
/// space-separated in decimal (matching common simulator behaviour
/// closely enough for log-driven agents).
pub(crate) fn render_format(format: &str, args: &[LogicVec]) -> String {
    let mut out = String::new();
    let mut arg_i = 0usize;
    let mut chars = format.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Collect optional width/zero flag like `%0d` or `%4b`.
        let mut spec = String::new();
        while matches!(chars.peek(), Some(d) if d.is_ascii_digit()) {
            spec.push(chars.next().expect("peeked digit"));
        }
        let Some(dir) = chars.next() else {
            out.push('%');
            break;
        };
        match dir {
            '%' => out.push('%'),
            'b' | 'B' => out.push_str(&next_arg(args, &mut arg_i, LogicVec::to_binary_string)),
            'h' | 'H' | 'x' | 'X' => {
                out.push_str(&next_arg(args, &mut arg_i, LogicVec::to_hex_string))
            }
            'd' | 'D' => out.push_str(&next_arg(args, &mut arg_i, LogicVec::to_decimal_string)),
            't' | 'T' => out.push_str(&next_arg(args, &mut arg_i, LogicVec::to_decimal_string)),
            'c' => out.push_str(&next_arg(args, &mut arg_i, |v| {
                v.to_u64()
                    .and_then(|n| char::from_u32(n as u32))
                    .map(String::from)
                    .unwrap_or_else(|| "?".into())
            })),
            's' => out.push_str(&next_arg(args, &mut arg_i, vector_as_string)),
            other => {
                out.push('%');
                out.push_str(&spec);
                out.push(other);
            }
        }
    }
    while arg_i < args.len() {
        out.push(' ');
        out.push_str(&args[arg_i].to_decimal_string());
        arg_i += 1;
    }
    out
}

/// Renders a system task's arguments: through `format` when given,
/// else space-separated in decimal.
pub(crate) fn render_args(format: Option<&str>, args: &[LogicVec]) -> String {
    match format {
        Some(f) => render_format(f, args),
        None => args
            .iter()
            .map(LogicVec::to_decimal_string)
            .collect::<Vec<_>>()
            .join(" "),
    }
}

fn next_arg(args: &[LogicVec], i: &mut usize, f: impl Fn(&LogicVec) -> String) -> String {
    match args.get(*i) {
        Some(v) => {
            *i += 1;
            f(v)
        }
        None => "x".to_string(),
    }
}

/// Interprets a vector's bytes as ASCII, MSB first, skipping NULs — the
/// Verilog string-in-vector convention.
fn vector_as_string(v: &LogicVec) -> String {
    let bytes = v.width().div_ceil(8);
    let mut s = String::new();
    for b in (0..bytes).rev() {
        let lsb = b * 8;
        let msb = (lsb + 7).min(v.width() - 1);
        let byte = v.slice(msb, lsb);
        if let Some(code) = byte.to_u64() {
            if code != 0 {
                if let Some(c) = char::from_u32(code as u32) {
                    s.push(c);
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_basic_directives() {
        let args = vec![LogicVec::from_u64(4, 0b1010), LogicVec::from_u64(8, 0xAB)];
        assert_eq!(render_format("b=%b h=%h", &args), "b=1010 h=ab");
    }

    #[test]
    fn renders_decimal_and_time() {
        let args = vec![LogicVec::from_u64(8, 7), LogicVec::from_u64(64, 120)];
        assert_eq!(render_format("n=%0d t=%t", &args), "n=7 t=120");
    }

    #[test]
    fn literal_percent_and_unknown_directive() {
        assert_eq!(render_format("100%% %q", &[]), "100% %q");
    }

    #[test]
    fn missing_args_render_x() {
        assert_eq!(render_format("%d", &[]), "x");
    }

    #[test]
    fn surplus_args_appended() {
        let args = vec![LogicVec::from_u64(4, 1), LogicVec::from_u64(4, 2)];
        assert_eq!(render_format("v=%d", &args), "v=1 2");
    }

    #[test]
    fn string_argument() {
        // "Hi" = 0x4869 in a 16-bit vector.
        let args = vec![LogicVec::from_u64(16, 0x4869)];
        assert_eq!(render_format("%s", &args), "Hi");
    }

    #[test]
    fn x_values_render_in_decimal() {
        let args = vec![LogicVec::xes(4)];
        assert_eq!(render_format("%d", &args), "x");
    }
}
