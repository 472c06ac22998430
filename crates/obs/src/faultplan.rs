//! The fault-plan grammar shared by `AIVRIL_FAULTS` (the LLM backend
//! plane) and `AIVRIL_EDA_FAULTS` (the EDA tool, disk and checkpoint
//! planes), and the class pick both planes roll with.
//!
//! # Grammar
//!
//! - `off` (any case), `0` or the empty string: no injection;
//! - a single number (`0.05`): that rate for every class;
//! - comma-separated `class=rate` pairs (`timeout=0.1, truncate=0.02`).
//!   Unnamed classes stay at zero and empty pairs are skipped. A
//!   repeated key, an unknown class or a rate outside `[0, 1]` is an
//!   error: last-wins would hide the typo in `timeout=0.1,timeout=0.9`.
//!
//! Each plan supplies its class table, plus the names of any non-rate
//! knobs (`retry_max=2`), whose values it parses itself.

/// Per-class rates, in class-table order, and the raw `(key, value)`
/// knob pairs, in plan order.
pub type Parsed<'a, const N: usize> = ([f64; N], Vec<(&'a str, &'a str)>);

/// Parses `plan` against the class table `classes` and the knob names
/// `knobs`. See the module docs for the grammar.
///
/// # Errors
///
/// A description of the first malformation: a pair without `=`, a
/// repeated key, an unknown class, or a rate that is not a number in
/// `[0, 1]`.
pub fn parse<'a, const N: usize>(
    plan: &'a str,
    classes: &[&str; N],
    knobs: &[&str],
) -> Result<Parsed<'a, N>, String> {
    let plan = plan.trim();
    let mut rates = [0.0; N];
    let mut knob_values = Vec::new();
    if plan.is_empty() || plan.eq_ignore_ascii_case("off") || plan == "0" {
        return Ok((rates, knob_values));
    }
    if let Ok(rate) = plan.parse::<f64>() {
        return Ok(([check_rate("every class", rate)?; N], knob_values));
    }
    let mut seen: Vec<&str> = Vec::new();
    for pair in plan.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("expected class=rate, got {pair:?}"));
        };
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(format!("duplicate fault class {key:?}"));
        }
        seen.push(key);
        if knobs.contains(&key) {
            knob_values.push((key, value));
            continue;
        }
        let Some(slot) = classes.iter().position(|&c| c == key) else {
            return Err(format!("unknown fault class {key:?}"));
        };
        let rate = value
            .parse()
            .map_err(|_| format!("bad rate for {key}: {value:?}"))?;
        rates[slot] = check_rate(key, rate)?;
    }
    Ok((rates, knob_values))
}

fn check_rate(what: &str, rate: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(format!("rate for {what} outside [0, 1]: {rate}"))
    }
}

/// Cumulative-threshold class pick: the first class whose running rate
/// sum exceeds the roll `u` in `[0, 1)`, or `None` when the rates run
/// out first.
pub fn pick<T: Copy>(u: f64, classes: &[(f64, T)]) -> Option<T> {
    let mut acc = 0.0;
    for &(rate, class) in classes {
        acc += rate;
        if u < acc {
            return Some(class);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [&str; 2] = ["a", "b"];

    #[test]
    fn accepts_every_form() {
        for off in ["", " off ", "OFF", "Off", "0"] {
            assert_eq!(
                parse(off, &CLASSES, &[]),
                Ok(([0.0, 0.0], vec![])),
                "{off:?}"
            );
        }
        assert_eq!(parse("0.25", &CLASSES, &[]), Ok(([0.25, 0.25], vec![])));
        assert_eq!(parse("b=0.5", &CLASSES, &[]), Ok(([0.0, 0.5], vec![])));
        assert_eq!(
            parse(" a = 0.1 ,, b=1, ", &CLASSES, &[]),
            Ok(([0.1, 1.0], vec![]))
        );
        assert_eq!(
            parse("n=7,a=0.1", &CLASSES, &["n"]),
            Ok(([0.1, 0.0], vec![("n", "7")]))
        );
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "1.5",
            "-0.1",
            "NaN",
            "inf",
            "a",
            "a=2",
            "a=-1",
            "a=x",
            "a=NaN",
            "c=0.1",
            "a=0.1,a=0.2",
            "n=1,n=2",
            "=0.1",
        ] {
            assert!(parse(bad, &CLASSES, &["n"]).is_err(), "{bad:?}");
        }
        let err = parse("a=0.1,a=0.9", &CLASSES, &[]).unwrap_err();
        assert!(
            err.contains("duplicate fault class") && err.contains("\"a\""),
            "{err}"
        );
    }

    #[test]
    fn pick_walks_cumulative_thresholds() {
        let classes = [(0.25, 'x'), (0.5, 'y')];
        assert_eq!(pick(0.0, &classes), Some('x'));
        assert_eq!(pick(0.25, &classes), Some('y'));
        assert_eq!(pick(0.7499, &classes), Some('y'));
        assert_eq!(pick(0.75, &classes), None);
        assert_eq!(pick(0.0, &[(0.0, 'x')]), None);
    }
}
