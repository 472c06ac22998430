//! Magnitude comparators (10 problems).

use crate::builders::{push_comb, CombSpec};
use crate::port::{vhdl_lit, vlog_lit, Port};
use crate::{Difficulty, Family, Problem};

fn eq(width: u32) -> CombSpec {
    CombSpec {
        name: format!("cmp_eq_w{width}"),
        family: Family::Comparator,
        difficulty: Difficulty::Easy,
        description: format!("y is 1 exactly when the two {width}-bit inputs are equal."),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: "  assign y = (a == b);\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  y <= '1' when a = b else '0';\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[u64::from(v[0] == v[1])])),
    }
}

fn lt(width: u32) -> CombSpec {
    CombSpec {
        name: format!("cmp_lt_w{width}"),
        family: Family::Comparator,
        difficulty: Difficulty::Easy,
        description: format!(
            "y is 1 when the unsigned {width}-bit input a is strictly less than b."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: "  assign y = (a < b);\n".into(),
        vlog_out_reg: false,
        vhdl_body: "  y <= '1' when unsigned(a) < unsigned(b) else '0';\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[u64::from(v[0] < v[1])])),
    }
}

fn full(width: u32) -> CombSpec {
    CombSpec {
        name: format!("cmp_full_w{width}"),
        family: Family::Comparator,
        difficulty: Difficulty::Medium,
        description: format!(
            "A full {width}-bit unsigned comparator: eq = (a == b), lt = (a < b), gt = (a > b); exactly one output is 1."
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("eq", 1), Port::new("lt", 1), Port::new("gt", 1)],
        vlog_body: "  assign eq = (a == b);\n  assign lt = (a < b);\n  assign gt = (a > b);\n"
            .into(),
        vlog_out_reg: false,
        vhdl_body: "  eq <= '1' when a = b else '0';\n  lt <= '1' when unsigned(a) < unsigned(b) else '0';\n  gt <= '1' when unsigned(a) > unsigned(b) else '0';\n".into(),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| {
            out.copy_from_slice(&[
                u64::from(v[0] == v[1]),
                u64::from(v[0] < v[1]),
                u64::from(v[0] > v[1]),
            ])
        }),
    }
}

fn minmax(width: u32, is_max: bool) -> CombSpec {
    let name = if is_max { "max" } else { "min" };
    let (vop, hop) = if is_max { (">", ">") } else { ("<", "<") };
    CombSpec {
        name: format!("{name}_w{width}"),
        family: Family::Comparator,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is the {} of the two unsigned {width}-bit inputs a and b.",
            if is_max { "maximum" } else { "minimum" }
        ),
        inputs: vec![Port::new("a", width), Port::new("b", width)],
        outputs: vec![Port::new("y", width)],
        vlog_body: format!("  assign y = (a {vop} b) ? a : b;\n"),
        vlog_out_reg: false,
        vhdl_body: format!("  y <= a when unsigned(a) {hop} unsigned(b) else b;\n"),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| {
            out.copy_from_slice(&[if is_max {
                v[0].max(v[1])
            } else {
                v[0].min(v[1])
            }])
        }),
    }
}

fn is_zero(width: u32) -> CombSpec {
    CombSpec {
        name: format!("is_zero_w{width}"),
        family: Family::Comparator,
        difficulty: Difficulty::Easy,
        description: format!("y is 1 exactly when the {width}-bit input a is all zeros."),
        inputs: vec![Port::new("a", width)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: "  assign y = ~|a;\n".into(),
        vlog_out_reg: false,
        vhdl_body: format!("  y <= '1' when a = {} else '0';\n", vhdl_lit(width, 0)),
        vhdl_decls: String::new(),
        eval: Box::new(|v, out| out.copy_from_slice(&[u64::from(v[0] == 0)])),
    }
}

fn in_range(width: u32, lo: u64, hi: u64) -> CombSpec {
    CombSpec {
        name: format!("in_range_w{width}"),
        family: Family::Comparator,
        difficulty: Difficulty::Medium,
        description: format!(
            "y is 1 when the unsigned {width}-bit input a satisfies {lo} <= a <= {hi}."
        ),
        inputs: vec![Port::new("a", width)],
        outputs: vec![Port::new("y", 1)],
        vlog_body: format!(
            "  assign y = (a >= {}) && (a <= {});\n",
            vlog_lit(width, lo),
            vlog_lit(width, hi)
        ),
        vlog_out_reg: false,
        vhdl_body: format!(
            "  y <= '1' when (unsigned(a) >= {lo}) and (unsigned(a) <= {hi}) else '0';\n"
        ),
        vhdl_decls: String::new(),
        eval: Box::new(move |v, out| out.copy_from_slice(&[u64::from(v[0] >= lo && v[0] <= hi)])),
    }
}

/// Appends the family's problems.
pub fn extend(problems: &mut Vec<Problem>) {
    for w in [4, 8] {
        push_comb(problems, eq(w));
    }
    for w in [4, 8] {
        push_comb(problems, lt(w));
    }
    for w in [4, 8] {
        push_comb(problems, full(w));
    }
    push_comb(problems, minmax(4, true));
    push_comb(problems, minmax(4, false));
    push_comb(problems, is_zero(8));
    push_comb(problems, in_range(4, 3, 12));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributes_10_problems() {
        let mut v = Vec::new();
        extend(&mut v);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn full_comparator_one_hot() {
        let s = full(4);
        assert_eq!(s.golden(&[3, 3]), vec![1, 0, 0]);
        assert_eq!(s.golden(&[2, 9]), vec![0, 1, 0]);
        assert_eq!(s.golden(&[9, 2]), vec![0, 0, 1]);
    }

    #[test]
    fn in_range_golden() {
        let s = in_range(4, 3, 12);
        assert_eq!(s.golden(&[2]), vec![0]);
        assert_eq!(s.golden(&[3]), vec![1]);
        assert_eq!(s.golden(&[12]), vec![1]);
        assert_eq!(s.golden(&[13]), vec![0]);
    }
}
