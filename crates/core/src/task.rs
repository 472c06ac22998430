//! Task description handed to the pipeline, and the file names its
//! tool calls use.
//!
//! There is one naming rule: a task's DUT is `<module>.v` /
//! `<module>.vhd` and its testbench `tb_<module>.v` / `tb_<module>.vhd`.
//! The pipeline ([`TaskInput::dut_file_name`],
//! [`TaskInput::tb_file_name`]) and the harness's scoring both take their
//! names from [`dut_file_name`] and [`tb_file_name`]. A file's name is
//! part of its EDA cache key, so when a run ends on the reference
//! testbench, scoring it repeats the pipeline's last simulate call, and
//! a shared cache answers it.

/// File extension of the target language: `v` or `vhd`.
fn extension(verilog: bool) -> &'static str {
    if verilog {
        "v"
    } else {
        "vhd"
    }
}

/// Name of `module`'s DUT file: `<module>.v` / `<module>.vhd`.
#[must_use]
pub fn dut_file_name(module: &str, verilog: bool) -> String {
    format!("{module}.{}", extension(verilog))
}

/// Name of `module`'s testbench file: `tb_<module>.v` /
/// `tb_<module>.vhd`.
#[must_use]
pub fn tb_file_name(module: &str, verilog: bool) -> String {
    format!("tb_{module}.{}", extension(verilog))
}

/// One RTL design task, as presented to AIVRIL2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskInput {
    /// Benchmark task name (unique key, e.g. `prob042_count_mod10_w4`).
    pub name: String,
    /// Required module/entity name for the generated design.
    pub module_name: String,
    /// Natural-language specification (the user prompt of Fig. 2 ①).
    pub spec: String,
    /// `true` targets Verilog, `false` targets VHDL.
    pub verilog: bool,
    /// Sample seed (pass@k evaluation draws several samples per task).
    pub seed: u64,
}

impl TaskInput {
    /// DUT file name ([`dut_file_name`]: `<module>.v` / `<module>.vhd`).
    #[must_use]
    pub fn dut_file_name(&self) -> String {
        dut_file_name(&self.module_name, self.verilog)
    }

    /// Testbench file name ([`tb_file_name`]: `tb_<module>.v` /
    /// `tb_<module>.vhd`).
    #[must_use]
    pub fn tb_file_name(&self) -> String {
        tb_file_name(&self.module_name, self.verilog)
    }

    /// File extension for the target language.
    #[must_use]
    pub fn extension(&self) -> &'static str {
        extension(self.verilog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_follow_language() {
        let mut t = TaskInput {
            name: "n".into(),
            module_name: "adder".into(),
            spec: String::new(),
            verilog: true,
            seed: 0,
        };
        assert_eq!(t.dut_file_name(), "adder.v");
        assert_eq!(t.tb_file_name(), "tb_adder.v");
        t.verilog = false;
        assert_eq!(t.dut_file_name(), "adder.vhd");
        assert_eq!(t.tb_file_name(), "tb_adder.vhd");
    }
}
