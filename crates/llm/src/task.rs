//! The simulated model's "knowledge": golden solutions per task.

use crate::mutate::{
    count_occurrences, functional_templates, syntax_templates, Dialect, FaultTemplate,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Golden artefacts for one task in both languages, shared with whoever
/// else holds them (the benchmark suite, the scoring harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskKnowledge {
    /// Golden Verilog DUT.
    pub verilog_dut: Arc<str>,
    /// Golden Verilog testbench.
    pub verilog_tb: Arc<str>,
    /// Golden VHDL DUT.
    pub vhdl_dut: Arc<str>,
    /// Golden VHDL testbench.
    pub vhdl_tb: Arc<str>,
}

impl TaskKnowledge {
    /// DUT for the selected language.
    #[must_use]
    pub fn dut(&self, verilog: bool) -> &str {
        if verilog {
            &self.verilog_dut
        } else {
            &self.vhdl_dut
        }
    }

    /// Testbench for the selected language.
    #[must_use]
    pub fn tb(&self, verilog: bool) -> &str {
        if verilog {
            &self.verilog_tb
        } else {
            &self.vhdl_tb
        }
    }
}

/// Capacity of a [`SiteTable`]: no fault catalogue is longer.
pub(crate) const MAX_TEMPLATES: usize = 32;

/// The templates of one fault catalogue that apply to one golden text,
/// in catalogue order, each with the number of non-overlapping
/// occurrences of its pattern there.
///
/// Held inline, not in a `Vec`: tables fill on a task's first request,
/// in the middle of a run, and small long-lived allocations scattered
/// through the heap there kept the workers' freed pages from being
/// reused (peak RSS of a cache-off grid pass rose by a quarter).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteTable {
    templates: &'static [FaultTemplate],
    len: u8,
    /// `(catalogue index, occurrences)`; the first `len` are filled.
    sites: [(u8, u32); MAX_TEMPLATES],
}

impl SiteTable {
    fn build(golden: &str, templates: &'static [FaultTemplate]) -> SiteTable {
        assert!(
            templates.len() <= MAX_TEMPLATES,
            "fault catalogue longer than a site table"
        );
        let mut table = SiteTable {
            templates,
            len: 0,
            sites: [(0, 0); MAX_TEMPLATES],
        };
        for (i, template) in templates.iter().enumerate() {
            let occurrences = count_occurrences(golden, template.pattern);
            if occurrences > 0 {
                let occurrences = u32::try_from(occurrences).expect("a golden text is under 4 GiB");
                table.sites[usize::from(table.len)] = (i as u8, occurrences);
                table.len += 1;
            }
        }
        table
    }

    /// Number of applicable templates.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// The `i`-th applicable template and its occurrence count.
    pub(crate) fn get(&self, i: usize) -> (&'static FaultTemplate, usize) {
        let (template, occurrences) = self.sites[..self.len()][i];
        (&self.templates[usize::from(template)], occurrences as usize)
    }
}

/// The fault-site tables of one language of a task: the applicable
/// templates of each golden text and fault kind the plans draw from.
/// Testbench plans draw syntax faults only (the reference stimulus is
/// assumed behaviourally exhaustive), so there is no testbench
/// functional table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LangSites {
    pub(crate) dut_syntax: SiteTable,
    pub(crate) dut_functional: SiteTable,
    pub(crate) tb_syntax: SiteTable,
}

impl LangSites {
    fn build(dut: &str, tb: &str, dialect: Dialect) -> LangSites {
        LangSites {
            dut_syntax: SiteTable::build(dut, syntax_templates(dialect)),
            dut_functional: SiteTable::build(dut, functional_templates(dialect)),
            tb_syntax: SiteTable::build(tb, syntax_templates(dialect)),
        }
    }
}

/// Fault-site tables for both languages of one task. A plan's draws
/// depend on the golden text only through these counts, so the library
/// counts each template once per task instead of once per request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultSites {
    verilog: LangSites,
    vhdl: LangSites,
}

impl FaultSites {
    fn build(k: &TaskKnowledge) -> FaultSites {
        FaultSites {
            verilog: LangSites::build(&k.verilog_dut, &k.verilog_tb, Dialect::Verilog),
            vhdl: LangSites::build(&k.vhdl_dut, &k.vhdl_tb, Dialect::Vhdl),
        }
    }

    /// The tables of the selected language.
    pub(crate) fn lang(&self, verilog: bool) -> &LangSites {
        if verilog {
            &self.verilog
        } else {
            &self.vhdl
        }
    }
}

/// One library entry: the golden texts and their fault-site tables.
#[derive(Debug, Clone)]
struct Entry {
    knowledge: TaskKnowledge,
    /// Built on the first request for the task, not with the library:
    /// construction stays as cheap as sharing the golden texts, and a
    /// task never requested is never counted.
    sites: OnceLock<FaultSites>,
}

/// Maps task names to golden solutions. This models what a competent
/// LLM "knows" about each benchmark design; the fault-injection engine
/// then degrades that knowledge at the profile's calibrated rates.
#[derive(Debug, Clone, Default)]
pub struct TaskLibrary {
    tasks: HashMap<String, Entry>,
}

impl TaskLibrary {
    /// Creates an empty library.
    #[must_use]
    pub fn new() -> TaskLibrary {
        TaskLibrary::default()
    }

    /// Registers a task's golden artefacts. `Arc<str>` texts are shared
    /// as they are, not copied; other text types are copied into one.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        verilog_dut: impl Into<Arc<str>>,
        verilog_tb: impl Into<Arc<str>>,
        vhdl_dut: impl Into<Arc<str>>,
        vhdl_tb: impl Into<Arc<str>>,
    ) {
        self.tasks.insert(
            name.into(),
            Entry {
                knowledge: TaskKnowledge {
                    verilog_dut: verilog_dut.into(),
                    verilog_tb: verilog_tb.into(),
                    vhdl_dut: vhdl_dut.into(),
                    vhdl_tb: vhdl_tb.into(),
                },
                sites: OnceLock::new(),
            },
        );
    }

    /// Looks up a task by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&TaskKnowledge> {
        self.tasks.get(name).map(|e| &e.knowledge)
    }

    /// Looks up a task with its fault-site tables, building the tables
    /// on the task's first lookup.
    pub(crate) fn get_with_sites(&self, name: &str) -> Option<(&TaskKnowledge, &FaultSites)> {
        let e = self.tasks.get(name)?;
        let sites = e.sites.get_or_init(|| FaultSites::build(&e.knowledge));
        Some((&e.knowledge, sites))
    }

    /// Number of known tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when no tasks are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut lib = TaskLibrary::new();
        assert!(lib.is_empty());
        lib.add_task("t1", "vdut", "vtb", "hdut", "htb");
        assert_eq!(lib.len(), 1);
        let k = lib.get("t1").expect("present");
        assert_eq!(k.dut(true), "vdut");
        assert_eq!(k.dut(false), "hdut");
        assert_eq!(k.tb(true), "vtb");
        assert_eq!(k.tb(false), "htb");
        assert!(lib.get("t2").is_none());
    }
}
