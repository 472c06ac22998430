//! HDL source files as the tool suite sees them.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which hardware description language a file is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// Verilog-2001.
    Verilog,
    /// VHDL-93.
    Vhdl,
}

impl Language {
    /// Guesses the language from a file extension (`.v`/`.sv` →
    /// Verilog, `.vhd`/`.vhdl` → VHDL, in any case); defaults to Verilog.
    #[must_use]
    pub fn from_file_name(name: &str) -> Language {
        let has_suffix = |suffix: &str| {
            name.len() >= suffix.len()
                && name.as_bytes()[name.len() - suffix.len()..]
                    .eq_ignore_ascii_case(suffix.as_bytes())
        };
        if has_suffix(".vhd") || has_suffix(".vhdl") {
            Language::Vhdl
        } else {
            Language::Verilog
        }
    }

    /// Conventional file extension.
    #[must_use]
    pub fn extension(self) -> &'static str {
        match self {
            Language::Verilog => "v",
            Language::Vhdl => "vhd",
        }
    }
}

impl fmt::Display for Language {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Language::Verilog => f.write_str("Verilog"),
            Language::Vhdl => f.write_str("VHDL"),
        }
    }
}

/// One named HDL source file handed to the tools.
///
/// The text is shared: cloning a file, or registering it in a tool
/// call's source map, clones the `Arc`, never the text. The file's
/// content digest (the per-file key of the EDA cache and the tool-fault
/// gate, over its name, language and text) is computed on first use and
/// kept with the file, so a file reused across tool calls — a frozen
/// testbench, a golden reference — is hashed once. The memo remembers
/// the name, language and text it was computed from and is ignored once
/// any of them changes.
#[derive(Clone)]
pub struct HdlFile {
    /// File name shown in logs (e.g. `shift_register.v`).
    pub name: String,
    /// Source text.
    pub text: Arc<str>,
    /// Language, normally derived from the extension.
    pub language: Language,
    digest: OnceLock<Digest>,
}

/// A memoised content digest and the fields it was computed from. The
/// text is held by `Arc`, so while the memo lives no other text can
/// take its address: pointer equality means the same text.
#[derive(Debug, Clone)]
struct Digest {
    name: String,
    language: Language,
    text: Arc<str>,
    value: u128,
}

impl Digest {
    fn describes(&self, file: &HdlFile) -> bool {
        Arc::ptr_eq(&self.text, &file.text)
            && self.language == file.language
            && self.name == file.name
    }
}

impl HdlFile {
    /// Creates a file, deriving the language from the name's extension.
    /// An `Arc<str>` text is shared as is; other text types are copied
    /// into one.
    #[must_use]
    pub fn new(name: impl Into<String>, text: impl Into<Arc<str>>) -> HdlFile {
        let name = name.into();
        let language = Language::from_file_name(&name);
        HdlFile {
            name,
            text: text.into(),
            language,
            digest: OnceLock::new(),
        }
    }

    /// Total size in bytes — the workload measure for compile latency.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.text.len()
    }

    /// The file's content digest: `hash(self)` on first use, the memo
    /// after that while the name, language and text are unchanged, and
    /// `hash(self)` again (unmemoised) if one of them has changed.
    pub(crate) fn digest(&self, hash: fn(&HdlFile) -> u128) -> u128 {
        let memo = self.digest.get_or_init(|| Digest {
            name: self.name.clone(),
            language: self.language,
            text: Arc::clone(&self.text),
            value: hash(self),
        });
        if memo.describes(self) {
            memo.value
        } else {
            hash(self)
        }
    }
}

impl PartialEq for HdlFile {
    fn eq(&self, other: &HdlFile) -> bool {
        self.name == other.name && self.language == other.language && self.text == other.text
    }
}

impl Eq for HdlFile {}

impl fmt::Debug for HdlFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HdlFile")
            .field("name", &self.name)
            .field("text", &self.text)
            .field("language", &self.language)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn language_detection() {
        assert_eq!(Language::from_file_name("a.v"), Language::Verilog);
        assert_eq!(Language::from_file_name("a.sv"), Language::Verilog);
        assert_eq!(Language::from_file_name("a.VHD"), Language::Vhdl);
        assert_eq!(Language::from_file_name("a.vhdl"), Language::Vhdl);
        assert_eq!(Language::from_file_name("noext"), Language::Verilog);
        // The suffix is compared in place, in any case; a bare or
        // leading extension still counts, an inner one does not.
        for (name, language) in [
            ("A.VHD", Language::Vhdl),
            ("b.Vhdl", Language::Vhdl),
            ("c.sv", Language::Verilog),
            ("d.v", Language::Verilog),
            ("vhd", Language::Verilog),
            (".vhd", Language::Vhdl),
            ("x.vhd.v", Language::Verilog),
            ("", Language::Verilog),
        ] {
            assert_eq!(Language::from_file_name(name), language, "{name:?}");
        }
    }

    #[test]
    fn file_construction() {
        let f = HdlFile::new("top.vhd", "entity top is end;");
        assert_eq!(f.language, Language::Vhdl);
        assert_eq!(f.byte_len(), 18);
    }

    #[test]
    fn extensions_roundtrip() {
        for lang in [Language::Verilog, Language::Vhdl] {
            let name = format!("x.{}", lang.extension());
            assert_eq!(Language::from_file_name(&name), lang);
        }
    }
}
