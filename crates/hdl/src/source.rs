//! Source files, byte spans and line/column mapping.
//!
//! Both language frontends attach [`Span`]s to tokens, AST nodes and
//! diagnostics so that error messages can point at exact file/line
//! locations — the level of detail the paper's *Review Agent* relies on
//! when turning compiler logs into corrective prompts.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifies a file registered in a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// A byte range inside a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// File containing this span.
    pub file: FileId,
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)` in `file`.
    #[must_use]
    pub fn new(file: FileId, start: u32, end: u32) -> Span {
        Span { file, start, end }
    }

    /// A zero-length span at the start of `file`, used for diagnostics
    /// that have no better anchor.
    #[must_use]
    pub fn file_start(file: FileId) -> Span {
        Span {
            file,
            start: 0,
            end: 0,
        }
    }

    /// Merges two spans in the same file into their covering span.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            file: self.file,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// One registered source file. The text is shared, not owned: a tool
/// call registers the caller's `Arc<str>` without copying it.
#[derive(Debug, Clone)]
pub struct SourceFile {
    name: String,
    text: Arc<str>,
    /// Byte offset of every line start, built on the first line lookup:
    /// only diagnostics read it, and most compiles report none.
    line_starts: OnceLock<Vec<u32>>,
}

impl SourceFile {
    fn new(name: String, text: Arc<str>) -> SourceFile {
        SourceFile {
            name,
            text,
            line_starts: OnceLock::new(),
        }
    }

    fn line_starts(&self) -> &[u32] {
        self.line_starts.get_or_init(|| {
            std::iter::once(0)
                .chain(
                    self.text
                        .bytes()
                        .enumerate()
                        .filter(|&(_, b)| b == b'\n')
                        .map(|(i, _)| i as u32 + 1),
                )
                .collect()
        })
    }

    /// File name as registered (e.g. `shift_register.v`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Full source text.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// 1-based line number containing byte `offset`.
    #[must_use]
    pub fn line_of(&self, offset: u32) -> u32 {
        match self.line_starts().binary_search(&offset) {
            Ok(i) => i as u32 + 1,
            Err(i) => i as u32,
        }
    }

    /// 1-based (line, column) of byte `offset`.
    #[must_use]
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = self.line_of(offset);
        let line_start = self.line_starts()[(line - 1) as usize];
        (line, offset - line_start + 1)
    }

    /// The full text of 1-based line `line`, without its newline.
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line - 1) as usize;
        let line_starts = self.line_starts();
        if idx >= line_starts.len() {
            return "";
        }
        let start = line_starts[idx] as usize;
        let end = line_starts
            .get(idx + 1)
            .map_or(self.text.len(), |&e| e as usize);
        self.text[start..end].trim_end_matches(['\n', '\r'])
    }

    /// Number of lines in the file.
    #[must_use]
    pub fn line_count(&self) -> u32 {
        self.line_starts().len() as u32
    }
}

/// A collection of source files addressed by [`FileId`].
///
/// # Example
///
/// ```
/// use aivril_hdl::source::SourceMap;
///
/// let mut map = SourceMap::new();
/// let id = map.add_file("top.v", "module top;\nendmodule\n");
/// assert_eq!(map.file(id).line_count(), 3);
/// assert_eq!(map.file(id).line_text(2), "endmodule");
/// ```
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    /// Creates an empty source map.
    #[must_use]
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Registers a file and returns its id. An `Arc<str>` text is
    /// shared as is; other text types are copied into one.
    pub fn add_file(&mut self, name: impl Into<String>, text: impl Into<Arc<str>>) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(SourceFile::new(name.into(), text.into()));
        id
    }

    /// Looks up a registered file.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this map.
    #[must_use]
    pub fn file(&self, id: FileId) -> &SourceFile {
        &self.files[id.0 as usize]
    }

    /// Iterates over `(FileId, &SourceFile)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &SourceFile)> {
        self.files
            .iter()
            .enumerate()
            .map(|(i, f)| (FileId(i as u32), f))
    }

    /// Number of registered files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// `true` when no files are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Renders `span` as `file.v:LINE` for log output.
    #[must_use]
    pub fn describe(&self, span: Span) -> String {
        let file = self.file(span.file);
        format!("{}:{}", file.name(), file.line_of(span.start))
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_mapping() {
        let mut map = SourceMap::new();
        let id = map.add_file("a.v", "abc\ndef\nghi");
        let f = map.file(id);
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(4), (2, 1));
        assert_eq!(f.line_col(6), (2, 3));
        assert_eq!(f.line_col(8), (3, 1));
    }

    #[test]
    fn line_text_extraction() {
        let mut map = SourceMap::new();
        let id = map.add_file("a.v", "first\nsecond\r\nthird");
        let f = map.file(id);
        assert_eq!(f.line_text(1), "first");
        assert_eq!(f.line_text(2), "second");
        assert_eq!(f.line_text(3), "third");
        assert_eq!(f.line_text(99), "");
    }

    #[test]
    fn describe_span() {
        let mut map = SourceMap::new();
        let id = map.add_file("adder.v", "module adder;\nendmodule\n");
        let span = Span::new(id, 14, 23);
        assert_eq!(map.describe(span), "adder.v:2");
    }

    #[test]
    fn span_merge() {
        let a = Span::new(FileId(0), 4, 9);
        let b = Span::new(FileId(0), 7, 20);
        let m = a.to(b);
        assert_eq!((m.start, m.end), (4, 20));
    }

    #[test]
    fn empty_map() {
        let map = SourceMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
    }
}
