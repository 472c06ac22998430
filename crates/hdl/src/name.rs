//! [`Name`]: an immutable identifier string that keeps short names
//! inline.
//!
//! Both frontends put one name into the AST for every identifier and
//! literal an expression mentions, and almost all of them are short
//! (`clk`, `count_q`, `8'hFF`). A `Name` is the size of a `String` and
//! stores up to [`Name::INLINE`] bytes in place, so building, cloning
//! and dropping such a name never touches the heap. Longer names fall
//! back to one boxed `str`.
//!
//! A `Name` behaves as the `str` it holds: it derefs to `&str`, and its
//! `Debug`, `Display`, `Hash`, `Eq` and `Ord` are those of `str`. Since
//! it also implements `Borrow<str>`, maps keyed by `Name` are looked up
//! with a plain `&str`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An immutable string, inline up to [`Name::INLINE`] bytes.
///
/// # Example
///
/// ```
/// use aivril_hdl::Name;
/// use std::collections::HashMap;
///
/// let short = Name::new("count_q");
/// assert!(short.is_inline());
/// assert_eq!(&*short, "count_q");
/// assert_eq!(&*Name::lowercase("CLK_Enable"), "clk_enable");
///
/// let mut nets = HashMap::new();
/// nets.insert(short, 3);
/// assert_eq!(nets.get("count_q"), Some(&3));
/// ```
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` holds the text; the rest is zero.
    Inline {
        len: u8,
        buf: [u8; Name::INLINE],
    },
    Heap(Box<str>),
}

impl Name {
    /// The longest text, in bytes, kept without a heap allocation.
    pub const INLINE: usize = 22;

    /// A name holding `text`.
    #[must_use]
    pub fn new(text: &str) -> Name {
        Name::build(text, false)
    }

    /// A name holding `text` with ASCII letters lowercased (VHDL's
    /// case folding); other characters are kept as they are. Short names
    /// are folded straight into the inline buffer.
    #[must_use]
    pub fn lowercase(text: &str) -> Name {
        Name::build(text, true)
    }

    fn build(text: &str, fold: bool) -> Name {
        if text.len() > Name::INLINE {
            let mut owned = text.to_owned();
            if fold {
                owned.make_ascii_lowercase();
            }
            return Name(Repr::Heap(owned.into_boxed_str()));
        }
        let mut buf = [0u8; Name::INLINE];
        buf[..text.len()].copy_from_slice(text.as_bytes());
        if fold {
            buf.make_ascii_lowercase();
        }
        Name(Repr::Inline {
            len: text.len() as u8,
            buf,
        })
    }

    /// The text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => match std::str::from_utf8(&buf[..usize::from(*len)]) {
                Ok(s) => s,
                Err(_) => unreachable!("a Name holds the bytes of a str"),
            },
            Repr::Heap(s) => s,
        }
    }

    /// `true` when the text is stored inline (no heap allocation).
    #[must_use]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for Name {
    fn from(text: String) -> Name {
        if text.len() > Name::INLINE {
            Name(Repr::Heap(text.into_boxed_str()))
        } else {
            Name::new(&text)
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn same_size_as_a_string() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(
            std::mem::size_of::<Option<Name>>(),
            std::mem::size_of::<Name>()
        );
    }

    #[test]
    fn inline_up_to_22_bytes() {
        let at = "a".repeat(22);
        let over = "a".repeat(23);
        assert!(Name::new(&at).is_inline());
        assert!(!Name::new(&over).is_inline());
        assert_eq!(&*Name::new(&at), at);
        assert_eq!(&*Name::new(&over), over);
        assert!(Name::new("").is_inline());
        // Multi-byte text counts bytes, not characters.
        let wide = "\u{e9}".repeat(11); // 22 bytes
        assert!(Name::new(&wide).is_inline());
        assert_eq!(&*Name::new(&wide), wide);
        let wider = "\u{e9}".repeat(12); // 24 bytes
        assert!(!Name::new(&wider).is_inline());
        assert_eq!(&*Name::new(&wider), wider);
        // `From<String>` keeps a long string's buffer and inlines a short one.
        assert!(Name::from(at.clone()).is_inline());
        assert!(!Name::from(over.clone()).is_inline());
        assert_eq!(&*Name::from(over.clone()), over);
    }

    #[test]
    fn hash_eq_and_ord_agree_with_str() {
        let words = [
            "",
            "a",
            "B",
            "clk",
            "count_q",
            "a_name_of_exactly_22_b",
            "a_name_of_exactly_23_by",
            "a considerably longer name that lives on the heap",
            "\u{e9}t\u{e9}",
        ];
        for x in words {
            let nx = Name::new(x);
            assert_eq!(hash_of(&nx), hash_of(x), "{x:?}");
            assert_eq!(nx, *x);
            assert_eq!(nx.as_str(), x);
            assert_eq!(format!("{nx}"), x);
            assert_eq!(format!("{nx:?}"), format!("{x:?}"));
            for y in words {
                let ny = Name::new(y);
                assert_eq!(nx.cmp(&ny), x.cmp(y), "{x:?} vs {y:?}");
                assert_eq!(nx == ny, x == y, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn maps_keyed_by_name_look_up_by_str() {
        let short = "sum";
        let long = "a_signal_name_well_beyond_the_inline_buffer";
        let mut hashed = HashMap::new();
        hashed.insert(Name::new(short), 1);
        hashed.insert(Name::new(long), 2);
        assert_eq!(hashed.get(short), Some(&1));
        assert_eq!(hashed.get(long), Some(&2));
        assert_eq!(hashed.get("SUM"), None);
        let ordered: BTreeMap<Name, i32> = hashed.into_iter().collect();
        assert_eq!(ordered.get(long), Some(&2));
        let keys: Vec<&str> = ordered.keys().map(|k| &**k).collect();
        assert_eq!(keys, [long, short]);
    }

    #[test]
    fn lowercasing_is_ascii_only() {
        assert_eq!(&*Name::lowercase("Data_OUT_7"), "data_out_7");
        // Non-ASCII letters are left alone, inline and on the heap.
        assert_eq!(&*Name::lowercase("\u{c9}T\u{c9}"), "\u{c9}t\u{c9}");
        let long = format!("{}_MIXED_Case_\u{c9}", "X".repeat(20));
        let folded = Name::lowercase(&long);
        assert!(!folded.is_inline());
        assert_eq!(&*folded, format!("{}_mixed_case_\u{c9}", "x".repeat(20)));
        let ascii_long = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
        assert_eq!(
            &*Name::lowercase(ascii_long),
            ascii_long.to_ascii_lowercase()
        );
        // `new` never folds.
        assert_eq!(&*Name::new("CLK"), "CLK");
    }
}
