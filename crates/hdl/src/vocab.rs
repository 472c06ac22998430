//! Token vocabularies written once.
//!
//! Each frontend spells its reserved words and its operators in one
//! [`vocabulary!`](crate::vocabulary) table of `Variant => "spelling"`
//! lines. The table is the enum, the spelling of each variant
//! (`as_str`, `Display`), the lookup from a spelling back to its
//! variant, the list of every variant (`ALL`) and the length of the
//! longest spelling (`MAX_LEN`), so a spelling cannot differ between
//! the lexer's lookup and the parser's messages.
//!
//! # Example
//!
//! ```
//! aivril_hdl::vocabulary! {
//!     /// Reserved words.
//!     pub enum Keyword {
//!         Begin => "begin",
//!         End => "end",
//!     }
//!     /// Looks up a keyword by its exact spelling.
//!     pub fn from_str;
//! }
//!
//! assert_eq!(Keyword::from_str("end"), Some(Keyword::End));
//! assert_eq!(Keyword::from_str("END"), None);
//! assert_eq!(Keyword::Begin.to_string(), "begin");
//! assert_eq!(Keyword::ALL, [Keyword::Begin, Keyword::End]);
//! assert_eq!(Keyword::MAX_LEN, 5);
//! ```

/// Declares a token vocabulary: a `Copy` enum with one variant per
/// `Variant => "spelling"` line, documented with its spelling, and
///
/// * `as_str`, the spelling, and `Display`, which writes it;
/// * the named lookup function, which maps a spelling, byte for byte,
///   back to its variant;
/// * `ALL`, every variant in table order;
/// * `MAX_LEN`, the length in bytes of the longest spelling.
///
/// Two lines with one spelling make the lookup's second arm
/// unreachable, which the compiler reports.
#[macro_export]
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $spelling:literal,)*
        }
        $(#[$lmeta:meta])*
        $lvis:vis fn $lookup:ident;
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name {
            $(
                #[doc = concat!("`", $spelling, "`")]
                $(#[$vmeta])*
                $variant,
            )*
        }

        impl $name {
            /// Every variant, in table order.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// The length in bytes of the longest spelling.
            pub const MAX_LEN: usize = {
                let mut max = 0;
                $(if $spelling.len() > max {
                    max = $spelling.len();
                })*
                max
            };

            /// The spelling.
            #[must_use]
            pub fn as_str(self) -> &'static str {
                match self {
                    $($name::$variant => $spelling,)*
                }
            }

            $(#[$lmeta])*
            #[must_use]
            $lvis fn $lookup(s: &str) -> Option<$name> {
                match s {
                    $($spelling => Some($name::$variant),)*
                    _ => None,
                }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}
