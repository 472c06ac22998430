//! Exact-size lists for the recursive-descent parsers.
//!
//! Both frontends keep every AST list as a boxed slice exactly as long
//! as what it holds: the EDA parse memo keeps one AST for every file it
//! has seen, and vectors grown by doubling keep up to half their slots
//! unused. A parser therefore collects each list on a stack it owns, one
//! stack per element type, and moves the list out with one allocation of
//! exactly its length when the list ends. A list nested in another (a
//! block in a block) stacks above it and leaves before the outer one
//! ends. Shrinking a grown vector instead would cost one more
//! reallocation per list.
//!
//! [`scratch_stacks!`](crate::scratch_stacks) declares the stacks;
//! [`Lists`] gives the parser `push`, `list`, `try_list` and `attempt`.
//!
//! # Example
//!
//! ```
//! use aivril_hdl::scratch::Lists;
//!
//! aivril_hdl::scratch_stacks! {
//!     struct Scratch {
//!         words: String,
//!     }
//! }
//!
//! struct Parser {
//!     scratch: Scratch,
//! }
//!
//! impl Lists for Parser {
//!     type Scratch = Scratch;
//!
//!     fn scratch(&mut self) -> &mut Scratch {
//!         &mut self.scratch
//!     }
//! }
//!
//! let mut p = Parser { scratch: Scratch::default() };
//! let words: Box<[String]> = p.list(|p| {
//!     p.push("a".to_string());
//!     p.push("b".to_string());
//! });
//! assert_eq!(&*words, ["a", "b"]);
//! // A failed list keeps nothing.
//! let failed: Option<Box<[String]>> = p.try_list(|p| {
//!     p.push("c".to_string());
//!     None
//! });
//! assert!(failed.is_none());
//! ```

/// The stack of one element type in a parser's scratch space.
pub trait Stack<T> {
    /// The stack.
    fn stack(&mut self) -> &mut Vec<T>;
}

/// Declares a scratch struct with one stack per element type: a
/// `Default` struct with one `Vec` field per `field: Type` line, and
/// [`Stack`](crate::scratch::Stack) for each type. The element types
/// must differ.
#[macro_export]
macro_rules! scratch_stacks {
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($field:ident: $ty:ty,)* }) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $($field: Vec<$ty>,)*
        }

        $(impl $crate::scratch::Stack<$ty> for $name {
            fn stack(&mut self) -> &mut Vec<$ty> {
                &mut self.$field
            }
        })*
    };
}

/// A parser that builds its lists on scratch stacks.
///
/// Every element is pushed inside the closure of a `list`, `try_list`
/// or `attempt` for its type, so a closure that fails leaves no element
/// behind for an enclosing list to pick up.
pub trait Lists: Sized {
    /// The parser's stacks, declared with
    /// [`scratch_stacks!`](crate::scratch_stacks).
    type Scratch;

    /// The parser's stacks.
    fn scratch(&mut self) -> &mut Self::Scratch;

    /// Pushes one element of the list being parsed.
    fn push<T>(&mut self, value: T)
    where
        Self::Scratch: Stack<T>,
    {
        Stack::<T>::stack(self.scratch()).push(value);
    }

    /// Runs `f`, which pushes elements of `T`; if it fails, what it
    /// pushed is dropped and the stack is as it was.
    fn attempt<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<()>) -> Option<()>
    where
        Self::Scratch: Stack<T>,
    {
        let mark = Stack::<T>::stack(self.scratch()).len();
        let done = f(self);
        if done.is_none() {
            Stack::<T>::stack(self.scratch()).truncate(mark);
        }
        done
    }

    /// The list `f` pushes, or `None`, keeping nothing, if `f` fails.
    fn try_list<T>(&mut self, f: impl FnOnce(&mut Self) -> Option<()>) -> Option<Box<[T]>>
    where
        Self::Scratch: Stack<T>,
    {
        let mark = Stack::<T>::stack(self.scratch()).len();
        self.attempt::<T>(f)?;
        Some(Stack::<T>::stack(self.scratch()).drain(mark..).collect())
    }

    /// The list `f` pushes.
    fn list<T>(&mut self, f: impl FnOnce(&mut Self)) -> Box<[T]>
    where
        Self::Scratch: Stack<T>,
    {
        let mark = Stack::<T>::stack(self.scratch()).len();
        f(self);
        Stack::<T>::stack(self.scratch()).drain(mark..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::scratch_stacks! {
        struct Scratch {
            lists: Box<[char]>,
            chars: char,
        }
    }

    /// Parses `(` lists `)` of letters and nested lists; a list that
    /// meets `!` fails.
    struct Parser<'a> {
        input: std::str::Chars<'a>,
        scratch: Scratch,
    }

    impl Lists for Parser<'_> {
        type Scratch = Scratch;

        fn scratch(&mut self) -> &mut Scratch {
            &mut self.scratch
        }
    }

    impl Parser<'_> {
        /// The letters of a list; nested lists go to the `lists` stack.
        fn parse_list(&mut self) -> Option<Box<[char]>> {
            self.try_list(|p| loop {
                match p.input.next()? {
                    ')' => return Some(()),
                    '(' => {
                        // A failed nested list is skipped, as a parser
                        // skips a statement it resynchronises past.
                        if let Some(inner) = p.parse_list() {
                            p.push(inner);
                        }
                    }
                    '!' => return None,
                    c => p.push(c),
                }
            })
        }
    }

    #[test]
    fn nested_lists_come_out_whole_and_failed_ones_leave_nothing() {
        let parser = |input| Parser {
            input,
            scratch: Scratch::default(),
        };
        // The nested lists of the top-level list, and its letters.
        let parse = |p: &mut Parser| {
            let mut letters = Box::default();
            let nested = p.try_list::<Box<[char]>>(|p| {
                letters = p.parse_list()?;
                Some(())
            })?;
            Some((nested, letters))
        };
        let mut p = parser("ab(cd)(e!f)".chars());
        let (nested, letters) = parse(&mut p).expect("the list ends with ')'");
        assert_eq!(&*letters, ['a', 'b', 'f']);
        assert_eq!(nested.len(), 1);
        assert_eq!(&*nested[0], ['c', 'd']);
        assert!(p.scratch.chars.is_empty() && p.scratch.lists.is_empty());
        // Running out of input fails the top-level list after its nested
        // list `(z)` was pushed: nothing is kept on either stack.
        let mut p = parser("xy(z)".chars());
        assert!(parse(&mut p).is_none());
        assert!(p.scratch.chars.is_empty() && p.scratch.lists.is_empty());
    }
}
