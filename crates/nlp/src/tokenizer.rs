//! Text tokenization shared by the text-centric applications.
//!
//! Splits a line into word tokens and punctuation tokens. Word tokens are
//! lowercased; this is the exact key normalization the paper's WordCount /
//! InvertedIndex / WordPOSTag jobs perform before emitting word keys, so the
//! tokenizer's cost is part of the measured `map` operation.
//!
//! One scanner holds the word rule, and every entry point runs it:
//!
//! * [`for_each_word`] lends each word as a `&str` and is the hot API: the
//!   map functions of WordCount, InvertedIndex and SynText call it, and it
//!   allocates nothing per word.
//! * [`words`] yields owned `String`s (one allocation per word), and
//!   [`tokenize`] keeps the punctuation too, for sentence splitting.
//!
//! A line that is all ASCII (the common case) is scanned as bytes: a word
//! is a run of `is_ascii_alphanumeric` bytes, a word with no uppercase byte
//! is lent as a slice of the line, and only a word with an uppercase byte
//! is lowercased, into one buffer reused for the rest of the line. A line
//! holding any non-ASCII byte takes the char path instead, which decodes
//! every char and lowercases it through the Unicode tables. On ASCII input
//! the two paths give the same words.

/// A single token: either a lowercased word or one punctuation character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// A word, lowercased.
    Word(String),
    /// A punctuation character.
    Punct(char),
}

impl Token {
    /// The token text as a `&str` slice for words; punctuation renders via
    /// [`Token::push_str_to`].
    pub fn as_word(&self) -> Option<&str> {
        match self {
            Token::Word(w) => Some(w),
            Token::Punct(_) => None,
        }
    }

    /// Append the token's surface text to `out`.
    pub fn push_str_to(&self, out: &mut String) {
        match self {
            Token::Word(w) => out.push_str(w),
            Token::Punct(c) => out.push(*c),
        }
    }
}

/// Tokenize a line into words and punctuation.
///
/// Words are maximal runs of alphanumeric characters (plus internal
/// apostrophes/hyphens), lowercased. Sentence punctuation becomes
/// [`Token::Punct`]; all other characters are separators.
pub fn tokenize(line: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut scanner = Scanner::new(line);
    while let Some(piece) = scanner.next_piece() {
        out.push(match piece {
            Piece::Punct(c) => Token::Punct(c),
            word => Token::Word(scanner.text(word).to_owned()),
        });
    }
    out
}

/// Iterate just the lowercased words of a line, skipping punctuation, as
/// owned strings. [`for_each_word`] gives the same words without
/// allocating.
pub fn words(line: &str) -> impl Iterator<Item = String> + '_ {
    let mut scanner = Scanner::new(line);
    std::iter::from_fn(move || scanner.next_word().map(str::to_owned))
}

/// Call `f` with each lowercased word of `line`, in order, skipping
/// punctuation: the words [`words`] yields, lent instead of allocated.
pub fn for_each_word(line: &str, mut f: impl FnMut(&str)) {
    let mut scanner = Scanner::new(line);
    while let Some(word) = scanner.next_word() {
        f(word);
    }
}

/// Sentence punctuation, kept as [`Token::Punct`] by [`tokenize`].
fn is_punct(c: char) -> bool {
    matches!(c, '.' | ',' | ';' | ':' | '!' | '?')
}

/// An apostrophe or hyphen stays inside a word when it follows a word
/// char and a word char follows it ("don't", "well-known").
fn is_joiner(c: char) -> bool {
    c == '\'' || c == '-'
}

/// One scanned piece of a line. A word is a place, not a borrow, so the
/// scanner can go on to the next piece before the caller reads it.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// A word that is `line[start..end]` as it stands.
    Slice(usize, usize),
    /// A word lowercased into the scanner's buffer.
    Lowered,
    /// A punctuation character.
    Punct(char),
}

/// The word rule, run over one line from left to right.
struct Scanner<'a> {
    line: &'a str,
    /// Byte offset of the next char to scan.
    pos: usize,
    /// Whether the line is all ASCII: the byte path, else the char path.
    ascii: bool,
    /// The last [`Piece::Lowered`] word.
    buf: String,
}

impl<'a> Scanner<'a> {
    fn new(line: &'a str) -> Self {
        Scanner {
            line,
            pos: 0,
            ascii: line.is_ascii(),
            buf: String::new(),
        }
    }

    /// The text of a word piece the scanner returned last.
    #[inline]
    fn text(&self, piece: Piece) -> &str {
        match piece {
            Piece::Slice(start, end) => &self.line[start..end],
            Piece::Lowered => &self.buf,
            Piece::Punct(_) => "",
        }
    }

    /// The next word, skipping punctuation.
    #[inline]
    fn next_word(&mut self) -> Option<&str> {
        loop {
            let piece = self.next_piece()?;
            if !matches!(piece, Piece::Punct(_)) {
                return Some(self.text(piece));
            }
        }
    }

    /// The next word or punctuation character.
    #[inline]
    fn next_piece(&mut self) -> Option<Piece> {
        if self.ascii {
            self.next_ascii()
        } else {
            self.next_char_path()
        }
    }

    /// The byte path: every byte is a char, so a word is a run of
    /// alphanumeric bytes with internal joiners, and lowercasing is per
    /// byte.
    fn next_ascii(&mut self) -> Option<Piece> {
        let bytes = self.line.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && !bytes[i].is_ascii_alphanumeric() {
            let c = char::from(bytes[i]);
            i += 1;
            if is_punct(c) {
                self.pos = i;
                return Some(Piece::Punct(c));
            }
        }
        if i == bytes.len() {
            self.pos = i;
            return None;
        }
        let start = i;
        let mut upper = false;
        loop {
            while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                upper |= bytes[i].is_ascii_uppercase();
                i += 1;
            }
            let joined = i + 1 < bytes.len()
                && is_joiner(char::from(bytes[i]))
                && bytes[i + 1].is_ascii_alphanumeric();
            if !joined {
                break;
            }
            i += 1;
        }
        self.pos = i;
        if !upper {
            return Some(Piece::Slice(start, i));
        }
        self.buf.clear();
        self.buf.push_str(&self.line[start..i]);
        self.buf.make_ascii_lowercase();
        Some(Piece::Lowered)
    }

    /// The char path: decode each char and lowercase it through the
    /// Unicode tables (one char may lowercase to several).
    fn next_char_path(&mut self) -> Option<Piece> {
        self.buf.clear();
        let rest = &self.line[self.pos..];
        let mut chars = rest.char_indices().peekable();
        while let Some((off, c)) = chars.next() {
            if c.is_alphanumeric() {
                self.buf.extend(c.to_lowercase());
            } else if is_joiner(c)
                && !self.buf.is_empty()
                && chars.peek().is_some_and(|&(_, n)| n.is_alphanumeric())
            {
                self.buf.push(c);
            } else if !self.buf.is_empty() {
                // The word ends before `c`, which the next call scans
                // again as a separator.
                self.pos += off;
                return Some(Piece::Lowered);
            } else if is_punct(c) {
                self.pos += off + c.len_utf8();
                return Some(Piece::Punct(c));
            }
        }
        self.pos = self.line.len();
        (!self.buf.is_empty()).then_some(Piece::Lowered)
    }
}

/// Split tokens into sentences at terminal punctuation (`.`, `!`, `?`).
/// Each returned slice holds the word tokens of one sentence (punctuation
/// included), which is the unit the HMM tagger decodes over.
pub fn sentences(tokens: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in tokens.iter().enumerate() {
        if matches!(t, Token::Punct('.') | Token::Punct('!') | Token::Punct('?')) {
            out.push(&tokens[start..=i]);
            start = i + 1;
        }
    }
    if start < tokens.len() {
        out.push(&tokens[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        let toks = tokenize("The cat, sat.");
        assert_eq!(
            toks,
            vec![
                Token::Word("the".into()),
                Token::Word("cat".into()),
                Token::Punct(','),
                Token::Word("sat".into()),
                Token::Punct('.'),
            ]
        );
    }

    #[test]
    fn internal_apostrophes_kept() {
        let toks = tokenize("don't stop");
        assert_eq!(toks[0], Token::Word("don't".into()));
    }

    #[test]
    fn trailing_apostrophe_dropped() {
        let toks = tokenize("cats' tails");
        assert_eq!(toks[0], Token::Word("cats".into()));
    }

    #[test]
    fn words_iterator_matches_tokenizer_words() {
        let line = "Alpha, beta gamma. Delta!";
        let via_tokens: Vec<String> = tokenize(line)
            .into_iter()
            .filter_map(|t| t.as_word().map(str::to_string))
            .collect();
        let via_words: Vec<String> = words(line).collect();
        assert_eq!(via_tokens, via_words);
    }

    #[test]
    fn sentences_split_at_terminals() {
        let toks = tokenize("One two. Three four! Five");
        let sents = sentences(&toks);
        assert_eq!(sents.len(), 3);
        assert_eq!(sents[0].len(), 3); // one two .
        assert_eq!(sents[2].len(), 1); // five
    }

    #[test]
    fn empty_and_punct_only_lines() {
        assert!(tokenize("").is_empty());
        let toks = tokenize("...");
        assert_eq!(toks.len(), 3);
        assert!(sentences(&toks).len() == 3);
        assert_eq!(words("!!!").count(), 0);
    }

    fn collect(line: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_word(line, |w| out.push(w.to_string()));
        out
    }

    /// The words of `line` through the char path, even when it is ASCII.
    fn char_path_words(line: &str) -> Vec<String> {
        let mut scanner = Scanner::new(line);
        scanner.ascii = false;
        let mut out = Vec::new();
        while let Some(w) = scanner.next_word() {
            out.push(w.to_string());
        }
        out
    }

    #[test]
    fn the_word_rule_at_its_edges() {
        let cases: [(&str, &[&str]); 7] = [
            ("don't", &["don't"]),
            ("a-", &["a"]),
            ("-a", &["a"]),
            ("''a''b", &["a", "b"]),
            ("rock-'n'-roll", &["rock", "n", "roll"]),
            ("well-known X-Ray's 4-2", &["well-known", "x-ray's", "4-2"]),
            ("", &[]),
        ];
        for (line, want) in cases {
            assert_eq!(collect(line), want, "{line:?}");
            assert_eq!(words(line).collect::<Vec<_>>(), want, "{line:?}");
            assert_eq!(char_path_words(line), want, "{line:?}");
        }
    }

    #[test]
    fn only_words_with_an_uppercase_byte_are_copied() {
        let mut scanner = Scanner::new("The cat's HAT.");
        let mut pieces = Vec::new();
        while let Some(p) = scanner.next_piece() {
            pieces.push((format!("{p:?}"), scanner.text(p).to_string()));
        }
        let got: Vec<(&str, &str)> = pieces
            .iter()
            .map(|(p, t)| (p.as_str(), t.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                ("Lowered", "the"),
                ("Slice(4, 9)", "cat's"),
                ("Lowered", "hat"),
                ("Punct('.')", ""),
            ]
        );
    }

    #[test]
    fn a_line_with_one_non_ascii_char_takes_the_char_path() {
        let line = "Hello, Wörld-Cup don't STOP.";
        assert!(!Scanner::new(line).ascii);
        assert_eq!(collect(line), ["hello", "wörld-cup", "don't", "stop"]);
        assert_eq!(
            tokenize(line),
            vec![
                Token::Word("hello".into()),
                Token::Punct(','),
                Token::Word("wörld-cup".into()),
                Token::Word("don't".into()),
                Token::Word("stop".into()),
                Token::Punct('.'),
            ]
        );
        let ascii = "Hello, World-Cup don't STOP.";
        assert!(Scanner::new(ascii).ascii);
        assert_eq!(collect(ascii), char_path_words(ascii));
    }

    #[test]
    fn unicode_words_lowercased() {
        let toks = tokenize("Äpfel Über");
        assert_eq!(toks[0], Token::Word("äpfel".into()));
        assert_eq!(toks[1], Token::Word("über".into()));
    }
}
