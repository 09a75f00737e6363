//! Tokenizer for Cephalo source text.

/// A lexical token with its source line (1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: Tok,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// Token kinds. Keywords are distinct variants to keep the parser simple.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals and names.
    Num(f64),
    /// A string literal's bytes: the source's own between the quotes,
    /// escapes resolved. `\xHH` writes any byte, so a literal need not be
    /// UTF-8 even though the source is.
    Str(Vec<u8>),
    Name(String),
    // Keywords.
    And,
    Break,
    Do,
    Else,
    Elseif,
    End,
    False,
    For,
    Function,
    If,
    In,
    Local,
    Nil,
    Not,
    Or,
    Repeat,
    Return,
    Then,
    True,
    Until,
    While,
    // Symbols.
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Caret,
    Hash,
    Eq,
    Ne,
    Le,
    Ge,
    Lt,
    Gt,
    Assign,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Colon,
    Comma,
    Dot,
    Concat,
    /// End of input sentinel.
    Eof,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// 1-based line of the offending character.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

/// Tokenizes `source`, appending a trailing [`Tok::Eof`].
///
/// # Errors
///
/// Returns the first lexical error (bad character, unterminated string,
/// malformed number).
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    };
    lx.run()?;
    Ok(lx.out)
}

impl Lexer<'_> {
    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            line: self.line,
            message: message.into(),
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn push(&mut self, kind: Tok, line: u32) {
        self.out.push(Token { kind, line });
    }

    fn run(&mut self) -> Result<(), LexError> {
        loop {
            self.skip_trivia();
            let line = self.line;
            let c = self.peek();
            if c == 0 {
                self.push(Tok::Eof, line);
                return Ok(());
            }
            match c {
                b'0'..=b'9' => self.number()?,
                b'"' | b'\'' => self.string()?,
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => self.name(),
                _ => self.symbol()?,
            }
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'-' if self.peek2() == b'-' => {
                    // Line comment: `-- ...` to end of line.
                    while self.peek() != 0 && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn number(&mut self) -> Result<(), LexError> {
        let line = self.line;
        let start = self.pos;
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        // Scientific notation: 1e9, 2.5e-3.
        if matches!(self.peek(), b'e' | b'E') {
            let save = self.pos;
            self.bump();
            if matches!(self.peek(), b'+' | b'-') {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        let value: f64 = text
            .parse()
            .map_err(|_| self.err(format!("malformed number `{text}`")))?;
        self.push(Tok::Num(value), line);
        Ok(())
    }

    fn string(&mut self) -> Result<(), LexError> {
        let line = self.line;
        let quote = self.bump();
        let mut s = Vec::new();
        loop {
            match self.peek() {
                0 | b'\n' => return Err(self.err("unterminated string")),
                b'\\' => {
                    self.bump();
                    let esc = self.bump();
                    s.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'\\' | b'"' | b'\'' => esc,
                        b'x' => {
                            let hex = |d: u8| (d as char).to_digit(16).map(|v| v as u8);
                            match (hex(self.peek()), hex(self.peek2())) {
                                (Some(hi), Some(lo)) => {
                                    self.pos += 2;
                                    hi << 4 | lo
                                }
                                _ => return Err(self.err("`\\x` needs two hex digits")),
                            }
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    });
                }
                c if c == quote => {
                    self.bump();
                    self.push(Tok::Str(s), line);
                    return Ok(());
                }
                _ => s.push(self.bump()),
            }
        }
    }

    fn name(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(), b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_') {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        let kind = match text {
            "and" => Tok::And,
            "break" => Tok::Break,
            "do" => Tok::Do,
            "else" => Tok::Else,
            "elseif" => Tok::Elseif,
            "end" => Tok::End,
            "false" => Tok::False,
            "for" => Tok::For,
            "function" => Tok::Function,
            "if" => Tok::If,
            "in" => Tok::In,
            "local" => Tok::Local,
            "nil" => Tok::Nil,
            "not" => Tok::Not,
            "or" => Tok::Or,
            "repeat" => Tok::Repeat,
            "return" => Tok::Return,
            "then" => Tok::Then,
            "true" => Tok::True,
            "until" => Tok::Until,
            "while" => Tok::While,
            _ => Tok::Name(text.to_string()),
        };
        self.push(kind, line);
    }

    fn symbol(&mut self) -> Result<(), LexError> {
        let line = self.line;
        let c = self.bump();
        let kind = match c {
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'%' => Tok::Percent,
            b'^' => Tok::Caret,
            b'#' => Tok::Hash,
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b';' => Tok::Semi,
            b':' => Tok::Colon,
            b',' => Tok::Comma,
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Eq
                } else {
                    Tok::Assign
                }
            }
            b'~' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Ne
                } else {
                    return Err(self.err("unexpected `~` (did you mean `~=`?)"));
                }
            }
            b'<' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                if self.peek() == b'=' {
                    self.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'.' => {
                if self.peek() == b'.' {
                    self.bump();
                    Tok::Concat
                } else {
                    Tok::Dot
                }
            }
            other => return Err(self.err(format!("unexpected character `{}`", other as char))),
        };
        self.push(kind, line);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("1 2.5 0.125 1e3 2.5e-1"),
            vec![
                Tok::Num(1.0),
                Tok::Num(2.5),
                Tok::Num(0.125),
                Tok::Num(1000.0),
                Tok::Num(0.25),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        assert_eq!(
            kinds(r#""a\nb" 'c'"#),
            vec![Tok::Str("a\nb".into()), Tok::Str("c".into()), Tok::Eof]
        );
    }

    /// A literal holds the source's bytes: a two-byte character stays two
    /// bytes (each used to be widened to a `char` of its own), and `\xHH`
    /// writes bytes no UTF-8 source could.
    #[test]
    fn string_literals_are_the_bytes_between_the_quotes() {
        assert_eq!(
            kinds("\"h\u{e9}llo\" '\\xff\\x00\\xC3'"),
            vec![
                Tok::Str("h\u{e9}llo".as_bytes().to_vec()),
                Tok::Str(vec![0xff, 0x00, 0xc3]),
                Tok::Eof
            ]
        );
        assert_eq!("h\u{e9}llo".len(), 6);
        for bad in ["\"\\x\"", "\"\\xf\"", "\"\\xfg\"", "\"\\q\""] {
            assert!(lex(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn keywords_vs_names() {
        assert_eq!(
            kinds("while whale end ending"),
            vec![
                Tok::While,
                Tok::Name("whale".into()),
                Tok::End,
                Tok::Name("ending".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("== ~= <= >= .. = < > ."),
            vec![
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::Concat,
                Tok::Assign,
                Tok::Lt,
                Tok::Gt,
                Tok::Dot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = lex("x -- comment\ny").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[1].kind, Tok::Name("y".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        let err = lex("\"abc").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn bad_character_errors() {
        assert!(lex("@").is_err());
        assert!(lex("~x").is_err());
    }

    #[test]
    fn minus_vs_comment() {
        assert_eq!(
            kinds("a - b"),
            vec![
                Tok::Name("a".into()),
                Tok::Minus,
                Tok::Name("b".into()),
                Tok::Eof
            ]
        );
    }
}
