//! Recursive-descent parsers for CTL and CTL*.
//!
//! Every parse function returns the height of the tree it built, so a
//! formula deeper than [`MAX_SYNTAX_DEPTH`] — including a left-deep
//! `&`/`|` chain, which the parser builds without recursing — is a parse
//! error instead of a stack overflow in a later recursive pass.

use crate::ctl::Ctl;
use crate::ctlstar::{PathFormula, StateFormula};
use crate::error::ParseError;
use crate::lexer::{tokenize, Spanned, Token};

/// Deepest syntax tree the CTL, CTL* and SMV parsers build. Each level
/// of nesting — an operator, a parenthesis, a link of an `&`/`|` chain —
/// costs one; deeper input is a parse error at the token where the limit
/// is crossed. Checking, normalising and witness construction recurse
/// over the tree, so the bound keeps them inside a worker thread's stack.
pub const MAX_SYNTAX_DEPTH: usize = 512;

/// A parsed node and the height of its tree (a leaf has height 1).
type Parsed<T> = Result<(T, usize), ParseError>;

struct Cursor {
    tokens: Vec<Spanned>,
    pos: usize,
    input_len: usize,
    /// Parentheses and prefix operators currently open: bounds the
    /// parser's own recursion before any node is built.
    open: usize,
}

impl Cursor {
    fn new(input: &str) -> Result<Cursor, ParseError> {
        Ok(Cursor { tokens: tokenize(input)?, pos: 0, input_len: input.len(), open: 0 })
    }

    /// The height of a node over children at most `height` deep, or an
    /// error once it passes [`MAX_SYNTAX_DEPTH`].
    fn grow(&self, height: usize) -> Result<usize, ParseError> {
        if height >= MAX_SYNTAX_DEPTH {
            return self.too_deep();
        }
        Ok(height + 1)
    }

    /// Parses `operand (op operand)*` as a left-deep chain joined by
    /// `join`, whose result is `levels` higher than its deeper operand.
    fn chain<T>(
        &mut self,
        op: Token,
        levels: usize,
        operand: fn(&mut Cursor) -> Parsed<T>,
        join: fn(T, T) -> T,
    ) -> Parsed<T> {
        let (mut lhs, mut h) = operand(self)?;
        while self.eat(&op) {
            // Checked before the right operand, so the error points at
            // the operator that crossed the limit.
            h = self.grow(h + levels - 1)?;
            let (rhs, hr) = operand(self)?;
            h = h.max(self.grow(hr + levels - 1)?);
            lhs = join(lhs, rhs);
        }
        Ok((lhs, h))
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Cursor) -> Parsed<T>) -> Parsed<T> {
        if self.open >= MAX_SYNTAX_DEPTH {
            return self.too_deep();
        }
        self.open += 1;
        let parsed = parse(self);
        self.open -= 1;
        parsed
    }

    /// The depth error, at the token just consumed: the operator or
    /// opening parenthesis that crossed the limit.
    fn too_deep<T>(&self) -> Result<T, ParseError> {
        let at = self.pos.checked_sub(1).map_or(0, |last| self.tokens[last].pos);
        Err(ParseError::new(at, format!("formula nested deeper than {MAX_SYNTAX_DEPTH} levels")))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.input_len, |s| s.pos)
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: Token, what: &str) -> Result<(), ParseError> {
        if self.eat(&token) {
            Ok(())
        } else {
            Err(ParseError::new(self.here(), format!("expected {what}")))
        }
    }

    fn fail<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.here(), message))
    }

    fn finish(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(ParseError::new(self.here(), "unexpected trailing input"))
        }
    }
}

// ---------------------------------------------------------------------
// CTL
// ---------------------------------------------------------------------

pub(crate) fn parse_ctl(input: &str) -> Result<Ctl, ParseError> {
    let mut c = Cursor::new(input)?;
    let (f, _) = ctl_iff(&mut c)?;
    c.finish()?;
    Ok(f)
}

fn ctl_iff(c: &mut Cursor) -> Parsed<Ctl> {
    c.chain(Token::Iff, 1, ctl_implies, Ctl::iff)
}

fn ctl_implies(c: &mut Cursor) -> Parsed<Ctl> {
    let (lhs, h) = ctl_or(c)?;
    if c.eat(&Token::Implies) {
        let (rhs, hr) = c.nested(ctl_implies)?; // right associative
        Ok((Ctl::implies(lhs, rhs), c.grow(h.max(hr))?))
    } else {
        Ok((lhs, h))
    }
}

fn ctl_or(c: &mut Cursor) -> Parsed<Ctl> {
    c.chain(Token::Or, 1, ctl_and, |a, b| Ctl::Or(Box::new(a), Box::new(b)))
}

fn ctl_and(c: &mut Cursor) -> Parsed<Ctl> {
    c.chain(Token::And, 1, ctl_unary, |a, b| Ctl::And(Box::new(a), Box::new(b)))
}

fn ctl_unary(c: &mut Cursor) -> Parsed<Ctl> {
    let unary: fn(Ctl) -> Ctl = match c.peek() {
        Some(Token::Not) => |f| Ctl::Not(Box::new(f)),
        Some(Token::Ex) => Ctl::ex,
        Some(Token::Ef) => Ctl::ef,
        Some(Token::Eg) => Ctl::eg,
        Some(Token::Ax) => Ctl::ax,
        Some(Token::Af) => Ctl::af,
        Some(Token::Ag) => Ctl::ag,
        Some(Token::E) | Some(Token::A) => {
            let exists = c.bump() == Some(Token::E);
            let ((f, g), h) = c.nested(ctl_until_body)?;
            let f = if exists { Ctl::eu(f, g) } else { Ctl::au(f, g) };
            return Ok((f, c.grow(h)?));
        }
        Some(Token::LParen) => {
            c.bump();
            let f = c.nested(ctl_iff)?;
            c.expect(Token::RParen, "')'")?;
            return Ok(f);
        }
        Some(Token::True) => {
            c.bump();
            return Ok((Ctl::True, 1));
        }
        Some(Token::False) => {
            c.bump();
            return Ok((Ctl::False, 1));
        }
        Some(Token::Ident(_)) => {
            if let Some(Token::Ident(name)) = c.bump() {
                return Ok((Ctl::Atom(name), 1));
            }
            unreachable!("peeked an identifier")
        }
        _ => return c.fail("expected a formula"),
    };
    c.bump();
    let (f, h) = c.nested(ctl_unary)?;
    Ok((unary(f), c.grow(h)?))
}

fn ctl_until_body(c: &mut Cursor) -> Parsed<(Ctl, Ctl)> {
    c.expect(Token::LBracket, "'[' after path quantifier")?;
    let (f, hf) = ctl_iff(c)?;
    c.expect(Token::U, "'U'")?;
    let (g, hg) = ctl_iff(c)?;
    c.expect(Token::RBracket, "']'")?;
    Ok(((f, g), hf.max(hg)))
}

// ---------------------------------------------------------------------
// CTL*
// ---------------------------------------------------------------------

pub(crate) fn parse_ctlstar(input: &str) -> Result<StateFormula, ParseError> {
    let mut c = Cursor::new(input)?;
    let (f, _) = state_iff(&mut c)?;
    c.finish()?;
    Ok(f)
}

/// `a <-> b` desugars to `(a ∧ b) ∨ (¬a ∧ ¬b)`: three levels over the
/// deeper side.
fn state_iff(c: &mut Cursor) -> Parsed<StateFormula> {
    c.chain(Token::Iff, 3, state_implies, state_iff_desugar)
}

fn state_iff_desugar(a: StateFormula, b: StateFormula) -> StateFormula {
    StateFormula::Or(
        Box::new(StateFormula::And(Box::new(a.clone()), Box::new(b.clone()))),
        Box::new(StateFormula::And(
            Box::new(StateFormula::Not(Box::new(a))),
            Box::new(StateFormula::Not(Box::new(b))),
        )),
    )
}

fn state_implies(c: &mut Cursor) -> Parsed<StateFormula> {
    let (lhs, h) = state_or(c)?;
    if c.eat(&Token::Implies) {
        let (rhs, hr) = c.nested(state_implies)?;
        let f = StateFormula::Or(Box::new(StateFormula::Not(Box::new(lhs))), Box::new(rhs));
        Ok((f, c.grow(c.grow(h)?.max(hr))?))
    } else {
        Ok((lhs, h))
    }
}

fn state_or(c: &mut Cursor) -> Parsed<StateFormula> {
    c.chain(Token::Or, 1, state_and, |a, b| StateFormula::Or(Box::new(a), Box::new(b)))
}

fn state_and(c: &mut Cursor) -> Parsed<StateFormula> {
    c.chain(Token::And, 1, state_unary, |a, b| StateFormula::And(Box::new(a), Box::new(b)))
}

fn state_unary(c: &mut Cursor) -> Parsed<StateFormula> {
    let f = match c.peek() {
        Some(Token::Not) => {
            c.bump();
            let (f, h) = c.nested(state_unary)?;
            return Ok((StateFormula::Not(Box::new(f)), c.grow(h)?));
        }
        Some(Token::E) | Some(Token::A) => {
            let exists = c.bump() == Some(Token::E);
            let (p, h) = c.nested(quantified_path)?;
            let f = if exists { StateFormula::exists(p) } else { StateFormula::forall(p) };
            return Ok((f, c.grow(h)?));
        }
        Some(Token::LParen) => {
            c.bump();
            let f = c.nested(state_iff)?;
            c.expect(Token::RParen, "')'")?;
            return Ok(f);
        }
        Some(Token::True) => StateFormula::True,
        Some(Token::False) => StateFormula::False,
        Some(Token::Ident(name)) => StateFormula::Atom(name.clone()),
        _ => return c.fail("expected a state formula"),
    };
    c.bump();
    Ok((f, 1))
}

/// The path formula right after `E`/`A`: either a parenthesized path
/// formula or a prefix chain like `G F p`.
fn quantified_path(c: &mut Cursor) -> Parsed<PathFormula> {
    if c.peek() == Some(&Token::LParen) {
        c.bump();
        let p = c.nested(path_iff)?;
        c.expect(Token::RParen, "')'")?;
        Ok(p)
    } else {
        path_unary(c)
    }
}

/// `a <-> b` desugars to `(a ∧ b) ∨ (¬a ∧ ¬b)`: three levels over the
/// deeper side.
fn path_iff(c: &mut Cursor) -> Parsed<PathFormula> {
    c.chain(Token::Iff, 3, path_implies, path_iff_desugar)
}

fn path_iff_desugar(a: PathFormula, b: PathFormula) -> PathFormula {
    PathFormula::Or(
        Box::new(PathFormula::And(Box::new(a.clone()), Box::new(b.clone()))),
        Box::new(PathFormula::And(
            Box::new(PathFormula::Not(Box::new(a))),
            Box::new(PathFormula::Not(Box::new(b))),
        )),
    )
}

fn path_implies(c: &mut Cursor) -> Parsed<PathFormula> {
    let (lhs, h) = path_or(c)?;
    if c.eat(&Token::Implies) {
        let (rhs, hr) = c.nested(path_implies)?;
        let p = PathFormula::Or(Box::new(PathFormula::Not(Box::new(lhs))), Box::new(rhs));
        Ok((p, c.grow(c.grow(h)?.max(hr))?))
    } else {
        Ok((lhs, h))
    }
}

fn path_or(c: &mut Cursor) -> Parsed<PathFormula> {
    c.chain(Token::Or, 1, path_and, |a, b| PathFormula::Or(Box::new(a), Box::new(b)))
}

fn path_and(c: &mut Cursor) -> Parsed<PathFormula> {
    c.chain(Token::And, 1, path_until, |a, b| PathFormula::And(Box::new(a), Box::new(b)))
}

fn path_until(c: &mut Cursor) -> Parsed<PathFormula> {
    let (lhs, h) = path_unary(c)?;
    if c.eat(&Token::U) {
        let (rhs, hr) = c.nested(path_until)?; // right associative
        Ok((PathFormula::Until(Box::new(lhs), Box::new(rhs)), c.grow(h.max(hr))?))
    } else {
        Ok((lhs, h))
    }
}

fn path_unary(c: &mut Cursor) -> Parsed<PathFormula> {
    let unary: fn(Box<PathFormula>) -> PathFormula = match c.peek() {
        Some(Token::Not) => PathFormula::Not,
        Some(Token::X) => PathFormula::Next,
        Some(Token::F) => PathFormula::Future,
        Some(Token::G) => PathFormula::Globally,
        Some(Token::E) | Some(Token::A) => {
            let exists = c.bump() == Some(Token::E);
            let (p, h) = c.nested(quantified_path)?;
            let s = if exists { StateFormula::exists(p) } else { StateFormula::forall(p) };
            return Ok((PathFormula::State(Box::new(s)), c.grow(c.grow(h)?)?));
        }
        Some(Token::LParen) => {
            c.bump();
            let p = c.nested(path_iff)?;
            c.expect(Token::RParen, "')'")?;
            return Ok(p);
        }
        Some(Token::True) | Some(Token::False) | Some(Token::Ident(_)) => {
            let s = match c.bump() {
                Some(Token::True) => StateFormula::True,
                Some(Token::False) => StateFormula::False,
                Some(Token::Ident(name)) => StateFormula::Atom(name),
                _ => unreachable!("peeked a state leaf"),
            };
            return Ok((PathFormula::State(Box::new(s)), 2));
        }
        _ => return c.fail("expected a path formula"),
    };
    c.bump();
    let (p, h) = c.nested(path_unary)?;
    Ok((unary(Box::new(p)), c.grow(h)?))
}
