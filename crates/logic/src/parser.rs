//! Recursive-descent parsers for CTL and CTL*.
//!
//! Every parse function returns the shape of the tree it built — its
//! height and its node count — so a formula deeper than
//! [`MAX_SYNTAX_DEPTH`] (including a left-deep `&`/`|` chain, which the
//! parser builds without recursing) or larger than [`MAX_FORMULA_SIZE`]
//! is a parse error instead of a stack overflow or a runaway expansion
//! in a later pass.

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

/// Largest formula, in syntax-tree nodes, once desugared. `a <-> b`
/// becomes `(a ∧ b) ∨ (¬a ∧ ¬b)` and CTL's `A[f U g]` repeats `¬g` three
/// times, so chains and nests of them grow exponentially. CTL and SMV
/// `SPEC` formulas are refused when their existential form
/// ([`Ctl::existential_size`]) would pass this bound, CTL* ones (which
/// desugar while parsing) at the node whose tree passes it. Real
/// specifications stay in the hundreds of nodes.
pub const MAX_FORMULA_SIZE: usize = 1 << 16;

/// A parsed node and the shape of its tree.
type Parsed<T> = Result<(T, Shape), ParseError>;

/// The height of a syntax tree (a leaf has height 1) and its node count.
#[derive(Clone, Copy)]
struct Shape {
    height: usize,
    size: usize,
}

impl Shape {
    const LEAF: Shape = Shape { height: 1, size: 1 };

    /// Two trees side by side, before a node joins them.
    fn beside(self, other: Shape) -> Shape {
        Shape { height: self.height.max(other.height), size: self.size + other.size }
    }
}

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

    /// The shape of one node over `below`, or an error once it passes
    /// [`MAX_SYNTAX_DEPTH`] or [`MAX_FORMULA_SIZE`].
    fn grow(&self, below: Shape) -> Result<Shape, ParseError> {
        if below.height >= MAX_SYNTAX_DEPTH {
            return self.too_deep();
        }
        if below.size >= MAX_FORMULA_SIZE {
            return Err(too_big(self.last_pos()));
        }
        Ok(Shape { height: below.height + 1, size: below.size + 1 })
    }

    /// Parses `operand (op operand)*` as a left-deep chain joined by
    /// `join`, whose node has the shape `link` gives it over its sides.
    fn chain<T>(
        &mut self,
        op: Token,
        operand: fn(&mut Cursor) -> Parsed<T>,
        join: fn(T, T) -> T,
        link: fn(&Cursor, Shape, Shape) -> Result<Shape, ParseError>,
    ) -> Parsed<T> {
        let (mut lhs, mut shape) = operand(self)?;
        while self.eat(&op) {
            // Checked against a leaf before the right operand, so the
            // error points at the operator that crossed a limit.
            link(self, shape, Shape::LEAF)?;
            let (rhs, rhs_shape) = operand(self)?;
            // Checked before `join` builds (and may copy) anything.
            shape = link(self, shape, rhs_shape)?;
            lhs = join(lhs, rhs);
        }
        Ok((lhs, shape))
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
        Err(ParseError::new(
            self.last_pos(),
            format!("formula nested deeper than {MAX_SYNTAX_DEPTH} levels"),
        ))
    }

    /// Source position of the token just consumed.
    fn last_pos(&self) -> usize {
        self.pos.checked_sub(1).map_or(0, |last| self.tokens[last].pos)
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

/// The size error at source position `at`.
fn too_big(at: usize) -> ParseError {
    ParseError::new(at, format!("formula expands past {MAX_FORMULA_SIZE} nodes once desugared"))
}

/// One binary node over `a` and `b`.
fn binary(c: &Cursor, a: Shape, b: Shape) -> Result<Shape, ParseError> {
    c.grow(a.beside(b))
}

// ---------------------------------------------------------------------
// CTL
// ---------------------------------------------------------------------

pub(crate) fn parse_ctl(input: &str) -> Result<Ctl, ParseError> {
    let mut c = Cursor::new(input)?;
    let (f, _) = ctl_iff(&mut c)?;
    c.finish()?;
    // The checker rewrites the formula into the existential basis, which
    // copies the operands of `<->`, `->` and the universal operators.
    if f.existential_size() > MAX_FORMULA_SIZE {
        return Err(too_big(0));
    }
    Ok(f)
}

fn ctl_iff(c: &mut Cursor) -> Parsed<Ctl> {
    c.chain(Token::Iff, ctl_implies, Ctl::iff, binary)
}

fn ctl_implies(c: &mut Cursor) -> Parsed<Ctl> {
    let (lhs, s) = ctl_or(c)?;
    if c.eat(&Token::Implies) {
        let (rhs, sr) = c.nested(ctl_implies)?; // right associative
        Ok((Ctl::implies(lhs, rhs), c.grow(s.beside(sr))?))
    } else {
        Ok((lhs, s))
    }
}

fn ctl_or(c: &mut Cursor) -> Parsed<Ctl> {
    c.chain(Token::Or, ctl_and, |a, b| Ctl::Or(Box::new(a), Box::new(b)), binary)
}

fn ctl_and(c: &mut Cursor) -> Parsed<Ctl> {
    c.chain(Token::And, ctl_unary, |a, b| Ctl::And(Box::new(a), Box::new(b)), binary)
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
            let ((f, g), s) = c.nested(ctl_until_body)?;
            let f = if exists { Ctl::eu(f, g) } else { Ctl::au(f, g) };
            return Ok((f, c.grow(s)?));
        }
        Some(Token::LParen) => {
            c.bump();
            let f = c.nested(ctl_iff)?;
            c.expect(Token::RParen, "')'")?;
            return Ok(f);
        }
        Some(Token::True) => {
            c.bump();
            return Ok((Ctl::True, Shape::LEAF));
        }
        Some(Token::False) => {
            c.bump();
            return Ok((Ctl::False, Shape::LEAF));
        }
        Some(Token::Ident(_)) => {
            if let Some(Token::Ident(name)) = c.bump() {
                return Ok((Ctl::Atom(name), Shape::LEAF));
            }
            unreachable!("peeked an identifier")
        }
        _ => return c.fail("expected a formula"),
    };
    c.bump();
    let (f, s) = c.nested(ctl_unary)?;
    Ok((unary(f), c.grow(s)?))
}

fn ctl_until_body(c: &mut Cursor) -> Parsed<(Ctl, Ctl)> {
    c.expect(Token::LBracket, "'[' after path quantifier")?;
    let (f, sf) = ctl_iff(c)?;
    c.expect(Token::U, "'U'")?;
    let (g, sg) = ctl_iff(c)?;
    c.expect(Token::RBracket, "']'")?;
    Ok(((f, g), sf.beside(sg)))
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

fn state_iff(c: &mut Cursor) -> Parsed<StateFormula> {
    c.chain(Token::Iff, state_implies, state_iff_desugar, iff_shape)
}

/// `a <-> b` desugars to `(a ∧ b) ∨ (¬a ∧ ¬b)`, a copy of each side three
/// levels over the deeper one.
fn iff_shape(c: &Cursor, a: Shape, b: Shape) -> Result<Shape, ParseError> {
    let both = c.grow(a.beside(b))?;
    let neither = c.grow(c.grow(a)?.beside(c.grow(b)?))?;
    c.grow(both.beside(neither))
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
    let (lhs, s) = state_or(c)?;
    if c.eat(&Token::Implies) {
        let (rhs, sr) = c.nested(state_implies)?;
        let f = StateFormula::Or(Box::new(StateFormula::Not(Box::new(lhs))), Box::new(rhs));
        Ok((f, c.grow(c.grow(s)?.beside(sr))?))
    } else {
        Ok((lhs, s))
    }
}

fn state_or(c: &mut Cursor) -> Parsed<StateFormula> {
    c.chain(Token::Or, state_and, |a, b| StateFormula::Or(Box::new(a), Box::new(b)), binary)
}

fn state_and(c: &mut Cursor) -> Parsed<StateFormula> {
    c.chain(Token::And, state_unary, |a, b| StateFormula::And(Box::new(a), Box::new(b)), binary)
}

fn state_unary(c: &mut Cursor) -> Parsed<StateFormula> {
    let f = match c.peek() {
        Some(Token::Not) => {
            c.bump();
            let (f, s) = c.nested(state_unary)?;
            return Ok((StateFormula::Not(Box::new(f)), c.grow(s)?));
        }
        Some(Token::E) | Some(Token::A) => {
            let exists = c.bump() == Some(Token::E);
            let (p, s) = c.nested(quantified_path)?;
            let f = if exists { StateFormula::exists(p) } else { StateFormula::forall(p) };
            return Ok((f, c.grow(s)?));
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
    Ok((f, Shape::LEAF))
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

fn path_iff(c: &mut Cursor) -> Parsed<PathFormula> {
    c.chain(Token::Iff, path_implies, path_iff_desugar, iff_shape)
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
    let (lhs, s) = path_or(c)?;
    if c.eat(&Token::Implies) {
        let (rhs, sr) = c.nested(path_implies)?;
        let p = PathFormula::Or(Box::new(PathFormula::Not(Box::new(lhs))), Box::new(rhs));
        Ok((p, c.grow(c.grow(s)?.beside(sr))?))
    } else {
        Ok((lhs, s))
    }
}

fn path_or(c: &mut Cursor) -> Parsed<PathFormula> {
    c.chain(Token::Or, path_and, |a, b| PathFormula::Or(Box::new(a), Box::new(b)), binary)
}

fn path_and(c: &mut Cursor) -> Parsed<PathFormula> {
    c.chain(Token::And, path_until, |a, b| PathFormula::And(Box::new(a), Box::new(b)), binary)
}

fn path_until(c: &mut Cursor) -> Parsed<PathFormula> {
    let (lhs, s) = path_unary(c)?;
    if c.eat(&Token::U) {
        let (rhs, sr) = c.nested(path_until)?; // right associative
        Ok((PathFormula::Until(Box::new(lhs), Box::new(rhs)), c.grow(s.beside(sr))?))
    } else {
        Ok((lhs, s))
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
            let (p, s) = c.nested(quantified_path)?;
            let f = if exists { StateFormula::exists(p) } else { StateFormula::forall(p) };
            return Ok((PathFormula::State(Box::new(f)), c.grow(c.grow(s)?)?));
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
            return Ok((PathFormula::State(Box::new(s)), c.grow(Shape::LEAF)?));
        }
        _ => return c.fail("expected a path formula"),
    };
    c.bump();
    let (p, s) = c.nested(path_unary)?;
    Ok((unary(Box::new(p)), c.grow(s)?))
}
