//! Recursive-descent parser for the SMV subset.
//!
//! Expression and SPEC parse functions return the height of the tree
//! they built, so an expression deeper than
//! [`MAX_SYNTAX_DEPTH`] — including a left-deep `&`/`|` chain, which
//! the parser builds without recursing — is a parse error instead of a
//! stack overflow in flattening, compilation or checking.

use smc_logic::{MAX_FORMULA_SIZE, MAX_SYNTAX_DEPTH};

use crate::ast::{
    Assign, AssignKind, CaseBranch, Decl, Expr, Module, Program, Section, Span, Spec, VarType,
};
use crate::error::SmvError;
use crate::lexer::{tokenize, SpannedTok, Tok};

/// A parsed node and the height of its tree (a leaf has height 1).
type Parsed<T> = Result<(T, usize), SmvError>;

/// The constructor of a binary node from its two sides.
type Join<T> = fn(Box<T>, Box<T>) -> T;

/// Parses an SMV source text into its AST (one or more `MODULE`s).
///
/// # Errors
///
/// [`SmvError::Parse`] with the offending byte offset.
pub fn parse(input: &str) -> Result<Program, SmvError> {
    let mut p = Parser { toks: tokenize(input)?, pos: 0, len: input.len(), open: 0 };
    let mut modules = Vec::new();
    while p.peek().is_some() {
        modules.push(p.module()?);
    }
    if modules.is_empty() {
        return Err(SmvError::parse(0, "expected MODULE"));
    }
    Ok(Program { modules })
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    len: usize,
    /// Parentheses and prefix operators currently open: bounds the
    /// parser's own recursion before any node is built.
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map_or(self.len, |t| t.pos)
    }

    /// Byte offset one past the most recently consumed token.
    fn end_of_last(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.toks[self.pos - 1].end
        }
    }

    /// The span from `start` (captured via [`here`](Parser::here) before
    /// parsing a construct) to the end of the last consumed token.
    fn span_from(&self, start: usize) -> Span {
        Span { start, end: self.end_of_last().max(start) }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), SmvError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(SmvError::parse(self.here(), format!("expected {what}")))
        }
    }

    /// The height of a node over children at most `height` deep, or an
    /// error once it passes [`MAX_SYNTAX_DEPTH`].
    fn grow(&self, height: usize) -> Result<usize, SmvError> {
        if height >= MAX_SYNTAX_DEPTH {
            return self.too_deep();
        }
        Ok(height + 1)
    }

    /// Parses `operand (op operand)*` as a left-deep chain, where `op`
    /// maps an operator token to the node that joins its two sides.
    fn chain<T>(
        &mut self,
        op: fn(&Tok) -> Option<Join<T>>,
        operand: fn(&mut Parser) -> Parsed<T>,
    ) -> Parsed<T> {
        let (mut lhs, mut h) = operand(self)?;
        while let Some(join) = self.peek().and_then(op) {
            self.bump();
            // Checked before the right operand, so the error points at
            // the operator that crossed the limit.
            h = self.grow(h)?;
            let (rhs, hr) = operand(self)?;
            h = h.max(self.grow(hr)?);
            lhs = join(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, h))
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Parser) -> Parsed<T>) -> Parsed<T> {
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
    fn too_deep<T>(&self) -> Result<T, SmvError> {
        let at = self.pos.checked_sub(1).map_or(0, |last| self.toks[last].pos);
        Err(SmvError::parse(at, format!("expression nested deeper than {MAX_SYNTAX_DEPTH} levels")))
    }

    fn ident(&mut self, what: &str) -> Result<String, SmvError> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                if let Some(Tok::Ident(name)) = self.bump() {
                    Ok(name)
                } else {
                    unreachable!("peeked an identifier")
                }
            }
            _ => Err(SmvError::parse(self.here(), format!("expected {what}"))),
        }
    }

    fn module(&mut self) -> Result<Module, SmvError> {
        self.expect(Tok::Module, "MODULE")?;
        let name = self.ident("module name")?;
        let mut params = Vec::new();
        if self.eat(&Tok::LParen) {
            if self.peek() != Some(&Tok::RParen) {
                params.push(self.ident("parameter name")?);
                while self.eat(&Tok::Comma) {
                    params.push(self.ident("parameter name")?);
                }
            }
            self.expect(Tok::RParen, "')'")?;
        }
        let mut sections = Vec::new();
        while let Some(tok) = self.peek() {
            if tok == &Tok::Module {
                break;
            }
            let start = self.here();
            let section = match tok {
                Tok::Var => {
                    self.bump();
                    Section::Var(self.decls()?)
                }
                Tok::Assign => {
                    self.bump();
                    Section::Assign(self.assigns()?)
                }
                Tok::Define => {
                    self.bump();
                    Section::Define(self.defines()?)
                }
                Tok::Init => {
                    self.bump();
                    let e = self.expr()?;
                    Section::Init(e, self.span_from(start))
                }
                Tok::Trans => {
                    self.bump();
                    let e = self.expr()?;
                    Section::Trans(e, self.span_from(start))
                }
                Tok::Fairness => {
                    self.bump();
                    let e = self.expr()?;
                    Section::Fairness(e, self.span_from(start))
                }
                Tok::Spec => {
                    self.bump();
                    let (s, _) = self.spec()?;
                    if s.existential_size() > MAX_FORMULA_SIZE {
                        return Err(SmvError::parse(
                            start,
                            format!("SPEC expands past {MAX_FORMULA_SIZE} nodes once desugared"),
                        ));
                    }
                    Section::Spec(s, self.span_from(start))
                }
                _ => {
                    return Err(SmvError::parse(self.here(), "expected a section keyword"));
                }
            };
            sections.push(section);
        }
        Ok(Module { name, params, sections })
    }

    fn decls(&mut self) -> Result<Vec<Decl>, SmvError> {
        let mut decls = Vec::new();
        while let Some(Tok::Ident(_)) = self.peek() {
            let start = self.here();
            let name = self.ident("variable name")?;
            self.expect(Tok::Colon, "':'")?;
            let ty = self.var_type()?;
            self.expect(Tok::Semi, "';'")?;
            decls.push(Decl { name, ty, span: self.span_from(start) });
        }
        Ok(decls)
    }

    fn var_type(&mut self) -> Result<VarType, SmvError> {
        match self.peek() {
            Some(Tok::Boolean) => {
                self.bump();
                Ok(VarType::Boolean)
            }
            // A module instantiation: `name` or `name(args)`.
            Some(Tok::Ident(_)) => {
                let module = self.ident("module name")?;
                let mut args = Vec::new();
                if self.eat(&Tok::LParen) {
                    if self.peek() != Some(&Tok::RParen) {
                        args.push(self.expr()?);
                        while self.eat(&Tok::Comma) {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect(Tok::RParen, "')'")?;
                }
                Ok(VarType::Instance(module, args))
            }
            Some(Tok::LBrace) => {
                self.bump();
                let mut symbols = vec![self.ident("enumeration symbol")?];
                while self.eat(&Tok::Comma) {
                    symbols.push(self.ident("enumeration symbol")?);
                }
                self.expect(Tok::RBrace, "'}'")?;
                Ok(VarType::Enum(symbols))
            }
            Some(Tok::Int(_)) | Some(Tok::Minus) => {
                let lo = self.int_literal()?;
                self.expect(Tok::DotDot, "'..'")?;
                let hi = self.int_literal()?;
                if lo > hi {
                    return Err(SmvError::parse(self.here(), "empty integer range"));
                }
                Ok(VarType::Range(lo, hi))
            }
            _ => Err(SmvError::parse(self.here(), "expected a type")),
        }
    }

    fn int_literal(&mut self) -> Result<i64, SmvError> {
        let negative = self.eat(&Tok::Minus);
        match self.bump() {
            Some(Tok::Int(v)) => Ok(if negative { -v } else { v }),
            _ => Err(SmvError::parse(self.here(), "expected an integer")),
        }
    }

    fn assigns(&mut self) -> Result<Vec<Assign>, SmvError> {
        let mut assigns = Vec::new();
        loop {
            let kind = match self.peek() {
                Some(Tok::InitKw) => AssignKind::Init,
                Some(Tok::NextKw) => AssignKind::Next,
                _ => break,
            };
            let start = self.here();
            self.bump();
            self.expect(Tok::LParen, "'('")?;
            let var = self.ident("variable name")?;
            self.expect(Tok::RParen, "')'")?;
            self.expect(Tok::Assigned, "':='")?;
            let rhs = self.expr()?;
            self.expect(Tok::Semi, "';'")?;
            assigns.push(Assign { var, kind, rhs, span: self.span_from(start) });
        }
        Ok(assigns)
    }

    fn defines(&mut self) -> Result<Vec<(String, Expr)>, SmvError> {
        let mut defines = Vec::new();
        while matches!(self.peek(), Some(Tok::Ident(_))) {
            let name = self.ident("macro name")?;
            self.expect(Tok::Assigned, "':='")?;
            let rhs = self.expr()?;
            self.expect(Tok::Semi, "';'")?;
            defines.push((name, rhs));
        }
        Ok(defines)
    }

    // -----------------------------------------------------------------
    // Expressions (loosest to tightest: <-> , -> , | , & , ! , compare,
    // + - , * mod, primary)
    // -----------------------------------------------------------------

    /// A complete expression, the root of its own tree.
    fn expr(&mut self) -> Result<Expr, SmvError> {
        Ok(self.expr_iff()?.0)
    }

    fn expr_iff(&mut self) -> Parsed<Expr> {
        self.chain(|t| (*t == Tok::Iff).then_some(Expr::Iff), Self::expr_implies)
    }

    fn expr_implies(&mut self) -> Parsed<Expr> {
        let (lhs, h) = self.expr_or()?;
        if self.eat(&Tok::Implies) {
            let (rhs, hr) = self.nested(Self::expr_implies)?;
            Ok((Expr::Implies(Box::new(lhs), Box::new(rhs)), self.grow(h.max(hr))?))
        } else {
            Ok((lhs, h))
        }
    }

    fn expr_or(&mut self) -> Parsed<Expr> {
        self.chain(|t| (*t == Tok::Or).then_some(Expr::Or), Self::expr_and)
    }

    fn expr_and(&mut self) -> Parsed<Expr> {
        self.chain(|t| (*t == Tok::And).then_some(Expr::And), Self::expr_not)
    }

    fn expr_not(&mut self) -> Parsed<Expr> {
        if self.eat(&Tok::Not) {
            let (e, h) = self.nested(Self::expr_not)?;
            Ok((Expr::Not(Box::new(e)), self.grow(h)?))
        } else {
            self.expr_cmp()
        }
    }

    fn expr_cmp(&mut self) -> Parsed<Expr> {
        let (lhs, h) = self.expr_add()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Expr::Eq as fn(_, _) -> _,
            Some(Tok::Neq) => Expr::Neq,
            Some(Tok::Lt) => Expr::Lt,
            Some(Tok::Le) => Expr::Le,
            Some(Tok::Gt) => Expr::Gt,
            Some(Tok::Ge) => Expr::Ge,
            _ => return Ok((lhs, h)),
        };
        self.bump();
        let (rhs, hr) = self.expr_add()?;
        Ok((op(Box::new(lhs), Box::new(rhs)), self.grow(h.max(hr))?))
    }

    fn expr_add(&mut self) -> Parsed<Expr> {
        self.chain(
            |t| match t {
                Tok::Plus => Some(Expr::Add),
                Tok::Minus => Some(Expr::Sub),
                _ => None,
            },
            Self::expr_mul,
        )
    }

    fn expr_mul(&mut self) -> Parsed<Expr> {
        self.chain(
            |t| match t {
                Tok::Star => Some(Expr::Mul),
                Tok::Mod => Some(Expr::Mod),
                _ => None,
            },
            Self::expr_primary,
        )
    }

    fn expr_primary(&mut self) -> Parsed<Expr> {
        let leaf = match self.peek() {
            Some(Tok::True) => {
                self.bump();
                Expr::Bool(true)
            }
            Some(Tok::False) => {
                self.bump();
                Expr::Bool(false)
            }
            Some(Tok::Int(_)) => {
                if let Some(Tok::Int(v)) = self.bump() {
                    Expr::Int(v)
                } else {
                    unreachable!("peeked an int")
                }
            }
            Some(Tok::Minus) => {
                self.bump();
                match self.bump() {
                    Some(Tok::Int(v)) => Expr::Int(-v),
                    _ => return Err(SmvError::parse(self.here(), "expected an integer after '-'")),
                }
            }
            Some(Tok::Ident(_)) => Expr::Ident(self.ident("identifier")?),
            Some(Tok::NextKw) => {
                self.bump();
                self.expect(Tok::LParen, "'('")?;
                let var = self.ident("variable name")?;
                self.expect(Tok::RParen, "')'")?;
                Expr::Next(var)
            }
            Some(Tok::LParen) => {
                self.bump();
                let e = self.nested(Self::expr_iff)?;
                self.expect(Tok::RParen, "')'")?;
                return Ok(e);
            }
            Some(Tok::LBrace) => {
                self.bump();
                return self.nested(|p| {
                    let (first, mut h) = p.expr_iff()?;
                    let mut elements = vec![first];
                    while p.eat(&Tok::Comma) {
                        let (e, he) = p.expr_iff()?;
                        elements.push(e);
                        h = h.max(he);
                    }
                    p.expect(Tok::RBrace, "'}'")?;
                    Ok((Expr::Set(elements), p.grow(h)?))
                });
            }
            Some(Tok::Case) => {
                self.bump();
                return self.nested(|p| {
                    let mut branches = Vec::new();
                    let mut h = 0;
                    while !p.eat(&Tok::Esac) {
                        let start = p.here();
                        let (condition, hc) = p.expr_iff()?;
                        p.expect(Tok::Colon, "':'")?;
                        let (value, hv) = p.expr_iff()?;
                        p.expect(Tok::Semi, "';'")?;
                        branches.push(CaseBranch { condition, value, span: p.span_from(start) });
                        h = h.max(hc).max(hv);
                    }
                    if branches.is_empty() {
                        return Err(SmvError::parse(p.here(), "empty case"));
                    }
                    Ok((Expr::Case(branches), p.grow(h)?))
                });
            }
            _ => return Err(SmvError::parse(self.here(), "expected an expression")),
        };
        Ok((leaf, 1))
    }

    // -----------------------------------------------------------------
    // SPEC formulas: CTL with expression leaves. The temporal keywords
    // lex as ordinary identifiers, so the spec parser recognizes them by
    // name.
    // -----------------------------------------------------------------

    fn spec(&mut self) -> Parsed<Spec> {
        self.chain(|t| (*t == Tok::Iff).then_some(Spec::Iff), Self::spec_implies)
    }

    fn spec_implies(&mut self) -> Parsed<Spec> {
        let (lhs, h) = self.spec_or()?;
        if self.eat(&Tok::Implies) {
            let (rhs, hr) = self.nested(Self::spec_implies)?;
            Ok((Spec::Implies(Box::new(lhs), Box::new(rhs)), self.grow(h.max(hr))?))
        } else {
            Ok((lhs, h))
        }
    }

    fn spec_or(&mut self) -> Parsed<Spec> {
        self.chain(|t| (*t == Tok::Or).then_some(Spec::Or), Self::spec_and)
    }

    fn spec_and(&mut self) -> Parsed<Spec> {
        self.chain(|t| (*t == Tok::And).then_some(Spec::And), Self::spec_unary)
    }

    fn temporal_keyword(&self) -> Option<&'static str> {
        if let Some(Tok::Ident(name)) = self.peek() {
            for kw in ["EX", "EF", "EG", "AX", "AF", "AG", "E", "A"] {
                if name == kw {
                    return Some(kw);
                }
            }
        }
        None
    }

    fn spec_unary(&mut self) -> Parsed<Spec> {
        let unary: fn(Box<Spec>) -> Spec = if self.peek() == Some(&Tok::Not) {
            Spec::Not
        } else {
            match self.temporal_keyword() {
                Some("EX") => Spec::Ex,
                Some("EF") => Spec::Ef,
                Some("EG") => Spec::Eg,
                Some("AX") => Spec::Ax,
                Some("AF") => Spec::Af,
                Some("AG") => Spec::Ag,
                Some(q @ ("E" | "A")) if self.peek2() == Some(&Tok::LBracket) => {
                    self.bump();
                    self.bump();
                    let until = if q == "E" { Spec::Eu } else { Spec::Au };
                    return self.nested(|p| {
                        let (f, hf) = p.spec()?;
                        p.spec_until_sep()?;
                        let (g, hg) = p.spec()?;
                        p.expect(Tok::RBracket, "']'")?;
                        Ok((until(Box::new(f), Box::new(g)), p.grow(hf.max(hg))?))
                    });
                }
                _ => return self.spec_leaf(),
            }
        };
        self.bump();
        let (s, h) = self.nested(Self::spec_unary)?;
        Ok((unary(Box::new(s)), self.grow(h)?))
    }

    fn spec_until_sep(&mut self) -> Result<(), SmvError> {
        if let Some(Tok::Ident(name)) = self.peek() {
            if name == "U" {
                self.bump();
                return Ok(());
            }
        }
        Err(SmvError::parse(self.here(), "expected 'U'"))
    }

    fn spec_leaf(&mut self) -> Parsed<Spec> {
        if self.peek() == Some(&Tok::LParen) {
            // Could be a parenthesized spec or a parenthesized expression;
            // parse as a spec (expressions embed as leaves anyway).
            self.bump();
            let s = self.nested(Self::spec)?;
            self.expect(Tok::RParen, "')'")?;
            return Ok(s);
        }
        // A propositional leaf: parse a comparison-level expression so
        // `state = busy` binds before the surrounding CTL connectives.
        let start = self.pos;
        match self.expr_cmp() {
            Ok((e, h)) => Ok((Spec::Expr(e), self.grow(h)?)),
            Err(e) => {
                self.pos = start;
                Err(e)
            }
        }
    }
}
