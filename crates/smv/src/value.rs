//! Runtime values of SMV expressions.

use std::fmt;

/// A value of the finite SMV value universe: booleans, bounded integers
/// and enumeration symbols.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// A bounded integer.
    Int(i64),
    /// An enumeration symbol.
    Sym(String),
}

impl Value {
    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Sym(_) => "symbol",
        }
    }
}

/// An SMV integer operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `mod`, Euclidean: the result lies in `0..|y|`.
    Mod,
}

impl ArithOp {
    /// `x op y`, or `None` when `op` is `mod` by zero or the result
    /// leaves `i64` (for `mod`, when its quotient does: `i64::MIN mod
    /// -1`). The compiler and the dataflow analysis both evaluate SMV
    /// arithmetic through this function.
    pub fn apply(self, x: i64, y: i64) -> Option<i64> {
        match self {
            ArithOp::Add => x.checked_add(y),
            ArithOp::Sub => x.checked_sub(y),
            ArithOp::Mul => x.checked_mul(y),
            ArithOp::Mod => x.checked_rem_euclid(y),
        }
    }

    /// The operator as SMV source writes it.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Mod => "mod",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(true) => write!(f, "TRUE"),
            Value::Bool(false) => write!(f, "FALSE"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}
