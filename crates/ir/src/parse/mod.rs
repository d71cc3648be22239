//! A C-like textual front-end.
//!
//! The paper's flow consumes untimed C++; this module accepts the same
//! subset Figure 4 is written in — bit-accurate scalar types (`int17`,
//! `uint6`, `sc_fixed<W,I[,Q,O]>`), `static` state arrays, labelled counted
//! `for` loops, `if`/`else`, compound assignments, quantizing casts, the
//! `sign()` builtin and `const int` parameters — and elaborates it into a
//! [`Function`]. Complex arithmetic is written out over re/im scalars, as
//! any fixed-point C implementation ultimately is.
//!
//! # Examples
//!
//! ```
//! use hls_ir::parse_function;
//!
//! let f = parse_function(r#"
//!     void sum(sc_fixed<10,2> x[8], sc_fixed<16,8> *out) {
//!         sc_fixed<16,8> acc = 0;
//!         sum_loop: for (int k = 0; k < 8; k++) {
//!             acc += x[k];
//!         }
//!         *out = acc;
//!     }
//! "#)?;
//! assert_eq!(f.name, "sum");
//! assert_eq!(f.loop_labels(), vec!["sum_loop"]);
//! # Ok::<(), hls_ir::ParseError>(())
//! ```

mod lex;

use std::collections::HashMap;
use std::fmt;

use fixpt::{BitInt, Fixed, Format, Overflow, Quantization, Signedness};

use crate::expr::{CmpOp, Expr};
use crate::func::{Function, Var, VarId, VarKind};
use crate::stmt::{Loop, Stmt};
use crate::ty::Ty;
use lex::{lex, Tok, Token};

/// A front-end error with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one `void` function written in the supported C subset.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found (lexical,
/// syntactic, unknown name, non-constant loop bound, an integer literal
/// above `i64::MAX`, or a decimal constant with no exact binary
/// representation in at most 30 fraction bits).
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
        vars: Vec::new(),
        params: Vec::new(),
        scopes: vec![HashMap::new()],
        consts: HashMap::new(),
    };
    p.function()
}

/// Recursive-descent state. Names stay borrowed from the source until
/// `declare` stores one in a [`Var`].
struct Parser<'s> {
    toks: Vec<Token<'s>>,
    pos: usize,
    vars: Vec<Var>,
    params: Vec<VarId>,
    scopes: Vec<HashMap<&'s str, VarId>>,
    consts: HashMap<&'s str, i64>,
}

impl<'s> Parser<'s> {
    // ----- token helpers -------------------------------------------------

    fn peek(&self) -> Tok<'s> {
        self.toks[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok<'s> {
        let t = self.toks[self.pos].kind;
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        match self.peek() {
            Tok::Punct(q) if q == p => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{p}`, found {other}")),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<&'s str, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected an identifier, found {other}")),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    // ----- names ----------------------------------------------------------

    fn declare(&mut self, name: &'s str, ty: Ty, kind: VarKind, len: Option<usize>) -> VarId {
        let id = VarId::from_raw(self.vars.len() as u32);
        self.vars.push(Var {
            name: name.to_string(),
            ty,
            kind,
            len,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name, id);
        id
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    // ----- types ----------------------------------------------------------

    /// Parses a type, optionally with quantization/overflow modes (for
    /// casts). Returns `(ty, q, o)`.
    fn parse_type(&mut self) -> Result<(Ty, Quantization, Overflow), ParseError> {
        let name = self.expect_ident()?;
        let default = (Quantization::Trn, Overflow::Wrap);
        let (q, o) = default;
        match name {
            "int" => Ok((Ty::int(32), q, o)),
            "bool" => Ok((Ty::uint(1), q, o)),
            "sc_fixed" | "sc_ufixed" => {
                self.expect_punct("<")?;
                let w = self.const_expr()?;
                self.expect_punct(",")?;
                let i = self.const_expr()?;
                let (mut qm, mut om) = default;
                if self.eat_punct(",") {
                    qm = self.parse_quant()?;
                    self.expect_punct(",")?;
                    om = self.parse_ovf()?;
                }
                self.expect_punct(">")?;
                let s = if name == "sc_fixed" {
                    Signedness::Signed
                } else {
                    Signedness::Unsigned
                };
                let fmt = Format::new(w as u32, i as i32, s).map_err(|e| ParseError {
                    message: e.to_string(),
                    line: self.line(),
                })?;
                Ok((Ty::Fixed(fmt), qm, om))
            }
            "sc_int" | "sc_uint" => {
                self.expect_punct("<")?;
                let w = self.const_expr()?;
                self.expect_punct(">")?;
                let w = self.checked_width(w)?;
                let ty = if name == "sc_int" {
                    Ty::int(w)
                } else {
                    Ty::uint(w)
                };
                Ok((ty, q, o))
            }
            _ => {
                // intN / uintN shorthand (the paper's `int17`, `uint6`).
                if let Some(w) = name
                    .strip_prefix("uint")
                    .and_then(|d| d.parse::<u32>().ok())
                {
                    let w = self.checked_width(w as i64)?;
                    return Ok((Ty::uint(w), q, o));
                }
                if let Some(w) = name.strip_prefix("int").and_then(|d| d.parse::<u32>().ok()) {
                    let w = self.checked_width(w as i64)?;
                    return Ok((Ty::int(w), q, o));
                }
                self.err(format!("unknown type `{name}`"))
            }
        }
    }

    fn checked_width(&self, w: i64) -> Result<u32, ParseError> {
        if (1..=fixpt::MAX_WIDTH as i64).contains(&w) {
            Ok(w as u32)
        } else {
            self.err(format!(
                "integer width {w} out of range (1..={})",
                fixpt::MAX_WIDTH
            ))
        }
    }

    fn parse_quant(&mut self) -> Result<Quantization, ParseError> {
        let m = self.expect_ident()?;
        match m {
            "SC_TRN" => Ok(Quantization::Trn),
            "SC_TRN_ZERO" => Ok(Quantization::TrnZero),
            "SC_RND" => Ok(Quantization::Rnd),
            "SC_RND_ZERO" => Ok(Quantization::RndZero),
            "SC_RND_MIN_INF" => Ok(Quantization::RndMinInf),
            "SC_RND_INF" => Ok(Quantization::RndInf),
            "SC_RND_CONV" => Ok(Quantization::RndConv),
            _ => self.err(format!("unknown quantization mode `{m}`")),
        }
    }

    fn parse_ovf(&mut self) -> Result<Overflow, ParseError> {
        let m = self.expect_ident()?;
        match m {
            "SC_WRAP" => Ok(Overflow::Wrap),
            "SC_SAT" => Ok(Overflow::Sat),
            "SC_SAT_ZERO" => Ok(Overflow::SatZero),
            "SC_SAT_SYM" => Ok(Overflow::SatSym),
            _ => self.err(format!("unknown overflow mode `{m}`")),
        }
    }

    /// `true` when the upcoming tokens start a type.
    fn at_type(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => {
                matches!(
                    s,
                    "int" | "bool" | "sc_fixed" | "sc_ufixed" | "sc_int" | "sc_uint"
                ) || (s.starts_with("int") && s[3..].parse::<u32>().is_ok())
                    || (s.starts_with("uint") && s[4..].parse::<u32>().is_ok())
            }
            _ => false,
        }
    }

    // ----- constants -------------------------------------------------------

    /// Constant integer expression: literals, `const int` names, + - *,
    /// parentheses.
    fn const_expr(&mut self) -> Result<i64, ParseError> {
        let mut v = self.const_term()?;
        loop {
            if self.eat_punct("+") {
                v = v
                    .checked_add(self.const_term()?)
                    .ok_or_else(|| self.overflow_err())?;
            } else if self.eat_punct("-") {
                v = v
                    .checked_sub(self.const_term()?)
                    .ok_or_else(|| self.overflow_err())?;
            } else {
                return Ok(v);
            }
        }
    }

    fn overflow_err(&self) -> ParseError {
        ParseError {
            message: "constant expression overflows".into(),
            line: self.line(),
        }
    }

    fn const_term(&mut self) -> Result<i64, ParseError> {
        let mut v = self.const_atom()?;
        while self.eat_punct("*") {
            v = v
                .checked_mul(self.const_atom()?)
                .ok_or_else(|| self.overflow_err())?;
        }
        Ok(v)
    }

    fn const_atom(&mut self) -> Result<i64, ParseError> {
        if self.eat_punct("-") {
            return self
                .const_atom()?
                .checked_neg()
                .ok_or_else(|| self.overflow_err());
        }
        if self.eat_punct("(") {
            let v = self.const_expr()?;
            self.expect_punct(")")?;
            return Ok(v);
        }
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            Tok::Ident(name) => {
                if let Some(v) = self.consts.get(name).copied() {
                    self.bump();
                    Ok(v)
                } else {
                    self.err(format!("`{name}` is not a compile-time constant"))
                }
            }
            other => self.err(format!("expected a constant, found {other}")),
        }
    }

    /// Validates an array length constant.
    fn array_len(&mut self) -> Result<usize, ParseError> {
        let n = self.const_expr()?;
        self.expect_punct("]")?;
        if !(1..=1_048_576).contains(&n) {
            return self.err(format!("array length {n} out of range (1..=2^20)"));
        }
        Ok(n as usize)
    }

    // ----- top level -------------------------------------------------------

    fn function(&mut self) -> Result<Function, ParseError> {
        if !self.eat_keyword("void") {
            return self.err("expected `void <name>(...)`");
        }
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        if !self.eat_punct(")") {
            loop {
                self.param()?;
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
        }
        self.expect_punct("{")?;
        let body = self.block_body()?;
        match self.peek() {
            Tok::Eof => {}
            other => return self.err(format!("trailing input after function: {other}")),
        }
        Ok(Function {
            name: name.to_string(),
            vars: std::mem::take(&mut self.vars),
            params: std::mem::take(&mut self.params),
            body,
        })
    }

    fn param(&mut self) -> Result<(), ParseError> {
        let (ty, ..) = self.parse_type()?;
        let pointer = self.eat_punct("*");
        let name = self.expect_ident()?;
        let len = if self.eat_punct("[") {
            Some(self.array_len()?)
        } else {
            None
        };
        if pointer && len.is_some() {
            return self.err("a parameter cannot be both a pointer and an array");
        }
        let id = self.declare(name, ty, VarKind::Param, len);
        self.params.push(id);
        Ok(())
    }

    // ----- statements ------------------------------------------------------

    /// Parses statements until the closing `}` (consumed).
    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), Tok::Eof) {
                return self.err("unexpected end of input (missing `}`)");
            }
            self.stmt(&mut out)?;
        }
        Ok(out)
    }

    fn braced_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        self.scopes.push(HashMap::new());
        let body = self.block_body();
        self.scopes.pop();
        body
    }

    fn stmt(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // const int NAME = <const>;
        if matches!(self.peek(), Tok::Ident(s) if s == "const") {
            self.bump();
            if !self.eat_keyword("int") {
                return self.err("only `const int` compile-time constants are supported");
            }
            let name = self.expect_ident()?;
            self.expect_punct("=")?;
            let v = self.const_expr()?;
            self.expect_punct(";")?;
            self.consts.insert(name, v);
            return Ok(());
        }
        // static <type> name[len]?;
        if matches!(self.peek(), Tok::Ident(s) if s == "static") {
            self.bump();
            let (ty, ..) = self.parse_type()?;
            let name = self.expect_ident()?;
            let len = if self.eat_punct("[") {
                Some(self.array_len()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            self.declare(name, ty, VarKind::Static, len);
            return Ok(());
        }
        // if (...) {...} else {...}
        if matches!(self.peek(), Tok::Ident(s) if s == "if") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_ = self.braced_block()?;
            let else_ = if self.eat_keyword("else") {
                self.braced_block()?
            } else {
                Vec::new()
            };
            out.push(Stmt::If { cond, then_, else_ });
            return Ok(());
        }
        // for (...) — unlabeled.
        if matches!(self.peek(), Tok::Ident(s) if s == "for") {
            let stmt = self.for_loop(format!("loop_{}", self.line()))?;
            out.push(stmt);
            return Ok(());
        }
        // label: for (...)
        if let Tok::Ident(name) = self.peek() {
            if matches!(self.toks[self.pos + 1].kind, Tok::Punct(":"))
                && matches!(self.toks.get(self.pos + 2), Some(t) if t.kind == Tok::Ident("for"))
            {
                self.bump(); // label
                self.bump(); // ':'
                let stmt = self.for_loop(name.to_string())?;
                out.push(stmt);
                return Ok(());
            }
        }
        // Local declaration: <type> name [= expr];
        if self.at_type() {
            let (ty, ..) = self.parse_type()?;
            let name = self.expect_ident()?;
            let len = if self.eat_punct("[") {
                Some(self.array_len()?)
            } else {
                None
            };
            let id = self.declare(name, ty, VarKind::Local, len);
            if self.eat_punct("=") {
                if len.is_some() {
                    return self.err("array initializers are not supported");
                }
                let value = self.expr()?;
                out.push(Stmt::Assign { var: id, value });
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        // Assignment: lvalue (=|+=|-=) expr ;
        let (target, index) = self.lvalue()?;
        let op = match self.peek() {
            Tok::Punct(op @ ("=" | "+=" | "-=")) => op,
            other => return self.err(format!("expected an assignment operator, found {other}")),
        };
        self.bump();
        let rhs = self.expr()?;
        self.expect_punct(";")?;
        let current = match &index {
            Some(i) => Expr::load(target, i.clone()),
            None => Expr::var(target),
        };
        let value = match op {
            "=" => rhs,
            "+=" => Expr::add(current, rhs),
            _ => Expr::sub(current, rhs),
        };
        out.push(match index {
            Some(i) => Stmt::Store {
                array: target,
                index: i,
                value,
            },
            None => Stmt::Assign { var: target, value },
        });
        Ok(())
    }

    /// `for ( int k = c ; k cmp c ; k++/k--/k+=c/k-=c ) { ... }`
    fn for_loop(&mut self, label: String) -> Result<Stmt, ParseError> {
        if !self.eat_keyword("for") {
            return self.err("expected `for`");
        }
        self.expect_punct("(")?;
        self.scopes.push(HashMap::new());
        let counter_is_decl = self.eat_keyword("int");
        let counter_name = self.expect_ident()?;
        let var = if counter_is_decl {
            self.declare(counter_name, Ty::int(32), VarKind::Counter, None)
        } else {
            match self.lookup(counter_name) {
                Some(v) => v,
                None => return self.err(format!("unknown loop counter `{counter_name}`")),
            }
        };
        self.expect_punct("=")?;
        let start = self.const_expr()?;
        self.expect_punct(";")?;
        let lhs = self.expect_ident()?;
        if lhs != counter_name {
            return self.err("the loop condition must test the counter");
        }
        let cmp = match self.bump() {
            Tok::Punct("<") => CmpOp::Lt,
            Tok::Punct("<=") => CmpOp::Le,
            Tok::Punct(">") => CmpOp::Gt,
            Tok::Punct(">=") => CmpOp::Ge,
            Tok::Punct("!=") => CmpOp::Ne,
            other => return self.err(format!("unsupported loop comparison {other}")),
        };
        let bound = self.const_expr()?;
        self.expect_punct(";")?;
        let step_name = self.expect_ident()?;
        if step_name != counter_name {
            return self.err("the loop step must update the counter");
        }
        let step = match self.bump() {
            Tok::Punct("++") => 1,
            Tok::Punct("--") => -1,
            Tok::Punct("+=") => self.const_expr()?,
            Tok::Punct("-=") => -self.const_expr()?,
            other => return self.err(format!("unsupported loop step {other}")),
        };
        self.expect_punct(")")?;
        let body = self.braced_block()?;
        self.scopes.pop();
        Ok(Stmt::For(Loop {
            label,
            var,
            start,
            cmp,
            bound,
            step,
            body,
        }))
    }

    fn lvalue(&mut self) -> Result<(VarId, Option<Expr>), ParseError> {
        if self.eat_punct("*") {
            let name = self.expect_ident()?;
            return match self.lookup(name) {
                Some(v) => Ok((v, None)),
                None => self.err(format!("unknown variable `{name}`")),
            };
        }
        let name = self.expect_ident()?;
        let Some(v) = self.lookup(name) else {
            return self.err(format!("unknown variable `{name}`"));
        };
        if self.eat_punct("[") {
            let idx = self.expr()?;
            self.expect_punct("]")?;
            Ok((v, Some(idx)))
        } else {
            Ok((v, None))
        }
    }

    // ----- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.comparison()?;
        if self.eat_punct("?") {
            let t = self.expr()?;
            self.expect_punct(":")?;
            let e = self.expr()?;
            return Ok(Expr::select(cond, t, e));
        }
        Ok(cond)
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Tok::Punct("==") => CmpOp::Eq,
            Tok::Punct("!=") => CmpOp::Ne,
            Tok::Punct("<") => CmpOp::Lt,
            Tok::Punct("<=") => CmpOp::Le,
            Tok::Punct(">") => CmpOp::Gt,
            Tok::Punct(">=") => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Expr::cmp(op, lhs, rhs))
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.multiplicative()?;
        loop {
            if self.eat_punct("+") {
                e = Expr::add(e, self.multiplicative()?);
            } else if self.eat_punct("-") {
                e = Expr::sub(e, self.multiplicative()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.shift()?;
        while self.eat_punct("*") {
            e = Expr::mul(e, self.shift()?);
        }
        Ok(e)
    }

    fn shift(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        loop {
            if self.eat_punct(">>") {
                let n = self.shift_amount()?;
                e = Expr::Binary {
                    op: crate::expr::BinOp::Shr,
                    lhs: Box::new(e),
                    rhs: Box::new(Expr::int_const(n)),
                };
            } else if self.eat_punct("<<") {
                let n = self.shift_amount()?;
                e = Expr::Binary {
                    op: crate::expr::BinOp::Shl,
                    lhs: Box::new(e),
                    rhs: Box::new(Expr::int_const(n)),
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn shift_amount(&mut self) -> Result<i64, ParseError> {
        let n = self.const_expr()?;
        if !(0..=63).contains(&n) {
            return self.err(format!("shift amount {n} out of range (0..=63)"));
        }
        Ok(n)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-") {
            return Ok(Expr::neg(self.unary()?));
        }
        // A parenthesis is a cast when a type follows.
        if matches!(self.peek(), Tok::Punct("(")) {
            let save = self.pos;
            self.bump();
            if self.at_type() {
                let (ty, q, o) = self.parse_type()?;
                self.expect_punct(")")?;
                let arg = self.unary()?;
                return Ok(Expr::cast_with(ty, q, o, arg));
            }
            // Plain parenthesized expression.
            self.pos = save;
            self.bump();
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::int_const(v))
            }
            Tok::Decimal(text) => {
                self.bump();
                self.decimal_const(text)
            }
            Tok::Ident(name) => {
                // Builtin: sign(expr).
                if name == "sign" && matches!(self.toks[self.pos + 1].kind, Tok::Punct("(")) {
                    self.bump();
                    self.bump();
                    let arg = self.expr()?;
                    self.expect_punct(")")?;
                    return Ok(Expr::signum(arg));
                }
                if let Some(v) = self.consts.get(name).copied() {
                    self.bump();
                    return Ok(Expr::int_const(v));
                }
                self.bump();
                let Some(var) = self.lookup(name) else {
                    return self.err(format!("unknown variable `{name}`"));
                };
                if self.eat_punct("[") {
                    let idx = self.expr()?;
                    self.expect_punct("]")?;
                    Ok(Expr::load(var, idx))
                } else {
                    Ok(Expr::var(var))
                }
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    /// Converts a decimal literal to an exact binary fixed-point constant.
    ///
    /// With its digits read as the integer `m` and `k` of them after the
    /// point, the literal is `m / 10^k`, which is exact in binary iff `5^k`
    /// divides `m`; it then equals `(m / 5^k) / 2^k`. Trailing fraction
    /// zeros are dropped first, so that quotient is odd and `k` is the
    /// number of fraction bits the constant needs.
    fn decimal_const(&mut self, text: &str) -> Result<Expr, ParseError> {
        let (whole, fraction) = text.split_once('.').unwrap_or((text, ""));
        let fraction = fraction.trim_end_matches('0');
        let mut digits = whole.bytes().chain(fraction.bytes());
        let Some(m) = digits.try_fold(0i128, |m, d| {
            m.checked_mul(10)?.checked_add(i128::from(d - b'0'))
        }) else {
            return self.err(format!("decimal `{text}` has too many digits"));
        };
        let frac = fraction.len();
        if frac > 30 || m % 5i128.pow(frac as u32) != 0 {
            return self.err(format!(
                "decimal `{text}` has no exact binary representation"
            ));
        }
        let mantissa = m / 5i128.pow(frac as u32);
        let width = BitInt::required_width(mantissa, Signedness::Signed).max(2);
        if width > fixpt::MAX_WIDTH {
            return self.err(format!("decimal `{text}` needs {width} bits"));
        }
        let fmt = Format::signed(width, width as i32 - frac as i32);
        let f = Fixed::from_raw(mantissa, fmt).map_err(|e| ParseError {
            message: e.to_string(),
            line: self.line(),
        })?;
        Ok(Expr::Const(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interpreter, Slot};
    use crate::validate::validate;

    #[test]
    fn parses_paper_style_function() {
        let f = parse_function(
            r#"
            #pragma design top
            void qd(sc_fixed<10,0> x_in[2], uint6 *data) {
                const int n = 4;
                static sc_fixed<10,0> c[4];
                sc_fixed<12,2> acc = 0;
                mac: for (int k = 0; k < n; k++) {
                    acc += x_in[0] * c[k];
                }
                *data = acc;
            }
        "#,
        )
        .expect("parses");
        assert_eq!(f.name, "qd");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.loop_labels(), vec!["mac"]);
        assert_eq!(f.find_loop("mac").expect("loop").trip_count(), 4);
        assert!(validate(&f).is_empty(), "{:?}", validate(&f));
    }

    #[test]
    fn parsed_function_executes() {
        let f = parse_function(
            r#"
            void scale(sc_fixed<10,2> x[4], sc_fixed<12,4> *out) {
                sc_fixed<12,4> acc = 0;
                s: for (int k = 0; k < 4; k++) {
                    acc += x[k] * 0.5;
                }
                *out = acc;
            }
        "#,
        )
        .expect("parses");
        let (x, out) = (f.params[0], f.params[1]);
        let mut i = Interpreter::new(f);
        let fmt = Format::signed(10, 2);
        let input = Slot::Array(vec![Fixed::from_f64(1.5, fmt); 4]);
        let r = i.call(&[(x, input)]).expect("runs");
        assert_eq!(r[&out].scalar().expect("scalar").to_f64(), 3.0);
    }

    #[test]
    fn casts_with_modes() {
        let f = parse_function(
            r#"
            void q(sc_fixed<12,4> y, sc_fixed<3,0> *r) {
                *r = (sc_fixed<3,0,SC_RND_ZERO,SC_SAT>)(y - 0.0625);
            }
        "#,
        )
        .expect("parses");
        let (y, r) = (f.params[0], f.params[1]);
        let mut i = Interpreter::new(f);
        let fmt = Format::signed(12, 4);
        let out = i
            .call(&[(y, Slot::Scalar(Fixed::from_f64(0.25, fmt)))])
            .expect("runs");
        // (0.25 - 0.0625) = 0.1875 -> round to 1/8 grid -> 0.25? No:
        // 0.1875 * 8 = 1.5, RndZero ties toward zero -> 1 -> 0.125.
        assert_eq!(out[&r].scalar().expect("scalar").to_f64(), 0.125);
    }

    #[test]
    fn descending_and_stepped_loops() {
        let f = parse_function(
            r#"
            void sh(int8 a[8]) {
                up: for (int k = 4; k >= 0; k -= 2) {
                    a[k + 3] = a[k + 1];
                    a[k + 2] = a[k];
                }
            }
        "#,
        )
        .expect("parses");
        let l = f.find_loop("up").expect("loop");
        assert_eq!(l.iteration_values(), vec![4, 2, 0]);
    }

    #[test]
    fn sign_builtin_and_ternary() {
        let f = parse_function(
            r#"
            void s(sc_fixed<10,2> e, sc_fixed<10,2> x, sc_fixed<10,2> *out) {
                *out = x > 0 ? e : (x < 0 ? -e : 0) ;
                sc_fixed<2,2> sg = sign(x);
            }
        "#,
        )
        .expect("parses");
        assert!(validate(&f).is_empty());
    }

    #[test]
    fn int_shorthand_types() {
        let f = parse_function("void t(int17 a, uint6 *b) { *b = a; }").expect("parses");
        assert_eq!(f.var(f.params[0]).ty.width(), 17);
        assert_eq!(f.var(f.params[1]).ty.width(), 6);
        assert!(f.var(f.params[0]).ty.format().expect("fmt").is_signed());
        assert!(!f.var(f.params[1]).ty.format().expect("fmt").is_signed());
    }

    #[test]
    fn error_reports_line() {
        let err = parse_function("void f(int8 a) {\n  b = 1;\n}").expect_err("unknown var");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown variable `b`"), "{err}");
    }

    #[test]
    fn non_constant_bound_rejected() {
        let err = parse_function(
            "void f(int8 n, int8 *o) { l: for (int k = 0; k < n; k++) { *o = k; } }",
        )
        .expect_err("bound must be const");
        assert!(err.message.contains("not a compile-time constant"), "{err}");
    }

    #[test]
    fn inexact_decimal_rejected() {
        let err = parse_function("void f(sc_fixed<10,2> *o) { *o = 0.1; }")
            .expect_err("0.1 is not binary-exact");
        assert!(
            err.message.contains("no exact binary representation"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_integer_literals_rejected() {
        for (src, literal) in [
            (
                "void f(int8 *o) {\n l: for (int k = 0; k < 18446744073709551620; k++) { *o = k; } }",
                "18446744073709551620",
            ),
            (
                "void f(int8 *o) {\n *o = 99999999999999999999; }",
                "99999999999999999999",
            ),
            ("void f(int8 *o) {\n *o = 9223372036854775808; }", "9223372036854775808"),
        ] {
            let err = parse_function(src).expect_err("literal out of range");
            assert_eq!(err.line, 2, "{err}");
            assert!(err.message.contains(&format!("`{literal}`")), "{err}");
        }
        let f = parse_function("void f(int64 *o) { *o = 9223372036854775807; }").expect("parses");
        assert!(matches!(
            &f.body[..],
            [Stmt::Assign { value, .. }] if *value == Expr::int_const(i64::MAX)
        ));
    }

    /// The constant a one-assignment source stores.
    fn assigned_const(text: &str) -> Result<Fixed, ParseError> {
        let f = parse_function(&format!("void f(sc_fixed<10,2> *o) {{ *o = {text}; }}"))?;
        match &f.body[..] {
            [Stmt::Assign {
                value: Expr::Const(c),
                ..
            }] => Ok(*c),
            other => panic!("{text}: {other:?}"),
        }
    }

    #[test]
    fn decimal_exactness_decided_on_the_digits() {
        for text in [
            "0.5000000000001",
            "0.06250000000000000001",
            "0.0000000001",
            "123456789.123",
        ] {
            let err = assigned_const(text).expect_err(text);
            assert!(
                err.message.contains("no exact binary representation"),
                "{err}"
            );
        }
        // (text, mantissa, width, integer bits): 2^-30 and 3 + 2^-30 are
        // exact, the rest read as they always have.
        for (text, raw, width, int_bits) in [
            ("0.000000000931322574615478515625", 1, 2, -28),
            ("3.000000000931322574615478515625", 3 << 30 | 1, 33, 3),
            ("0.0625", 1, 2, -2),
            ("0.00390625", 1, 2, -6),
            ("0.5", 1, 2, 1),
            ("0.50", 1, 2, 1),
            ("1.5", 3, 3, 2),
            ("1.", 1, 2, 2),
            ("40.0", 40, 7, 7),
        ] {
            let fmt = Format::signed(width, int_bits);
            assert_eq!(
                assigned_const(text).expect(text),
                Fixed::from_raw(raw, fmt).expect("in range"),
                "{text}"
            );
        }
        let long = format!("1{}.5", "0".repeat(40));
        let err = assigned_const(&long).expect_err("too many digits");
        assert!(err.message.contains("too many digits"), "{err}");
        let err = assigned_const("36893488147419103232.5").expect_err("too wide");
        assert!(err.message.contains("needs 68 bits"), "{err}");
    }

    #[test]
    fn shifts_parse() {
        let f = parse_function(
            "void f(sc_fixed<12,2> x, sc_fixed<12,2> *o) { *o = (x >> 8) + (x << 1); }",
        )
        .expect("parses");
        assert!(validate(&f).is_empty());
    }
}
