//! MiniC recursive-descent parser.

use crate::ast::{
    BinOp, Expr, ExprKind, Function, GlobalVar, LValue, Param, Program, Stmt, Ty, UnOp,
};
use crate::lexer::{Tok, Token};

/// Parse error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
}

type PResult<T> = Result<T, ParseError>;

/// Parses a token stream into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] at the first syntax error.
pub fn parse(tokens: &[Token]) -> PResult<Program> {
    let mut p = Parser { tokens, pos: 0 };
    let mut program = Program::default();
    while p.peek() != &Tok::Eof {
        if p.peek() == &Tok::KwExtern {
            p.advance();
            let func = p.function_signature()?;
            p.expect(Tok::Semi)?;
            program.functions.push(func);
            continue;
        }
        // Both globals and functions start with a type + name.
        let save = p.pos;
        let line = p.line();
        let ty = p.parse_type()?;
        let name = p.ident()?;
        if p.peek() == &Tok::LParen {
            p.pos = save;
            let mut func = p.function_signature()?;
            func.body = Some(p.block()?);
            program.functions.push(func);
        } else {
            // Global variable.
            let init = if p.peek() == &Tok::Assign {
                p.advance();
                Some(p.expr()?)
            } else {
                None
            };
            p.expect(Tok::Semi)?;
            if ty == Ty::Void {
                return Err(ParseError {
                    line,
                    message: "global cannot have type void".into(),
                });
            }
            program.globals.push(GlobalVar {
                ty,
                name,
                init,
                line,
            });
        }
    }
    Ok(program)
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn advance(&mut self) -> &Tok {
        let t = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: Tok) -> PResult<()> {
        if self.peek() == &tok {
            self.advance();
            Ok(())
        } else {
            Err(ParseError {
                line: self.line(),
                message: format!("expected {tok:?}, found {:?}", self.peek()),
            })
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.advance();
                Ok(name)
            }
            other => Err(ParseError {
                line: self.line(),
                message: format!("expected identifier, found {other:?}"),
            }),
        }
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwInt | Tok::KwLong | Tok::KwFloat | Tok::KwDouble | Tok::KwVoid
        )
    }

    fn parse_type(&mut self) -> PResult<Ty> {
        let mut ty = match self.peek() {
            Tok::KwInt => Ty::Int,
            Tok::KwLong => Ty::Long,
            Tok::KwFloat => Ty::Float,
            Tok::KwDouble => Ty::Double,
            Tok::KwVoid => Ty::Void,
            other => {
                return Err(ParseError {
                    line: self.line(),
                    message: format!("expected type, found {other:?}"),
                })
            }
        };
        self.advance();
        while self.peek() == &Tok::Star {
            self.advance();
            ty = Ty::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    fn function_signature(&mut self) -> PResult<Function> {
        let line = self.line();
        let ret = self.parse_type()?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let ty = self.parse_type()?;
                if ty == Ty::Void {
                    return Err(ParseError {
                        line: self.line(),
                        message: "parameter cannot be void".into(),
                    });
                }
                let pname = self.ident()?;
                params.push(Param { ty, name: pname });
                if self.peek() == &Tok::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(Function {
            name,
            ret,
            params,
            body: None,
            line,
        })
    }

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(ParseError {
                    line: self.line(),
                    message: "unexpected end of input in block".into(),
                });
            }
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self) -> PResult<Stmt> {
        let line = self.line();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwIf => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then = self.stmt_as_block()?;
                let els = if self.peek() == &Tok::KwElse {
                    self.advance();
                    Some(self.stmt_as_block()?)
                } else {
                    None
                };
                Ok(Stmt::If { cond, then, els })
            }
            Tok::KwWhile => {
                self.advance();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::KwFor => {
                self.advance();
                self.expect(Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.advance();
                    None
                } else {
                    let s = self.simple_stmt()?;
                    self.expect(Tok::Semi)?;
                    Some(Box::new(s))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::KwReturn => {
                self.advance();
                let value = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(value, line))
            }
            Tok::KwBreak => {
                self.advance();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Tok::KwContinue => {
                self.advance();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn stmt_as_block(&mut self) -> PResult<Vec<Stmt>> {
        if self.peek() == &Tok::LBrace {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Declaration, assignment or expression statement (no trailing `;`).
    fn simple_stmt(&mut self) -> PResult<Stmt> {
        let line = self.line();
        if self.is_type_start() {
            let ty = self.parse_type()?;
            let name = self.ident()?;
            let init = if self.peek() == &Tok::Assign {
                self.advance();
                Some(self.expr()?)
            } else {
                None
            };
            if ty == Ty::Void {
                return Err(ParseError {
                    line,
                    message: "variable cannot have type void".into(),
                });
            }
            return Ok(Stmt::Decl {
                ty,
                name,
                init,
                line,
            });
        }

        // Try to parse as an lvalue assignment, otherwise treat as an
        // expression statement.
        let save = self.pos;
        if let Ok(target) = self.lvalue() {
            if self.peek() == &Tok::Assign {
                self.advance();
                let value = self.expr()?;
                return Ok(Stmt::Assign {
                    target,
                    value,
                    line,
                });
            }
        }
        self.pos = save;
        let e = self.expr()?;
        Ok(Stmt::Expr(e))
    }

    fn lvalue(&mut self) -> PResult<LValue> {
        if self.peek() == &Tok::Star {
            self.advance();
            // `*expr = ...` — parse a unary expression as the pointer.
            let ptr = self.unary()?;
            return Ok(LValue::Deref(ptr));
        }
        let name = self.ident()?;
        if self.peek() == &Tok::LBracket {
            self.advance();
            let idx = self.expr()?;
            self.expect(Tok::RBracket)?;
            let line = self.line();
            return Ok(LValue::Index(
                Expr {
                    line,
                    kind: ExprKind::Var(name),
                },
                idx,
            ));
        }
        Ok(LValue::Var(name))
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.ternary_expr()
    }

    fn ternary_expr(&mut self) -> PResult<Expr> {
        let cond = self.binary_expr(0)?;
        if self.peek() == &Tok::Question {
            let line = self.line();
            self.advance();
            let a = self.expr()?;
            self.expect(Tok::Colon)?;
            let b = self.ternary_expr()?;
            return Ok(Expr {
                line,
                kind: ExprKind::Ternary(Box::new(cond), Box::new(a), Box::new(b)),
            });
        }
        Ok(cond)
    }

    fn bin_op_for(tok: &Tok) -> Option<(BinOp, u8)> {
        // Higher binds tighter.
        Some(match tok {
            Tok::OrOr => (BinOp::LogicalOr, 1),
            Tok::AndAnd => (BinOp::LogicalAnd, 2),
            Tok::Pipe => (BinOp::Or, 3),
            Tok::Caret => (BinOp::Xor, 4),
            Tok::Amp => (BinOp::And, 5),
            Tok::EqEq => (BinOp::Eq, 6),
            Tok::NotEq => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary_expr(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_for(self.peek()) {
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.advance();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr {
                line,
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let line = self.line();
        match self.peek() {
            Tok::Minus => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr {
                    line,
                    kind: ExprKind::Unary(UnOp::Neg, Box::new(e)),
                })
            }
            Tok::Bang => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr {
                    line,
                    kind: ExprKind::Unary(UnOp::Not, Box::new(e)),
                })
            }
            Tok::Tilde => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr {
                    line,
                    kind: ExprKind::Unary(UnOp::BitNot, Box::new(e)),
                })
            }
            Tok::Star => {
                self.advance();
                let e = self.unary()?;
                Ok(Expr {
                    line,
                    kind: ExprKind::Deref(Box::new(e)),
                })
            }
            Tok::LParen => {
                // Cast or parenthesized expression.
                let save = self.pos;
                self.advance();
                if self.is_type_start() {
                    let ty = self.parse_type()?;
                    if self.peek() == &Tok::RParen {
                        self.advance();
                        let e = self.unary()?;
                        return Ok(Expr {
                            line,
                            kind: ExprKind::Cast(ty, Box::new(e)),
                        });
                    }
                }
                self.pos = save;
                self.advance(); // consume '('
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.postfix(e)
            }
            _ => {
                let e = self.primary()?;
                self.postfix(e)
            }
        }
    }

    fn postfix(&mut self, mut e: Expr) -> PResult<Expr> {
        loop {
            if self.peek() == &Tok::LBracket {
                let line = self.line();
                self.advance();
                let idx = self.expr()?;
                self.expect(Tok::RBracket)?;
                e = Expr {
                    line,
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> PResult<Expr> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Int(v) => {
                self.advance();
                Ok(Expr {
                    line,
                    kind: ExprKind::IntLit(v),
                })
            }
            Tok::Float(v) => {
                self.advance();
                Ok(Expr {
                    line,
                    kind: ExprKind::FloatLit(v),
                })
            }
            Tok::Str(s) => {
                self.advance();
                Ok(Expr {
                    line,
                    kind: ExprKind::StrLit(s),
                })
            }
            Tok::KwSizeof => {
                self.advance();
                self.expect(Tok::LParen)?;
                let ty = self.parse_type()?;
                self.expect(Tok::RParen)?;
                Ok(Expr {
                    line,
                    kind: ExprKind::SizeOf(ty),
                })
            }
            Tok::Ident(name) => {
                if self.peek2() == &Tok::LParen {
                    self.advance(); // name
                    self.advance(); // (
                    let mut args = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == &Tok::Comma {
                                self.advance();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr {
                        line,
                        kind: ExprKind::Call(name, args),
                    })
                } else {
                    self.advance();
                    Ok(Expr {
                        line,
                        kind: ExprKind::Var(name),
                    })
                }
            }
            other => Err(ParseError {
                line,
                message: format!("unexpected token {other:?} in expression"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let p = parse_src("int add(int a, int b) { return a + b; }");
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert!(f.body.is_some());
    }

    #[test]
    fn parses_extern() {
        let p = parse_src("extern long clock_ns();");
        assert_eq!(p.functions.len(), 1);
        assert!(p.functions[0].body.is_none());
    }

    #[test]
    fn parses_globals() {
        let p = parse_src("int g = 3; double h; int main() { return g; }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn parses_pointer_types() {
        let p = parse_src("double** f(int* a) { return (double**)a; }");
        assert_eq!(
            p.functions[0].ret,
            Ty::Ptr(Box::new(Ty::Ptr(Box::new(Ty::Double))))
        );
    }

    #[test]
    fn precedence() {
        let p = parse_src("int f() { return 1 + 2 * 3; }");
        let Some(body) = &p.functions[0].body else {
            panic!()
        };
        let Stmt::Return(Some(e), _) = &body[0] else {
            panic!()
        };
        // Must parse as 1 + (2 * 3).
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!("got {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_for_with_all_clauses() {
        let p = parse_src("void f() { for (int i = 0; i < 10; i = i + 1) { } }");
        let Some(body) = &p.functions[0].body else {
            panic!()
        };
        assert!(matches!(
            body[0],
            Stmt::For {
                init: Some(_),
                cond: Some(_),
                step: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_empty_for() {
        let p = parse_src("void f() { for (;;) { break; } }");
        let Some(body) = &p.functions[0].body else {
            panic!()
        };
        assert!(matches!(
            body[0],
            Stmt::For {
                init: None,
                cond: None,
                step: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_deref_assignment() {
        let p = parse_src("void f(int* p) { *p = 3; p[1] = 4; }");
        let Some(body) = &p.functions[0].body else {
            panic!()
        };
        assert!(matches!(
            &body[0],
            Stmt::Assign {
                target: LValue::Deref(_),
                ..
            }
        ));
        assert!(matches!(
            &body[1],
            Stmt::Assign {
                target: LValue::Index(_, _),
                ..
            }
        ));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse(&lex("int f( { }").unwrap()).is_err());
    }

    #[test]
    fn cast_vs_parens() {
        // (a) + b is not a cast.
        let p = parse_src("int f(int a, int b) { return (a) + b; }");
        let Some(body) = &p.functions[0].body else {
            panic!()
        };
        let Stmt::Return(Some(e), _) = &body[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Add, _, _)));
    }
}
