//! Recursive-descent parser for the NQPV input language.
//!
//! Grammar (paper Sec. 6.1, tool syntax; `#` is the nondeterministic
//! choice `□`, binding looser than `;`):
//!
//! ```text
//! source   := command*
//! command  := 'def' IDENT ':=' defbody 'end' | 'show' IDENT 'end'
//! defbody  := 'load' STR | 'proof' qtuple ':' body
//! body     := seqlist ('#' seqlist)*
//! seqlist  := element (';' element)*
//! element  := assertion | atom
//! assertion:= '{' ['inv' ':'] opapp+ '}'
//! atom     := 'skip' | 'abort' | qtuple ':=' 0 | qtuple '*=' IDENT
//!           | 'if' opapp 'then' body ['else' body] 'end'
//!           | 'while' opapp 'do' body 'end'
//!           | '(' body ')'
//! opapp    := IDENT qtuple
//! qtuple   := '[' IDENT+ ']'
//! ```
//!
//! An `{ inv: … }` assertion must immediately precede a `while` in the same
//! sequence; it is attached to the loop. A top-level proof body must end
//! with a postcondition assertion, and may start with a precondition.
//! Parenthesised, `if` and `while` bodies nest at most [`MAX_NESTING`]
//! levels deep.

use crate::ast::{AssertionExpr, Command, Decl, OpApp, ProofTerm, SourceFile, Stmt};
use crate::lexer::{lex, LexError, Span, Tok, Token};
use std::fmt;

/// Deepest nesting of parenthesised, `if` and `while` bodies the parser
/// accepts. Deeper input is a [`ParseError`], so a hostile source cannot
/// exhaust the stack of this recursive-descent parser.
pub const MAX_NESTING: usize = 128;

/// Parse errors with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location (end of input uses the last token's span).
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Parses a whole NQPV source file.
///
/// # Errors
///
/// Returns [`ParseError`] with position information on malformed input.
///
/// # Examples
///
/// ```
/// use nqpv_lang::parse_source;
/// let src = r#"
/// def pf := proof [q] :
///   { I[q] };
///   [q] *= H;
///   { I[q] }
/// end
/// show pf end
/// "#;
/// let file = parse_source(src)?;
/// assert_eq!(file.commands.len(), 2);
/// # Ok::<(), nqpv_lang::ParseError>(())
/// ```
pub fn parse_source(src: &str) -> Result<SourceFile, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let mut commands = Vec::new();
    while !p.at_end() {
        commands.push(p.command()?);
    }
    Ok(SourceFile { commands })
}

/// Parses a bare statement (no `def`/`proof` wrapper); useful for tests and
/// embedding programs in Rust code.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_stmt(src: &str) -> Result<Stmt, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let stmt = p.body()?;
    if !p.at_end() {
        return Err(p.err_here("unexpected trailing input"));
    }
    Ok(stmt)
}

/// Parses a bare proof body `[{pre};] stmts; {post}` into a [`ProofTerm`]
/// with the given register declaration.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_proof_body(qubits: &[&str], src: &str) -> Result<ProofTerm, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let term = p.proof_body(qubits.iter().map(|s| s.to_string()).collect())?;
    if !p.at_end() {
        return Err(p.err_here("unexpected trailing input"));
    }
    Ok(term)
}

/// One element of a sequence: either an assertion (with its `inv` flag) or a
/// statement.
enum Element {
    Assertion {
        inv: bool,
        expr: AssertionExpr,
        span: Span,
    },
    Statement(Stmt),
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Bodies currently open around the parse position.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn here(&self) -> Span {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.span)
            .unwrap_or(Span { line: 1, col: 1 })
    }

    fn err_here(&self, msg: &str) -> ParseError {
        let found = match self.peek() {
            Some(t) => format!("{msg} (found {t})"),
            None => format!("{msg} (found end of input)"),
        };
        ParseError {
            message: found,
            span: self.here(),
        }
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, expected: &Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err_here(&format!("expected {expected}"))),
        }
    }

    fn check(&mut self, expected: &Tok) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => match self.bump() {
                Some(Token {
                    tok: Tok::Ident(s), ..
                }) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            _ => Err(self.err_here("expected an identifier")),
        }
    }

    fn command(&mut self) -> Result<Command, ParseError> {
        match self.peek() {
            Some(Tok::Def) => {
                self.bump();
                let name = self.ident()?;
                self.eat(&Tok::Assign)?;
                let decl = match self.peek() {
                    Some(Tok::Load) => {
                        self.bump();
                        let path = match self.bump() {
                            Some(Token {
                                tok: Tok::Str(s), ..
                            }) => s,
                            _ => return Err(self.err_here("expected a string path after 'load'")),
                        };
                        Decl::LoadOperator { name, path }
                    }
                    Some(Tok::Proof) => {
                        self.bump();
                        let qubits = self.qtuple()?;
                        self.eat(&Tok::Colon)?;
                        let term = self.proof_body(qubits)?;
                        Decl::Proof { name, term }
                    }
                    _ => return Err(self.err_here("expected 'load' or 'proof' after ':='")),
                };
                self.eat(&Tok::End)?;
                Ok(Command::Def(decl))
            }
            Some(Tok::Show) => {
                self.bump();
                let name = self.ident()?;
                self.eat(&Tok::End)?;
                Ok(Command::Show(name))
            }
            _ => Err(self.err_here("expected 'def' or 'show'")),
        }
    }

    fn qtuple(&mut self) -> Result<Vec<String>, ParseError> {
        self.eat(&Tok::LBracket)?;
        let mut qs = Vec::new();
        while let Some(Tok::Ident(_)) = self.peek() {
            qs.push(self.ident()?);
        }
        if qs.is_empty() {
            return Err(self.err_here("expected at least one qubit name"));
        }
        self.eat(&Tok::RBracket)?;
        Ok(qs)
    }

    fn opapp(&mut self) -> Result<OpApp, ParseError> {
        let op = self.ident()?;
        let qubits = self.qtuple()?;
        Ok(OpApp { op, qubits })
    }

    fn assertion(&mut self) -> Result<(bool, AssertionExpr), ParseError> {
        self.eat(&Tok::LBrace)?;
        let inv = if self.check(&Tok::Inv) {
            self.eat(&Tok::Colon)?;
            true
        } else {
            false
        };
        let mut terms = Vec::new();
        while let Some(Tok::Ident(_)) = self.peek() {
            terms.push(self.opapp()?);
        }
        if terms.is_empty() {
            return Err(self.err_here("expected at least one predicate term in assertion"));
        }
        self.eat(&Tok::RBrace)?;
        Ok((inv, AssertionExpr { terms }))
    }

    /// `body := seqlist ('#' seqlist)*`, lowered to a Stmt.
    fn body(&mut self) -> Result<Stmt, ParseError> {
        let mut branches = vec![self.seqlist_lowered()?];
        while self.check(&Tok::Choice) {
            branches.push(self.seqlist_lowered()?);
        }
        Ok(Stmt::ndet_all(branches))
    }

    /// A [`Parser::body`] nested inside `(`, `if` or `while`, refused past
    /// [`MAX_NESTING`] levels.
    fn nested_body(&mut self) -> Result<Stmt, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err_here(&format!(
                "statements nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let body = self.body();
        self.depth -= 1;
        body
    }

    fn seqlist_lowered(&mut self) -> Result<Stmt, ParseError> {
        let elements = self.seqlist()?;
        lower_elements(elements)
    }

    fn seqlist(&mut self) -> Result<Vec<Element>, ParseError> {
        let mut items = vec![self.element()?];
        while self.check(&Tok::Semi) {
            items.push(self.element()?);
        }
        Ok(items)
    }

    fn element(&mut self) -> Result<Element, ParseError> {
        if self.peek() == Some(&Tok::LBrace) {
            let span = self.here();
            let (inv, expr) = self.assertion()?;
            Ok(Element::Assertion { inv, expr, span })
        } else {
            Ok(Element::Statement(self.atom()?))
        }
    }

    fn atom(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::Skip) => {
                self.bump();
                Ok(Stmt::Skip)
            }
            Some(Tok::Abort) => {
                self.bump();
                Ok(Stmt::Abort)
            }
            Some(Tok::LBracket) => {
                let qubits = self.qtuple()?;
                match self.peek() {
                    Some(Tok::Assign) => {
                        self.bump();
                        match self.bump() {
                            Some(Token {
                                tok: Tok::Int(0), ..
                            }) => Ok(Stmt::Init { qubits }),
                            _ => Err(self.err_here("initialisation must assign 0")),
                        }
                    }
                    Some(Tok::StarAssign) => {
                        self.bump();
                        let op = self.ident()?;
                        Ok(Stmt::Unitary { qubits, op })
                    }
                    _ => Err(self.err_here("expected ':=' or '*=' after qubit tuple")),
                }
            }
            Some(Tok::If) => {
                self.bump();
                let m = self.opapp()?;
                self.eat(&Tok::Then)?;
                let then_branch = self.nested_body()?;
                let else_branch = if self.check(&Tok::Else) {
                    self.nested_body()?
                } else {
                    Stmt::Skip
                };
                self.eat(&Tok::End)?;
                Ok(Stmt::If {
                    meas: m.op,
                    qubits: m.qubits,
                    then_branch: Box::new(then_branch),
                    else_branch: Box::new(else_branch),
                })
            }
            Some(Tok::While) => {
                self.bump();
                let m = self.opapp()?;
                self.eat(&Tok::Do)?;
                let body = self.nested_body()?;
                self.eat(&Tok::End)?;
                Ok(Stmt::While {
                    meas: m.op,
                    qubits: m.qubits,
                    invariant: None,
                    body: Box::new(body),
                })
            }
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.nested_body()?;
                self.eat(&Tok::RParen)?;
                Ok(inner)
            }
            _ => Err(self.err_here("expected a statement")),
        }
    }

    /// Top-level proof body: peels the optional leading precondition and the
    /// mandatory trailing postcondition off the element structure.
    fn proof_body(&mut self, qubits: Vec<String>) -> Result<ProofTerm, ParseError> {
        let span = self.here();
        let stmt = self.body()?;
        // Re-expand the top level into a list for pre/post extraction.
        let mut items = match stmt {
            Stmt::Seq(ss) => ss,
            single => vec![single],
        };
        let post = match items.pop() {
            Some(Stmt::Assert(a)) => a,
            _ => {
                return Err(ParseError {
                    message: "proof body must end with a postcondition assertion".into(),
                    span,
                })
            }
        };
        let pre = if let Some(Stmt::Assert(_)) = items.first() {
            match items.remove(0) {
                Stmt::Assert(a) => Some(a),
                _ => unreachable!("checked Assert"),
            }
        } else {
            None
        };
        Ok(ProofTerm {
            qubits,
            pre,
            body: Stmt::seq(items),
            post,
        })
    }
}

/// Lowers an element list to a statement, attaching `inv:` assertions to the
/// `while` that immediately follows and keeping plain assertions as
/// [`Stmt::Assert`] cut points.
fn lower_elements(elements: Vec<Element>) -> Result<Stmt, ParseError> {
    let mut out: Vec<Stmt> = Vec::new();
    let mut pending_inv: Option<(AssertionExpr, Span)> = None;
    for el in elements {
        match el {
            Element::Assertion {
                inv: true,
                expr,
                span,
            } => {
                if pending_inv.is_some() {
                    return Err(ParseError {
                        message: "two consecutive 'inv' annotations".into(),
                        span,
                    });
                }
                pending_inv = Some((expr, span));
            }
            Element::Assertion {
                inv: false, expr, ..
            } => {
                if let Some((_, span)) = pending_inv {
                    return Err(ParseError {
                        message: "'inv' annotation must immediately precede a while loop".into(),
                        span,
                    });
                }
                out.push(Stmt::Assert(expr));
            }
            Element::Statement(mut s) => {
                if let Some((inv_expr, span)) = pending_inv.take() {
                    match &mut s {
                        Stmt::While { invariant, .. } => {
                            *invariant = Some(inv_expr);
                        }
                        _ => {
                            return Err(ParseError {
                                message: "'inv' annotation must immediately precede a while loop"
                                    .into(),
                                span,
                            })
                        }
                    }
                }
                out.push(s);
            }
        }
    }
    if let Some((_, span)) = pending_inv {
        return Err(ParseError {
            message: "dangling 'inv' annotation at end of sequence".into(),
            span,
        });
    }
    Ok(Stmt::seq(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    const QWALK: &str = r#"
def invN := load "invN.npy" end
def pf := proof [q1 q2] :
  { I[q1] };
  [q1 q2] := 0;
  { inv : invN[q1 q2] };
  while MQWalk[q1 q2] do
    ( [q1 q2] *= W1; [q1 q2] *= W2
    # [q1 q2] *= W2; [q1 q2] *= W1 )
  end;
  { Zero[q1] }
end
show pf end
"#;

    #[test]
    fn parses_the_paper_qwalk_listing() {
        let file = parse_source(QWALK).unwrap();
        assert_eq!(file.commands.len(), 3);
        match &file.commands[0] {
            Command::Def(Decl::LoadOperator { name, path }) => {
                assert_eq!(name, "invN");
                assert_eq!(path, "invN.npy");
            }
            other => panic!("expected load, got {other:?}"),
        }
        match &file.commands[1] {
            Command::Def(Decl::Proof { name, term }) => {
                assert_eq!(name, "pf");
                assert_eq!(term.qubits, vec!["q1", "q2"]);
                let pre = term.pre.as_ref().unwrap();
                assert_eq!(pre.terms[0].op, "I");
                assert_eq!(term.post.terms[0].op, "Zero");
                // Body: init ; while(inv=invN, body = ndet of two seqs)
                match &term.body {
                    Stmt::Seq(items) => {
                        assert!(matches!(items[0], Stmt::Init { .. }));
                        match &items[1] {
                            Stmt::While {
                                meas,
                                invariant,
                                body,
                                ..
                            } => {
                                assert_eq!(meas, "MQWalk");
                                assert!(invariant.is_some());
                                assert!(matches!(**body, Stmt::NDet(_, _)));
                            }
                            other => panic!("expected while, got {other:?}"),
                        }
                    }
                    other => panic!("expected seq, got {other:?}"),
                }
            }
            other => panic!("expected proof, got {other:?}"),
        }
        assert_eq!(file.commands[2], Command::Show("pf".into()));
    }

    #[test]
    fn parses_if_with_and_without_else() {
        let s = parse_stmt("if M[q] then skip else abort end").unwrap();
        assert!(matches!(s, Stmt::If { .. }));
        let s2 = parse_stmt("if M[q] then [q] *= X end").unwrap();
        match s2 {
            Stmt::If { else_branch, .. } => assert_eq!(*else_branch, Stmt::Skip),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn ndet_binds_looser_than_seq() {
        let s = parse_stmt("skip; skip # abort; abort").unwrap();
        match s {
            Stmt::NDet(a, b) => {
                assert!(matches!(*a, Stmt::Seq(_)));
                assert!(matches!(*b, Stmt::Seq(_)));
            }
            other => panic!("expected ndet, got {other:?}"),
        }
    }

    #[test]
    fn nested_parens_and_chained_choice() {
        let s = parse_stmt("skip # ( [q] *= X # [q] *= Z )").unwrap();
        // Right operand is itself an NDet.
        match s {
            Stmt::NDet(_, b) => assert!(matches!(*b, Stmt::NDet(_, _))),
            other => panic!("expected ndet, got {other:?}"),
        }
    }

    #[test]
    fn mid_sequence_assertions_become_cut_points() {
        let term =
            parse_proof_body(&["q"], "{ I[q] }; [q] *= H; { I[q] }; [q] *= H; { I[q] }").unwrap();
        match &term.body {
            Stmt::Seq(items) => {
                assert_eq!(items.len(), 3);
                assert!(matches!(items[1], Stmt::Assert(_)));
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn missing_postcondition_is_rejected() {
        let err = parse_proof_body(&["q"], "{ I[q] }; [q] *= H").unwrap_err();
        assert!(err.message.contains("postcondition"));
    }

    #[test]
    fn misplaced_inv_is_rejected() {
        let err = parse_proof_body(&["q"], "{ inv: I[q] }; [q] *= H; { I[q] }").unwrap_err();
        assert!(err.message.contains("while"));
        let err2 = parse_stmt("{ inv: I[q] }; skip").unwrap_err();
        assert!(err2.message.contains("while"));
    }

    #[test]
    fn init_must_assign_zero() {
        let err = parse_stmt("[q] := 1").unwrap_err();
        assert!(err.message.contains("assign 0"));
    }

    #[test]
    fn empty_assertion_rejected() {
        let err = parse_proof_body(&["q"], "skip; { }").unwrap_err();
        assert!(err.message.contains("predicate term"));
    }

    #[test]
    fn omitted_precondition_is_allowed() {
        let term = parse_proof_body(&["q"], "[q] *= H; { I[q] }").unwrap();
        assert!(term.pre.is_none());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nest = |depth: usize| {
            format!(
                "{}[q] *= H{} ; {{ I[q] }}",
                "( ".repeat(depth),
                " )".repeat(depth)
            )
        };
        assert!(parse_proof_body(&["q"], &nest(MAX_NESTING)).is_ok());
        let err = parse_proof_body(&["q"], &nest(MAX_NESTING + 1)).unwrap_err();
        assert!(
            err.message.contains("nested deeper than 128 levels"),
            "{err}"
        );
        let err = parse_proof_body(&["q"], &"(".repeat(200_000)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        // `if` and `while` bodies count towards the same cap.
        let ifs = format!(
            "{}skip{} ; {{ I[q] }}",
            "if M01[q] then ".repeat(MAX_NESTING + 1),
            " end".repeat(MAX_NESTING + 1)
        );
        let err = parse_proof_body(&["q"], &ifs).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        let whiles = format!(
            "{}skip{} ; {{ I[q] }}",
            "while M01[q] do ".repeat(MAX_NESTING),
            " end".repeat(MAX_NESTING)
        );
        assert!(parse_proof_body(&["q"], &whiles).is_ok());
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_source("def x := load 42 end").unwrap_err();
        assert_eq!(err.span.line, 1);
        assert!(err.message.contains("string path"));
    }
}
