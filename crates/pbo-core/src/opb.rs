//! Reading and writing the OPB pseudo-Boolean exchange format.
//!
//! This is the format used by the pseudo-Boolean evaluation / competition
//! series and by the benchmark sets the paper evaluates on:
//!
//! ```text
//! * comment
//! min: +1 x1 +2 x2 ;
//! +1 x1 +1 x2 >= 1 ;
//! -2 x3 +1 x4 = 0 ;
//! ```
//!
//! Literals are `x<k>` (1-based) or `~x<k>` for the negation. Parsing goes
//! through [`InstanceBuilder`], so arbitrary coefficients and operators are
//! accepted and normalized.
//!
//! [`parse_opb`] documents its reading contract.

use std::fmt;
use std::ops::Range;

use crate::instance::{BuildError, Instance, InstanceBuilder};
use crate::lit::Lit;
use crate::normalize::RelOp;

/// Error produced while parsing an OPB document.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseOpbError {
    /// Syntax error with line number (1-based) and message.
    Syntax {
        /// 1-based line number of the offending statement.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// The parsed data failed instance construction.
    Build(BuildError),
}

impl fmt::Display for ParseOpbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseOpbError::Syntax { line, message } => {
                write!(f, "OPB syntax error on line {line}: {message}")
            }
            ParseOpbError::Build(e) => write!(f, "OPB instance error: {e}"),
        }
    }
}

impl std::error::Error for ParseOpbError {}

impl From<BuildError> for ParseOpbError {
    fn from(e: BuildError) -> ParseOpbError {
        ParseOpbError::Build(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseOpbError {
    ParseOpbError::Syntax { line, message: message.into() }
}

/// Largest variable index accepted by [`parse_opb`]. Variables are
/// declared implicitly by their highest mention, so without a ceiling a
/// single corrupt token (`x99999999999999`) would commit the parser to
/// allocating that many variables before any solver sees the instance.
/// The cap is far above every benchmark family this crate targets.
pub const MAX_OPB_VARS: usize = 10_000_000;

/// Scanner class of a byte.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Class {
    /// Part of a token.
    Token,
    /// ASCII whitespace other than `\n`.
    Space,
    /// `\n`, the only line break.
    Newline,
    /// `;`, which ends a statement and is never part of a token.
    Semi,
    /// The first byte of a multi-byte char, classified by decoding it.
    NonAscii,
}

/// [`Class`] of every byte. The ASCII whitespace entries are the ASCII
/// chars for which [`char::is_whitespace`] holds.
const CLASS: [Class; 256] = {
    let mut table = [Class::Token; 256];
    let mut b = 0x80;
    while b < 256 {
        table[b] = Class::NonAscii;
        b += 1;
    }
    table[b'\t' as usize] = Class::Space;
    table[0x0B] = Class::Space;
    table[0x0C] = Class::Space;
    table[b'\r' as usize] = Class::Space;
    table[b' ' as usize] = Class::Space;
    table[b'\n' as usize] = Class::Newline;
    table[b';' as usize] = Class::Semi;
    table
};

/// One pass over an OPB document, handing out its `;`-separated
/// statements as tokens borrowed from the text.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based line of `pos`.
    line: usize,
    /// Nothing but whitespace seen since the last line break: a `*` here
    /// starts a comment line.
    line_start: bool,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Scanner<'a> {
        Scanner { text, pos: 0, line: 1, line_start: true }
    }

    /// The char starting at byte `at`.
    fn char_at(&self, at: usize) -> char {
        self.text[at..].chars().next().expect("scanner positions start a char")
    }

    /// Replaces the contents of `toks` with the tokens of the next
    /// non-empty statement and returns the line of its first token, or
    /// `None` at the end of the text.
    fn next_statement(&mut self, toks: &mut Vec<&'a str>) -> Option<usize> {
        toks.clear();
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        let mut first_line = 0;
        while let Some(&b) = bytes.get(pos) {
            match CLASS[b as usize] {
                Class::Newline => {
                    self.line += 1;
                    self.line_start = true;
                    pos += 1;
                    continue;
                }
                Class::Space => {
                    pos += 1;
                    continue;
                }
                Class::Semi => {
                    pos += 1;
                    self.line_start = false;
                    if toks.is_empty() {
                        continue;
                    }
                    break;
                }
                Class::NonAscii => {
                    let c = self.char_at(pos);
                    if c.is_whitespace() {
                        pos += c.len_utf8();
                        continue;
                    }
                }
                Class::Token => {
                    if self.line_start && b == b'*' {
                        // Comment line: resume at its line break.
                        pos = bytes[pos..]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map_or(bytes.len(), |i| pos + i);
                        continue;
                    }
                }
            }
            // A token starts here; it runs to the next whitespace or `;`.
            let start = pos;
            while let Some(&b) = bytes.get(pos) {
                match CLASS[b as usize] {
                    Class::Token => pos += 1,
                    Class::NonAscii => {
                        let c = self.char_at(pos);
                        if c.is_whitespace() {
                            break;
                        }
                        pos += c.len_utf8();
                    }
                    _ => break,
                }
            }
            if toks.is_empty() {
                first_line = self.line;
            }
            toks.push(&self.text[start..pos]);
            self.line_start = false;
        }
        self.pos = pos;
        (!toks.is_empty()).then_some(first_line)
    }
}

/// Parses a literal token, raising `max_var` to its variable number.
fn parse_lit(tok: &str, line: usize, max_var: &mut usize) -> Result<Lit, ParseOpbError> {
    let (neg, rest) = match tok.strip_prefix('~') {
        Some(r) => (true, r),
        None => (false, tok),
    };
    let rest = rest
        .strip_prefix('x')
        .ok_or_else(|| syntax(line, format!("expected literal, found `{tok}`")))?;
    let idx: usize =
        rest.parse().map_err(|_| syntax(line, format!("bad variable number in `{tok}`")))?;
    if idx == 0 {
        return Err(syntax(line, "variable numbers are 1-based"));
    }
    if idx > MAX_OPB_VARS {
        return Err(syntax(line, format!("variable number in `{tok}` exceeds {MAX_OPB_VARS}")));
    }
    *max_var = (*max_var).max(idx);
    Ok(Lit::new(idx - 1, !neg))
}

/// Parses the `coefficient literal` pairs that start at even positions
/// of `body[..end]` onto `out`. A pair's literal may be `body[end]`
/// itself (which then fails as a literal); `missing` is the message for
/// a pair cut off by the end of `body`.
fn parse_terms(
    body: &[&str],
    end: usize,
    line: usize,
    missing: &str,
    out: &mut Vec<(i64, Lit)>,
    max_var: &mut usize,
) -> Result<(), ParseOpbError> {
    for i in (0..end).step_by(2) {
        let coeff: i64 = body[i]
            .parse()
            .map_err(|_| syntax(line, format!("expected coefficient, found `{}`", body[i])))?;
        let lit = parse_lit(body.get(i + 1).ok_or_else(|| syntax(line, missing))?, line, max_var)?;
        out.push((coeff, lit));
    }
    Ok(())
}

/// Parses an OPB document into an [`Instance`].
///
/// # Errors
///
/// Returns [`ParseOpbError`] on malformed input or if normalization fails.
/// A variable index above [`MAX_OPB_VARS`] is rejected as malformed
/// rather than allocated. The reading contract below says which error
/// a document with several faults reports.
///
/// # Reading contract
///
/// The text is read in one pass; its tokens borrow from the
/// input. The rules below are pinned by a differential test against a
/// line-by-line reference reader.
///
/// * **Lines.** `\n` is the only line break. A statement's line is 1 plus
///   the number of `\n` before its first token.
/// * **Whitespace** is exactly what [`str::split_whitespace`] splits on,
///   [`char::is_whitespace`]: besides the blank, `\t`, `\x0B`, `\x0C` and
///   `\r` (so CRLF line ends are fine), and non-ASCII spaces such as
///   U+0085, U+00A0 and U+3000.
/// * **Comments.** A line whose first non-whitespace char is `*` is skipped
///   whole, even inside a statement spread over several lines. A `*`
///   anywhere else is an ordinary token character.
/// * **Tokens** are the maximal runs of chars that are neither whitespace
///   nor `;`. A `;` ends the current statement, also when glued to a token
///   (`>= 1;`). Empty statements are skipped, a statement may span lines,
///   and the last one may omit its `;`.
/// * **Statements.** One starting with the token `min:`, or the tokens
///   `min` and `:`, is the objective: `coefficient literal` pairs. Any
///   other is a constraint: `coefficient literal` pairs, one of `>=`, `<=`
///   and `=`, then exactly one right-hand side. Coefficients and
///   right-hand sides are `i64` and variable numbers `usize`, both in the
///   syntax of [`str::parse`], which takes a leading `+` (`x+3` is `x3`).
/// * **Errors.** The first error in statement order is returned, with that
///   statement's line. Within an objective, a second objective is reported
///   before its terms are read; within a constraint, a missing operator
///   comes first, then a right-hand side that is missing or not alone,
///   then a malformed one, then the terms from left to right. Every
///   [`ParseOpbError::Syntax`] comes before any [`ParseOpbError::Build`]:
///   the instance is normalized only once the whole document is read.
///
/// # Examples
///
/// ```
/// let text = "\
/// * tiny example
/// min: +1 x1 +2 x2 ;
/// +1 x1 +1 x2 >= 1 ;
/// ";
/// let inst = pbo_core::parse_opb(text)?;
/// assert_eq!(inst.num_vars(), 2);
/// assert!(inst.is_optimization());
/// # Ok::<(), pbo_core::ParseOpbError>(())
/// ```
pub fn parse_opb(text: &str) -> Result<Instance, ParseOpbError> {
    let mut scanner = Scanner::new(text);
    let mut toks: Vec<&str> = Vec::new();
    let mut max_var = 0usize;
    // The raw terms of every statement, flat; constraints and the
    // objective keep spans into it.
    let mut terms: Vec<(i64, Lit)> = Vec::new();
    let mut constraints: Vec<(Range<usize>, RelOp, i64)> = Vec::new();
    let mut objective: Option<Range<usize>> = None;

    while let Some(line) = scanner.next_statement(&mut toks) {
        let start = terms.len();
        match toks[..] {
            ["min:", ref body @ ..] | ["min", ":", ref body @ ..] => {
                if objective.is_some() {
                    return Err(syntax(line, "duplicate objective"));
                }
                let end = body.len();
                parse_terms(
                    body,
                    end,
                    line,
                    "objective term missing literal",
                    &mut terms,
                    &mut max_var,
                )?;
                objective = Some(start..terms.len());
            }
            ref body => {
                let op_pos = body
                    .iter()
                    .position(|&t| t == ">=" || t == "<=" || t == "=")
                    .ok_or_else(|| syntax(line, "constraint missing relational operator"))?;
                let op = match body[op_pos] {
                    ">=" => RelOp::Ge,
                    "<=" => RelOp::Le,
                    _ => RelOp::Eq,
                };
                if op_pos + 2 != body.len() {
                    return Err(syntax(line, "expected single right-hand side after operator"));
                }
                let rhs: i64 = body[op_pos + 1].parse().map_err(|_| {
                    syntax(line, format!("bad right-hand side `{}`", body[op_pos + 1]))
                })?;
                parse_terms(
                    body,
                    op_pos,
                    line,
                    "constraint term missing literal",
                    &mut terms,
                    &mut max_var,
                )?;
                constraints.push((start..terms.len(), op, rhs));
            }
        }
    }

    let mut builder = InstanceBuilder::with_vars(max_var);
    for (span, op, rhs) in constraints {
        builder.add_linear(terms[span].iter().copied(), op, rhs);
    }
    if let Some(span) = objective {
        builder.minimize(terms[span].iter().copied());
    }
    Ok(builder.build()?)
}

/// Serializes an [`Instance`] to OPB text. The output is normalized
/// (`>=`-only constraints with positive coefficients) and parses back to
/// an equal instance.
///
/// # Examples
///
/// ```
/// use pbo_core::{parse_opb, write_opb};
///
/// let inst = parse_opb("+2 x1 +1 x2 >= 2 ;\n")?;
/// let text = write_opb(&inst);
/// assert_eq!(parse_opb(&text)?, inst);
/// # Ok::<(), pbo_core::ParseOpbError>(())
/// ```
pub fn write_opb(instance: &Instance) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "* #variable= {} #constraint= {}",
        instance.num_vars(),
        instance.num_constraints()
    );
    let _ = writeln!(out, "* name: {}", instance.name());
    let fmt_lit = |l: Lit| {
        if l.is_positive() {
            format!("x{}", l.var().index() + 1)
        } else {
            format!("~x{}", l.var().index() + 1)
        }
    };
    if let Some(obj) = instance.objective() {
        let mut line = String::from("min:");
        for (c, l) in obj.terms() {
            let _ = write!(line, " +{} {}", c, fmt_lit(*l));
        }
        // The offset is not representable in OPB; it is emitted as a
        // comment and folded away (solution costs shift accordingly).
        if obj.offset() != 0 {
            let _ = writeln!(out, "* objective offset: {}", obj.offset());
        }
        let _ = writeln!(out, "{} ;", line);
    }
    for c in instance.constraints() {
        let mut line = String::new();
        for t in c.terms() {
            let _ = write!(line, "+{} {} ", t.coeff, fmt_lit(t.lit));
        }
        let _ = writeln!(out, "{}>= {} ;", line, c.rhs());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;

    #[test]
    fn parse_minimal() {
        let inst = parse_opb("+1 x1 +1 x2 >= 1 ;").unwrap();
        assert_eq!(inst.num_vars(), 2);
        assert_eq!(inst.num_constraints(), 1);
        assert!(!inst.is_optimization());
    }

    #[test]
    fn parse_with_objective_and_comments() {
        let text = "\
* a comment
min: +3 x1 +5 x3 ;
+1 x1 +1 x2 >= 1 ;
-1 x2 -1 x3 >= -1 ;
";
        let inst = parse_opb(text).unwrap();
        assert_eq!(inst.num_vars(), 3);
        assert_eq!(inst.num_constraints(), 2);
        assert!(inst.is_optimization());
        assert_eq!(inst.cost_of(&[true, false, true]), 8);
    }

    #[test]
    fn parse_negated_literals() {
        let inst = parse_opb("+1 ~x1 +2 x2 >= 2 ;").unwrap();
        let c = &inst.constraints()[0];
        assert_eq!(c.coeff_of(Lit::new(0, false)), 1);
        assert_eq!(c.coeff_of(Lit::new(1, true)), 2);
    }

    #[test]
    fn parse_equality_expands() {
        let inst = parse_opb("+1 x1 +1 x2 = 1 ;").unwrap();
        assert_eq!(inst.num_constraints(), 2);
    }

    #[test]
    fn parse_multiline_statement() {
        let inst = parse_opb("+1 x1\n+1 x2\n>= 1 ;").unwrap();
        assert_eq!(inst.num_constraints(), 1);
        assert_eq!(inst.constraints()[0].len(), 2);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_opb("+1 y1 >= 1 ;").unwrap_err();
        match err {
            ParseOpbError::Syntax { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(parse_opb("+1 x1 >= ;").is_err());
        assert!(parse_opb("+1 x1 1 ;").is_err());
        assert!(parse_opb("min: +1 x1 ;\nmin: +1 x1 ;").is_err());
    }

    #[test]
    fn roundtrip_preserves_instance() {
        let mut b = InstanceBuilder::new();
        let vars = b.new_vars(4);
        b.add_linear(
            vec![(3, vars[0].positive()), (-2, vars[1].negative()), (1, vars[2].positive())],
            RelOp::Le,
            2,
        );
        b.add_at_least(2, vars.iter().map(|v| v.positive()));
        b.minimize(vec![(1, vars[0].positive()), (4, vars[3].negative())]);
        b.name("unnamed");
        let inst = b.build().unwrap();
        let text = write_opb(&inst);
        let parsed = parse_opb(&text).unwrap();
        assert_eq!(parsed.constraints(), inst.constraints());
        assert_eq!(parsed.num_vars(), inst.num_vars());
        // Objective terms survive; offset is dropped by the format (it is
        // emitted as a comment), so compare terms only.
        assert_eq!(parsed.objective().unwrap().terms(), inst.objective().unwrap().terms());
    }

    #[test]
    fn zero_variable_number_rejected() {
        assert!(parse_opb("+1 x0 >= 1 ;").is_err());
    }

    #[test]
    fn byte_classes_agree_with_char_is_whitespace() {
        for b in 0u8..0x80 {
            let space = matches!(CLASS[b as usize], Class::Space | Class::Newline);
            assert_eq!(space, (b as char).is_whitespace(), "byte {b:#04x}");
        }
        assert!(CLASS[0x80..].iter().all(|&c| c == Class::NonAscii));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn write_satisfaction_instance_has_no_min_line() {
        let inst = parse_opb("+1 x1 +1 x2 >= 1 ;").unwrap();
        let text = write_opb(&inst);
        assert!(!text.contains("min:"));
        assert!(text.contains(">= 1 ;"));
    }

    #[test]
    fn parse_trailing_statement_without_semicolon() {
        // Tolerated: the final statement may omit the terminator.
        let inst = parse_opb("+1 x1 +1 x2 >= 1").unwrap();
        assert_eq!(inst.num_constraints(), 1);
    }

    #[test]
    fn parse_empty_document() {
        let inst = parse_opb("* nothing here\n").unwrap();
        assert_eq!(inst.num_vars(), 0);
        assert_eq!(inst.num_constraints(), 0);
    }

    #[test]
    fn parse_larger_variable_indices_extend_space() {
        let inst = parse_opb("+1 x9 >= 1 ;").unwrap();
        assert_eq!(inst.num_vars(), 9);
    }

    #[test]
    fn offset_comment_emitted_for_negative_literal_costs() {
        let mut b = crate::InstanceBuilder::new();
        let v = b.new_var();
        b.add_clause([v.positive(), v.negative()]);
        b.minimize([(5, v.negative())]);
        let inst = b.build().unwrap();
        // Normalization keeps the cost on the negative literal (offset 0),
        // so no offset comment is needed and the term round-trips.
        let text = write_opb(&inst);
        let reparsed = parse_opb(&text).unwrap();
        assert_eq!(reparsed.objective().unwrap().terms(), inst.objective().unwrap().terms());
    }
}
