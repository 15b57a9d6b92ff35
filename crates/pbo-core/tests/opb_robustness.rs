//! Malformed-OPB robustness sweep and differential test of the reader.
//!
//! A seeded mutation generator corrupts well-formed OPB documents —
//! truncation at arbitrary byte offsets, junk-byte splices, token
//! duplication/deletion, and coefficient/index inflation up to and past
//! `i64`/allocation limits — and asserts the invariant a service front
//! end depends on: [`parse_opb`] returns `Ok` or `Err`, it never
//! panics, and it never commits to absurd allocations (a corrupt
//! variable index is rejected at [`MAX_OPB_VARS`], not malloc'd).
//!
//! The differential sweep pins the reading contract of the `opb` module
//! docs: over the same generator, plus respellings the mutations never
//! produce (Unicode and control whitespace, CRLF, glued `;`, `min :`,
//! statements spread over lines, comment lines inside statements, a
//! final statement without `;`, `x+3`), [`parse_opb`] must return
//! exactly the `Result` of [`reference_parse_opb`], the line-by-line
//! reader it replaced: the same `Instance`, or the same error variant,
//! line and message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pbo_core::{
    parse_opb, write_opb, Instance, InstanceBuilder, Lit, ParseOpbError, RawConstraint, RelOp,
    MAX_OPB_VARS,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The reader [`parse_opb`] replaced, on the public API: `String` tokens
/// from `str::lines`, `str::trim` and `str::split_whitespace` after every
/// `;` is spaced out, buffered per statement, then parsed statement by
/// statement and built.
fn reference_parse_opb(text: &str) -> Result<Instance, ParseOpbError> {
    let syntax = |line: usize, message: String| ParseOpbError::Syntax { line, message };
    let mut builder = InstanceBuilder::new();
    let mut max_var = 0usize;
    let mut statements: Vec<(usize, Vec<String>)> = Vec::new();

    // Split into `;`-terminated statements, remembering line numbers.
    let mut current: Vec<String> = Vec::new();
    let mut current_line = 1usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        let cleaned = line.replace(';', " ; ");
        for tok in cleaned.split_whitespace() {
            if tok == ";" {
                if !current.is_empty() {
                    statements.push((current_line, std::mem::take(&mut current)));
                }
            } else {
                if current.is_empty() {
                    current_line = lineno + 1;
                }
                current.push(tok.to_string());
            }
        }
    }
    if !current.is_empty() {
        statements.push((current_line, current));
    }

    let mut parse_lit = |tok: &str, line: usize| -> Result<Lit, ParseOpbError> {
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
            return Err(syntax(line, "variable numbers are 1-based".to_string()));
        }
        if idx > MAX_OPB_VARS {
            return Err(syntax(line, format!("variable number in `{tok}` exceeds {MAX_OPB_VARS}")));
        }
        max_var = max_var.max(idx);
        Ok(Lit::new(idx - 1, !neg))
    };

    let mut objective: Option<Vec<(i64, Lit)>> = None;
    let mut constraints: Vec<RawConstraint> = Vec::new();

    for (line, toks) in statements {
        let (is_min, body) = if toks[0] == "min:" {
            (true, &toks[1..])
        } else if toks[0] == "min" && toks.len() > 1 && toks[1] == ":" {
            (true, &toks[2..])
        } else {
            (false, &toks[..])
        };
        if is_min {
            if objective.is_some() {
                return Err(syntax(line, "duplicate objective".to_string()));
            }
            let mut terms = Vec::new();
            let mut i = 0;
            while i < body.len() {
                let coeff: i64 = body[i].parse().map_err(|_| {
                    syntax(line, format!("expected coefficient, found `{}`", body[i]))
                })?;
                let lit = parse_lit(
                    body.get(i + 1).ok_or_else(|| {
                        syntax(line, "objective term missing literal".to_string())
                    })?,
                    line,
                )?;
                terms.push((coeff, lit));
                i += 2;
            }
            objective = Some(terms);
        } else {
            let op_pos =
                body.iter().position(|t| t == ">=" || t == "<=" || t == "=").ok_or_else(|| {
                    syntax(line, "constraint missing relational operator".to_string())
                })?;
            let op = match body[op_pos].as_str() {
                ">=" => RelOp::Ge,
                "<=" => RelOp::Le,
                _ => RelOp::Eq,
            };
            if op_pos + 2 != body.len() {
                return Err(syntax(
                    line,
                    "expected single right-hand side after operator".to_string(),
                ));
            }
            let rhs: i64 = body[op_pos + 1]
                .parse()
                .map_err(|_| syntax(line, format!("bad right-hand side `{}`", body[op_pos + 1])))?;
            let mut terms = Vec::new();
            let mut i = 0;
            while i < op_pos {
                let coeff: i64 = body[i].parse().map_err(|_| {
                    syntax(line, format!("expected coefficient, found `{}`", body[i]))
                })?;
                let lit = parse_lit(
                    body.get(i + 1).ok_or_else(|| {
                        syntax(line, "constraint term missing literal".to_string())
                    })?,
                    line,
                )?;
                terms.push((coeff, lit));
                i += 2;
            }
            constraints.push((terms, op, rhs));
        }
    }

    // Declare variables, then feed everything through the builder.
    for _ in 0..max_var {
        builder.new_var();
    }
    for (terms, op, rhs) in constraints {
        builder.add_linear(terms, op, rhs);
    }
    if let Some(obj) = objective {
        builder.minimize(obj);
    }
    Ok(builder.build()?)
}

/// A small well-formed seed document, randomized per round.
fn seed_document(rng: &mut ChaCha8Rng) -> String {
    let n = rng.gen_range(2..8usize);
    let mut b = InstanceBuilder::new();
    let vars = b.new_vars(n);
    for _ in 0..rng.gen_range(1..6usize) {
        let k = rng.gen_range(1..=n);
        b.add_at_least(
            rng.gen_range(1..3i64),
            (0..k).map(|i| if rng.gen_bool(0.3) { vars[i].negative() } else { vars[i].positive() }),
        );
    }
    if rng.gen_bool(0.7) {
        b.minimize(vars.iter().map(|v| (rng.gen_range(1..9i64), v.positive())));
    }
    write_opb(&b.build().expect("seed instance is well-formed"))
}

/// One random corruption applied to `text`.
fn mutate(rng: &mut ChaCha8Rng, text: &str) -> String {
    let junk: &[&str] = &[
        ";",
        ";;",
        "x0",
        "~",
        "~~x1",
        "x",
        ">=",
        "<=",
        "=",
        "min:",
        "min",
        "*",
        "+",
        "-",
        "+9223372036854775807",
        "-9223372036854775808",
        "99999999999999999999",
        "x99999999999999999999",
        "x18446744073709551615",
        "x10000001",
        "+9223372036854775807 x1 >= -9223372036854775808",
        "\u{0}",
        "\u{fffd}",
        "NaN",
        "inf",
        "x1x2",
        "+1x1",
        "1e9",
    ];
    match rng.gen_range(0..6u32) {
        // Truncate at an arbitrary char boundary.
        0 => {
            let cut = rng.gen_range(0..=text.chars().count());
            text.chars().take(cut).collect()
        }
        // Splice junk tokens at a random position.
        1 => {
            let pos = rng.gen_range(0..=text.len());
            let pos = (0..=pos).rev().find(|&p| text.is_char_boundary(p)).unwrap_or(0);
            let mut out = String::with_capacity(text.len() + 32);
            out.push_str(&text[..pos]);
            out.push(' ');
            out.push_str(junk[rng.gen_range(0..junk.len())]);
            out.push(' ');
            out.push_str(&text[pos..]);
            out
        }
        // Delete a whitespace-separated token.
        2 => {
            let toks: Vec<&str> = text.split_whitespace().collect();
            if toks.is_empty() {
                return String::new();
            }
            let drop = rng.gen_range(0..toks.len());
            toks.iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, t)| *t)
                .collect::<Vec<_>>()
                .join(" ")
        }
        // Duplicate a random line (duplicate objective, repeated terms).
        3 => {
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return String::new();
            }
            let dup = rng.gen_range(0..lines.len());
            let mut out: Vec<&str> = lines.clone();
            out.insert(dup, lines[dup]);
            out.join("\n")
        }
        // Inflate every digit run (overflowing coefficients and rhs).
        4 => text
            .chars()
            .map(|c| if c.is_ascii_digit() && rng.gen_bool(0.5) { '9' } else { c })
            .collect::<String>()
            .replace('9', "99"),
        // Replace random bytes with junk characters.
        _ => text
            .chars()
            .map(|c| {
                if rng.gen_bool(0.08) {
                    *[';', '*', '~', 'x', '-', '\u{fffd}'].get(rng.gen_range(0..6usize)).unwrap()
                } else {
                    c
                }
            })
            .collect(),
    }
}

#[test]
fn mutated_opb_never_panics() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0b0b);
    let mut parsed_ok = 0usize;
    let mut rejected = 0usize;
    for round in 0..400 {
        let mut doc = seed_document(&mut rng);
        for _ in 0..rng.gen_range(1..4u32) {
            doc = mutate(&mut rng, &doc);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_opb(&doc)));
        match outcome {
            Ok(Ok(inst)) => {
                parsed_ok += 1;
                // Whatever survives mutation must still be a sane
                // instance: bounded variable count, self-consistent
                // round trip through the writer.
                assert!(inst.num_vars() <= MAX_OPB_VARS, "round {round}");
                let reparsed = parse_opb(&write_opb(&inst));
                assert!(reparsed.is_ok(), "round {round}: writer output must re-parse");
            }
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("round {round}: parser panicked on:\n{doc}"),
        }
    }
    // The sweep must actually cover both outcomes, or the generator
    // degenerated (all-valid means mutations were too tame, all-invalid
    // means the seed documents were already broken).
    assert!(parsed_ok > 0, "no mutated document parsed: generator too destructive");
    assert!(rejected > 0, "no mutated document rejected: generator too tame");
}

#[test]
fn hostile_documents_rejected_without_panic() {
    // Hand-picked adversarial documents targeting specific failure
    // modes: allocation bombs, arithmetic overflow at the i64 rails,
    // operator confusion and bare junk.
    let hostile = [
        // Allocation bomb: one corrupt index would declare 10^19 vars.
        "+1 x18446744073709551615 >= 1 ;",
        "+1 x99999999999 >= 1 ;",
        // Above the documented ceiling, even though it fits in memory.
        "+1 x10000001 >= 1 ;",
        // i64 rails on coefficients and right-hand sides.
        "+9223372036854775807 x1 +9223372036854775807 x2 >= 9223372036854775807 ;",
        "-9223372036854775808 x1 >= -9223372036854775808 ;",
        "+9223372036854775807 ~x1 +9223372036854775807 ~x2 <= -9223372036854775808 ;",
        "min: +9223372036854775807 x1 +9223372036854775807 x1 ;",
        // Coefficient too wide for i64 at all.
        "+99999999999999999999 x1 >= 1 ;",
        // Structural junk.
        "",
        ";",
        ";;;;",
        ">= 1 ;",
        "+1 >= 1 ;",
        "+1 x1 >=",
        "+1 x1 >= ;",
        "min: ;",
        "min: min: ;",
        "+1 x0 >= 1 ;",
        "~ x1 >= 1 ;",
        "+1 ~~x1 >= 1 ;",
        "+1 x1 >= 1 >= 1 ;",
        "+1 x1 <= >= 1 ;",
        "\u{0}\u{0}\u{0}",
    ];
    for (i, doc) in hostile.iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| parse_opb(doc)));
        let result = outcome.unwrap_or_else(|_| panic!("doc {i} panicked: {doc:?}"));
        // Ok is fine for trivially-empty documents; what matters is no
        // panic and no runaway allocation (the call returning at all),
        // and the reference reader's verdict.
        assert_eq!(result, reference_parse_opb(doc), "doc {i}: {doc:?}");
    }
}

/// Whitespace [`str::split_whitespace`] splits on, other than the blank:
/// ASCII control whitespace, NEL, no-break, ideographic and line
/// separator spaces. None of them is a line break.
const SPACES: &[&str] =
    &["\t", "\x0B", "\x0C", "\r", "\u{85}", "\u{A0}", "\u{3000}", "\u{2028}", "  "];

/// Respells `text` without changing its tokens, in ways the mutations
/// never produce: exotic whitespace, CRLF line ends, `;` glued to the
/// token before it, `min :`, statements spread over lines or sharing
/// one, comment lines (some indented, some inside a statement), `x+k`
/// variable numbers and a final statement without `;`.
fn respell(rng: &mut ChaCha8Rng, text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            ' ' if chars.peek() == Some(&';') && rng.gen_bool(0.5) => {}
            ' ' if rng.gen_bool(0.2) => out.push_str(SPACES[rng.gen_range(0..SPACES.len())]),
            ' ' if rng.gen_bool(0.05) => out.push('\n'),
            '\n' => match rng.gen_range(0..8u32) {
                0 => out.push_str("\r\n"),
                1 => out.push(' '),
                2 => out.push_str("\n* comment ; +1 x1 >=\n"),
                3 => out.push_str("\n \u{A0}\t*indented comment\n"),
                _ => out.push('\n'),
            },
            ':' if out.ends_with("min") && rng.gen_bool(0.5) => out.push_str(" :"),
            'x' if rng.gen_bool(0.1) => out.push_str("x+"),
            _ => out.push(c),
        }
    }
    let body = out.trim_end();
    if body.ends_with(';') && rng.gen_bool(0.3) {
        out.truncate(body.len() - 1);
    }
    out
}

/// Inserts, as a line of its own, a well-formed statement that fails to
/// build: the mutations alone seldom leave one standing, and it puts
/// build errors next to syntax errors in one document.
fn with_overflow_row(rng: &mut ChaCha8Rng, text: &str) -> String {
    const ROWS: &[&str] = &[
        "-9223372036854775808 x1 <= 0 ;",
        "+9223372036854775807 x1 +9223372036854775807 x2 >= 9223372036854775807 ;",
        "+4611686018427387904 x1 +4611686018427387904 ~x1 = -4611686018427387904 ;",
        "min: +9223372036854775807 x1 +9223372036854775807 x1 ;",
    ];
    let mut lines: Vec<&str> = text.lines().collect();
    let at = rng.gen_range(0..=lines.len());
    lines.insert(at, ROWS[rng.gen_range(0..ROWS.len())]);
    lines.join("\n")
}

/// Runs `rounds` documents from the mutation generator, half of them
/// respelled, through both readers and asserts identical results.
fn differential_sweep(seed: u64, rounds: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut parsed, mut syntax, mut build) = (0usize, 0usize, 0usize);
    for round in 0..rounds {
        let mut doc = seed_document(&mut rng);
        if rng.gen_bool(0.5) {
            doc = respell(&mut rng, &doc);
        }
        if rng.gen_bool(0.1) {
            doc = with_overflow_row(&mut rng, &doc);
        }
        for _ in 0..rng.gen_range(0..4u32) {
            doc = mutate(&mut rng, &doc);
        }
        let got = parse_opb(&doc);
        assert_eq!(got, reference_parse_opb(&doc), "round {round}: {doc:?}");
        match got {
            Ok(_) => parsed += 1,
            Err(ParseOpbError::Syntax { .. }) => syntax += 1,
            Err(ParseOpbError::Build(_)) => build += 1,
        }
    }
    // Every outcome must be reached, or the sweep pins too little.
    assert!(
        parsed > 0 && syntax > 0 && build > 0,
        "parsed {parsed}, syntax errors {syntax}, build errors {build}"
    );
}

#[test]
fn parser_matches_the_reference_reader() {
    differential_sweep(0x0b0b_d1ff, 4_000);
}

#[test]
#[ignore = "release-sized sweep: cargo test --release -p pbo-core --test opb_robustness -- --ignored"]
fn parser_matches_the_reference_reader_200k() {
    differential_sweep(0x0b0b_d1ff_0200, 200_000);
}

#[test]
fn parser_matches_the_reference_reader_on_edge_cases() {
    let cases = [
        // Whitespace split_whitespace knows and a blank-only scanner would not.
        "+1 x1\u{A0}+1\u{3000}x2 >=\u{85}1 ;",
        "+1\x0Bx1 +1\x0Cx2\t>=\r1 ;",
        "\u{2028}+1 x1 >= 1 ;\u{2028}+1 x2 >= 1 ;",
        "+1 x1 >= 1 ;\n\u{3000}* comment after an ideographic space\n+1 y1 >= 1 ;",
        // CRLF line ends and a bare CR at the end; line numbers still count `\n`.
        "+1 x1 >= 1 ;\r\n+1 x2 >= 1 ;\r\n+1 y2 >= 1 ;\r\n",
        "+1 ~x1 >= 1 ;\r",
        // `;` glued to tokens, several statements on one line.
        "+1 x1;+1 x2 >= 1;min:+1 x1;",
        "+1 x1 >= 1;;;+2 x2 >= 1;",
        // The split objective form, and forms that are not objectives.
        "min : +1 x1 +2 x2 ;\n+1 x1 +1 x2 >= 1 ;",
        "min :+1 x1 ;",
        "min ; +1 x1 >= 1 ;",
        "min: ;\nmin : +1 x1 ;",
        // Statements over several lines, with comment lines inside.
        "+1 x1\n+1 x2\n>= 1 ;",
        "+1 x1\n* a comment line inside the statement\n>= 1 ;",
        "+1 x1\n   * indented comment\n+1 x2 >= 1 ;",
        "+1 x1 >= 1 ; * a star token, not a comment",
        "*x1 >= 1 ;\n+1 x1 >= 1 ;",
        // A final statement without `;`.
        "+1 x1 +1 x2 >= 1",
        "min: +1 x1\n+1 x1 >= 1",
        // `usize` and `i64` parse syntax: a leading `+`.
        "+1 x+3 >= 1 ;",
        "+1 ~x+3 >= +1 ;",
        "+1 x-3 >= 1 ;",
        // Error lines count `\n` only, after blank and comment lines.
        "* c\n\n\n+1 y1 >= 1 ;",
        "+1 x1 >= 1 ;\r\n\r\n+1 x1 >= 1 >= 1 ;",
        // Syntax errors win over build errors on earlier lines.
        "-9223372036854775808 x1 <= 0 ;\n+1 x0 >= 1 ;",
        "-9223372036854775808 x1 <= 0 ;",
        // An odd operator position: the operator fails as a literal.
        "+1 >= 1 ;",
        "+1 x1 +2 = 1 ;",
        "min: +1 x1 +2 ;",
    ];
    for (i, doc) in cases.iter().enumerate() {
        assert_eq!(parse_opb(doc), reference_parse_opb(doc), "case {i}: {doc:?}");
    }
    // The whitespace cases parse; they are not all rejections in disguise.
    for doc in &cases[..3] {
        assert!(parse_opb(doc).is_ok(), "{doc:?}");
    }
}
