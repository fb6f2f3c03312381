//! Front-end properties: printing and re-parsing reaches a fixed point on
//! generated programs, no input — random bytes, random chars, token soup,
//! a mangled program or a deeply nested one — panics the lexer or the
//! parser, and programs nested exactly [`MAX_NESTING`] deep go through
//! the whole pipeline on a spawned thread's default stack.

use jumpslice::prelude::*;
use jumpslice_core::{decode_snapshot, encode_snapshot};
use jumpslice_lang::{ErrorKind, Lexer, TokenKind, MAX_NESTING};
use jumpslice_testkit::{check, Rng};

/// `parse(print_program(q)) == q` for `q = parse(print_program(p))`: the
/// whole program, intern ids, labels and source lines included.
#[test]
fn print_parse_reaches_a_fixed_point() {
    for seed in 0..3 {
        for size in [60, 500, 2000] {
            let cfg = GenConfig::sized(seed, size);
            for p in [
                gen_structured(&cfg),
                gen_unstructured(&cfg.with_jump_density(0.25)),
            ] {
                let text = print_program(&p);
                let q = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                let again = print_program(&q);
                assert_eq!(again, text, "seed {seed}, size {size}");
                assert_eq!(parse(&again).unwrap(), q, "seed {seed}, size {size}");
            }
        }
    }
}

/// Pieces of the language, of its trivia, and of what it rejects.
const FRAGMENTS: &[&str] = &[
    "x",
    "L1",
    "v0",
    "f1",
    "eof",
    "_a",
    "if",
    "else",
    "while",
    "do",
    "switch",
    "case",
    "default",
    "goto",
    "break",
    "continue",
    "return",
    "read",
    "write",
    "(",
    ")",
    "{",
    "}",
    ";",
    ":",
    ",",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "!",
    "&&",
    "||",
    "&",
    "|",
    "0",
    "42",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551616",
    " ",
    "\n",
    "\t",
    "\r\n",
    "// c\n",
    "/* é */",
    "/*",
    "*/",
    "é",
    "\u{a0}",
    "\u{2028}",
    "日本",
    "@",
    "\0",
];

/// The deeply nested shapes, `depth` levels deep on the measure each
/// one stresses.
fn deep_shapes(depth: usize) -> [String; 4] {
    [
        // A flat chain: `depth - 1` operators over `depth` leaves.
        format!("read(y); x = y{}; write(x);", " + 1".repeat(depth - 1)),
        format!(
            "read(y); x = {}y{}; write(x);",
            "(".repeat(depth),
            ")".repeat(depth)
        ),
        // `depth - 1` unary operators over a leaf.
        format!(
            "read(y); x = {}y; write(x);",
            "!-".repeat((depth - 1) / 2) + &"!".repeat((depth - 1) % 2)
        ),
        // A top-level loop nest: the innermost assignment sits at `depth`.
        format!(
            "read(x); {} x = x - 1; {} write(x);",
            "while (x > 0) {".repeat(depth - 1),
            "}".repeat(depth - 1)
        ),
    ]
}

/// A random input: raw bytes, random chars, fragment soup, a small
/// generated program with a few spans replaced by fragments, or a deep
/// shape around [`MAX_NESTING`].
fn soup(rng: &mut Rng) -> String {
    let len = rng.gen_range(0..48usize);
    match rng.gen_range(0..5u32) {
        0 => {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        1 => (0..len)
            .filter_map(|_| match rng.gen_range(0..4u32) {
                0 => char::from_u32(rng.gen_range(0..0x11_0000u32)),
                _ => char::from_u32(rng.gen_range(0..0x80u32)),
            })
            .collect(),
        2 => (0..len)
            .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
            .collect(),
        3 => {
            let cfg = GenConfig::sized(rng.next_u64(), rng.gen_range(4..30usize));
            let mut text = print_program(&gen_unstructured(&cfg));
            for _ in 0..rng.gen_range(1..4u32) {
                let mut at = rng.gen_range(0..text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let mut end = (at + rng.gen_range(0..6usize)).min(text.len());
                while !text.is_char_boundary(end) {
                    end += 1;
                }
                text.replace_range(at..end, FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
            }
            text
        }
        _ => {
            let depth = MAX_NESTING - 2 + rng.gen_range(0..5usize);
            let shapes = deep_shapes(depth);
            shapes[rng.gen_range(0..shapes.len())].clone()
        }
    }
}

/// Lexes `src` to the end (resuming after every error), parses it, and
/// checks what a parse accepts prints and re-parses to a fixed point.
fn front_end_survives(src: &str) {
    let mut lexer = Lexer::new(src);
    let mut reached_eof = false;
    // Every call consumes at least one char until the end of input.
    for _ in 0..=src.chars().count() {
        if lexer.next_token().is_ok_and(|t| t.kind == TokenKind::Eof) {
            reached_eof = true;
            break;
        }
    }
    assert!(reached_eof, "lexer stalled on {src:?}");
    match parse(src) {
        Ok(p) => {
            let text = print_program(&p);
            let q = parse(&text).unwrap_or_else(|e| panic!("{e}\n{src:?}\n{text}"));
            assert_eq!(print_program(&q), text, "{src:?}");
            assert_eq!(parse(&text).unwrap(), q, "{src:?}");
        }
        Err(e) => {
            let lines = src.split('\n').count() as u32;
            assert!(e.line >= 1 && e.line <= lines, "{e} on {src:?}");
        }
    }
}

#[test]
fn soup_never_panics_the_front_end() {
    check(2_000, |rng| front_end_survives(&soup(rng)));
    // Far past the bound: what overflowed the parser's stack (100k
    // parentheses or loops) or a later pass's (a 30k-term chain).
    for src in deep_shapes(30_000).iter().chain(&deep_shapes(100_000)) {
        front_end_survives(src);
    }
}

/// Programs nested exactly [`MAX_NESTING`] deep on each measure parse,
/// analyze, slice, run, print, and survive a snapshot round trip on a
/// thread with the 2 MiB stack `std::thread::spawn` gives by default;
/// one level deeper is a positioned [`ErrorKind::TooDeep`] error.
#[test]
fn programs_at_the_nesting_bound_run_end_to_end() {
    let run_all = || {
        let mut at_bound = deep_shapes(MAX_NESTING).to_vec();
        // Both measures at once: a loop nest whose innermost statement
        // carries a right-nested, parenthesized chain as tall as allowed.
        let chain =
            "y - (".repeat((MAX_NESTING - 1) / 2) + "y" + &")".repeat((MAX_NESTING - 1) / 2);
        at_bound.push(format!(
            "read(y); {} y = {chain}; {} write(y);",
            "while (y > 0) {".repeat(MAX_NESTING - 1),
            "}".repeat(MAX_NESTING - 1)
        ));
        for src in &at_bound {
            let p = parse(src).unwrap_or_else(|e| panic!("{e} on {src:.60}"));
            let a = Analysis::new(&p);
            a.warm();
            for s in p.stmt_ids() {
                let slice = agrawal_slice(&a, &Criterion::at_stmt(s));
                let text = print_slice(&p, &|t| slice.stmts.contains(t), &slice.moved_labels);
                assert!(!text.is_empty());
            }
            let last = *p.body().last().unwrap();
            let slice = agrawal_slice(&a, &Criterion::at_stmt(last));
            let inputs = [Input::default()];
            check_projection(&p, &slice.stmts, &slice.moved_labels, &inputs)
                .unwrap_or_else(|e| panic!("{e:?} on {src:.60}"));
            let text = print_program(&p);
            let q = parse(&text).unwrap_or_else(|e| panic!("{e} on {src:.60}"));
            assert_eq!(print_program(&q), text);
            let snap = decode_snapshot(&encode_snapshot(src, &p, &a.into_seed()))
                .unwrap_or_else(|e| panic!("{e:?} on {src:.60}"));
            assert_eq!(snap.prog, p);
        }
        for src in deep_shapes(MAX_NESTING + 1) {
            let e = parse(&src).expect_err(&src);
            assert_eq!(e.kind, ErrorKind::TooDeep, "{e} on {src:.60}");
            assert_eq!(e.line, 1, "{e}");
            assert!(e.col > 1, "{e}");
        }
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run_all)
        .unwrap()
        .join()
        .unwrap();
}

/// The wide run of [`soup_never_panics_the_front_end`], for the nightly
/// job: `cargo test --release --test frontend -- --ignored`.
#[test]
#[ignore = "wide seed range; run with --release -- --ignored"]
fn soup_never_panics_the_front_end_wide() {
    check(2_000_000, |rng| front_end_survives(&soup(rng)));
}
