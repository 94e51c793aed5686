//! Property tests on the frontend: the lexer and parser are total
//! (they return diagnostics, never panic, on arbitrary input), and
//! everything that compiles also links and validates.

use cmo_frontend::{compile_module, Lexer};
use proptest::prelude::*;

proptest! {
    #[test]
    fn lexer_is_total(input in "\\PC{0,200}") {
        let _ = Lexer::new(&input).tokenize();
    }

    #[test]
    fn parser_is_total_on_ascii_soup(input in "[ -~\\n]{0,300}") {
        let _ = cmo_frontend::parse_module(&input);
    }

    /// Token-soup made of real MLC tokens exercises deeper parser
    /// paths than raw bytes do.
    #[test]
    fn parser_is_total_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("fn"), Just("var"), Just("if"), Just("else"), Just("while"),
                Just("return"), Just("global"), Just("static"), Just("extern"),
                Just("int"), Just("float"), Just("output"), Just("input"),
                Just("x"), Just("y"), Just("f"), Just("0"), Just("1"), Just("2.5"),
                Just("("), Just(")"), Just("{"), Just("}"), Just("["), Just("]"),
                Just(";"), Just(":"), Just(","), Just("+"), Just("-"), Just("*"),
                Just("/"), Just("%"), Just("=="), Just("="), Just("<"), Just("->"),
            ],
            0..80,
        )
    ) {
        let src = toks.join(" ");
        let _ = compile_module("soup", &src);
    }

    /// Structured generation: random expressions inside a valid
    /// function skeleton either compile cleanly or report a positioned
    /// diagnostic; on success the IL links and validates.
    #[test]
    fn compiled_modules_always_validate(
        a in 0i64..100,
        b in 1i64..50,
        op in prop_oneof![Just("+"), Just("-"), Just("*"), Just("/"), Just("%")],
        cmp in prop_oneof![Just("<"), Just("<="), Just(">"), Just(">="), Just("=="), Just("!=")],
        loops in 1usize..4,
    ) {
        let mut body = String::new();
        for i in 0..loops {
            body.push_str(&format!(
                "var v{i}: int = {a} {op} {b};\nwhile (v{i} {cmp} {b}) {{ v{i} = v{i} + 1; output(v{i}); }}\n"
            ));
        }
        let src = format!("fn main() -> int {{ {body} return {a}; }}");
        let obj = compile_module("gen", &src).expect("structured source compiles");
        let unit = cmo_ir::link_objects(vec![obj]).expect("links");
        cmo_ir::validate::validate_unit(&unit.program, &unit.bodies).expect("validates");
    }

    /// Deep nesting: any mix of nesting constructs, up to several
    /// hundred levels, compiles (and links and validates) when it is
    /// at most 256 levels deep and is the nesting diagnostic when it
    /// is deeper — never a stack overflow.
    #[test]
    fn deep_nesting_compiles_or_is_diagnosed(
        blocks in proptest::collection::vec(0u8..3, 0..200),
        exprs in proptest::collection::vec(0u8..6, 0..400),
    ) {
        // The function body is the first level.
        let mut depth = 1;
        let mut src = String::from(
            "global a: int[4];\nfn id(x: int) -> int { return x; }\nfn main() -> int {\n",
        );
        for b in &blocks {
            let (open, levels) = match b {
                0 => ("if (1) {", 1),
                1 => ("while (0) {", 1),
                // An `else if` is no deeper than its `if`.
                _ => ("if (0) { } else if (1) {", 1),
            };
            src.push_str(open);
            depth += levels;
        }
        src.push_str("\nvar v: int = ");
        let nest: Vec<(&str, &str)> = exprs
            .iter()
            .map(|e| match e {
                0 => ("(", ")"),
                1 => ("-", ""),
                2 => ("!", ""),
                3 => ("int(", ")"),
                4 => ("id(", ")"),
                _ => ("a[", "]"),
            })
            .collect();
        for (open, _) in &nest {
            src.push_str(open);
        }
        src.push('1');
        for (_, close) in nest.iter().rev() {
            src.push_str(close);
        }
        depth += nest.len();
        src.push_str(";\n");
        src.push_str(&"}".repeat(blocks.len()));
        src.push_str("\nreturn 0; }\n");
        match compile_module("deep", &src) {
            Ok(obj) => {
                prop_assert!(depth <= 256, "{depth} levels compiled");
                let unit = cmo_ir::link_objects(vec![obj]).expect("links");
                cmo_ir::validate::validate_unit(&unit.program, &unit.bodies).expect("validates");
            }
            Err(e) => {
                prop_assert!(depth > 256, "{depth} levels: {e}");
                prop_assert_eq!(e.message, "nesting deeper than 256");
            }
        }
    }

    #[test]
    fn error_positions_are_in_range(junk in "[a-z{}();=]{1,80}") {
        if let Err(e) = compile_module("m", &junk) {
            let lines = junk.lines().count().max(1) as u32;
            prop_assert!(e.pos.line >= 1 && e.pos.line <= lines + 1, "{e}");
        }
    }
}
