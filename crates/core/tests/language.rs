//! End-to-end language semantics: MLC constructs compiled at every
//! level produce the right values on the machine.

use cmo::{BuildOptions, Compiler, OptLevel};

fn run_main(src: &str, input: &[i64]) -> i64 {
    let mut cc = Compiler::new();
    cc.add_source("m", src).unwrap();
    let results: Vec<i64> = [
        BuildOptions::new(OptLevel::O1),
        BuildOptions::o2(),
        BuildOptions::new(OptLevel::O4),
    ]
    .iter()
    .map(|opts| cc.build(opts).unwrap().run(input).unwrap().returned)
    .collect();
    assert_eq!(results[0], results[1], "O1 vs O2 disagree");
    assert_eq!(results[1], results[2], "O2 vs O4 disagree");
    results[0]
}

#[test]
fn for_loop_sums() {
    let v = run_main(
        r#"
        fn main() -> int {
            var acc: int = 0;
            for (var i: int = 1; i <= 10; i = i + 1) { acc = acc + i; }
            return acc;
        }
        "#,
        &[],
    );
    assert_eq!(v, 55);
}

#[test]
fn break_exits_early() {
    let v = run_main(
        r#"
        fn main() -> int {
            var acc: int = 0;
            for (var i: int = 0; i < 1000; i = i + 1) {
                if (i == 5) { break; }
                acc = acc + i;
            }
            return acc;
        }
        "#,
        &[],
    );
    assert_eq!(v, 10); // 0+1+2+3+4
}

#[test]
fn continue_skips_and_still_steps() {
    let v = run_main(
        r#"
        fn main() -> int {
            var acc: int = 0;
            for (var i: int = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; }
                acc = acc + i;
            }
            return acc;
        }
        "#,
        &[],
    );
    assert_eq!(v, 25); // 1+3+5+7+9
}

#[test]
fn continue_in_while_goes_to_header() {
    let v = run_main(
        r#"
        fn main() -> int {
            var i: int = 0;
            var acc: int = 0;
            while (i < 10) {
                i = i + 1;
                if (i == 3) { continue; }
                acc = acc + i;
            }
            return acc;
        }
        "#,
        &[],
    );
    assert_eq!(v, 52); // 55 - 3
}

#[test]
fn nested_loops_bind_innermost() {
    let v = run_main(
        r#"
        fn main() -> int {
            var acc: int = 0;
            for (var i: int = 0; i < 4; i = i + 1) {
                for (var j: int = 0; j < 100; j = j + 1) {
                    if (j == 2) { break; }
                    acc = acc + 1;
                }
            }
            return acc;
        }
        "#,
        &[],
    );
    assert_eq!(v, 8); // 4 outer × 2 inner
}

#[test]
fn break_outside_loop_is_an_error() {
    let mut cc = Compiler::new();
    let err = cc
        .add_source("m", "fn main() -> int { break; return 1; }")
        .unwrap_err();
    assert!(err.to_string().contains("outside of a loop"), "{err}");
}

#[test]
fn arrays_and_floats_mix() {
    let v = run_main(
        r#"
        static weights: float[4] = [0.5, 1.5, 2.5, 3.5];
        fn main() -> int {
            var sum: float = 0.0;
            for (var i: int = 0; i < 4; i = i + 1) {
                sum = sum + weights[i] * float(i);
            }
            return int(sum * 2.0);
        }
        "#,
        &[],
    );
    assert_eq!(v, 34); // (0 + 1.5 + 5 + 10.5) * 2
}

#[test]
fn input_stream_drives_control_flow() {
    let v = run_main(
        r#"
        fn main() -> int {
            var acc: int = 0;
            for (var i: int = 0; i < 5; i = i + 1) {
                var x: int = input();
                if (x < 0) { break; }
                acc = acc + x;
            }
            return acc;
        }
        "#,
        &[7, 8, -1, 100, 100],
    );
    assert_eq!(v, 15);
}

/// Source no stack can recurse through: each kind of nesting a million
/// (or, for the wordier ones, a hundred thousand) levels deep. Compiled
/// on `run_jobs` workers, whose stacks are a quarter of the main
/// thread's, each is a positioned diagnostic — not an abort.
#[test]
fn absurd_nesting_is_a_diagnostic_on_worker_threads() {
    let expr = |open: &str, close: &str, depth: usize| {
        format!(
            "fn main() -> int {{ return {}1{}; }}",
            open.repeat(depth),
            close.repeat(depth)
        )
    };
    let modules: Vec<(String, String)> = [
        expr("(", ")", 1_000_000),
        expr("-", "", 1_000_000),
        expr("!(", ")", 500_000),
        expr("int(", ")", 100_000),
        expr("main(", ")", 100_000),
        format!(
            "fn main() {{ {} {} }}",
            "while (1) {".repeat(100_000),
            "}".repeat(100_000)
        ),
        format!(
            "fn main() {{ {} {} }}",
            "if (1) {".repeat(257),
            "}".repeat(257)
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, src)| (format!("deep{i}"), src))
    .collect();
    for (name, source) in &modules {
        // One at a time, so each is the first error of its batch; a
        // second module makes `add_sources` use worker threads.
        let batch = [
            (name.clone(), source.clone()),
            ("ok".to_owned(), "fn f() { }".to_owned()),
        ];
        let err = Compiler::new().add_sources(&batch, 2).unwrap_err();
        let cmo::BuildError::Frontend(e) = err else {
            panic!("{name}: {err}");
        };
        assert_eq!(e.message, "nesting deeper than 256", "{name}");
        assert_eq!(e.pos.line, 1, "{name}");
    }
}

/// What the nesting limit does not limit: an `else if` chain is parsed
/// by a loop, and lowered by one too, however long it is — a dispatcher
/// with an arm per module is ordinary code. On the default test-thread
/// stack, through every level's optimizer, the chain selects the right
/// arm.
#[test]
fn a_thousand_arm_else_if_chain_compiles_and_selects_the_right_arm() {
    let arms: String = (1..1000)
        .map(|k| format!(" else if (sel == {k}) {{ r = {}; }}", k * 7 + 1))
        .collect();
    let source = format!(
        "fn main() -> int {{\n var sel: int = input();\n var r: int = 0;\n \
         if (sel == 0) {{ r = 1; }}{arms} else {{ r = -1; }}\n return r;\n}}\n"
    );
    let mut cc = Compiler::new();
    cc.add_source("chain", &source).unwrap();
    for level in [OptLevel::O1, OptLevel::O2, OptLevel::O4] {
        let out = cc.build(&BuildOptions::new(level)).unwrap();
        for (sel, want) in [
            (0, 1),
            (1, 8),
            (500, 3501),
            (999, 6994),
            (1000, -1),
            (-5, -1),
        ] {
            assert_eq!(
                out.run(&[sel]).unwrap().returned,
                want,
                "{level:?} sel {sel}"
            );
        }
    }
}

/// Nor an operator chain: parsed by a loop, and lowered by one too,
/// however long it is.
#[test]
fn long_operator_chains_compile_on_worker_threads() {
    let sum = format!(
        "fn main() -> int {{ return 0{}; }}",
        " + 1 - 2 + 3".repeat(100_000)
    );
    let batch = [
        ("sum".to_owned(), sum),
        ("ok".to_owned(), "fn f() { }".to_owned()),
    ];
    let mut cc = Compiler::new();
    cc.add_sources(&batch, 2).unwrap();
    let out = cc.build(&BuildOptions::new(OptLevel::O1)).unwrap();
    assert_eq!(out.run(&[]).unwrap().returned, 200_000);
}
