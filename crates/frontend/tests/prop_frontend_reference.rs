//! The front end and the IL linker against their pre-rewrite selves
//! (`tests/reference/`): byte-identical objects on every generated and
//! example module, the same `Result` — same position, same message —
//! on thousands of broken variants of them, and the same `LinkedUnit`
//! or `LinkError` whatever order the objects arrive in.
//!
//! Two diagnostics are allowed to differ, and are checked apart:
//! a non-ASCII character is now reported whole (the model prints its
//! first byte), and nesting deeper than 256 levels is now an error
//! (the model recurses until the stack runs out).

mod reference;

use cmo_frontend::{compile_module, FrontendError, Lexer, TokenKind};
use cmo_ir::{link_objects, IlObject, LinkError, LinkedUnit};
use cmo_synth::{generate, mcad_preset, spec_suite};
use reference::{ref_compile_module, ref_link_objects};

/// A small deterministic generator (xorshift64*), so failures repeat.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Every module of every `cmo-synth` preset (the MCAD ones at scale
/// 0.125), grouped by application, then `examples/mlc` as two more.
fn corpus() -> Vec<Vec<(String, String)>> {
    let mut apps: Vec<Vec<(String, String)>> = spec_suite()
        .iter()
        .chain(&["mcad1", "mcad2", "mcad3"].map(|n| mcad_preset(n, 0.125)))
        .map(|spec| generate(spec).modules)
        .collect();
    let example = |name: &str| {
        let path = format!(
            "{}/../../examples/mlc/{name}.mlc",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        (name.to_owned(), text)
    };
    apps.push(vec![example("lib"), example("app")]);
    apps.push(vec![example("util"), example("hot"), example("prog")]);
    apps
}

/// Asserts that both front ends give `source` the same `Result`.
/// Returns `true` if it compiled.
fn assert_same_result(name: &str, source: &str, what: &str) -> bool {
    let new = compile_module(name, source);
    let old = ref_compile_module(name, source);
    match (&new, &old) {
        (Ok(n), Ok(o)) => assert_eq!(n.to_bytes(), o.to_bytes(), "{what}: objects differ"),
        (Err(n), Err(o)) => assert_same_error(n, o, source, what),
        _ => panic!("{what}: {new:?}\nbut the model gives {old:?}\n--- source ---\n{source}"),
    }
    new.is_ok()
}

fn assert_same_error(new: &FrontendError, old: &FrontendError, source: &str, what: &str) {
    assert_eq!(new.pos, old.pos, "{what}: {new} vs model {old}\n{source}");
    if new.message != old.message {
        // The one deliberate difference reachable without deep
        // nesting: the whole character instead of its first byte.
        let c = new
            .message
            .strip_prefix("unexpected character `")
            .and_then(|rest| rest.chars().next())
            .filter(|c| !c.is_ascii());
        let first_byte = c.map(|c| {
            let mut buf = [0u8; 4];
            c.encode_utf8(&mut buf).as_bytes()[0] as char
        });
        assert_eq!(
            first_byte.map(|b| format!("unexpected character `{b}`")),
            Some(old.message.clone()),
            "{what}: {new} vs model {old}\n{source}"
        );
    }
}

/// The byte span of every token of `source` (which must lex).
fn token_spans(source: &str) -> Vec<(usize, usize)> {
    let lexed = Lexer::new(source).tokenize().expect("corpus sources lex");
    lexed
        .tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Eof)
        .map(|t| {
            let start = t.offset as usize;
            let len = match t.kind {
                TokenKind::Ident(id) => lexed.names.text(id).len(),
                TokenKind::Kw(kw) => kw.as_str().len(),
                TokenKind::Punct(p) => p.as_str().len(),
                TokenKind::Int(_) | TokenKind::Float(_) => {
                    let bytes = &source.as_bytes()[start..];
                    let digits = |from: usize| {
                        from + bytes[from..]
                            .iter()
                            .take_while(|b| b.is_ascii_digit())
                            .count()
                    };
                    let int_end = digits(0);
                    if matches!(t.kind, TokenKind::Float(_)) {
                        digits(int_end + 1)
                    } else {
                        int_end
                    }
                }
                TokenKind::Eof => unreachable!(),
            };
            (start, start + len)
        })
        .collect()
}

/// Replacement tokens no corpus source contains, on top of the
/// source's own.
const FOREIGN_TOKENS: [&str; 14] = [
    "@",
    "é",
    "☃",
    "99999999999999999999",
    "1.5",
    ".",
    "/*",
    "//",
    "input",
    "extern",
    "static",
    "->",
    "&&",
    "nowhere_defined",
];

#[test]
fn objects_are_byte_identical_on_every_preset_and_example() {
    let mut modules = 0;
    for app in corpus() {
        for (name, source) in &app {
            assert!(
                assert_same_result(name, source, name),
                "{name} does not compile"
            );
            modules += 1;
        }
    }
    assert!(modules > 60, "only {modules} modules in the corpus");
}

#[test]
fn layout_variants_compile_identically() {
    for app in corpus() {
        for (name, source) in &app {
            let crlf = source.replace('\n', "\r\n");
            assert!(assert_same_result(name, &crlf, "\\r\\n line ends"));
            let trimmed = source.trim_end_matches('\n');
            assert!(assert_same_result(name, trimmed, "no final newline"));
            for tail in [
                "// comment at the end",
                "/* block at the end */",
                "/* two\nlines */\n\n",
                "\n\n\n",
                "// é\r",
            ] {
                let with_tail = format!("{source}{tail}");
                assert!(assert_same_result(name, &with_tail, tail));
            }
            let unterminated = format!("{source}\n  /* never closed\n");
            assert!(!assert_same_result(
                name,
                &unterminated,
                "unterminated comment"
            ));
        }
    }
}

#[test]
fn token_mutants_report_identical_results() {
    let mut rng = Rng(0x5eed_0001);
    let (mut mutants, mut rejected) = (0, 0);
    for app in corpus() {
        for (name, source) in &app {
            let spans = token_spans(source);
            let text = |i: usize| &source[spans[i].0..spans[i].1];
            // `source` with token `i` replaced by `with`.
            let splice = |i: usize, with: &str| {
                format!("{}{with}{}", &source[..spans[i].0], &source[spans[i].1..])
            };
            for round in 0..36 {
                let i = rng.below(spans.len() - 1);
                let (mutant, what) = match round % 4 {
                    0 => (splice(i, ""), "deleted"),
                    1 => (splice(i, &format!("{0} {0}", text(i))), "duplicated"),
                    2 => {
                        let (a, b) = (spans[i], spans[i + 1]);
                        let swapped = format!(
                            "{}{}{}{}{}",
                            &source[..a.0],
                            text(i + 1),
                            &source[a.1..b.0],
                            text(i),
                            &source[b.1..]
                        );
                        (swapped, "swapped with its neighbour")
                    }
                    _ => {
                        let pick = rng.below(spans.len() + FOREIGN_TOKENS.len());
                        let with = match pick.checked_sub(spans.len()) {
                            Some(foreign) => FOREIGN_TOKENS[foreign],
                            None => text(pick),
                        };
                        (splice(i, with), "replaced")
                    }
                };
                let what = format!("{name}: token {i} (`{}`) {what}", text(i));
                if !assert_same_result(name, &mutant, &what) {
                    rejected += 1;
                }
                mutants += 1;
            }
        }
    }
    assert!(mutants >= 2000, "only {mutants} mutants");
    // Most mutants must actually be errors, or the test compares little.
    assert!(rejected * 2 > mutants, "{rejected} of {mutants} rejected");
}

#[test]
fn truncations_report_identical_results() {
    let mut cuts = 0;
    for app in corpus() {
        for (name, source) in &app {
            for at in (0..source.len()).step_by(97) {
                if source.is_char_boundary(at) {
                    assert_same_result(name, &source[..at], &format!("{name} cut at byte {at}"));
                    cuts += 1;
                }
            }
        }
    }
    assert!(cuts > 2000, "only {cuts} truncations");
}

#[test]
fn deliberate_differences_are_the_documented_ones() {
    let e = compile_module("m", "fn é() {}").unwrap_err();
    let model = ref_compile_module("m", "fn é() {}").unwrap_err();
    assert_eq!(e.pos, model.pos);
    assert_eq!(e.message, "unexpected character `é`");
    assert_eq!(model.message, "unexpected character `Ã`");

    // At depth 255 both compile the same object; one level more and
    // only the model still accepts.
    let nest = |depth: usize| {
        format!(
            "fn f() -> int {{ return {}1{}; }}",
            "(-".repeat(depth / 2),
            ")".repeat(depth / 2)
        )
    };
    assert!(assert_same_result("m", &nest(254), "nesting 255"));
    let e = compile_module("m", &nest(256)).unwrap_err();
    assert_eq!(e.message, "nesting deeper than 256");
    assert!(ref_compile_module("m", &nest(256)).is_ok());
}

fn assert_same_unit(new: &LinkedUnit, old: &LinkedUnit, what: &str) {
    let (np, op) = (&new.program, &old.program);
    assert_eq!(np.modules(), op.modules(), "{what}: module table");
    assert_eq!(np.routines(), op.routines(), "{what}: routine table");
    assert_eq!(np.globals(), op.globals(), "{what}: global table");
    assert!(
        np.interner().iter().eq(op.interner().iter()),
        "{what}: program symbols"
    );
    assert_eq!(new.bodies, old.bodies, "{what}: bodies");
    assert_eq!(new.symtabs, old.symtabs, "{what}: module symbol tables");
    for (sym, name) in np.interner().iter() {
        assert_eq!(
            np.find_routine(name),
            op.find_routine(name),
            "{what}: {name}"
        );
        assert_eq!(
            np.find_global_sym(sym),
            op.find_global_sym(sym),
            "{what}: {name}"
        );
    }
    // The accounted sizes count vector capacities, which equality of
    // contents does not see.
    assert_eq!(np.heap_bytes(), op.heap_bytes(), "{what}: program bytes");
    for (n, o) in new.bodies.iter().zip(&old.bodies) {
        assert_eq!(n.heap_bytes(), o.heap_bytes(), "{what}: body bytes");
    }
    for (n, o) in new.symtabs.iter().zip(&old.symtabs) {
        assert_eq!(n.heap_bytes(), o.heap_bytes(), "{what}: symbol table bytes");
    }
}

fn assert_same_link(objects: &[IlObject], what: &str) -> Result<(), LinkError> {
    let new = link_objects(objects.to_vec());
    let old = ref_link_objects(objects.to_vec());
    match (&new, &old) {
        (Ok(n), Ok(o)) => assert_same_unit(n, o, what),
        (Err(n), Err(o)) => assert_eq!(n, o, "{what}"),
        _ => panic!(
            "{what}: {:?}\nbut the model gives {:?}",
            new.as_ref().map(|_| "a unit"),
            old.as_ref().map(|_| "a unit")
        ),
    }
    new.map(|_| ())
}

fn compile_all(modules: &[(String, String)]) -> Vec<IlObject> {
    modules
        .iter()
        .map(|(name, source)| compile_module(name, source).expect("compiles"))
        .collect()
}

#[test]
fn linked_units_are_identical_in_any_object_order() {
    let mut rng = Rng(0x5eed_0002);
    for app in corpus() {
        let mut objects = compile_all(&app);
        let name = app[0].0.clone();
        // Fresh from the front end (vectors with spare capacity), as
        // `cmocc` links them ...
        assert_same_link(&objects, &name).expect("links");
        // ... decoded from object files ...
        let decoded: Vec<IlObject> = objects
            .iter()
            .map(|o| IlObject::from_bytes(&o.to_bytes()).expect("decodes"))
            .collect();
        assert_same_link(&decoded, &name).expect("links");
        // ... and shuffled.
        for round in 0..4 {
            rng.shuffle(&mut objects);
            assert_same_link(&objects, &format!("{name}, shuffle {round}")).expect("links");
        }
    }
}

/// Modules that link with one another except for the faults named in
/// their comments. Several faults at once, so that which one is
/// reported depends on object and instruction order.
fn faulty_program(faults: &[&str]) -> Vec<(String, String)> {
    let has = |f: &str| faults.contains(&f);
    let mut a = String::from(
        "extern fn helper(x: int) -> int;\nextern fn emit(x: int);\nextern global table: int[4];\n\
         extern global level: int;\nglobal shared: int = 1;\nstatic fn local() -> int { return 2; }\n",
    );
    let mut main = String::from("fn main() -> int {\n  var r: int = helper(shared) + local();\n");
    if has("undefined") {
        a.push_str("extern fn ghost() -> int;\nextern global phantom: int;\n");
        main.push_str("  r = r + ghost();\n  r = r + phantom;\n");
    }
    if has("arity") {
        a.push_str("extern fn two(x: int) -> int;\n");
        main.push_str("  r = r + two(r);\n");
    }
    if has("return") {
        a.push_str("extern fn nothing() -> int;\n");
        main.push_str("  r = r + nothing();\n");
    }
    if has("kind") {
        main.push_str("  r = r + level;\n  r = r + table[1];\n");
    } else {
        main.push_str("  r = r + table[1];\n");
    }
    main.push_str("  emit(r);\n  return r;\n}\n");
    a.push_str(&main);

    let mut b = String::from(
        "global table: int[4] = [1, 2, 3];\nfn helper(x: int) -> int { return x + table[0]; }\n\
         fn emit(x: int) { output(x); }\nfn two(a: int, b: int) -> int { return a + b; }\n\
         fn nothing() { }\nstatic fn local() -> int { return 3; }\n",
    );
    // `level` is an array exactly when the kind fault is wanted.
    b.push_str(if has("kind") {
        "global level: int[2];\n"
    } else {
        "global level: int = 5;\n"
    });
    let mut c = String::from("fn spare() -> int { return 7; }\n");
    if has("duplicate-export") {
        c.push_str("fn helper(x: int) -> int { return x; }\nglobal shared: int;\n");
    }
    if has("duplicate-local") {
        // One module may not define a name twice, even once as a
        // global and once as a routine; the front end does not object.
        c.push_str("global spare: int;\n");
    }
    vec![
        ("a".to_owned(), a),
        ("b".to_owned(), b),
        ("c".to_owned(), c),
    ]
}

#[test]
fn link_errors_are_identical_in_any_object_order() {
    const FAULTS: [&str; 6] = [
        "undefined",
        "duplicate-export",
        "duplicate-local",
        "arity",
        "return",
        "kind",
    ];
    let mut rng = Rng(0x5eed_0003);
    assert_same_link(&compile_all(&faulty_program(&[])), "no fault").expect("links");
    let mut seen = std::collections::BTreeSet::new();
    // Every fault alone, then random subsets, each in several orders.
    for round in 0..120 {
        let faults: Vec<&str> = match FAULTS.get(round) {
            Some(alone) => vec![alone],
            None => FAULTS.into_iter().filter(|_| rng.below(3) == 0).collect(),
        };
        if faults.is_empty() {
            continue;
        }
        let mut objects = compile_all(&faulty_program(&faults));
        for _ in 0..3 {
            let err = assert_same_link(&objects, &faults.join("+"))
                .expect_err("a faulty program does not link");
            let mut kind = format!("{err:?}");
            kind.truncate(kind.find(' ').unwrap_or(kind.len()));
            seen.insert(kind);
            rng.shuffle(&mut objects);
        }
    }
    let seen: Vec<String> = seen.into_iter().collect();
    assert_eq!(
        seen.join(" "),
        "ArityMismatch DuplicateExport DuplicateLocal KindMismatch ReturnMismatch Undefined"
    );
}
