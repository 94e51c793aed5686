//! The same seed gives the same inputs; the seed moves only link order
//! and edits, never what the program computes.

use cmo_benchmark::inputs::{make, SMOKE_SCALE};

#[test]
fn same_seed_same_sources_and_edits() {
    let a = make(42, 3, SMOKE_SCALE);
    let b = make(42, 3, SMOKE_SCALE);
    assert_eq!(a, b);
    assert_eq!(a.edited(5), b.edited(5));
}

#[test]
fn seed_permutes_link_order_only() {
    let a = make(1, 0, SMOKE_SCALE);
    let b = make(1, 1, SMOKE_SCALE);
    assert_ne!(a.modules, b.modules, "different link order");
    let sorted = |inputs: &cmo_benchmark::inputs::Inputs| {
        let mut modules = inputs.modules.clone();
        modules.sort();
        modules
    };
    assert_eq!(sorted(&a), sorted(&b), "the same modules");
    assert_eq!(a.ref_input, b.ref_input);
    assert_eq!(a.train_input, b.train_input);
}

#[test]
fn an_edit_touches_one_module_and_still_compiles() {
    let inputs = make(9, 0, SMOKE_SCALE);
    let n = inputs.modules.len() as u64;
    let mut touched = Vec::new();
    for iteration in 0..n {
        let edited = inputs.edited(iteration);
        let changed: Vec<usize> = (0..edited.len())
            .filter(|&i| edited[i] != inputs.modules[i])
            .collect();
        assert_eq!(changed.len(), 1);
        let (name, source) = &edited[changed[0]];
        assert!(source.starts_with(&inputs.modules[changed[0]].1));
        cmo::compile_module(name, source).expect("the edited module compiles");
        touched.push(changed[0]);
    }
    touched.sort_unstable();
    touched.dedup();
    assert_eq!(
        touched.len() as u64,
        n,
        "the edit rotates over every module"
    );
    assert_ne!(inputs.edited(0), inputs.edited(n), "every edit is novel");
}
