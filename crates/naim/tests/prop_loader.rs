//! Property tests: the loader preserves pool contents under arbitrary
//! interleavings of inserts, touches, mutations, and unloads, at any
//! budget and capability level.

use cmo_naim::{
    DecodeError, Decoder, Encoder, Loader, NaimConfig, NaimLevel, PoolKind, Relocatable,
};
use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq)]
struct Payload(Vec<i64>);

impl Relocatable for Payload {
    fn compact(&self, enc: &mut Encoder) {
        enc.write_usize(self.0.len());
        for &v in &self.0 {
            enc.write_i64(v);
        }
    }
    fn uncompact(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.read_usize()?;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(dec.read_i64()?);
        }
        Ok(Payload(v))
    }
    fn expanded_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.0.capacity() * 8
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Vec<i64>),
    Touch(usize),
    Mutate(usize, i64),
    Unload(usize),
    UnloadAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(any::<i64>(), 0..64).prop_map(Op::Insert),
        any::<usize>().prop_map(Op::Touch),
        (any::<usize>(), any::<i64>()).prop_map(|(i, v)| Op::Mutate(i, v)),
        any::<usize>().prop_map(Op::Unload),
        Just(Op::UnloadAll),
    ]
}

fn arb_level() -> impl Strategy<Value = NaimLevel> {
    prop_oneof![
        Just(NaimLevel::Off),
        Just(NaimLevel::CompactIr),
        Just(NaimLevel::CompactAll),
        Just(NaimLevel::Offload),
    ]
}

proptest! {
    #[test]
    fn loader_is_a_faithful_store(
        ops in proptest::collection::vec(arb_op(), 1..60),
        budget in 256usize..16_384,
        level in arb_level(),
    ) {
        let config = NaimConfig::with_budget(budget).max_level(level);
        let mut loader: Loader<Payload> = Loader::new(config);
        // The reference model: plain Vec of expected contents.
        let mut model: Vec<Vec<i64>> = Vec::new();
        let mut ids = Vec::new();

        for op in ops {
            match op {
                Op::Insert(data) => {
                    let kind = if model.len().is_multiple_of(3) {
                        PoolKind::SymTab
                    } else {
                        PoolKind::Ir
                    };
                    ids.push(loader.insert(Payload(data.clone()), kind));
                    model.push(data);
                }
                Op::Touch(i) if !ids.is_empty() => {
                    let i = i % ids.len();
                    let got = loader.get(ids[i]).expect("get");
                    prop_assert_eq!(&got.0, &model[i]);
                }
                Op::Mutate(i, v) if !ids.is_empty() => {
                    let i = i % ids.len();
                    loader.get_mut(ids[i]).expect("get_mut").0.push(v);
                    model[i].push(v);
                }
                Op::Unload(i) if !ids.is_empty() => {
                    let i = i % ids.len();
                    loader.unload(ids[i]).expect("unload");
                }
                Op::UnloadAll => loader.unload_all().expect("unload_all"),
                _ => {}
            }
        }
        // Final sweep: every pool readable with exactly its contents.
        for (i, &id) in ids.iter().enumerate() {
            prop_assert_eq!(&loader.get(id).expect("final get").0, &model[i]);
        }
        // Accounting sanity: nothing negative, census adds up.
        let (a, b, c, d) = loader.census();
        prop_assert_eq!(a + b + c + d, ids.len());
        prop_assert!(loader.memory().total() < usize::MAX / 2);
    }

    #[test]
    fn naim_off_never_compacts(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut loader: Loader<Payload> = Loader::new(NaimConfig::disabled());
        let mut ids = Vec::new();
        for op in ops {
            match op {
                Op::Insert(data) => ids.push(loader.insert(Payload(data), PoolKind::Ir)),
                Op::Unload(i) if !ids.is_empty() => {
                    let i = i % ids.len();
                    loader.unload(ids[i]).unwrap();
                }
                Op::UnloadAll => loader.unload_all().unwrap(),
                _ => {}
            }
        }
        prop_assert_eq!(loader.stats().compactions, 0);
        prop_assert_eq!(loader.stats().offload_writes, 0);
    }
}
