//! IL-level linking: merging object files into a [`Program`].
//!
//! This is the front half of the paper's linker behaviour (§3): when
//! the linker encounters IL objects it combines them, resolves every
//! name-based cross-module reference against the program symbol table,
//! and hands the result to the optimizer. Module-internal symbols
//! shadow exports, and two modules may define internal symbols with the
//! same name without conflict.

use crate::ids::{GlobalId, Local, RoutineId, Sym};
use crate::instr::{CalleeRef, GlobalRef, Instr, MemBase};
use crate::module::{GlobalInit, Linkage, ModuleInfo, ModuleSymbols};
use crate::object::IlObject;
use crate::program::{GlobalMeta, Program};
use crate::routine::{RoutineBody, RoutineMeta};
use std::error::Error;
use std::fmt;

/// A linking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A referenced symbol is defined nowhere.
    Undefined {
        /// Module containing the reference.
        module: String,
        /// The unresolved name.
        name: String,
    },
    /// Two modules export the same name.
    DuplicateExport {
        /// The clashing name.
        name: String,
        /// First exporting module.
        first: String,
        /// Second exporting module.
        second: String,
    },
    /// One module defines the same name twice.
    DuplicateLocal {
        /// The defining module.
        module: String,
        /// The clashing name.
        name: String,
    },
    /// A call passes the wrong number of arguments. The paper notes
    /// mismatched interfaces "only show up with interprocedural
    /// optimization" (§6.3) — our IL link rejects them eagerly.
    ArityMismatch {
        /// Calling module.
        module: String,
        /// Callee name.
        callee: String,
        /// Arity the callee declares.
        expected: usize,
        /// Arity at the call site.
        got: usize,
    },
    /// A call uses the result of a procedure with no return value.
    ReturnMismatch {
        /// Calling module.
        module: String,
        /// Callee name.
        callee: String,
    },
    /// A scalar access targeted an array global or vice versa.
    KindMismatch {
        /// Module containing the access.
        module: String,
        /// The global's name.
        name: String,
    },
    /// A body names a symbol its object does not have, a reference
    /// already resolved, a local of the wrong shape, or a call site
    /// twice or past its count: damage the decoder cannot see.
    Malformed {
        /// The damaged module.
        module: String,
        /// The defect.
        what: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Undefined { module, name } => {
                write!(
                    f,
                    "undefined symbol `{name}` referenced from module `{module}`"
                )
            }
            LinkError::DuplicateExport {
                name,
                first,
                second,
            } => write!(
                f,
                "symbol `{name}` exported by both `{first}` and `{second}`"
            ),
            LinkError::DuplicateLocal { module, name } => {
                write!(f, "module `{module}` defines `{name}` more than once")
            }
            LinkError::ArityMismatch {
                module,
                callee,
                expected,
                got,
            } => write!(
                f,
                "call to `{callee}` from `{module}` passes {got} arguments, expected {expected}"
            ),
            LinkError::ReturnMismatch { module, callee } => write!(
                f,
                "call from `{module}` uses the result of `{callee}`, which returns nothing"
            ),
            LinkError::KindMismatch { module, name } => write!(
                f,
                "global `{name}` accessed with the wrong shape (scalar vs array) in `{module}`"
            ),
            LinkError::Malformed { module, what } => {
                write!(f, "corrupt IL object `{module}`: {what}")
            }
        }
    }
}

impl Error for LinkError {}

/// The output of IL linking: the program symbol information plus the
/// transitory payloads (routine bodies and module symbol tables) ready
/// to be handed to the NAIM loader.
#[derive(Debug)]
pub struct LinkedUnit {
    /// Program-wide symbol tables (always-resident global objects).
    pub program: Program,
    /// Routine bodies, indexed by [`RoutineId`]; fully resolved.
    pub bodies: Vec<RoutineBody>,
    /// Module symbol tables, indexed by [`crate::ModuleId`]; names re-interned
    /// into the program interner.
    pub symtabs: Vec<ModuleSymbols>,
}

/// Sentinel for a table slot whose name has not been resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// What each of one object's own [`Sym`]s resolves to, as a routine and
/// as a global (two namespaces). Pass 1 fills in the module's own
/// definitions, which shadow exports; pass 2 fills in an export the
/// first time a body references it, so a name is looked up by text at
/// most once per object.
struct ObjectScope {
    routines: Vec<u32>,
    globals: Vec<u32>,
}

/// Links IL objects into a program, resolving all symbolic references.
///
/// Routine bodies, signatures and initializers are moved out of
/// `objects`, not copied. The accounted sizes of the result
/// ([`RoutineBody::heap_bytes`] and friends) count vector capacity, so
/// every moved vector is trimmed to its length: a linked unit accounts
/// the same bytes whether its objects came from a frontend, a decoder
/// or a clone.
///
/// # Errors
///
/// Returns a [`LinkError`] for undefined symbols, duplicate
/// definitions, or interface mismatches.
pub fn link_objects(mut objects: Vec<IlObject>) -> Result<LinkedUnit, LinkError> {
    let mut program = Program::new();
    let mut bodies: Vec<RoutineBody> = Vec::new();
    let mut symtabs: Vec<ModuleSymbols> = Vec::new();
    let mut scopes: Vec<ObjectScope> = Vec::with_capacity(objects.len());

    // Pass 1: register every definition in the program symbol table.
    // Exported names are found again through the program's own
    // by-symbol tables.
    for obj in &mut objects {
        let module_sym = program.interner_mut().intern(&obj.module_name);
        let module_id = program.add_module(ModuleInfo {
            name: module_sym,
            routines: Vec::new(),
            source_lines: obj.source_lines,
            language: obj.language,
        });
        let mut scope = ObjectScope {
            routines: vec![UNRESOLVED; obj.strings.len()],
            globals: vec![UNRESOLVED; obj.strings.len()],
        };
        let defined_twice = |scope: &ObjectScope, name: Sym| {
            scope.globals[name.index()] != UNRESOLVED || scope.routines[name.index()] != UNRESOLVED
        };

        let mut symtab = ModuleSymbols::new();
        let globals = std::mem::take(&mut obj.symbols.globals);
        for (slot, mut g) in globals.into_iter().enumerate() {
            let gname = obj.strings.resolve(g.name);
            if defined_twice(&scope, g.name) {
                return Err(LinkError::DuplicateLocal {
                    module: obj.module_name.clone(),
                    name: gname.to_owned(),
                });
            }
            let prog_sym = program.interner_mut().intern(gname);
            if g.linkage == Linkage::Export {
                if let Some(first) = program.find_global_sym(prog_sym) {
                    let first = program.module(program.global(first).module).name;
                    return Err(LinkError::DuplicateExport {
                        name: gname.to_owned(),
                        first: program.name(first).to_owned(),
                        second: obj.module_name.clone(),
                    });
                }
            }
            let gid = program.add_global(GlobalMeta {
                name: prog_sym,
                module: module_id,
                slot: u32::try_from(slot).expect("global slot fits u32"),
                ty: g.ty,
                linkage: g.linkage,
            });
            scope.globals[g.name.index()] = gid.0;
            g.name = prog_sym;
            match &mut g.init {
                GlobalInit::IntArray(v) => v.shrink_to_fit(),
                GlobalInit::FloatArray(v) => v.shrink_to_fit(),
                GlobalInit::Zero | GlobalInit::Scalar(_) => {}
            }
            symtab.globals.push(g);
        }
        symtabs.push(symtab);

        // The accounted program bytes count this list's capacity, and
        // it has always been what collecting the ids gave: four slots
        // at least.
        let n = obj.routines.len();
        let mut rids = Vec::with_capacity(if n == 0 { 0 } else { n.max(4) });
        for def in std::mem::take(&mut obj.routines) {
            let rname = obj.strings.resolve(def.name);
            if defined_twice(&scope, def.name) {
                return Err(LinkError::DuplicateLocal {
                    module: obj.module_name.clone(),
                    name: rname.to_owned(),
                });
            }
            let prog_sym = program.interner_mut().intern(rname);
            if def.linkage == Linkage::Export {
                if let Some(first) = program.find_routine_sym(prog_sym) {
                    let first = program.module(program.routine(first).module).name;
                    return Err(LinkError::DuplicateExport {
                        name: rname.to_owned(),
                        first: program.name(first).to_owned(),
                        second: obj.module_name.clone(),
                    });
                }
            }
            let mut sig = def.sig;
            sig.params.shrink_to_fit();
            let rid = program.add_routine(RoutineMeta {
                name: prog_sym,
                module: module_id,
                sig,
                linkage: def.linkage,
                source_lines: def.source_lines,
                il_size: u32::try_from(def.body.instr_count()).unwrap_or(u32::MAX),
            });
            scope.routines[def.name.index()] = rid.0;
            rids.push(rid);
            bodies.push(def.body);
        }
        program.module_mut_internal(module_id).routines = rids;
        scopes.push(scope);
    }

    // Pass 2: resolve every reference inside every body, module by
    // module in routine order.
    let mut rest = bodies.as_mut_slice();
    for ((obj, scope), info) in objects.iter().zip(&mut scopes).zip(program.modules()) {
        let (mine, others) = rest.split_at_mut(info.routines.len());
        rest = others;
        let mut resolver = Resolver {
            obj,
            scope,
            program: &program,
        };
        for body in mine {
            resolver.resolve_body(body)?;
        }
    }

    Ok(LinkedUnit {
        program,
        bodies,
        symtabs,
    })
}

struct Resolver<'a> {
    obj: &'a IlObject,
    scope: &'a mut ObjectScope,
    program: &'a Program,
}

impl Resolver<'_> {
    fn malformed(&self, what: String) -> LinkError {
        LinkError::Malformed {
            module: self.obj.module_name.clone(),
            what,
        }
    }

    fn wrong_shape(&self, l: Local) -> LinkError {
        self.malformed(format!("local {l} accessed with the wrong shape"))
    }

    /// What `sym` resolves to in `table`, which has a slot for each of
    /// the object's strings.
    fn slot(&self, table: &[u32], sym: Sym) -> Result<u32, LinkError> {
        (table.get(sym.index()).copied())
            .ok_or_else(|| self.malformed(format!("symbol {sym} out of range")))
    }

    fn undefined(&self, sym: Sym) -> LinkError {
        LinkError::Undefined {
            module: self.obj.module_name.clone(),
            name: self.obj.strings.resolve(sym).to_owned(),
        }
    }

    /// The program symbol an exported `sym` would carry, if any module
    /// defines that name at all.
    fn program_sym(&self, sym: Sym) -> Option<Sym> {
        self.program
            .interner()
            .lookup(self.obj.strings.resolve(sym))
    }

    fn global(&mut self, global: GlobalRef, want_array: bool) -> Result<GlobalId, LinkError> {
        let GlobalRef::Name(sym) = global else {
            return Err(self.malformed("a resolved global in an unlinked object".to_owned()));
        };
        if self.slot(&self.scope.globals, sym)? == UNRESOLVED {
            let exported = self
                .program_sym(sym)
                .and_then(|s| self.program.find_global_sym(s))
                .ok_or_else(|| self.undefined(sym))?;
            self.scope.globals[sym.index()] = exported.0;
        }
        let gid = GlobalId(self.scope.globals[sym.index()]);
        let meta = self.program.global(gid);
        if meta.ty.is_array() == want_array {
            Ok(gid)
        } else {
            Err(LinkError::KindMismatch {
                module: self.obj.module_name.clone(),
                name: self.program.name(meta.name).to_owned(),
            })
        }
    }

    fn callee(&mut self, sym: Sym) -> Result<RoutineId, LinkError> {
        if self.slot(&self.scope.routines, sym)? == UNRESOLVED {
            let exported = self
                .program_sym(sym)
                .and_then(|s| self.program.find_routine_sym(s))
                .ok_or_else(|| self.undefined(sym))?;
            self.scope.routines[sym.index()] = exported.0;
        }
        Ok(RoutineId(self.scope.routines[sym.index()]))
    }

    /// Resolves every name in `body`, checking what `validate_body`
    /// would and neither decoding nor resolution already has: local
    /// shapes and call sites.
    ///
    /// [`validate_body`]: crate::validate::validate_body
    fn resolve_body(&mut self, body: &mut RoutineBody) -> Result<(), LinkError> {
        body.blocks.shrink_to_fit();
        body.args.shrink_to_fit();
        body.locals.shrink_to_fit();
        // Sites usually ascend in instruction order, which makes them
        // distinct; only a body where they do not is sorted to find out.
        let (mut last_site, mut ascending) = (None, true);
        let is_array = |l: Local| body.locals.get(l.index()).map(|d| d.ty.is_array());
        for block in &mut body.blocks {
            block.instrs.shrink_to_fit();
            for instr in &mut block.instrs {
                match instr {
                    Instr::LoadLocal { local, .. } | Instr::StoreLocal { local, .. }
                        if is_array(*local) != Some(false) =>
                    {
                        return Err(self.wrong_shape(*local));
                    }
                    Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => {
                        *global = GlobalRef::Id(self.global(*global, false)?);
                    }
                    Instr::LoadElem { base, .. } | Instr::StoreElem { base, .. } => match base {
                        MemBase::Local(l) if is_array(*l) != Some(true) => {
                            return Err(self.wrong_shape(*l))
                        }
                        MemBase::Local(_) => {}
                        MemBase::Global(g) => *g = GlobalRef::Id(self.global(*g, true)?),
                    },
                    Instr::Call {
                        callee,
                        args,
                        dst,
                        site,
                    } => {
                        if site.0 >= body.next_site {
                            return Err(self.malformed(format!("call site {site} past the count")));
                        }
                        ascending &= last_site < Some(*site);
                        last_site = Some(*site);
                        let CalleeRef::Name(sym) = *callee else {
                            return Err(self
                                .malformed("a resolved callee in an unlinked object".to_owned()));
                        };
                        let rid = self.callee(sym)?;
                        let meta = self.program.routine(rid);
                        if meta.sig.arity() != args.len() {
                            return Err(LinkError::ArityMismatch {
                                module: self.obj.module_name.clone(),
                                callee: self.program.name(meta.name).to_owned(),
                                expected: meta.sig.arity(),
                                got: args.len(),
                            });
                        }
                        if dst.is_some() && meta.sig.ret.is_none() {
                            return Err(LinkError::ReturnMismatch {
                                module: self.obj.module_name.clone(),
                                callee: self.program.name(meta.name).to_owned(),
                            });
                        }
                        *callee = CalleeRef::Id(rid);
                    }
                    _ => {}
                }
            }
        }
        if !ascending {
            let mut sites: Vec<_> = (body.blocks.iter().flat_map(|b| &b.instrs))
                .filter_map(|i| match i {
                    Instr::Call { site, .. } => Some(*site),
                    _ => None,
                })
                .collect();
            sites.sort_unstable();
            if let Some(w) = sites.windows(2).find(|w| w[0] == w[1]) {
                return Err(self.malformed(format!("call site {} twice", w[0])));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IlObjectBuilder;
    use crate::types::{Signature, Ty, VarTy};

    fn two_module_program() -> Vec<IlObject> {
        let mut a = IlObjectBuilder::new("a");
        a.global(
            "shared",
            VarTy::scalar(Ty::I64),
            Linkage::Export,
            GlobalInit::Zero,
        );
        let mut f = a.routine("main", Signature::new(vec![], Some(Ty::I64)));
        let x = f.const_i64(5);
        let r = f.call("helper", vec![x]);
        f.store_global("shared", r);
        let v = f.load_global("shared");
        f.ret(Some(v));
        f.finish();
        let obj_a = a.finish();

        let mut b = IlObjectBuilder::new("b");
        let mut g = b.routine("helper", Signature::new(vec![Ty::I64], Some(Ty::I64)));
        let p = g.param(0);
        let x = g.load_local(p);
        let one = g.const_i64(1);
        let r = g.bin(crate::BinOp::Add, x, one);
        g.ret(Some(r));
        g.finish();
        let obj_b = b.finish();
        vec![obj_a, obj_b]
    }

    #[test]
    fn cross_module_references_resolve() {
        let unit = link_objects(two_module_program()).unwrap();
        assert_eq!(unit.program.modules().len(), 2);
        assert_eq!(unit.program.routines().len(), 2);
        let main = unit.program.find_routine("main").unwrap();
        let body = &unit.bodies[main.index()];
        for block in &body.blocks {
            for instr in &block.instrs {
                if let Instr::Call { callee, .. } = instr {
                    assert!(matches!(callee, CalleeRef::Id(_)));
                }
                if let Instr::LoadGlobal { global, .. } = instr {
                    assert!(matches!(global, GlobalRef::Id(_)));
                }
            }
        }
    }

    #[test]
    fn undefined_symbol_is_reported() {
        let mut a = IlObjectBuilder::new("a");
        let mut f = a.routine("main", Signature::default());
        f.call_void("missing", vec![]);
        f.ret(None);
        f.finish();
        let err = link_objects(vec![a.finish()]).unwrap_err();
        assert!(matches!(err, LinkError::Undefined { ref name, .. } if name == "missing"));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn duplicate_export_is_reported() {
        let make = |module: &str| {
            let mut b = IlObjectBuilder::new(module);
            let mut f = b.routine("clash", Signature::default());
            f.ret(None);
            f.finish();
            b.finish()
        };
        let err = link_objects(vec![make("a"), make("b")]).unwrap_err();
        assert!(matches!(err, LinkError::DuplicateExport { ref name, .. } if name == "clash"));
    }

    #[test]
    fn internal_symbols_do_not_clash_across_modules() {
        let make = |module: &str| {
            let mut b = IlObjectBuilder::new(module);
            let mut f = b.internal_routine("local_helper", Signature::default());
            f.ret(None);
            f.finish();
            let mut m = b.routine(&format!("entry_{module}"), Signature::default());
            m.call_void("local_helper", vec![]);
            m.ret(None);
            m.finish();
            b.finish()
        };
        let unit = link_objects(vec![make("a"), make("b")]).unwrap();
        // Each entry resolves to its own module's internal helper.
        let entry_a = unit.program.find_routine("entry_a").unwrap();
        let entry_b = unit.program.find_routine("entry_b").unwrap();
        let callee_of = |rid: RoutineId| -> RoutineId {
            let body = &unit.bodies[rid.index()];
            for block in &body.blocks {
                for instr in &block.instrs {
                    if let Instr::Call { callee, .. } = instr {
                        return callee.id();
                    }
                }
            }
            panic!("no call found");
        };
        let ca = callee_of(entry_a);
        let cb = callee_of(entry_b);
        assert_ne!(ca, cb);
        assert_eq!(unit.program.routine(ca).module.index(), 0);
        assert_eq!(unit.program.routine(cb).module.index(), 1);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let mut a = IlObjectBuilder::new("a");
        let mut f = a.routine("main", Signature::default());
        let x = f.const_i64(1);
        f.call_void("callee", vec![x]);
        f.ret(None);
        f.finish();
        let mut b = IlObjectBuilder::new("b");
        let g = b.routine("callee", Signature::new(vec![], None));
        g.finish();
        let err = link_objects(vec![a.finish(), b.finish()]).unwrap_err();
        assert!(matches!(
            err,
            LinkError::ArityMismatch {
                expected: 0,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn array_scalar_mismatch_is_reported() {
        let mut a = IlObjectBuilder::new("a");
        a.global(
            "table",
            VarTy::array(Ty::I64, 8),
            Linkage::Export,
            GlobalInit::Zero,
        );
        let mut f = a.routine("main", Signature::default());
        let _ = f.load_global("table"); // scalar access to an array
        f.ret(None);
        f.finish();
        let err = link_objects(vec![a.finish()]).unwrap_err();
        assert!(matches!(err, LinkError::KindMismatch { .. }));
    }
}
