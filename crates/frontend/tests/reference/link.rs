//! The IL linker as it stood before the index-keyed rewrite, kept as
//! the model `cmo_ir::link_objects` is compared against. Verbatim from
//! commit 7e6cc03 except that `LinkError` / `LinkedUnit` are the
//! crate's own, and that the module record is added after its routines
//! (with the routine list the old code patched in afterwards), because
//! `Program` exposes no mutable module access outside `cmo-ir`.

use cmo_ir::{
    CalleeRef, GlobalId, GlobalMeta, GlobalRef, IlObject, Instr, LinkError, Linkage, LinkedUnit,
    MemBase, ModuleId, ModuleInfo, ModuleSymbols, Program, RoutineBody, RoutineId, RoutineMeta,
};
use std::collections::HashMap;

struct ModuleScope {
    routines: HashMap<String, RoutineId>,
    globals: HashMap<String, GlobalId>,
}

/// Links IL objects into a program, resolving all symbolic references.
///
/// # Errors
///
/// Returns a [`LinkError`] for undefined symbols, duplicate
/// definitions, or interface mismatches.
pub fn ref_link_objects(objects: Vec<IlObject>) -> Result<LinkedUnit, LinkError> {
    let mut program = Program::new();
    let mut bodies: Vec<RoutineBody> = Vec::new();
    let mut symtabs: Vec<ModuleSymbols> = Vec::new();
    let mut scopes: Vec<ModuleScope> = Vec::new();
    // Exported name → (defining module name, id), for duplicate checks.
    let mut exported_routines: HashMap<String, (String, RoutineId)> = HashMap::new();
    let mut exported_globals: HashMap<String, (String, GlobalId)> = HashMap::new();

    // Pass 1: register every definition in the program symbol table.
    for obj in &objects {
        let module_sym = program.interner_mut().intern(&obj.module_name);
        let module_id = ModuleId::from_index(program.modules().len());
        let mut scope = ModuleScope {
            routines: HashMap::new(),
            globals: HashMap::new(),
        };

        let mut symtab = ModuleSymbols::new();
        for (slot, g) in obj.symbols.globals.iter().enumerate() {
            let gname = obj.strings.resolve(g.name).to_owned();
            if scope.globals.contains_key(&gname) || scope.routines.contains_key(&gname) {
                return Err(LinkError::DuplicateLocal {
                    module: obj.module_name.clone(),
                    name: gname,
                });
            }
            let prog_sym = program.interner_mut().intern(&gname);
            if g.linkage == Linkage::Export {
                if let Some((first, _)) = exported_globals.get(&gname) {
                    return Err(LinkError::DuplicateExport {
                        name: gname,
                        first: first.clone(),
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
            if g.linkage == Linkage::Export {
                exported_globals.insert(gname.clone(), (obj.module_name.clone(), gid));
            }
            scope.globals.insert(gname, gid);
            let mut resolved = g.clone();
            resolved.name = prog_sym;
            symtab.globals.push(resolved);
        }
        symtabs.push(symtab);

        for def in &obj.routines {
            let rname = obj.strings.resolve(def.name).to_owned();
            if scope.routines.contains_key(&rname) || scope.globals.contains_key(&rname) {
                return Err(LinkError::DuplicateLocal {
                    module: obj.module_name.clone(),
                    name: rname,
                });
            }
            let prog_sym = program.interner_mut().intern(&rname);
            if def.linkage == Linkage::Export {
                if let Some((first, _)) = exported_routines.get(&rname) {
                    return Err(LinkError::DuplicateExport {
                        name: rname,
                        first: first.clone(),
                        second: obj.module_name.clone(),
                    });
                }
            }
            let rid = program.add_routine(RoutineMeta {
                name: prog_sym,
                module: module_id,
                sig: def.sig.clone(),
                linkage: def.linkage,
                source_lines: def.source_lines,
                il_size: u32::try_from(def.body.instr_count()).unwrap_or(u32::MAX),
            });
            if def.linkage == Linkage::Export {
                exported_routines.insert(rname.clone(), (obj.module_name.clone(), rid));
            }
            scope.routines.insert(rname, rid);
            bodies.push(def.body.clone());
        }
        let mut rids: Vec<RoutineId> = scope.routines.values().copied().collect();
        rids.sort_unstable();
        let added = program.add_module(ModuleInfo {
            name: module_sym,
            routines: rids,
            source_lines: obj.source_lines,
            language: obj.language,
        });
        assert_eq!(added, module_id);
        scopes.push(scope);
    }

    // Pass 2: resolve every reference inside every body.
    let mut body_index = 0usize;
    for (m, obj) in objects.iter().enumerate() {
        let scope = &scopes[m];
        for _def in &obj.routines {
            let body = &mut bodies[body_index];
            body_index += 1;
            resolve_body(
                body,
                obj,
                scope,
                &exported_routines,
                &exported_globals,
                &program,
            )?;
        }
    }

    Ok(LinkedUnit {
        program,
        bodies,
        symtabs,
    })
}

fn resolve_body(
    body: &mut RoutineBody,
    obj: &IlObject,
    scope: &ModuleScope,
    exported_routines: &HashMap<String, (String, RoutineId)>,
    exported_globals: &HashMap<String, (String, GlobalId)>,
    program: &Program,
) -> Result<(), LinkError> {
    let module = obj.module_name.clone();
    let resolve_global = |sym| -> Result<GlobalId, LinkError> {
        let name = obj.strings.resolve(sym);
        scope
            .globals
            .get(name)
            .copied()
            .or_else(|| exported_globals.get(name).map(|&(_, id)| id))
            .ok_or_else(|| LinkError::Undefined {
                module: module.clone(),
                name: name.to_owned(),
            })
    };
    let resolve_callee = |sym| -> Result<RoutineId, LinkError> {
        let name = obj.strings.resolve(sym);
        scope
            .routines
            .get(name)
            .copied()
            .or_else(|| exported_routines.get(name).map(|&(_, id)| id))
            .ok_or_else(|| LinkError::Undefined {
                module: module.clone(),
                name: name.to_owned(),
            })
    };
    let check_shape = |gid: GlobalId, want_array: bool| -> Result<GlobalId, LinkError> {
        let meta = program.global(gid);
        if meta.ty.is_array() == want_array {
            Ok(gid)
        } else {
            Err(LinkError::KindMismatch {
                module: module.clone(),
                name: program.name(meta.name).to_owned(),
            })
        }
    };

    for block in &mut body.blocks {
        for instr in &mut block.instrs {
            match instr {
                Instr::LoadGlobal { global, .. } | Instr::StoreGlobal { global, .. } => {
                    if let GlobalRef::Name(sym) = *global {
                        let gid = check_shape(resolve_global(sym)?, false)?;
                        *global = GlobalRef::Id(gid);
                    }
                }
                Instr::LoadElem { base, .. } | Instr::StoreElem { base, .. } => {
                    if let MemBase::Global(GlobalRef::Name(sym)) = *base {
                        let gid = check_shape(resolve_global(sym)?, true)?;
                        *base = MemBase::Global(GlobalRef::Id(gid));
                    }
                }
                Instr::Call {
                    callee, args, dst, ..
                } => {
                    if let CalleeRef::Name(sym) = *callee {
                        let rid = resolve_callee(sym)?;
                        let meta = program.routine(rid);
                        if meta.sig.arity() != args.len() {
                            return Err(LinkError::ArityMismatch {
                                module: module.clone(),
                                callee: program.name(meta.name).to_owned(),
                                expected: meta.sig.arity(),
                                got: args.len(),
                            });
                        }
                        if dst.is_some() && meta.sig.ret.is_none() {
                            return Err(LinkError::ReturnMismatch {
                                module: module.clone(),
                                callee: program.name(meta.name).to_owned(),
                            });
                        }
                        *callee = CalleeRef::Id(rid);
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}
