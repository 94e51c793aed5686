//! Disassembler for linked images — the diagnostic surface §6.2 calls
//! essential ("good compiler diagnostics on what the compiler is
//! optimizing").

use crate::image::MachineImage;
use crate::minstr::MInstr;
use std::fmt::Write as _;

fn one(instr: &MInstr, image: &MachineImage) -> String {
    match instr {
        MInstr::LdImm { dst, value } => format!("ldi   {dst}, {value}"),
        MInstr::LdImmF { dst, value } => format!("ldf   {dst}, {value:?}"),
        MInstr::Bin { op, dst, lhs, rhs } => format!("{:<5} {dst}, {lhs}, {rhs}", op.mnemonic()),
        MInstr::Un { op, dst, src } => format!("{:<5} {dst}, {src}", op.mnemonic()),
        MInstr::Mov { dst, src } => format!("mov   {dst}, {src}"),
        MInstr::LdSlot { dst, slot } => format!("lds   {dst}, [fp+{slot}]"),
        MInstr::StSlot { slot, src } => format!("sts   [fp+{slot}], {src}"),
        MInstr::LdGlobal { dst, addr } => format!("ldg   {dst}, [g{addr}]"),
        MInstr::StGlobal { addr, src } => format!("stg   [g{addr}], {src}"),
        MInstr::LdGlobalElem {
            dst,
            base,
            len,
            index,
        } => format!("ldge  {dst}, [g{base}+{index}%{len}]"),
        MInstr::StGlobalElem {
            base,
            len,
            index,
            src,
        } => format!("stge  [g{base}+{index}%{len}], {src}"),
        MInstr::LdSlotElem {
            dst,
            base_slot,
            len,
            index,
        } => format!("ldse  {dst}, [fp+{base_slot}+{index}%{len}]"),
        MInstr::StSlotElem {
            base_slot,
            len,
            index,
            src,
        } => format!("stse  [fp+{base_slot}+{index}%{len}], {src}"),
        MInstr::Call { routine, args, dst } => {
            let name = image
                .routines
                .get(*routine as usize)
                .map_or("?", |r| r.name.as_str());
            let args = args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            match dst {
                Some(d) => format!("call  {d} = {name}({args})"),
                None => format!("call  {name}({args})"),
            }
        }
        MInstr::Ret { value: Some(r) } => format!("ret   {r}"),
        MInstr::Ret { value: None } => "ret".to_owned(),
        MInstr::Jmp { target } => format!("jmp   {target:#x}"),
        MInstr::Br { cond, target } => format!("br    {cond}, {target:#x}"),
        MInstr::Probe { id } => format!("probe #{id}"),
        MInstr::Input { dst } => format!("in    {dst}"),
        MInstr::Output { src } => format!("out   {src}"),
        MInstr::Halt => "halt".to_owned(),
    }
}

/// Renders the whole image as assembly-like text, one routine per
/// section in layout order.
#[must_use]
pub fn disassemble(image: &MachineImage) -> String {
    let mut by_entry: Vec<usize> = (0..image.routines.len()).collect();
    by_entry.sort_by_key(|&i| image.routines[i].entry);
    let mut out = String::new();
    for i in by_entry {
        let r = &image.routines[i];
        let _ = writeln!(
            out,
            "{}:  ; routine #{i}, {} instrs, {} frame slots",
            r.name, r.code_len, r.frame_slots
        );
        for addr in r.entry..r.entry + r.code_len {
            if let Some(instr) = image.code.get(addr as usize) {
                let _ = writeln!(out, "  {addr:#06x}  {}", one(instr, image));
            }
        }
    }
    out
}

/// Renders a single routine by name, if present.
#[must_use]
pub fn disassemble_routine(image: &MachineImage, name: &str) -> Option<String> {
    let idx = image.find_routine(name)? as usize;
    let r = &image.routines[idx];
    let mut out = String::new();
    let _ = writeln!(out, "{}:", r.name);
    for addr in r.entry..r.entry + r.code_len {
        let _ = writeln!(
            out,
            "  {addr:#06x}  {}",
            one(&image.code[addr as usize], image)
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::MRoutineInfo;
    use crate::minstr::Reg;
    use cmo_ir::BinOp;

    fn tiny_image() -> MachineImage {
        MachineImage {
            code: vec![
                MInstr::LdImm {
                    dst: Reg(0),
                    value: 3,
                },
                MInstr::Call {
                    routine: 1,
                    args: [Reg(0)].into_iter().collect(),
                    dst: Some(Reg(1)),
                },
                MInstr::Ret {
                    value: Some(Reg(1)),
                },
                MInstr::Bin {
                    op: BinOp::Add,
                    dst: Reg(0),
                    lhs: Reg(0),
                    rhs: Reg(0),
                },
                MInstr::Ret {
                    value: Some(Reg(0)),
                },
            ],
            routines: vec![
                MRoutineInfo {
                    name: "main".to_owned(),
                    entry: 0,
                    frame_slots: 0,
                    code_len: 3,
                },
                MRoutineInfo {
                    name: "dbl".to_owned(),
                    entry: 3,
                    frame_slots: 0,
                    code_len: 2,
                },
            ],
            ..MachineImage::default()
        }
    }

    #[test]
    fn full_listing_names_routines_and_calls() {
        let text = disassemble(&tiny_image());
        assert!(text.contains("main:"));
        assert!(text.contains("dbl:"));
        assert!(text.contains("call  r1 = dbl(r0)"));
        assert!(text.contains("add   r0, r0, r0"));
    }

    #[test]
    fn single_routine_listing() {
        let image = tiny_image();
        let text = disassemble_routine(&image, "dbl").unwrap();
        assert!(text.starts_with("dbl:"));
        assert!(!text.contains("main"));
        assert!(disassemble_routine(&image, "ghost").is_none());
    }
}
