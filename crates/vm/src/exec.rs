//! The machine executor.

use crate::cost::CostModel;
use crate::image::MachineImage;
use crate::minstr::{MInstr, Reg, NUM_REGS};
use cmo_ir::{BinOp, UnOp};
use std::error::Error;
use std::fmt;

/// Execution limits and options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Maximum instructions to execute before aborting.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// The cycle cost model.
    pub cost: CostModel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            fuel: 500_000_000,
            max_depth: 4096,
            cost: CostModel::default(),
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The image has no routines (or a bad entry index).
    NoEntry,
    /// The instruction budget was exhausted (likely an optimizer bug
    /// producing an infinite loop — exactly what §6.3 isolation hunts).
    OutOfFuel,
    /// Call depth exceeded the limit.
    StackOverflow,
    /// Control fell off the end of the code.
    PcOutOfRange {
        /// The offending address.
        pc: u32,
    },
    /// A `Call` named a routine index outside the routine table.
    BadRoutine {
        /// The offending index.
        routine: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoEntry => f.write_str("image has no entry routine"),
            ExecError::OutOfFuel => f.write_str("instruction budget exhausted"),
            ExecError::StackOverflow => f.write_str("call depth limit exceeded"),
            ExecError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            ExecError::BadRoutine { routine } => write!(f, "bad routine index {routine}"),
        }
    }
}

impl Error for ExecError {}

/// The observable outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Simulated cycles — the paper's "run time".
    pub cycles: u64,
    /// Instructions executed.
    pub instrs: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Taken branches and jumps.
    pub branches_taken: u64,
    /// Calls executed.
    pub calls: u64,
    /// Output checksum (all `Output` values plus `main`'s return,
    /// order-sensitively mixed). Two compilations of the same program
    /// must produce images with equal checksums on equal inputs.
    pub checksum: u64,
    /// `main`'s return value.
    pub returned: i64,
    /// Probe counters (parallel to the image probe table; empty when
    /// not instrumented).
    pub probe_counts: Vec<u64>,
    /// Deepest call depth reached.
    pub max_depth: usize,
}

struct Frame {
    regs: [u64; NUM_REGS],
    slots: Vec<u64>,
    ret_pc: u32,
    ret_dst: Option<Reg>,
}

/// Direct-mapped instruction cache (the common mid-1990s design; its
/// conflict sensitivity is exactly what makes profile-guided layout
/// and procedure clustering pay, and what punishes careless inlining
/// growth).
struct ICache {
    tags: Vec<u64>,
    line_instrs: u32,
    lines: u32,
}

impl ICache {
    fn new(cfg: crate::cost::ICacheConfig) -> Self {
        ICache {
            tags: vec![u64::MAX; cfg.lines() as usize],
            line_instrs: cfg.line_instrs.max(1),
            lines: cfg.lines(),
        }
    }

    /// Returns `true` on a miss.
    fn fetch(&mut self, addr: u32) -> bool {
        let line_addr = u64::from(addr) / u64::from(self.line_instrs);
        let set = (line_addr % u64::from(self.lines)) as usize;
        let tag = line_addr / u64::from(self.lines);
        if self.tags[set] == tag {
            false
        } else {
            self.tags[set] = tag;
            true
        }
    }
}

#[inline]
fn as_i(v: u64) -> i64 {
    v as i64
}

#[inline]
fn as_f(v: u64) -> f64 {
    f64::from_bits(v)
}

#[inline]
fn from_i(v: i64) -> u64 {
    v as u64
}

#[inline]
fn from_f(v: f64) -> u64 {
    v.to_bits()
}

fn eval_bin(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => from_i(as_i(a).wrapping_add(as_i(b))),
        BinOp::Sub => from_i(as_i(a).wrapping_sub(as_i(b))),
        BinOp::Mul => from_i(as_i(a).wrapping_mul(as_i(b))),
        BinOp::Div => from_i(if as_i(b) == 0 {
            0
        } else {
            as_i(a).wrapping_div(as_i(b))
        }),
        BinOp::Rem => from_i(if as_i(b) == 0 {
            0
        } else {
            as_i(a).wrapping_rem(as_i(b))
        }),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => from_i(as_i(a).wrapping_shl(b as u32 & 63)),
        BinOp::Shr => from_i(as_i(a).wrapping_shr(b as u32 & 63)),
        BinOp::Eq => u64::from(as_i(a) == as_i(b)),
        BinOp::Ne => u64::from(as_i(a) != as_i(b)),
        BinOp::Lt => u64::from(as_i(a) < as_i(b)),
        BinOp::Le => u64::from(as_i(a) <= as_i(b)),
        BinOp::FAdd => from_f(as_f(a) + as_f(b)),
        BinOp::FSub => from_f(as_f(a) - as_f(b)),
        BinOp::FMul => from_f(as_f(a) * as_f(b)),
        BinOp::FDiv => from_f(as_f(a) / as_f(b)),
        BinOp::FLt => u64::from(as_f(a) < as_f(b)),
        BinOp::FEq => u64::from(as_f(a) == as_f(b)),
    }
}

fn eval_un(op: UnOp, v: u64) -> u64 {
    match op {
        UnOp::Neg => from_i(as_i(v).wrapping_neg()),
        UnOp::Not => u64::from(as_i(v) == 0),
        UnOp::FNeg => from_f(-as_f(v)),
        UnOp::I2F => from_f(as_i(v) as f64),
        UnOp::F2I => from_i(as_f(v) as i64),
    }
}

#[inline]
fn wrap_index(index: u64, len: u32) -> u64 {
    if len == 0 {
        0
    } else {
        (as_i(index).rem_euclid(i64::from(len))) as u64
    }
}

/// Runs a linked image on `input`.
///
/// # Errors
///
/// Returns an [`ExecError`] for resource exhaustion or malformed
/// images; a *correct* compilation never produces the latter.
pub fn run(
    image: &MachineImage,
    input: &[i64],
    config: &RunConfig,
) -> Result<ExecResult, ExecError> {
    let entry = image
        .routines
        .get(image.entry_routine as usize)
        .ok_or(ExecError::NoEntry)?;
    let mut globals = image.globals.clone();
    let mut icache = ICache::new(config.cost.icache);
    let mut probe_counts = vec![0u64; image.probes.len()];
    let mut frames = vec![Frame {
        regs: [0; NUM_REGS],
        slots: vec![0; entry.frame_slots as usize],
        ret_pc: u32::MAX,
        ret_dst: None,
    }];
    let mut pc = entry.entry;
    let mut result = ExecResult {
        cycles: 0,
        instrs: 0,
        icache_misses: 0,
        branches_taken: 0,
        calls: 0,
        checksum: 0xcbf2_9ce4_8422_2325,
        returned: 0,
        probe_counts: Vec::new(),
        max_depth: 1,
    };
    let mut input_pos = 0usize;
    let cost = &config.cost;

    macro_rules! mix {
        ($v:expr) => {
            result.checksum = result
                .checksum
                .rotate_left(5)
                .wrapping_mul(0x0000_0100_0000_01b3)
                ^ $v
        };
    }

    loop {
        if result.instrs >= config.fuel {
            return Err(ExecError::OutOfFuel);
        }
        let instr = image
            .code
            .get(pc as usize)
            .ok_or(ExecError::PcOutOfRange { pc })?;
        if icache.fetch(pc) {
            result.icache_misses += 1;
            result.cycles += cost.icache.miss_penalty;
        }
        result.instrs += 1;
        result.cycles += cost.instr_cost(instr);
        let frame = frames.last_mut().expect("at least one frame");
        let mut next_pc = pc + 1;

        match instr {
            MInstr::LdImm { dst, value } => frame.regs[dst.index()] = from_i(*value),
            MInstr::LdImmF { dst, value } => frame.regs[dst.index()] = from_f(*value),
            MInstr::Bin { op, dst, lhs, rhs } => {
                frame.regs[dst.index()] =
                    eval_bin(*op, frame.regs[lhs.index()], frame.regs[rhs.index()]);
            }
            MInstr::Un { op, dst, src } => {
                frame.regs[dst.index()] = eval_un(*op, frame.regs[src.index()]);
            }
            MInstr::Mov { dst, src } => frame.regs[dst.index()] = frame.regs[src.index()],
            MInstr::LdSlot { dst, slot } => {
                frame.regs[dst.index()] = frame.slots.get(*slot as usize).copied().unwrap_or(0);
            }
            MInstr::StSlot { slot, src } => {
                let v = frame.regs[src.index()];
                if let Some(cell) = frame.slots.get_mut(*slot as usize) {
                    *cell = v;
                }
            }
            MInstr::LdGlobal { dst, addr } => {
                frame.regs[dst.index()] = globals.get(*addr as usize).copied().unwrap_or(0);
            }
            MInstr::StGlobal { addr, src } => {
                let v = frame.regs[src.index()];
                if let Some(cell) = globals.get_mut(*addr as usize) {
                    *cell = v;
                }
            }
            MInstr::LdGlobalElem {
                dst,
                base,
                len,
                index,
            } => {
                let i = wrap_index(frame.regs[index.index()], *len);
                frame.regs[dst.index()] = globals
                    .get(*base as usize + i as usize)
                    .copied()
                    .unwrap_or(0);
            }
            MInstr::StGlobalElem {
                base,
                len,
                index,
                src,
            } => {
                let i = wrap_index(frame.regs[index.index()], *len);
                let v = frame.regs[src.index()];
                if let Some(cell) = globals.get_mut(*base as usize + i as usize) {
                    *cell = v;
                }
            }
            MInstr::LdSlotElem {
                dst,
                base_slot,
                len,
                index,
            } => {
                let i = wrap_index(frame.regs[index.index()], *len);
                frame.regs[dst.index()] = frame
                    .slots
                    .get(*base_slot as usize + i as usize)
                    .copied()
                    .unwrap_or(0);
            }
            MInstr::StSlotElem {
                base_slot,
                len,
                index,
                src,
            } => {
                let i = wrap_index(frame.regs[index.index()], *len);
                let v = frame.regs[src.index()];
                if let Some(cell) = frame.slots.get_mut(*base_slot as usize + i as usize) {
                    *cell = v;
                }
            }
            MInstr::Call { routine, args, dst } => {
                let callee = image
                    .routines
                    .get(*routine as usize)
                    .ok_or(ExecError::BadRoutine { routine: *routine })?;
                if frames.len() >= config.max_depth {
                    return Err(ExecError::StackOverflow);
                }
                let mut regs = [0u64; NUM_REGS];
                for (i, a) in args.iter().enumerate().take(NUM_REGS) {
                    regs[i] = frames.last().expect("frame").regs[a.index()];
                }
                frames.push(Frame {
                    regs,
                    slots: vec![0; callee.frame_slots as usize],
                    ret_pc: next_pc,
                    ret_dst: *dst,
                });
                result.calls += 1;
                result.max_depth = result.max_depth.max(frames.len());
                next_pc = callee.entry;
            }
            MInstr::Ret { value } => {
                let v = value.map(|r| frames.last().expect("frame").regs[r.index()]);
                let done = frames.pop().expect("frame to pop");
                match frames.last_mut() {
                    None => {
                        let rv = v.unwrap_or(0);
                        result.returned = as_i(rv);
                        mix!(rv);
                        result.probe_counts = probe_counts;
                        return Ok(result);
                    }
                    Some(caller) => {
                        if let (Some(dst), Some(v)) = (done.ret_dst, v) {
                            caller.regs[dst.index()] = v;
                        }
                        next_pc = done.ret_pc;
                    }
                }
            }
            MInstr::Jmp { target } => {
                result.branches_taken += 1;
                result.cycles += cost.branch_taken;
                next_pc = *target;
            }
            MInstr::Br { cond, target } => {
                if frame.regs[cond.index()] != 0 {
                    result.branches_taken += 1;
                    result.cycles += cost.branch_taken;
                    next_pc = *target;
                }
            }
            MInstr::Probe { id } => {
                if let Some(c) = probe_counts.get_mut(*id as usize) {
                    *c += 1;
                }
            }
            MInstr::Input { dst } => {
                let v = input.get(input_pos).copied().unwrap_or(0);
                input_pos += 1;
                frame.regs[dst.index()] = from_i(v);
            }
            MInstr::Output { src } => {
                mix!(frame.regs[src.index()]);
            }
            MInstr::Halt => {
                result.probe_counts = probe_counts;
                return Ok(result);
            }
        }
        pc = next_pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::MRoutineInfo;
    use crate::minstr::CallArgs;

    fn image_of(code: Vec<MInstr>, routines: Vec<MRoutineInfo>) -> MachineImage {
        MachineImage {
            code,
            routines,
            ..MachineImage::default()
        }
    }

    fn single(code: Vec<MInstr>, frame_slots: u32) -> MachineImage {
        let len = code.len() as u32;
        image_of(
            code,
            vec![MRoutineInfo {
                name: "main".to_owned(),
                entry: 0,
                frame_slots,
                code_len: len,
            }],
        )
    }

    #[test]
    fn arithmetic_and_return() {
        let image = single(
            vec![
                MInstr::LdImm {
                    dst: Reg(0),
                    value: 20,
                },
                MInstr::LdImm {
                    dst: Reg(1),
                    value: 22,
                },
                MInstr::Bin {
                    op: BinOp::Add,
                    dst: Reg(2),
                    lhs: Reg(0),
                    rhs: Reg(1),
                },
                MInstr::Ret {
                    value: Some(Reg(2)),
                },
            ],
            0,
        );
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 42);
        assert_eq!(r.instrs, 4);
        assert!(r.cycles >= 4);
    }

    #[test]
    fn division_by_zero_is_total() {
        let image = single(
            vec![
                MInstr::LdImm {
                    dst: Reg(0),
                    value: 5,
                },
                MInstr::LdImm {
                    dst: Reg(1),
                    value: 0,
                },
                MInstr::Bin {
                    op: BinOp::Div,
                    dst: Reg(2),
                    lhs: Reg(0),
                    rhs: Reg(1),
                },
                MInstr::Ret {
                    value: Some(Reg(2)),
                },
            ],
            0,
        );
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 0);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        // main: r0=7; call double(r0)->r1; ret r1
        // double: r0=r0*2 ; ret r0
        let code = vec![
            MInstr::LdImm {
                dst: Reg(0),
                value: 7,
            },
            MInstr::Call {
                routine: 1,
                args: [Reg(0)].into_iter().collect(),
                dst: Some(Reg(1)),
            },
            MInstr::Ret {
                value: Some(Reg(1)),
            },
            // double at addr 3
            MInstr::LdImm {
                dst: Reg(1),
                value: 2,
            },
            MInstr::Bin {
                op: BinOp::Mul,
                dst: Reg(0),
                lhs: Reg(0),
                rhs: Reg(1),
            },
            MInstr::Ret {
                value: Some(Reg(0)),
            },
        ];
        let image = image_of(
            code,
            vec![
                MRoutineInfo {
                    name: "main".to_owned(),
                    entry: 0,
                    frame_slots: 0,
                    code_len: 3,
                },
                MRoutineInfo {
                    name: "double".to_owned(),
                    entry: 3,
                    frame_slots: 0,
                    code_len: 3,
                },
            ],
        );
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 14);
        assert_eq!(r.calls, 1);
        assert_eq!(r.max_depth, 2);
    }

    #[test]
    fn loop_branches_and_fuel() {
        // r0 = input; loop: r0 -= 1; br r0 -> loop; ret r0
        let code = vec![
            MInstr::Input { dst: Reg(0) },
            MInstr::LdImm {
                dst: Reg(1),
                value: 1,
            },
            MInstr::Bin {
                op: BinOp::Sub,
                dst: Reg(0),
                lhs: Reg(0),
                rhs: Reg(1),
            },
            MInstr::Br {
                cond: Reg(0),
                target: 2,
            },
            MInstr::Ret {
                value: Some(Reg(0)),
            },
        ];
        let image = single(code, 0);
        let r = run(&image, &[10], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 0);
        assert_eq!(r.branches_taken, 9);

        let starved = RunConfig {
            fuel: 5,
            ..RunConfig::default()
        };
        assert_eq!(run(&image, &[10], &starved), Err(ExecError::OutOfFuel));
    }

    #[test]
    fn globals_and_arrays() {
        // globals: [100, 0, 0, 0]; g[1+(5 mod 3)] = g[0]; ret g[3]
        let code = vec![
            MInstr::LdGlobal {
                dst: Reg(0),
                addr: 0,
            },
            MInstr::LdImm {
                dst: Reg(1),
                value: 5,
            },
            MInstr::StGlobalElem {
                base: 1,
                len: 3,
                index: Reg(1),
                src: Reg(0),
            },
            MInstr::LdGlobal {
                dst: Reg(2),
                addr: 3,
            },
            MInstr::Ret {
                value: Some(Reg(2)),
            },
        ];
        let mut image = single(code, 0);
        image.globals = vec![100, 0, 0, 0];
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 100);
    }

    #[test]
    fn negative_indices_wrap_like_rem_euclid() {
        let code = vec![
            MInstr::LdImm {
                dst: Reg(0),
                value: -1,
            },
            MInstr::LdGlobalElem {
                dst: Reg(1),
                base: 0,
                len: 4,
                index: Reg(0),
            },
            MInstr::Ret {
                value: Some(Reg(1)),
            },
        ];
        let mut image = single(code, 0);
        image.globals = vec![10, 20, 30, 40];
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.returned, 40);
    }

    #[test]
    fn probes_count_and_cost() {
        let code = vec![MInstr::Probe { id: 0 }, MInstr::Ret { value: None }];
        let mut image = single(code, 0);
        image.probes = vec![cmo_profile::ProbeKey::block("main", 0)];
        image.shapes = vec![(
            "main".to_owned(),
            cmo_profile::RoutineShape {
                n_blocks: 1,
                n_sites: 0,
                fingerprint: 1,
            },
        )];
        let r = run(&image, &[], &RunConfig::default()).unwrap();
        assert_eq!(r.probe_counts, vec![1]);
        let db = crate::image::profile_from_run(&image, &r.probe_counts);
        assert_eq!(db.block_count("main", 0), Some(1));
    }

    #[test]
    fn recursion_hits_depth_limit() {
        let code = vec![
            MInstr::Call {
                routine: 0,
                args: CallArgs::default(),
                dst: None,
            },
            MInstr::Ret { value: None },
        ];
        let image = single(code, 0);
        let cfg = RunConfig {
            max_depth: 16,
            ..RunConfig::default()
        };
        assert_eq!(run(&image, &[], &cfg), Err(ExecError::StackOverflow));
    }

    #[test]
    fn checksum_is_deterministic_and_order_sensitive() {
        let prog = |a: i64, b: i64| {
            single(
                vec![
                    MInstr::LdImm {
                        dst: Reg(0),
                        value: a,
                    },
                    MInstr::Output { src: Reg(0) },
                    MInstr::LdImm {
                        dst: Reg(0),
                        value: b,
                    },
                    MInstr::Output { src: Reg(0) },
                    MInstr::Ret { value: None },
                ],
                0,
            )
        };
        let cfg = RunConfig::default();
        let r1 = run(&prog(1, 2), &[], &cfg).unwrap();
        let r2 = run(&prog(1, 2), &[], &cfg).unwrap();
        let r3 = run(&prog(2, 1), &[], &cfg).unwrap();
        assert_eq!(r1.checksum, r2.checksum);
        assert_ne!(r1.checksum, r3.checksum);
    }

    #[test]
    fn icache_misses_depend_on_layout_distance() {
        // Two routines far apart that ping-pong: conflict misses if
        // they map to the same lines.
        let cfg = RunConfig::default();
        let lines_span = (cfg.cost.icache.size_instrs) as usize; // one full cache apart
        let mut code = vec![
            MInstr::LdImm {
                dst: Reg(0),
                value: 200,
            },
            // loop: call far routine, decrement, branch back
            MInstr::Call {
                routine: 1,
                args: CallArgs::default(),
                dst: None,
            },
            MInstr::LdImm {
                dst: Reg(1),
                value: 1,
            },
            MInstr::Bin {
                op: BinOp::Sub,
                dst: Reg(0),
                lhs: Reg(0),
                rhs: Reg(1),
            },
            MInstr::Br {
                cond: Reg(0),
                target: 1,
            },
            MInstr::Ret { value: None },
        ];
        // Pad so the callee lands exactly one cache-size away from main:
        // same index bits -> direct-mapped conflict on every call.
        while code.len() < lines_span {
            code.push(MInstr::Halt);
        }
        let callee_entry = code.len() as u32;
        code.push(MInstr::Ret { value: None });
        let far = MachineImage {
            routines: vec![
                MRoutineInfo {
                    name: "main".to_owned(),
                    entry: 0,
                    frame_slots: 0,
                    code_len: 6,
                },
                MRoutineInfo {
                    name: "callee".to_owned(),
                    entry: callee_entry,
                    frame_slots: 0,
                    code_len: 1,
                },
            ],
            code,
            ..MachineImage::default()
        };
        // Near layout: callee immediately after main.
        let mut near_code = vec![
            MInstr::LdImm {
                dst: Reg(0),
                value: 200,
            },
            MInstr::Call {
                routine: 1,
                args: CallArgs::default(),
                dst: None,
            },
            MInstr::LdImm {
                dst: Reg(1),
                value: 1,
            },
            MInstr::Bin {
                op: BinOp::Sub,
                dst: Reg(0),
                lhs: Reg(0),
                rhs: Reg(1),
            },
            MInstr::Br {
                cond: Reg(0),
                target: 1,
            },
            MInstr::Ret { value: None },
        ];
        near_code.push(MInstr::Ret { value: None });
        let near = MachineImage {
            routines: vec![
                MRoutineInfo {
                    name: "main".to_owned(),
                    entry: 0,
                    frame_slots: 0,
                    code_len: 6,
                },
                MRoutineInfo {
                    name: "callee".to_owned(),
                    entry: 6,
                    frame_slots: 0,
                    code_len: 1,
                },
            ],
            code: near_code,
            ..MachineImage::default()
        };
        let far_r = run(&far, &[], &cfg).unwrap();
        let near_r = run(&near, &[], &cfg).unwrap();
        assert!(
            far_r.icache_misses > near_r.icache_misses * 4,
            "far={} near={}",
            far_r.icache_misses,
            near_r.icache_misses
        );
        assert!(far_r.cycles > near_r.cycles);
    }
}
