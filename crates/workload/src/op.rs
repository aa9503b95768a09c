//! The micro-op representation consumed by the timing simulator.

use serde::{Deserialize, Serialize};

/// Number of architectural registers in the trace format. Registers
/// `0..8` are treated as long-lived values (always ready); the
/// generator allocates destinations from `8..REG_COUNT`.
pub const REG_COUNT: usize = 64;

/// Operation classes, chosen to match the functional-unit classes of a
/// SimpleScalar-style integer pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
}

impl OpClass {
    /// True for memory operations (loads and stores).
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// Control-flow annotation carried by branch micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// The branch's actual outcome in this dynamic instance.
    pub taken: bool,
    /// Branch target (used only for BTB modeling).
    pub target: u64,
}

/// One dynamic micro-operation of a workload trace.
///
/// A trace is an iterator of these; the simulator is *trace-driven*: the
/// outcome of every branch and the effective address of every memory
/// operation are part of the trace, while all timing (when the address
/// can be computed, when the branch resolves, whether the prediction was
/// right) is decided by the simulated machine.
///
/// Invariant: `branch.is_some()` exactly when `class` is
/// [`OpClass::Branch`]. Every constructor here and the trace generator
/// keep it, and [`PackedOp`] relies on it: the packed form keeps the
/// class and the taken bit, not the `Option`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroOp {
    /// Fetch PC of the op.
    pub pc: u64,
    /// Operation class.
    pub class: OpClass,
    /// Destination architectural register, if any.
    pub dest: Option<u8>,
    /// Up to two source architectural registers.
    pub srcs: [Option<u8>; 2],
    /// Effective address for memory ops (0 otherwise).
    pub addr: u64,
    /// Branch annotation for branch ops.
    pub branch: Option<BranchInfo>,
}

impl MicroOp {
    /// A register-to-register ALU op (handy for tests and synthetic
    /// kernels).
    pub fn alu(pc: u64, dest: u8, srcs: [Option<u8>; 2]) -> MicroOp {
        MicroOp {
            pc,
            class: OpClass::IntAlu,
            dest: Some(dest),
            srcs,
            addr: 0,
            branch: None,
        }
    }

    /// A load from `addr` into `dest`, with optional address-source
    /// register.
    pub fn load(pc: u64, dest: u8, addr_src: Option<u8>, addr: u64) -> MicroOp {
        MicroOp {
            pc,
            class: OpClass::Load,
            dest: Some(dest),
            srcs: [addr_src, None],
            addr,
            branch: None,
        }
    }

    /// A store of register `data` to `addr`.
    pub fn store(pc: u64, data: u8, addr: u64) -> MicroOp {
        MicroOp {
            pc,
            class: OpClass::Store,
            dest: None,
            srcs: [Some(data), None],
            addr,
            branch: None,
        }
    }

    /// A conditional branch at `pc` with the given outcome.
    pub fn branch(pc: u64, cond_src: Option<u8>, taken: bool, target: u64) -> MicroOp {
        MicroOp {
            pc,
            class: OpClass::Branch,
            dest: None,
            srcs: [cond_src, None],
            addr: 0,
            branch: Some(BranchInfo { taken, target }),
        }
    }
}

/// The 16-byte projection of a [`MicroOp`] that a trace-driven core
/// reads: one address-or-PC word, three register indices, the class
/// and the taken bit.
///
/// The timing engine needs the effective address of a memory op, the
/// PC of a branch (it indexes the predictor) and nothing else of
/// either; the branch target and the PC of a non-branch are never
/// read. A replayed trace is stored packed, so it takes 16 bytes per
/// op instead of 40, and the engine steps it in place.
///
/// Register indices are always valid slots of a `REG_COUNT + 2`-entry
/// readiness table: an absent source reads [`PackedOp::NO_SRC`] (a slot
/// that is never written, so always ready) and an absent destination
/// writes [`PackedOp::NO_DEST`] (a slot that is never read), so the
/// engine reads and writes registers without branching on presence.
///
/// The class and the taken bit take a byte each, not one byte between
/// them: the size is 16 bytes either way, and decoding a shared byte
/// compiled to an indirect jump per stepped op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp {
    word: u64,
    dest: u8,
    src0: u8,
    src1: u8,
    class: OpClass,
    taken: bool,
}

const _: () = assert!(std::mem::size_of::<PackedOp>() == 16);
const _: () = assert!(REG_COUNT + 2 <= u8::MAX as usize);

impl PackedOp {
    /// Register slot an absent source reads: never written, always
    /// ready.
    pub const NO_SRC: u8 = REG_COUNT as u8;
    /// Register slot an absent destination writes: never read.
    pub const NO_DEST: u8 = REG_COUNT as u8 + 1;

    /// The PC of a branch; for any other op its `addr`, the effective
    /// address of a load or store.
    #[inline]
    pub fn word(&self) -> u64 {
        self.word
    }

    /// Destination register slot ([`PackedOp::NO_DEST`] if none).
    #[inline]
    pub fn dest(&self) -> usize {
        usize::from(self.dest)
    }

    /// First source register slot ([`PackedOp::NO_SRC`] if none).
    #[inline]
    pub fn src0(&self) -> usize {
        usize::from(self.src0)
    }

    /// Second source register slot ([`PackedOp::NO_SRC`] if none); a
    /// store's address base.
    #[inline]
    pub fn src1(&self) -> usize {
        usize::from(self.src1)
    }

    /// Operation class.
    #[inline]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// True for a taken branch.
    #[inline]
    pub fn taken(&self) -> bool {
        self.taken
    }
}

impl From<&MicroOp> for PackedOp {
    /// Pack `op`. Relies on the [`MicroOp`] invariant that an op
    /// carries branch information exactly when it is a branch.
    #[inline]
    fn from(op: &MicroOp) -> PackedOp {
        debug_assert_eq!(
            op.branch.is_some(),
            op.class == OpClass::Branch,
            "branch info on a non-branch op, or a branch without it: {op:?}"
        );
        debug_assert!(
            op.dest
                .into_iter()
                .chain(op.srcs.into_iter().flatten())
                .all(|r| usize::from(r) < REG_COUNT),
            "register index out of range: {op:?}"
        );
        let (word, taken) = match op.branch {
            Some(b) => (op.pc, b.taken),
            None => (op.addr, false),
        };
        PackedOp {
            word,
            dest: op.dest.unwrap_or(PackedOp::NO_DEST),
            src0: op.srcs[0].unwrap_or(PackedOp::NO_SRC),
            src1: op.srcs[1].unwrap_or(PackedOp::NO_SRC),
            class: op.class,
            taken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class() {
        assert_eq!(MicroOp::alu(0, 8, [None, None]).class, OpClass::IntAlu);
        assert_eq!(MicroOp::load(0, 8, None, 64).class, OpClass::Load);
        assert_eq!(MicroOp::store(0, 8, 64).class, OpClass::Store);
        let b = MicroOp::branch(4, None, true, 100);
        assert_eq!(b.class, OpClass::Branch);
        assert!(b.branch.expect("branch info").taken);
    }

    /// The invariant [`PackedOp`] relies on, for every constructor and
    /// for the generator on every SPEC profile.
    #[test]
    fn branch_info_exactly_on_branches() {
        let consistent = |op: &MicroOp| op.branch.is_some() == (op.class == OpClass::Branch);
        for op in [
            MicroOp::alu(0, 8, [Some(1), None]),
            MicroOp::load(0, 8, None, 64),
            MicroOp::store(0, 8, 64),
            MicroOp::branch(4, Some(9), false, 100),
        ] {
            assert!(consistent(&op), "{op:?}");
        }
        for p in crate::spec::all_profiles() {
            let name = p.name.clone();
            for op in crate::TraceGenerator::new(p).take(20_000) {
                assert!(consistent(&op), "{name}: {op:?}");
            }
        }
    }

    /// Packing keeps exactly what the engine reads: the class, the
    /// taken bit, the registers (absent ones on their sentinel slots),
    /// the address of a memory op and the PC of a branch.
    #[test]
    fn packing_keeps_what_the_engine_reads() {
        let mut mul = MicroOp::alu(0x40, 9, [Some(10), Some(11)]);
        mul.class = OpClass::IntMul;
        let mut div = MicroOp::alu(0x44, 63, [None, Some(0)]);
        div.class = OpClass::IntDiv;
        let cases = [
            (
                MicroOp::alu(0x3c, 8, [None, None]),
                OpClass::IntAlu,
                0,
                false,
            ),
            (mul, OpClass::IntMul, 0, false),
            (div, OpClass::IntDiv, 0, false),
            (
                MicroOp::load(0x48, 12, Some(3), 0xdead_beef),
                OpClass::Load,
                0xdead_beef,
                false,
            ),
            (
                MicroOp::store(0x4c, 5, u64::MAX),
                OpClass::Store,
                u64::MAX,
                false,
            ),
            (
                MicroOp::branch(0x50, None, true, 0x99),
                OpClass::Branch,
                0x50,
                true,
            ),
            (
                MicroOp::branch(u64::MAX, Some(7), false, 0),
                OpClass::Branch,
                u64::MAX,
                false,
            ),
        ];
        let slot = |r: Option<u8>, absent: u8| usize::from(r.unwrap_or(absent));
        for (op, class, word, taken) in cases {
            let p = PackedOp::from(&op);
            assert_eq!(
                (p.class(), p.word(), p.taken()),
                (class, word, taken),
                "{op:?}"
            );
            assert_eq!(p.dest(), slot(op.dest, PackedOp::NO_DEST), "{op:?}");
            assert_eq!(p.src0(), slot(op.srcs[0], PackedOp::NO_SRC), "{op:?}");
            assert_eq!(p.src1(), slot(op.srcs[1], PackedOp::NO_SRC), "{op:?}");
        }
        assert_eq!(usize::from(PackedOp::NO_SRC), REG_COUNT);
        assert_eq!(usize::from(PackedOp::NO_DEST), REG_COUNT + 1);
    }

    #[test]
    fn mem_classes() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
    }
}
