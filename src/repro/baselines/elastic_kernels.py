"""Elastic Kernels (Pai et al., ASPLOS'13) — re-implemented as in §7.3.

Elastic Kernels improves GPGPU concurrency by *statically* transforming
kernels so several can share the device.  Its defining properties — the ones
the paper contrasts accelOS against — are:

* **static merging**: kernel codes are combined and resource splits are
  decided once, at launch, from static occupancy estimates;
* **static work assignment**: each physical work group receives a frozen
  slice of the logical range (no dynamic dequeue, so imbalance is frozen);
* **no adaptation**: a finished kernel's share idles; a workload larger
  than one merge's capacity serialises into successive merged launches;
* **merge overhead**: the combined kernel pays index-remapping and
  divergence costs that grow with the number of merged kernels;
* **security concern**: kernels of different applications share one binary
  (demonstrated by :func:`elastic_merge_kernels`).

Two deliverables here: a *scheduling model* that turns a workload into
simulator specs (used by the evaluation), and a *real IR-level merge* of two
1-D kernels (used by tests/examples to demonstrate the mechanism and its
security implication).
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.ir import instructions as I
from repro.ir.builder import IRBuilder
from repro.ir.clone import clone_function
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Constant
from repro.kernelc import types as T
from repro.sim.resources import max_resident_groups
from repro.sim.spec import ExecutionMode

# Cost multiplier per additional kernel merged into a launch: index
# remapping, extra branching and divergence in the merged binary.
MERGE_OVERHEAD_PER_KERNEL = 0.04

# EK's static slicing can shrink a kernel's residency to at most this
# fraction of its desired occupancy before the packer gives up and starts a
# new (serialised) merged launch.
MIN_STATIC_SHARE = 0.02

# The static merge transformation combines a bounded number of kernels into
# one binary; beyond this the merged control flow and argument plumbing stop
# paying off, so larger workloads serialise into successive merged launches
# — which is where the paper's EK overlap collapse at 8 requests comes from.
MAX_MERGE = 4


class MergedGroup:
    """One merged launch: kernels co-resident with static allocations."""

    __slots__ = ("specs", "allocations")

    def __init__(self, specs, allocations):
        self.specs = specs
        self.allocations = allocations

    def __repr__(self):
        return "<MergedGroup {}>".format(
            [(s.name, a) for s, a in zip(self.specs, self.allocations)])


class ElasticKernelsScheduler:
    """Packs a workload into statically merged launches."""

    def __init__(self, device):
        self.device = device

    def desired_groups(self, spec):
        """Full occupancy the kernel would claim on its own."""
        return max(1, min(spec.total_groups,
                          max_resident_groups(spec, self.device)))

    def pack(self, specs):
        """Greedy arrival-order packing into merged groups.

        Each kernel asks for its full occupancy; if the current group cannot
        host at least ``MIN_STATIC_SHARE`` of that after proportional
        shrinking, the group is closed and a new launch begins.  Packing is
        greedy, so this is :meth:`pack_head` again on what each group
        leaves behind.
        """
        groups = []
        position = 0
        while position < len(specs):
            group = self.pack_head(specs[position:position + MAX_MERGE])
            groups.append(group)
            position += len(group.specs)
        return groups

    def pack_head(self, specs):
        """The first merged group :meth:`pack` forms from ``specs``
        (non-empty).

        The trials stop at the first that fails; the group's allocation
        is its last successful trial's split.  A trial of more than
        ``MAX_MERGE`` members is refused unsplit, so the group depends
        only on the first ``MAX_MERGE`` specs.
        """
        members, allocation = [], None
        for spec in specs:
            if len(members) == MAX_MERGE:
                break
            trial = self._static_split(members + [spec])
            if trial is None:
                break
            members.append(spec)
            allocation = trial
        if allocation is None:
            raise SchedulingError(
                "kernel {} does not fit the device alone".format(
                    specs[0].name))
        return MergedGroup(members, allocation)

    def _static_split(self, specs):
        """Work-proportional static split (EK's occupancy-greedy heuristic).

        Weights follow each kernel's *total* logical range: EK sizes slices
        to maximise utilisation, so heavyweight kernels take most of the
        device and lightweight co-runners squeeze into the rest — which is
        exactly why the paper finds EK "does not allocate resources evenly".
        Returns None if someone falls below the share floor.
        """
        desired = [self.desired_groups(s) for s in specs]
        total_work = sum(s.total_groups for s in specs)
        capacity = sum(desired)
        weighted = [capacity * s.total_groups / total_work for s in specs]
        allocation = list(desired)
        # Shrink proportionally (by misestimated weight) until the joint
        # allocation fits the device.
        scale = 1.0
        for _ in range(96):
            allocation = [min(d, max(1, int(w * scale)))
                          for d, w in zip(desired, weighted)]
            if self._fits(specs, allocation):
                break
            scale *= 0.9
        else:
            return None
        for got, want in zip(allocation, desired):
            if got < MIN_STATIC_SHARE * want:
                return None
        return allocation

    def _fits(self, specs, allocation):
        threads = sum(a * s.wg_threads for s, a in zip(specs, allocation))
        regs = sum(a * s.registers_per_group for s, a in zip(specs, allocation))
        lmem = sum(a * s.local_mem_per_wg for s, a in zip(specs, allocation))
        return (threads <= self.device.max_threads
                and regs <= self.device.total_registers
                and lmem <= self.device.total_local_mem)

    def to_sim_specs(self, group):
        """Simulator specs for one merged launch (elastic mode)."""
        overhead = 1.0 + MERGE_OVERHEAD_PER_KERNEL * (len(group.specs) - 1)
        out = []
        for spec, groups in zip(group.specs, group.allocations):
            merged = spec.with_mode(ExecutionMode.ELASTIC,
                                    physical_groups=groups)
            merged = merged.scaled(overhead)
            out.append(merged)
        return out


# ---------------------------------------------------------------------------
# Real static merge of two 1-D kernels (mechanism demonstration)
# ---------------------------------------------------------------------------

def elastic_merge_kernels(module_a, kernel_a, module_b, kernel_b, split):
    """Statically merge two 1-D kernels into one module and kernel.

    The merged kernel takes A's parameters, then B's, and dispatches on the
    hardware group id: groups ``[0, split)`` run A's body, the rest run B's
    with their group ids rebased — the Elastic Kernels mechanism.  Both
    kernels must use 1-D ranges and identical work-group sizes.

    Returns ``(merged_module, merged_kernel_name)``.
    """
    merged = Module("ek_merge")
    impls = {}
    for tag, (mod, name) in (("a", (module_a, kernel_a)),
                             ("b", (module_b, kernel_b))):
        src = mod.clone()
        kernel = src.get(name)
        # Pull in everything the kernel transitively calls, renamed per side
        # (the "merged binaries of different applications" security issue).
        rename = {}
        for func in src.functions.values():
            if not func.is_kernel:
                rename[func.name] = "ek_{}_{}".format(tag, func.name)
        for func in list(src.functions.values()):
            if func.is_kernel and func is not kernel:
                continue
            clone, _ = clone_function(
                func, new_name=rename.get(func.name,
                                          "ek_{}_{}".format(tag, func.name)))
            clone.is_kernel = False
            impls[(tag, func.name)] = clone
        # Retarget calls inside the clones.
        for clone in impls.values():
            for insn in clone.instructions():
                if isinstance(insn, I.Call) and not insn.is_intrinsic():
                    key_a = ("a", insn.callee.name)
                    key_b = ("b", insn.callee.name)
                    if clone.name.startswith("ek_a_") and key_a in impls:
                        insn.callee = impls[key_a]
                    elif clone.name.startswith("ek_b_") and key_b in impls:
                        insn.callee = impls[key_b]
        impl = impls[(tag, name)]
        _rebase_group_ids(impl, tag, split)
        merged.add_function(impl)
        for key, clone in impls.items():
            if key[0] == tag and clone is not impl and clone.name not in merged:
                merged.add_function(clone)

    impl_a = impls[("a", kernel_a)]
    impl_b = impls[("b", kernel_b)]

    name = "ek_{}__{}".format(kernel_a, kernel_b)
    param_types = ([a.type for a in impl_a.arguments]
                   + [b.type for b in impl_b.arguments])
    param_names = (["a_{}".format(a.name) for a in impl_a.arguments]
                   + ["b_{}".format(b.name) for b in impl_b.arguments])
    kernel = Function(name, T.VOID, param_types, param_names, is_kernel=True)
    entry = kernel.add_block("entry")
    run_a = kernel.add_block("run.a")
    run_b = kernel.add_block("run.b")
    done = kernel.add_block("done")

    builder = IRBuilder(kernel, entry)
    gid = builder.call("get_group_id", [Constant(T.UINT, 0)], T.SIZE_T, "grp")
    builder.condbr(builder.cmp("lt", gid, Constant(T.SIZE_T, split)),
                   run_a, run_b)

    builder.position_at_end(run_a)
    builder.call(impl_a, kernel.arguments[:len(impl_a.arguments)])
    builder.br(done)

    builder.position_at_end(run_b)
    builder.call(impl_b, kernel.arguments[len(impl_a.arguments):])
    builder.br(done)

    builder.position_at_end(done)
    builder.ret()

    merged.add_function(kernel)
    return merged, name


def _rebase_group_ids(func, tag, split):
    """Rewrite dim-0 work-item queries for one merged side.

    Side "b" sees ``group_id - split`` (and a correspondingly shifted global
    id); both sides keep their own logical ``get_global_size`` untouched —
    EK patches those with compile-time constants, which our corpus kernels
    only use for strided loops, where the hardware value stays correct for
    side "a" and is conservative for side "b".
    """
    if tag == "a":
        return
    for block in func.blocks:
        for insn in list(block.instructions):
            if not (isinstance(insn, I.Call) and insn.is_intrinsic()):
                continue
            if insn.callee not in ("get_group_id", "get_global_id"):
                continue
            dim = insn.operands[0]
            if not (isinstance(dim, Constant) and dim.value == 0):
                continue
            # recompute the position: earlier rewrites shift indices
            index = block.instructions.index(insn)
            if insn.callee == "get_group_id":
                offset = split
            else:
                # global id shifts by split * local_size(0); emit the
                # multiply inline after the original call.
                offset = None
            # Build: original - shift
            replacement_block_insns = block.instructions
            if offset is not None:
                shift = Constant(T.SIZE_T, offset)
                sub = I.BinOp("sub", insn, shift, T.SIZE_T)
                sub.name = func.unique_name("rebase")
                sub.parent = block
                replacement_block_insns.insert(index + 1, sub)
                _replace_uses_except(func, insn, sub)
            else:
                lsz = I.Call("get_local_size", [Constant(T.UINT, 0)], T.SIZE_T)
                lsz.name = func.unique_name("lsz")
                lsz.parent = block
                mul = I.BinOp("mul", lsz, Constant(T.SIZE_T, split), T.SIZE_T)
                mul.name = func.unique_name("shift")
                mul.parent = block
                sub = I.BinOp("sub", insn, mul, T.SIZE_T)
                sub.name = func.unique_name("rebase")
                sub.parent = block
                replacement_block_insns.insert(index + 1, lsz)
                replacement_block_insns.insert(index + 2, mul)
                replacement_block_insns.insert(index + 3, sub)
                _replace_uses_except(func, insn, sub, keep={lsz, mul, sub})


def _replace_uses_except(func, old, new, keep=None):
    keep = keep or {new}
    for insn in func.instructions():
        if insn not in keep:
            insn.replace_operand(old, new)
