"""IR construction, builder, and verifier tests."""

import pytest

from repro.common.errors import IRError
from repro.ir import verifier
from repro.ir.analysis.dominance import DominatorTree
from repro.ir import (
    Module,
    IRBuilder,
    ConstantInt,
    verify_module,
    verify_function,
    BINOP_OPCODES,
    ICMP_PREDICATES,
)
from repro.ir.instructions import BinOp, Phi, Br, Ret


def build_linear_function():
    module = Module("t")
    func = module.add_function("f", ["a", "b"])
    builder = IRBuilder()
    builder.set_insert_point(func.add_block("entry"))
    total = builder.add(func.params[0], func.params[1])
    builder.ret(total)
    return module, func


class TestConstruction:
    def test_module_globals(self):
        module = Module("m")
        var = module.add_global("g", 4, [1, 2])
        assert var.size_words == 4
        assert var.init_words() == [1, 2, 0, 0]

    def test_duplicate_global_rejected(self):
        module = Module("m")
        module.add_global("g", 1)
        with pytest.raises(IRError):
            module.add_global("g", 1)

    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function("f")
        with pytest.raises(IRError):
            module.add_function("f")

    def test_global_initializer_too_long(self):
        module = Module("m")
        with pytest.raises(ValueError):
            module.add_global("g", 1, [1, 2])

    def test_unique_names(self):
        module = Module("m")
        func = module.add_function("f")
        assert func.unique_name("x") == "x"
        assert func.unique_name("x") == "x.1"
        assert func.unique_name("x") == "x.2"

    def test_all_binops_constructible(self):
        module = Module("m")
        func = module.add_function("f", ["a", "b"])
        builder = IRBuilder()
        builder.set_insert_point(func.add_block("entry"))
        value = func.params[0]
        for op in BINOP_OPCODES:
            value = builder.binop(op, value, func.params[1])
        builder.ret(value)
        verify_module(module)

    def test_all_icmp_predicates_constructible(self):
        module = Module("m")
        func = module.add_function("f", ["a", "b"])
        builder = IRBuilder()
        builder.set_insert_point(func.add_block("entry"))
        for pred in ICMP_PREDICATES:
            builder.icmp(pred, func.params[0], func.params[1])
        builder.ret(ConstantInt(0))
        verify_module(module)

    def test_append_after_terminator_rejected(self):
        module, func = build_linear_function()
        builder = IRBuilder()
        builder.set_insert_point(func.entry)
        with pytest.raises(IRError):
            builder.add(ConstantInt(1), ConstantInt(2))

    def test_phi_inserted_at_head(self):
        module = Module("m")
        func = module.add_function("f")
        block = func.add_block("entry")
        builder = IRBuilder()
        builder.set_insert_point(block)
        builder.add(ConstantInt(1), ConstantInt(2))
        phi = builder.phi()
        assert block.instructions[0] is phi


class TestVerifier:
    def test_valid_function_passes(self):
        module, _ = build_linear_function()
        verify_module(module)

    def test_missing_terminator(self):
        module = Module("m")
        func = module.add_function("f")
        block = func.add_block("entry")
        builder = IRBuilder()
        builder.set_insert_point(block)
        builder.add(ConstantInt(1), ConstantInt(2))
        with pytest.raises(IRError, match="missing terminator"):
            verify_function(func)

    def test_empty_block_rejected(self):
        module = Module("m")
        func = module.add_function("f")
        func.add_block("entry")
        with pytest.raises(IRError, match="empty block"):
            verify_function(func)

    def test_use_before_def_in_block(self):
        module = Module("m")
        func = module.add_function("f")
        block = func.add_block("entry")
        builder = IRBuilder()
        builder.set_insert_point(block)
        first = builder.add(ConstantInt(1), ConstantInt(2))
        second = builder.add(ConstantInt(3), ConstantInt(4))
        builder.ret(first)
        # Swap: make `first` consume `second` which is defined later.
        first.operands[0] = second
        block.instructions = [first, second, block.instructions[-1]]
        with pytest.raises(IRError, match="not dominated"):
            verify_function(func)

    def test_use_not_dominated_across_blocks(self):
        module = Module("m")
        func = module.add_function("f", ["c"])
        entry = func.add_block("entry")
        left = func.add_block("left")
        right = func.add_block("right")
        builder = IRBuilder()
        builder.set_insert_point(entry)
        builder.cond_br(func.params[0], left, right)
        builder.set_insert_point(left)
        value = builder.add(ConstantInt(1), ConstantInt(2))
        builder.ret(value)
        builder.set_insert_point(right)
        builder.ret(value)  # not dominated: defined only on the left path
        with pytest.raises(IRError, match="not dominated"):
            verify_function(func)

    def test_phi_incoming_mismatch(self):
        module = Module("m")
        func = module.add_function("f", ["c"])
        entry = func.add_block("entry")
        merge = func.add_block("merge")
        builder = IRBuilder()
        builder.set_insert_point(entry)
        builder.br(merge)
        builder.set_insert_point(merge)
        phi = builder.phi()
        phi.add_incoming(ConstantInt(1), entry)
        phi.add_incoming(ConstantInt(2), merge)  # merge is not a predecessor
        builder.ret(phi)
        with pytest.raises(IRError, match="do not match"):
            verify_function(func)

    def test_branch_to_foreign_block(self):
        module = Module("m")
        f1 = module.add_function("f1")
        f2 = module.add_function("f2")
        foreign = f2.add_block("foreign")
        foreign.append(Ret(ConstantInt(0)))
        entry = f1.add_block("entry")
        entry.append(Br(foreign))
        with pytest.raises(IRError, match="foreign block"):
            verify_function(f1)

    def test_phi_not_at_head(self):
        module = Module("m")
        func = module.add_function("f")
        entry = func.add_block("entry")
        builder = IRBuilder()
        builder.set_insert_point(entry)
        builder.add(ConstantInt(1), ConstantInt(2))
        phi = Phi()
        phi.name = "late"
        entry.insert(1, phi)
        entry.append(Ret(ConstantInt(0)))
        with pytest.raises(IRError, match="not at"):
            verify_function(func)


def build_side_entry():
    """entry -> (left|right), right -> left, left -> merge; merge uses
    ``left``'s value, which ``left`` dominates until an edge bypasses it."""
    module = Module("m")
    func = module.add_function("f", ["c"])
    entry = func.add_block("entry")
    left = func.add_block("left")
    right = func.add_block("right")
    merge = func.add_block("merge")
    builder = IRBuilder()
    builder.set_insert_point(entry)
    builder.cond_br(func.params[0], left, right)
    builder.set_insert_point(left)
    value = builder.add(ConstantInt(1), ConstantInt(2))
    builder.br(merge)
    builder.set_insert_point(right)
    builder.br(left)
    builder.set_insert_point(merge)
    builder.ret(value)
    return func, (entry, left, right, merge), value


class TestVerifierDominatorCache:
    """The verifier reuses a function's dominator tree while its CFG keeps
    its shape (every block with its successors), and rebuilds it after any
    edge edit."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []

        class CountingTree(DominatorTree):
            def __init__(self, func):
                built.append(func)
                super().__init__(func)

        monkeypatch.setattr(verifier, "DominatorTree", CountingTree)
        return built

    def test_retargeted_branch_is_checked_against_a_new_tree(self, builds):
        func, (_, left, right, merge), _ = build_side_entry()
        verify_function(func)
        # The same number of blocks and edges, but merge is now reachable
        # around left: left's value no longer dominates its use.
        right.terminator().replace_successor(left, merge)
        with pytest.raises(IRError, match="not dominated"):
            verify_function(func)
        assert len(builds) == 2

    def test_non_terminator_edits_reuse_the_tree(self, builds):
        func, (_, left, _, merge), value = build_side_entry()
        verify_function(func)
        assert len(builds) == 1
        doubled = left.insert(len(left.instructions) - 1,
                              BinOp("add", value, value))
        doubled.name = "doubled"
        merge.terminator().operands[0] = doubled
        value.name = "renamed"
        verify_function(func)
        assert len(builds) == 1
        func.add_block("spare").append(Ret(ConstantInt(0)))
        verify_function(func)
        assert len(builds) == 2
