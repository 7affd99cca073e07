"""Unit tests for IR instructions: typing rules, def-use, structure."""

import pytest

from repro.ir import (
    Alloca,
    ArrayType,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    Constant,
    F32,
    F64,
    FCmp,
    GetElementPtr,
    I32,
    I64,
    ICmp,
    IRBuilder,
    Instruction,
    Load,
    Module,
    Phi,
    PointerType,
    Return,
    Select,
    Store,
    UnaryOp,
    VOID,
)


def make_func(return_type=VOID, params=(), name="f"):
    module = Module("m")
    return module.add_function(name, return_type, list(params))


class TestBinaryOp:
    def test_int_add(self):
        op = BinaryOp("add", Constant(I32, 1), Constant(I32, 2))
        assert op.type == I32
        assert op.opcode == "add"

    def test_float_requires_float_opcode(self):
        with pytest.raises(TypeError):
            BinaryOp("add", Constant(F32, 1.0), Constant(F32, 2.0))
        with pytest.raises(TypeError):
            BinaryOp("fadd", Constant(I32, 1), Constant(I32, 2))

    def test_mismatched_widths_rejected(self):
        with pytest.raises(TypeError):
            BinaryOp("add", Constant(I32, 1), Constant(I64, 2))

    def test_unknown_opcode(self):
        with pytest.raises(ValueError):
            BinaryOp("bogus", Constant(I32, 1), Constant(I32, 2))

    def test_commutativity_flags(self):
        add = BinaryOp("add", Constant(I32, 1), Constant(I32, 2))
        sub = BinaryOp("sub", Constant(I32, 1), Constant(I32, 2))
        assert add.is_commutative
        assert not sub.is_commutative


class TestUnaryOp:
    def test_fsqrt_requires_float(self):
        with pytest.raises(TypeError):
            UnaryOp("fsqrt", Constant(I32, 4))
        op = UnaryOp("fsqrt", Constant(F32, 4.0))
        assert op.type == F32

    def test_neg_requires_int(self):
        with pytest.raises(TypeError):
            UnaryOp("neg", Constant(F32, 1.0))


class TestComparisons:
    def test_icmp_yields_bool(self):
        cmp = ICmp("slt", Constant(I32, 1), Constant(I32, 2))
        assert cmp.type.is_bool

    def test_icmp_rejects_floats(self):
        with pytest.raises(TypeError):
            ICmp("slt", Constant(F32, 1.0), Constant(F32, 2.0))

    def test_fcmp_predicates(self):
        cmp = FCmp("olt", Constant(F32, 1.0), Constant(F32, 2.0))
        assert cmp.predicate == "olt"
        with pytest.raises(ValueError):
            FCmp("slt", Constant(F32, 1.0), Constant(F32, 2.0))


class TestSelect:
    def test_select_typing(self):
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        sel = Select(cond, Constant(F32, 1.0), Constant(F32, 2.0))
        assert sel.type == F32

    def test_select_arm_mismatch(self):
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        with pytest.raises(TypeError):
            Select(cond, Constant(F32, 1.0), Constant(I32, 2))

    def test_select_cond_must_be_bool(self):
        with pytest.raises(TypeError):
            Select(Constant(I32, 1), Constant(I32, 1), Constant(I32, 2))


class TestCasts:
    def test_valid_casts(self):
        assert Cast("sitofp", Constant(I32, 3), F32).type == F32
        assert Cast("fptosi", Constant(F32, 3.5), I32).type == I32
        assert Cast("sext", Constant(I32, 3), I64).type == I64

    def test_invalid_direction(self):
        with pytest.raises(TypeError):
            Cast("sitofp", Constant(F32, 1.0), F32)
        with pytest.raises(TypeError):
            Cast("sext", Constant(F32, 1.0), I64)


class TestMemory:
    def test_load_store_roundtrip_types(self):
        alloca = Alloca(F32)
        load = Load(alloca)
        assert load.type == F32
        store = Store(Constant(F32, 1.0), alloca)
        assert store.type.is_void

    def test_store_type_mismatch(self):
        alloca = Alloca(F32)
        with pytest.raises(TypeError):
            Store(Constant(I32, 1), alloca)

    def test_load_array_rejected(self):
        alloca = Alloca(ArrayType(F32, 4))
        with pytest.raises(TypeError):
            Load(alloca)

    def test_gep_typing(self):
        alloca = Alloca(ArrayType(ArrayType(F32, 4), 3))
        gep = GetElementPtr(
            alloca, [Constant(I32, 0), Constant(I32, 1), Constant(I32, 2)]
        )
        assert gep.type == PointerType(F32)

    def test_gep_too_deep(self):
        alloca = Alloca(F32)
        with pytest.raises(TypeError):
            GetElementPtr(alloca, [Constant(I32, 0), Constant(I32, 1)])

    def test_gep_needs_int_indices(self):
        alloca = Alloca(ArrayType(F32, 4))
        with pytest.raises(TypeError):
            GetElementPtr(alloca, [Constant(F32, 0.0)])


class TestDefUse:
    def test_users_tracked(self):
        a = Constant(I32, 1)
        op = BinaryOp("add", a, a)
        assert op in a.users
        assert a.users.count(op) == 2  # two operand slots

    def test_replace_all_uses(self):
        func = make_func()
        block = func.add_block("entry")
        b = IRBuilder(block)
        x = b.add(b.const_i32(1), b.const_i32(2))
        y = b.mul(x, b.const_i32(3))
        z = b.const_i32(7)
        x.replace_all_uses_with(z)
        assert y.operands[0] is z
        assert y not in x.users

    def test_erase_drops_operands(self):
        func = make_func()
        block = func.add_block("entry")
        b = IRBuilder(block)
        x = b.add(b.const_i32(1), b.const_i32(2))
        y = b.mul(x, b.const_i32(3))
        y.erase()
        assert y not in x.users
        assert y not in block.instructions


class TestPhi:
    def test_incoming_management(self):
        func = make_func()
        b0 = func.add_block("a")
        b1 = func.add_block("b")
        merge = func.add_block("m")
        phi = Phi(I32)
        merge.insert_front(phi)
        phi.add_incoming(Constant(I32, 1), b0)
        phi.add_incoming(Constant(I32, 2), b1)
        assert phi.incoming_for(b0).value == 1
        phi.remove_incoming(b0)
        with pytest.raises(KeyError):
            phi.incoming_for(b0)

    def test_incoming_type_checked(self):
        func = make_func()
        b0 = func.add_block("a")
        phi = Phi(I32)
        with pytest.raises(TypeError):
            phi.add_incoming(Constant(F32, 1.0), b0)


class TestControlFlow:
    def test_branch_successors(self):
        func = make_func()
        a = func.add_block("a")
        c = func.add_block("c")
        br = Branch(c)
        a.append(br)
        assert a.successors == [c]
        assert c.predecessors == [a]

    def test_cond_branch(self):
        func = make_func()
        a = func.add_block("a")
        t = func.add_block("t")
        f = func.add_block("f")
        cond = ICmp("eq", Constant(I32, 1), Constant(I32, 1))
        a.append(cond)
        a.append(CondBranch(cond, t, f))
        assert set(a.successors) == {t, f}

    def test_no_instructions_after_terminator(self):
        func = make_func()
        a = func.add_block("a")
        a.append(Return())
        with pytest.raises(ValueError):
            a.append(Return())


class TestCall:
    def test_signature_checked(self):
        module = Module("m")
        callee = module.add_function("g", I32, [I32, F32])
        call = Call(callee, [Constant(I32, 1), Constant(F32, 2.0)])
        assert call.type == I32
        with pytest.raises(TypeError):
            Call(callee, [Constant(I32, 1)])
        with pytest.raises(TypeError):
            Call(callee, [Constant(F32, 1.0), Constant(F32, 2.0)])


def _legacy_resource_class(inst):
    """The isinstance table ``Instruction.resource`` replaced: the oracle."""
    if isinstance(inst, (BinaryOp, UnaryOp, Cast)):
        return inst.opcode
    for cls, resource in (
        (ICmp, "icmp"), (FCmp, "fcmp"), (Select, "select"), (Load, "load"),
        (Store, "store"), (GetElementPtr, "gep"), (Phi, "phi"),
        ((Branch, CondBranch, Return), "control"), (Call, "call"),
        (Alloca, "alloca"),
    ):
        if isinstance(inst, cls):
            return resource
    raise TypeError(f"unknown instruction {inst!r}")


def _one_of_each():
    """Instances covering every opcode of every Instruction subclass."""
    module = Module("m")
    func = module.add_function("f", I32, [I32])
    entry = func.add_block("entry")
    i1, i2 = Constant(I32, 1), Constant(I32, 2)
    f1, f2 = Constant(F32, 1.0), Constant(F32, 2.0)
    slot = Alloca(I32)
    array = Alloca(ArrayType(I32, 4))
    cond = ICmp("slt", i1, i2)
    phi = Phi(I32)
    phi.add_incoming(i1, entry)
    insts = [
        BinaryOp("add", i1, i2), BinaryOp("mul", i1, i2),
        BinaryOp("shr", i1, i2), BinaryOp("fadd", f1, f2),
        BinaryOp("fdiv", f1, f2),
        UnaryOp("neg", i1), UnaryOp("not", i1), UnaryOp("fneg", f1),
        UnaryOp("fsqrt", f1), UnaryOp("fabs", f1),
        cond, FCmp("olt", f1, f2), Select(cond, i1, i2),
        Cast("sext", i1, I64), Cast("zext", i1, I64),
        Cast("trunc", Constant(I64, 3), I32), Cast("sitofp", i1, F32),
        Cast("fptosi", f1, I32), Cast("fpext", f1, F64),
        Cast("fptrunc", Constant(F64, 1.0), F32),
        slot, array, Load(slot), Store(i1, slot),
        GetElementPtr(array, [Constant(I32, 0), i1]), phi,
        Branch(entry), CondBranch(cond, entry, entry), Return(i1), Return(),
        Call(func, [i1]),
    ]
    return insts


def _ir_subclasses(cls):
    """Every subclass the IR package defines (not ones made by tests)."""
    for sub in cls.__subclasses__():
        if sub.__module__ == cls.__module__:
            yield sub
            yield from _ir_subclasses(sub)


class TestResourceClass:
    def test_classes(self):
        assert BinaryOp("fadd", Constant(F32, 1), Constant(F32, 2)).resource == "fadd"
        assert ICmp("eq", Constant(I32, 1), Constant(I32, 1)).resource == "icmp"
        assert Load(Alloca(I32)).resource == "load"
        assert Return().resource == "control"
        assert UnaryOp("fsqrt", Constant(F32, 1.0)).resource == "fsqrt"

    def test_every_subclass_matches_legacy_table(self):
        insts = _one_of_each()
        covered = {type(inst) for inst in insts}
        assert covered == set(_ir_subclasses(Instruction))
        for inst in insts:
            assert inst.resource == _legacy_resource_class(inst), inst

    def test_unknown_subclass_fails_loudly(self):
        class Mystery(Instruction):
            pass

        with pytest.raises(TypeError, match="unknown instruction"):
            Mystery(VOID, []).resource
