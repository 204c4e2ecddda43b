"""Unit tests for the fusion pass and the vector VM.

The property suite (:mod:`tests.ir.test_fuse_properties`) holds fused
execution bit-identical to ``evaluate()``; these tests pin down the
compiler's *structural* promises — register recycling, CSE via
hash-consing, compile-time constant folding with runtime semantics, the
int/float constant distinction, mode validation — and the VM's error
paths and specialisation cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.vectorvm import _CODE_CACHE, VectorVM, install_vms
from repro.ir.fuse import (
    MAX_REGISTERS,
    FusedProgram,
    UnfusableError,
    compile_expr,
    compile_terms,
    fusion_mode,
    fusion_summary,
    node_leaf_key,
)
from repro.symbolic.evaluate import evaluate
from repro.symbolic.expr import Add, Call, Cmp, Conditional, Mul, Num, Pow, Sym
from repro.util.errors import CodegenError

A, B, C = Sym("a"), Sym("b"), Sym("c")


def run_all(expr, env):
    program = compile_expr(expr, leaf_key=str)
    vm = VectorVM(program)
    slots = tuple(env[k] for k in program.slots)
    return program, vm.run(*slots), vm.run_interpreted(*slots)


# --------------------------------------------------------------- compiler
def test_register_recycling_bounds_the_file():
    # a deep left chain: a + a + ... needs only 2 registers however long
    expr = A
    for _ in range(40):
        expr = Add(expr, A)
    program = compile_expr(expr, leaf_key=str)
    assert program.n_registers == 2
    assert program.stats["temporaries_eliminated"] > 0


def test_register_pressure_overflow_is_unfusable():
    # a full binary tree of depth n needs ~n live registers; force overflow.
    # (Add/Mul auto-flatten to n-ary left-folds, so build the tree from
    # binary calls, which cannot flatten.)
    def tree(depth, i=0):
        if depth == 0:
            return Sym(f"s{i}")
        return Call("max", tree(depth - 1, 2 * i + 1), tree(depth - 1, 2 * i + 2))

    with pytest.raises(UnfusableError):
        compile_expr(tree(8), leaf_key=str, max_registers=4)
    # the default file is wide enough for the same tree
    compile_expr(tree(8), leaf_key=str, max_registers=MAX_REGISTERS)


def test_cse_shares_hash_consed_subtrees():
    # max(a,b) appears three times but is computed once (hash-consed memo)
    common = Call("max", A, B)
    expr = Add(Mul(common, common), common)
    program = compile_expr(expr, leaf_key=str)
    assert program.stats["cse_hits"] >= 2
    calls = [i for i in program.instructions if i.op == "call"]
    assert len(calls) == 1


def test_constant_folding_matches_runtime_fold_order():
    expr = Mul(Add(Num(1), Num(2), Num(3)), A)
    program = compile_expr(expr, leaf_key=str)
    assert program.stats["constants_folded"] == 1
    consts = [i.imm for i in program.instructions if i.op == "const"]
    assert consts == [6]


def test_constant_folding_leaves_runtime_errors_in_place():
    # 0 ** -1 must raise at run time, not at compile time
    expr = Add(Pow(Num(0), Num(-1)), A)
    program = compile_expr(expr, leaf_key=str)
    vm = VectorVM(program)
    with pytest.raises(ZeroDivisionError):
        vm.run(*(1.0 for _ in program.slots))


def test_int_and_float_constants_never_alias():
    # a**2 (int) and a**2.0 (float) can differ bitwise for array bases;
    # the constant pool must keep them distinct
    expr = Add(Pow(A, Num(2)), Mul(Pow(A, Num(2.0)), B))
    program = compile_expr(expr, leaf_key=str)
    exps = [i.imm for i in program.instructions if i.op == "pow_const"]
    assert 2 in exps and 2.0 in exps
    assert any(type(e) is int for e in exps)


def test_reciprocal_lowering():
    program = compile_expr(Pow(A, Num(-1)), leaf_key=str)
    assert [i.op for i in program.instructions] == ["load", "recip"]
    vm = VectorVM(program)
    assert vm.run(4.0) == 0.25


def test_empty_statement_is_unfusable():
    with pytest.raises(UnfusableError):
        compile_terms([], leaf_key=str)


def test_unregistered_function_is_unfusable():
    with pytest.raises(UnfusableError):
        compile_expr(Call("no_such_fn", A), leaf_key=str)


def test_terms_sum_left_to_right_like_emission():
    env = {"a": 0.1, "b": 0.2, "c": 0.3}
    program = compile_terms([A, B, C], leaf_key=str)
    vm = VectorVM(program)
    got = vm.run(*(env[k] for k in program.slots))
    assert got == (0.1 + 0.2) + 0.3


def test_node_leaf_key_disambiguates_distinct_nodes():
    key = node_leaf_key()
    k1, k2 = key(A), key(B)
    assert k1 != k2
    assert key(A) == k1  # stable per node


def test_fusion_mode_validation():
    assert fusion_mode(None) == "off"
    assert fusion_mode({}) == "off"
    assert fusion_mode({"fusion": "AUTO"}) == "auto"
    assert fusion_mode({"fusion": "on"}) == "on"
    with pytest.raises(CodegenError):
        fusion_mode({"fusion": "fast"})


def test_fusion_summary_shape():
    program = compile_expr(Add(A, B), leaf_key=str)
    info = fusion_summary("auto", {"surface": program})
    assert info["mode"] == "auto"
    stats = info["programs"]["surface"]
    for key in ("n_instructions", "n_registers", "n_slots",
                "temporaries_eliminated", "cse_hits", "constants_folded"):
        assert key in stats


def test_disassembly_is_stable_and_roundtrips_stats():
    expr = Add(Mul(A, B), Pow(C, Num(-1)))
    program = compile_expr(expr, leaf_key=str)
    text = program.disassemble()
    assert text.startswith("; fused vector program (repro.fuse/1)")
    assert f"ret r{program.out_reg}" in text
    for i, key in enumerate(program.slots):
        assert f"slot s{i} = {key}" in text
    # deterministic: recompiling the same tree gives the same text
    assert compile_expr(expr, leaf_key=str).disassemble() == text


# --------------------------------------------------------------------- VM
def test_vm_rejects_wrong_slot_count():
    program = compile_expr(Add(A, B), leaf_key=str)
    vm = VectorVM(program)
    with pytest.raises(CodegenError):
        vm.run(1.0)
    with pytest.raises(CodegenError):
        vm.run_interpreted(1.0, 2.0, 3.0)


def test_vm_rejects_unregistered_call_at_bind():
    program = FusedProgram(
        slots=("a",),
        instructions=(
            # hand-built program calling a function absent from the registry
            *compile_expr(A, leaf_key=str).instructions,
        ),
        n_registers=1,
        out_reg=0,
    )
    bogus = FusedProgram(
        slots=program.slots,
        instructions=program.instructions[:1] + (
            type(program.instructions[0])("call", 0, (0,), "missing_fn"),
        ),
        n_registers=1,
        out_reg=0,
    )
    with pytest.raises(CodegenError):
        VectorVM(bogus)


def test_vm_functions_override_snapshot():
    program = compile_expr(Call("abs", A), leaf_key=str)
    vm = VectorVM(program, functions={"abs": lambda x: x * 10})
    assert vm.run(-3.0) == -30.0  # override wins over np.abs


def test_specialisation_cache_reuses_compiled_code():
    expr = Add(Mul(A, B), C)
    vm1 = VectorVM(compile_expr(expr, leaf_key=str))
    before = len(_CODE_CACHE)
    vm2 = VectorVM(compile_expr(expr, leaf_key=str))
    assert len(_CODE_CACHE) == before  # same source, no recompile
    assert vm1.source == vm2.source
    assert vm1.run(1.0, 2.0, 3.0) == vm2.run(1.0, 2.0, 3.0) == 5.0


def test_engines_agree_on_scratch_reuse_across_shapes():
    # same VM run on different shapes in sequence: scratch from the first
    # shape must not leak into the second
    expr = Add(Mul(A, B), B)
    program = compile_expr(expr, leaf_key=str)
    vm = VectorVM(program)
    big = np.linspace(0.0, 1.0, 5000)
    small = np.arange(3, dtype=np.float64)
    for env in ({"a": big, "b": big * 2}, {"a": small, "b": small},
                {"a": big, "b": 2.0}, {"a": 0.5, "b": small}):
        slots = tuple(env[k] for k in program.slots)
        expected = evaluate(expr, env)
        got_fast = np.copy(vm.run(*slots))
        got_interp = np.copy(vm.run_interpreted(*slots))
        np.testing.assert_array_equal(got_fast, expected)
        np.testing.assert_array_equal(got_interp, expected)


def test_ragged_last_tile_runs_in_a_view_of_the_scratch():
    # kernels sweep row tiles; the short last tile must neither evict the
    # full tile's scratch nor allocate its own — on either engine
    expr = Add(Mul(A, B), Pow(C, Num(-1)))
    program = compile_expr(expr, leaf_key=str)
    vm = VectorVM(program)
    rng = np.random.default_rng(4)
    full = {k: rng.random((13, 400)) + 1.0 for k in "abc"}
    ragged = {k: v[:8] for k, v in full.items()}

    def sweep(run):
        outs = []
        for env in (full, ragged):
            got = run(*(env[k] for k in program.slots))
            np.testing.assert_array_equal(got, evaluate(expr, env))
            outs.append(got)
        return outs

    for run, bufs_of in ((vm.run, lambda: vm._tls.bufs),
                         (vm.run_interpreted, lambda: vm._tls.interp_bufs)):
        sweep(run)
        adopted = [id(b) for b in bufs_of()]
        assert any(b is not None for b in bufs_of())
        out_full, out_ragged = sweep(run)
        assert adopted == [id(b) for b in bufs_of()]  # nothing re-adopted
        # both tiles were written into VM-owned scratch, the ragged one
        # into the leading rows of the full tile's buffer
        owner = next(b for b in bufs_of() if b is not None
                     and np.shares_memory(b, out_full))
        assert np.shares_memory(owner, out_ragged)
        assert out_ragged.shape == (8, 400)


def test_conditional_compiles_to_where():
    expr = Conditional(Cmp(">", A, Num(0)), A, Mul(A, Num(-1)))
    program = compile_expr(expr, leaf_key=str)
    ops = [i.op for i in program.instructions]
    assert "cmp" in ops and "where" in ops
    vm = VectorVM(program)
    arr = np.array([-2.0, 3.0, -0.5])
    np.testing.assert_array_equal(vm.run(arr), np.abs(arr))


def test_install_vms_binds_per_program():
    env: dict = {}
    programs = {
        "surface": compile_expr(Add(A, B), leaf_key=str),
        "volume": compile_expr(Mul(A, B), leaf_key=str),
    }
    install_vms(env, programs)
    assert set(env) == {"VM_SURFACE", "VM_VOLUME"}
    assert env["VM_SURFACE"].run(2.0, 3.0) == 5.0
    assert env["VM_VOLUME"].run(2.0, 3.0) == 6.0
    install_vms(env, None)  # no programs: no-op
