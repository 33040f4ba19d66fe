"""IR lint rules: each seeded defect must be flagged, clean code not."""

from repro.analysis import lint_function, lint_module
from repro.analysis.diagnostics import Severity
from repro.frontend import compile_c
from repro.ir.builder import IRBuilder
from repro.ir.module import Function, Module
from repro.ir.types import I1, I32, VOID, ArrayType, PointerType
from repro.ir.values import Constant
from repro.workloads import all_workload_names, get_workload


def _codes(report, severity=None):
    return {d.code for d in report
            if severity is None or d.severity is severity}


# ----------------------------------------------------------------------
# IR101: dead store
# ----------------------------------------------------------------------
def test_dead_store_flagged():
    f = Function("f", I32, [])
    b = IRBuilder(f.add_block("entry"))
    buf = b.alloca(ArrayType(I32, 4), name="buf")
    p0 = b.gep(buf, [0, 0], name="p0")
    b.store(b.const(I32, 7), p0)      # dead: overwritten before any load
    b.store(b.const(I32, 9), p0)
    v = b.load(p0, name="v")
    b.ret(v)
    report = lint_function(f)
    dead = [d for d in report if d.code == "IR101"]
    assert len(dead) == 1
    assert dead[0].severity is Severity.WARNING
    assert "+0" in dead[0].message


def test_live_store_not_flagged():
    f = Function("f", I32, [])
    b = IRBuilder(f.add_block("entry"))
    buf = b.alloca(ArrayType(I32, 4), name="buf")
    p0 = b.gep(buf, [0, 0], name="p0")
    b.store(b.const(I32, 7), p0)
    v = b.load(p0, name="v")
    b.ret(v)
    assert "IR101" not in _codes(lint_function(f))


def test_store_through_argument_never_dead():
    f = Function("f", VOID, [(PointerType(I32), "out")])
    b = IRBuilder(f.add_block("entry"))
    b.store(b.const(I32, 1), f.args[0])  # caller-observable
    b.ret()
    assert "IR101" not in _codes(lint_function(f))


# ----------------------------------------------------------------------
# IR102: unreachable block
# ----------------------------------------------------------------------
def test_unreachable_block_flagged():
    f = Function("f", VOID, [])
    entry, dead = f.add_block("entry"), f.add_block("island")
    b = IRBuilder(entry)
    b.ret()
    b.position_at_end(dead)
    b.ret()
    report = lint_function(f)
    hits = [d for d in report if d.code == "IR102"]
    assert len(hits) == 1
    assert "island" in hits[0].message


# ----------------------------------------------------------------------
# IR103: load before store on an alloca
# ----------------------------------------------------------------------
def test_uninitialized_load_is_error():
    f = Function("f", I32, [])
    b = IRBuilder(f.add_block("entry"))
    buf = b.alloca(ArrayType(I32, 4), name="buf")
    p = b.gep(buf, [0, 2], name="p")
    v = b.load(p, name="v")  # never stored
    b.ret(v)
    report = lint_function(f)
    errors = [d for d in report if d.code == "IR103"]
    assert errors and errors[0].severity is Severity.ERROR


def test_partially_initialized_load_is_note():
    f = Function("f", I32, [(I1, "c")])
    entry, then, merge = (f.add_block("entry"), f.add_block("then"),
                          f.add_block("merge"))
    b = IRBuilder(entry)
    slot = b.alloca(I32, name="slot")
    b.cbr(f.args[0], then, merge)
    b.position_at_end(then)
    b.store(b.const(I32, 1), slot)
    b.br(merge)
    b.position_at_end(merge)
    v = b.load(slot, name="v")  # initialized only on the `then` path
    b.ret(v)
    report = lint_function(f)
    hits = [d for d in report if d.code == "IR103"]
    assert hits and hits[0].severity is Severity.NOTE


def test_fully_initialized_load_is_clean():
    f = Function("f", I32, [])
    b = IRBuilder(f.add_block("entry"))
    slot = b.alloca(I32, name="slot")
    b.store(b.const(I32, 1), slot)
    v = b.load(slot, name="v")
    b.ret(v)
    assert "IR103" not in _codes(lint_function(f))


# ----------------------------------------------------------------------
# IR104: constant-condition branch
# ----------------------------------------------------------------------
def test_constant_branch_flagged():
    f = Function("f", VOID, [])
    entry, a, z = f.add_block("entry"), f.add_block("a"), f.add_block("z")
    b = IRBuilder(entry)
    b.cbr(Constant(I1, 1), a, z)
    b.position_at_end(a)
    b.ret()
    b.position_at_end(z)
    b.ret()
    report = lint_function(f)
    hits = [d for d in report if d.code == "IR104"]
    assert len(hits) == 1
    assert "'z'" in hits[0].message  # the dead edge is named


# ----------------------------------------------------------------------
# IR105: loop with no exit
# ----------------------------------------------------------------------
def test_no_exit_loop_is_error():
    f = Function("f", VOID, [])
    entry, loop = f.add_block("entry"), f.add_block("loop")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    b.br(loop)  # spins forever
    report = lint_function(f)
    hits = [d for d in report if d.code == "IR105"]
    assert hits and hits[0].severity is Severity.ERROR


def test_normal_loop_has_exit():
    module = compile_c(
        "void k(int a[8]) { for (int i = 0; i < 8; i++) { a[i] = i; } }",
        "k",
    )
    assert "IR105" not in _codes(lint_module(module))


# ----------------------------------------------------------------------
# IR106: statically out-of-bounds GEP
# ----------------------------------------------------------------------
def test_oob_array_index_flagged():
    f = Function("f", I32, [])
    b = IRBuilder(f.add_block("entry"))
    buf = b.alloca(ArrayType(I32, 4), name="buf")
    b.store(b.const(I32, 0), b.gep(buf, [0, 0], name="p0"))
    p = b.gep(buf, [0, 6], name="p")  # index 6 into [4 x i32]
    v = b.load(p, name="v")
    b.ret(v)
    report = lint_function(f)
    hits = [d for d in report if d.code == "IR106"]
    assert hits and hits[0].severity is Severity.ERROR
    assert "6" in hits[0].message


def test_in_bounds_gep_clean():
    f = Function("f", I32, [])
    b = IRBuilder(f.add_block("entry"))
    buf = b.alloca(ArrayType(I32, 4), name="buf")
    p = b.gep(buf, [0, 3], name="p")
    b.store(b.const(I32, 1), p)
    v = b.load(p, name="v")
    b.ret(v)
    assert "IR106" not in _codes(lint_function(f))


# ----------------------------------------------------------------------
# Driver-level behaviour
# ----------------------------------------------------------------------
def test_lint_module_covers_all_functions():
    m = Module("m")
    for name in ("f", "g"):
        f = Function(name, VOID, [])
        m.add_function(f)
        entry, dead = f.add_block("entry"), f.add_block("dead")
        b = IRBuilder(entry)
        b.ret()
        b.position_at_end(dead)
        b.ret()
    report = lint_module(m)
    assert len([d for d in report if d.code == "IR102"]) == 2
    functions = {d.location.function for d in report}
    assert functions == {"f", "g"}


def test_per_rule_timings_recorded():
    module = compile_c(
        "void k(int a[8]) { for (int i = 0; i < 8; i++) { a[i] = i; } }",
        "k",
    )
    report = lint_module(module)
    assert "dead-store" in report.timings
    assert "gep-bounds" in report.timings
    assert all(t >= 0 for t in report.timings.values())


def test_analyze_json_timing_names():
    from repro.analysis.reports import analyze_module

    module = get_workload("gemm").build().module
    rules = ["const-branch", "dead-store", "gep-bounds", "memdep",
             "no-exit-loop", "uninit-load", "unreachable-block"]
    report = analyze_module("gemm", module)
    assert list(report.to_dict()["timings"]) == rules
    report = analyze_module("gemm", module, spm_bytes=1 << 16)
    assert list(report.to_dict()["timings"]) == sorted(
        rules + ["sys-dma", "sys-footprint", "sys-overlap"])


def test_all_shipped_workloads_error_free():
    """Acceptance gate: zero error-severity findings on shipped kernels."""
    for name in all_workload_names():
        workload = get_workload(name)
        report = lint_module(workload.module())
        assert not report.has_errors, (
            f"{name}: {[d.render() for d in report.errors]}"
        )
