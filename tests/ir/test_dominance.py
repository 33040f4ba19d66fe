"""Dominator analysis, with structural properties."""

import pytest

from repro.build.pipeline import build_module
from repro.frontend import compile_c
from repro.ir.builder import IRBuilder
from repro.ir.dominance import DominatorTree
from repro.ir.instructions import Branch
from repro.ir.module import BasicBlock, Function
from repro.ir.types import I1, I32
from repro.ir.values import Constant
from repro.ir.verifier import verify_function
from repro.workloads import get_workload


def _diamond():
    """entry -> (left | right) -> merge."""
    f = Function("f")
    entry, left, right, merge = (
        f.add_block("entry"), f.add_block("left"),
        f.add_block("right"), f.add_block("merge"),
    )
    b = IRBuilder(entry)
    b.cbr(Constant(I1, 1), left, right)
    b.position_at_end(left)
    b.br(merge)
    b.position_at_end(right)
    b.br(merge)
    b.position_at_end(merge)
    b.ret()
    return f, entry, left, right, merge


def test_diamond_idoms():
    f, entry, left, right, merge = _diamond()
    dt = DominatorTree(f)
    assert dt.idom[entry] is None
    assert dt.idom[left] is entry
    assert dt.idom[right] is entry
    assert dt.idom[merge] is entry  # neither branch dominates the merge


def test_dominates_reflexive_and_entry():
    f, entry, left, right, merge = _diamond()
    dt = DominatorTree(f)
    for block in f.blocks:
        assert dt.dominates(block, block)
        assert dt.dominates(entry, block)
    assert not dt.dominates(left, merge)
    assert not dt.strictly_dominates(left, left)


def test_dominance_frontier_diamond():
    f, entry, left, right, merge = _diamond()
    dt = DominatorTree(f)
    frontier = dt.dominance_frontier()
    assert frontier[left] == {merge}
    assert frontier[right] == {merge}
    assert frontier[entry] == set()


def test_loop_frontier_contains_header():
    f = Function("f")
    entry, loop, out = f.add_block("entry"), f.add_block("loop"), f.add_block("out")
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    b.cbr(Constant(I1, 1), loop, out)
    b.position_at_end(out)
    b.ret()
    dt = DominatorTree(f)
    assert dt.idom[loop] is entry
    assert dt.idom[out] is loop
    frontier = dt.dominance_frontier()
    assert loop in frontier[loop]  # back edge puts the header in its own DF


def _dead_block():
    """entry -> ret, plus an unreachable block."""
    f = Function("f")
    entry = f.add_block("entry")
    dead = f.add_block("dead")
    b = IRBuilder(entry)
    b.ret()
    b.position_at_end(dead)
    b.ret()
    return f, entry, dead


def test_unreachable_blocks_detected():
    f, entry, dead = _dead_block()
    dt = DominatorTree(f)
    assert dt.is_reachable(entry)
    assert not dt.is_reachable(dead)


def test_single_block_function():
    f = Function("f")
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    b.ret()
    dt = DominatorTree(f)
    assert dt.idom[entry] is None
    assert dt.dominates(entry, entry)
    assert not dt.strictly_dominates(entry, entry)
    assert dt.dominance_frontier()[entry] == set()
    assert dt.rpo == [entry]


def test_self_loop_header():
    f = Function("f")
    entry, loop, out = (f.add_block("entry"), f.add_block("loop"),
                        f.add_block("out"))
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    b.cbr(Constant(I1, 1), loop, out)  # self-loop: loop -> loop
    b.position_at_end(out)
    b.ret()
    dt = DominatorTree(f)
    assert dt.idom[loop] is entry  # the self edge must not confuse idoms
    assert dt.idom[out] is loop
    assert dt.dominates(loop, out)
    # A self-looping block sits in its own dominance frontier.
    assert loop in dt.dominance_frontier()[loop]


def _dead_pair():
    """entry -> ret, plus two unreachable blocks that branch to each
    other."""
    f = Function("f")
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    b.ret()
    dead_a, dead_b = f.add_block("dead_a"), f.add_block("dead_b")
    b.position_at_end(dead_a)
    b.br(dead_b)
    b.position_at_end(dead_b)
    b.br(dead_a)
    return f, entry, dead_a, dead_b


def test_unreachable_self_loop_pair():
    """Two unreachable blocks that branch to each other."""
    f, entry, dead_a, dead_b = _dead_pair()
    dt = DominatorTree(f)
    assert not dt.is_reachable(dead_a)
    assert not dt.is_reachable(dead_b)
    assert dt.is_reachable(entry)
    # Unreachable blocks never appear in any frontier.
    frontier = dt.dominance_frontier()
    for blocks in frontier.values():
        assert dead_a not in blocks and dead_b not in blocks


def test_idom_strictly_dominates_on_real_kernel():
    module = compile_c(
        """
        void k(int a[16], int n) {
          for (int i = 0; i < n; i++) {
            if (a[i] > 0) { a[i] = a[i] * 2; } else { a[i] = 0; }
          }
        }
        """,
        "k",
    )
    func = module.get_function("k")
    dt = DominatorTree(func)
    for block, idom in dt.idom.items():
        if idom is not None:
            assert dt.strictly_dominates(idom, block)
    # Entry's RPO order starts at the entry block.
    assert dt.rpo[0] is func.entry


# -- the numbered tree answers exactly what the idom chain says --------------
def _assert_matches_idom_walk(func):
    """`dominates`, `strictly_dominates` and `children` against a
    reference computed from ``idom`` alone: walk b's idom chain (an
    unreachable b has none, so only b itself dominates it), and scan
    ``idom`` for each block's children."""
    dt = DominatorTree(func)
    blocks = func.blocks
    for b in blocks:
        ancestors = set()
        node = b
        while node is not None:
            ancestors.add(node)
            node = dt.idom.get(node)
        for a in blocks:
            expected = a in ancestors
            assert dt.dominates(a, b) is expected, (a.name, b.name)
            assert dt.strictly_dominates(a, b) is (expected and a is not b)
    for block in blocks:
        expected = [c for c, parent in dt.idom.items() if parent is block]
        assert dt.children(block) == expected, block.name


@pytest.mark.parametrize("fixture", [_diamond, _dead_block, _dead_pair])
def test_small_trees_match_idom_walk(fixture):
    _assert_matches_idom_walk(fixture()[0])


def _split_blocks(func, size):
    """Cut every block into a chain of blocks of at most ``size``
    non-phi instructions."""
    blocks = []
    for block in func.blocks:
        phis = block.phis()
        rest = block.instructions[len(phis):]
        pieces = [rest[i:i + size] for i in range(0, len(rest), size)]
        block.instructions = phis + pieces[0]
        blocks.append(block)
        tail = block
        for n, piece in enumerate(pieces[1:]):
            link = BasicBlock(f"{block.name}.split{n}", func)
            link.instructions = piece
            for inst in piece:
                inst.parent = link
            tail.append(Branch(link))
            blocks.append(link)
            tail = link
        for succ in tail.successors():
            for phi in succ.phis():
                phi.incoming = [(v, tail if p is block else p)
                                for v, p in phi.incoming]
    func.blocks = blocks


@pytest.mark.parametrize("name", ["gemm_dse", "md_grid"])
def test_unrolled_kernels_match_idom_walk(name):
    # Unrolling fuses the straight-line copies it makes, so cut its
    # result into 3-instruction blocks: gemm_dse u8 is then a
    # 1,075-block idom chain.
    workload = get_workload(name)
    module = build_module(workload.source, workload.func_name,
                          pipeline="inline,mem2reg,constfold,dce,unroll:8"
                          ).module
    func = module.get_function(workload.func_name)
    _split_blocks(func, 3)
    verify_function(func)
    assert len(func.blocks) > 50
    _assert_matches_idom_walk(func)
