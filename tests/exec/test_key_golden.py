"""Golden key values: run-cache and graph keys must not drift.

On-disk run caches, job-server dedup keys and journals all hold these
keys.  A refactor that changes how a key is
derived silently invalidates every one of them, so the exact values for
one fixed configuration are pinned here.  Change them only together
with a deliberate format bump.
"""

from repro.build.artifact import ElaboratedDesign
from repro.engine import GRAPH_FORMAT_VERSION, graph_key
from repro.exec.cache import run_cache_key
from repro.exec.context import SimContext
from repro.workloads import get_workload

GEMM_SPM_U4 = dict(memory="spm", unroll_factor=4)

RUN_KEY = "3a515ff1fa05a9295865b91a679d24b21d259c40ed5723e8af78400742111855"
GRAPH_KEY = ("graph:"
             "7082cd2508ed8292c22ed83be5543879fc3fc07c0e5b821aad795930499e38a8")


def test_run_cache_key_value_is_pinned():
    gemm = get_workload("gemm")
    assert run_cache_key(gemm.source, gemm.func_name, seed=7,
                         **GEMM_SPM_U4) == RUN_KEY


def test_graph_key_value_is_pinned():
    assert GRAPH_FORMAT_VERSION == 6
    ctx = SimContext(get_workload("gemm"), seed=7, verify=False,
                     **GEMM_SPM_U4)
    design = ElaboratedDesign(ctx.build().unit.iface)
    assert graph_key(design) == GRAPH_KEY
