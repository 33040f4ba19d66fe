"""Module pickle/hash stability: same source -> same key, everywhere.

The artifact store is only sound if compiles are reproducible: the key
(hash of source+name+pipeline) must be process-independent, and the
module a key maps to must print identically no matter which process
compiled or unpickled it.  These tests fork real subprocesses rather
than trusting in-process determinism.
"""

import pickle
import subprocess
import sys
from pathlib import Path

from repro.build import artifact_key, build_module
from repro.build.artifact import module_fingerprint
from repro.ir.parser import parse_module
from repro.ir.printer import print_module

SRC = """
void blend(double a[32], double b[32], double c[32]) {
  for (int i = 0; i < 32; i++) { c[i] = 0.25 * a[i] + 0.75 * b[i]; }
}
"""
PIPELINE = "mem2reg,unroll:2,constfold,simplifycfg,dce"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"

_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.build import artifact_key, build_module
from repro.build.artifact import module_fingerprint
artifact = build_module({source!r}, "blend", pipeline={pipeline!r})
print(artifact_key({source!r}, "blend", {pipeline!r}))
print(module_fingerprint(artifact.module))
"""


def _child_key_and_fingerprint():
    script = _CHILD.format(src=str(REPO_SRC), source=SRC, pipeline=PIPELINE)
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout.split()
    return out[0], out[1]


def test_key_and_fingerprint_stable_across_processes():
    here = build_module(SRC, "blend", pipeline=PIPELINE)
    child_key, child_fp = _child_key_and_fingerprint()
    assert artifact_key(SRC, "blend", PIPELINE) == child_key
    assert module_fingerprint(here.module) == child_fp


def test_repeated_compiles_are_deterministic():
    fingerprints = {
        module_fingerprint(build_module(SRC, "blend", pipeline=PIPELINE).module)
        for _ in range(5)
    }
    assert len(fingerprints) == 1


def test_module_pickle_round_trip_is_lossless():
    module = build_module(SRC, "blend", pipeline=PIPELINE).module
    clone = pickle.loads(pickle.dumps(module))
    assert print_module(clone) == print_module(module)
    assert module_fingerprint(clone) == module_fingerprint(module)


def test_pickled_module_survives_reprint_reparse():
    # The printed IR of an unpickled module must itself be valid IR --
    # this is what a store hit hands to the elaborator.
    module = build_module(SRC, "blend", pipeline=PIPELINE).module
    clone = pickle.loads(pickle.dumps(module))
    reparsed = parse_module(print_module(clone))
    assert print_module(reparsed) == print_module(module)


def test_key_sensitive_to_each_component():
    base = artifact_key(SRC, "blend", PIPELINE)
    assert artifact_key(SRC + " ", "blend", PIPELINE) != base
    assert artifact_key(SRC, "other", PIPELINE) != base
    assert artifact_key(SRC, "blend", "o1") != base


def test_equivalent_specs_share_a_key():
    assert (artifact_key(SRC, "blend", "o1:4")
            == artifact_key(SRC, "blend",
                            "inline,mem2reg,constfold,dce,unroll:4,"
                            "constfold,simplifycfg,dce"))


# -- the fingerprint recorded by the optimize stage -------------------------
def _printed_hash(module):
    import hashlib

    return hashlib.sha256(print_module(module).encode("utf-8")).hexdigest()


def test_recorded_fingerprint_is_the_printed_text_hash():
    module = build_module(SRC, "blend", pipeline=PIPELINE).module
    assert module.fingerprint is not None
    assert module_fingerprint(module) == _printed_hash(module)
    # The record pickles with the module: a shipped or store-served
    # copy answers without re-printing.
    assert pickle.loads(pickle.dumps(module)).fingerprint == module.fingerprint


def test_fingerprint_tracks_pass_manager_changes():
    from repro.passes.pipeline import PipelineSpec

    module = build_module(SRC, "blend", pipeline="mem2reg").module
    before = module_fingerprint(module)
    changed = PipelineSpec.parse("unroll:2,constfold,dce").to_pass_manager(
        module=module).run(module)
    assert changed
    assert module_fingerprint(module) == _printed_hash(module) != before
