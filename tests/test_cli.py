"""Command-line interface."""

import pytest

from repro.cli import main

KERNEL = """
void scale(double x[16], double y[16]) {
  for (int i = 0; i < 16; i++) { y[i] = x[i] * 2.0; }
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


def test_compile_prints_ir(kernel_file, capsys):
    assert main(["compile", kernel_file]) == 0
    out = capsys.readouterr().out
    assert "define void @scale" in out
    assert "fmul double" in out


def test_compile_to_file_roundtrips(kernel_file, tmp_path, capsys):
    out_path = tmp_path / "kernel.ll"
    assert main(["compile", kernel_file, "-o", str(out_path)]) == 0
    from repro.ir.parser import parse_module
    from repro.ir.verifier import verify_module

    module = parse_module(out_path.read_text())
    verify_module(module)
    assert "scale" in module.functions


def test_compile_unroll_grows_ir(kernel_file, capsys):
    main(["compile", kernel_file])
    plain = capsys.readouterr().out
    main(["compile", kernel_file, "--unroll", "4"])
    unrolled = capsys.readouterr().out
    assert unrolled.count("fmul") > plain.count("fmul")


def test_elaborate_reports_fus(kernel_file, capsys):
    assert main(["elaborate", kernel_file, "--func", "scale"]) == 0
    out = capsys.readouterr().out
    assert "fp_mul" in out
    assert "register bits" in out


def test_elaborate_fu_limit(kernel_file, capsys):
    main(["elaborate", kernel_file, "--unroll", "4", "--fu-limit", "fp_mul=2"])
    out = capsys.readouterr().out
    assert "fp_mul       2" in out


def test_elaborate_bad_fu_limit(kernel_file):
    with pytest.raises(SystemExit):
        main(["elaborate", kernel_file, "--fu-limit", "fp_mul=lots"])


def test_missing_source_file():
    with pytest.raises(SystemExit):
        main(["compile", "/nonexistent/kernel.c"])


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "gemm" in out and "fft" in out


def test_run_workload(capsys):
    assert main(["run", "spmv", "--ports", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "cycles" in out
    assert "engine          : graph\n" in out


def test_run_reports_event_queue_fallback(capsys):
    # A sanitized run no longer falls back: it stays on graph.
    assert main(["run", "gemm_dse", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "engine          : graph\n" in out


def test_sweep(capsys):
    assert main(["sweep", "spmv", "--ports", "1", "4"]) == 0
    out = capsys.readouterr().out
    assert "port sweep" in out
    assert "pareto" in out
