"""Command-line interface: ``python -m repro <command>``.

Mirrors the day-to-day gem5-SALAM workflow from a shell:

* ``compile``   — mini-C -> textual IR (clang stand-in), with -O / unroll knobs
* ``elaborate`` — static datapath report: CDFG, FU counts, static power/area
* ``analyze``   — static analysis: IR lints, memory-dependence report,
  footprint-vs-SPM checks; ``--format json`` + nonzero exit on errors
  make it a CI gate
* ``run``       — simulate a kernel on a workload from the registry
* ``workloads`` — list the bundled MachSuite-style benchmarks
* ``sweep``     — small port/FU design-space sweep with a Pareto summary
* ``serve``     — async simulation-as-a-service job server (`repro.serve`)
* ``submit``    — send a compile/run/sweep/analyze job to a running server

``run`` and ``sweep`` go through the `repro.exec` execution layer:
``--workers N`` fans sweep points out across processes and
``--cache-dir`` makes repeated configuration points near-free.

Examples::

    python -m repro compile kernel.c --unroll 4
    python -m repro compile kernel.c --passes mem2reg,unroll:4,constfold,dce
    python -m repro elaborate kernel.c --func saxpy --fu-limit fp_mul=2
    python -m repro analyze --all --format json -o report.json
    python -m repro analyze kernel.c --unroll 4 --spm-bytes 65536
    python -m repro analyze gemm --verify-each
    python -m repro run gemm --ports 8 --memory spm
    python -m repro sweep gemm_dse --unroll 8 --workers 4 --cache-dir .runcache
    python -m repro sweep gemm_dse --workers 4 --artifact-dir .artifacts
    python -m repro serve --port 8333 --workers 4 --cache-dir .runcache
    python -m repro submit run gemm_dse --ports 4 --unroll 2
    python -m repro submit sweep gemm_dse --ports 1 2 4 8 --events
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def _parse_fu_limits(entries: list[str]) -> dict[str, int]:
    limits: dict[str, int] = {}
    for entry in entries or []:
        name, __, count = entry.partition("=")
        if not count.isdigit():
            raise SystemExit(f"bad --fu-limit '{entry}' (expected CLASS=N)")
        limits[name] = int(count)
    return limits


def _read_source(path: str) -> str:
    source_path = Path(path)
    if not source_path.exists():
        raise SystemExit(f"no such file: {path}")
    return source_path.read_text()


def _artifact_store(args):
    """The --artifact-dir store (shared by every subcommand), or None."""
    path = getattr(args, "artifact_dir", None)
    if not path:
        return None
    from repro.build import ArtifactStore

    return ArtifactStore(path)


def _build_kernel(args, store=None):
    """The one compile path behind compile/elaborate: mini-C -> Artifact."""
    from repro.analysis import PassDivergenceError
    from repro.build import PipelineSpecError, build_module

    try:
        return build_module(
            _read_source(args.source),
            "module",
            pipeline=getattr(args, "passes", None),
            optimize=not getattr(args, "no_opt", False),
            opt_level=args.opt_level,
            unroll_factor=args.unroll,
            verify_each=getattr(args, "verify_each", False),
            store=store,
        )
    except PipelineSpecError as err:
        raise SystemExit(f"bad --passes spec: {err}")
    except PassDivergenceError as err:
        raise SystemExit(f"verified pipeline: {err}")


def _print_artifact(artifact, store) -> None:
    if store is None:
        return
    status = "store hit" if artifact.meta.get("cached") else "compiled"
    print(f"artifact        : {artifact.key[:12]} ({status})")


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.ir.printer import print_module

    store = _artifact_store(args)
    artifact = _build_kernel(args, store)
    text = print_module(artifact.module)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
        _print_artifact(artifact, store)
    else:
        print(text)
    return 0


def cmd_elaborate(args: argparse.Namespace) -> int:
    from repro.build import BuildPipeline
    from repro.core.config import DeviceConfig

    store = _artifact_store(args)
    artifact = _build_kernel(args, store)
    func_name = args.func or next(iter(artifact.module.functions))
    config = DeviceConfig(fu_limits=_parse_fu_limits(args.fu_limit))
    design = BuildPipeline().elaborate(artifact, func_name, config=config).payload
    iface = design.iface
    print(f"function        : {func_name}")
    _print_artifact(artifact, store)
    print(f"instructions    : {iface.cdfg.total_instructions()}")
    print(f"basic blocks    : {len(iface.cdfg.func.blocks)}")
    print(f"register bits   : {iface.cdfg.register_bits}")
    print("functional units:")
    for fu_class, count in sorted(iface.cdfg.fu_counts.items()):
        print(f"  {fu_class:12s} {count}")
    print(f"static leakage  : {iface.static.fu_leakage_mw + iface.static.register_leakage_mw:.4f} mW")
    print(f"datapath area   : {(iface.static.fu_area_um2 + iface.static.register_area_um2) / 1e3:.1f} kum^2")
    return 0


def _extract_embedded_kernels(path: Path) -> list[tuple[str, str]]:
    """Mini-C kernel strings embedded in a Python file (``KERNEL = ...``).

    Walks the module AST for string constants that look like kernel
    source (a function definition with a body).  Returns
    ``[(label, source), ...]``; silently empty when nothing matches.
    """
    import ast as python_ast

    try:
        tree = python_ast.parse(path.read_text())
    except SyntaxError:
        return []
    found: list[tuple[str, str]] = []
    for node in python_ast.walk(tree):
        if not isinstance(node, python_ast.Assign):
            continue
        value = node.value
        if not (isinstance(value, python_ast.Constant)
                and isinstance(value.value, str)):
            continue
        text = value.value
        if "{" not in text or "(" not in text or ")" not in text:
            continue
        names = [t.id for t in node.targets
                 if isinstance(t, python_ast.Name)]
        label = names[0] if names else f"line{node.lineno}"
        found.append((f"{path.name}:{label}", text))
    return found


def _analyze_modules(target: str, args, store):
    """Resolve one ``analyze`` target to ``[(label, Module), ...]``.

    Accepts a bundled workload name, a ``.c`` / ``.ll`` file, or a
    Python file with embedded kernel strings (the ``examples/``).
    A `PassDivergenceError` from ``--verify-each`` propagates so the
    caller can report the offending pass as a diagnostic.
    """
    from repro.build import PipelineSpecError, build_module
    from repro.workloads import all_workload_names, get_workload

    build_kwargs = dict(
        pipeline=args.passes,
        optimize=not args.no_opt,
        opt_level=args.opt_level,
        verify_each=args.verify_each,
        store=store,
    )
    path = Path(target)
    try:
        if target in all_workload_names():
            workload = get_workload(target)
            unroll = (workload.default_unroll if args.unroll is None
                      else args.unroll)
            artifact = build_module(workload.source, workload.func_name,
                                    unroll_factor=unroll, **build_kwargs)
            return [(target, artifact.module)]
        if not path.exists():
            raise SystemExit(
                f"analyze: '{target}' is neither a bundled workload nor a file"
            )
        unroll = 1 if args.unroll is None else args.unroll
        if path.suffix == ".py":
            modules = []
            for label, source in _extract_embedded_kernels(path):
                try:
                    artifact = build_module(source, path.stem,
                                            unroll_factor=unroll,
                                            **build_kwargs)
                except Exception:  # noqa: BLE001 - not every string is a kernel
                    continue
                modules.append((label, artifact.module))
            return modules
        source = path.read_text()
        if path.suffix == ".ll":
            from repro.ir.parser import parse_module

            return [(target, parse_module(source))]
        artifact = build_module(source, path.stem, unroll_factor=unroll,
                                **build_kwargs)
        return [(target, artifact.module)]
    except PipelineSpecError as err:
        raise SystemExit(f"bad --passes spec: {err}")


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import (
        AnalysisReport,
        Location,
        PassDivergenceError,
        Severity,
        analyze_module,
        analyze_scenario,
    )
    from repro.workloads import all_workload_names

    targets = list(args.targets)
    if args.all:
        targets.extend(n for n in all_workload_names() if n not in targets)
    scenarios = list(args.scenario or [])
    if not targets and not scenarios:
        raise SystemExit(
            "analyze: no targets (pass files/workloads, --scenario, or --all)")
    store = _artifact_store(args)
    reports = []
    for spec_text in scenarios:
        try:
            reports.append(analyze_scenario(spec_text))
        except ValueError as err:
            raise SystemExit(f"analyze: {err}")
    for target in targets:
        try:
            resolved = _analyze_modules(target, args, store)
        except PassDivergenceError as err:
            report = AnalysisReport(subject=target)
            report.add(
                "VRF401", Severity.ERROR,
                Location(function=err.func_name),
                f"pass '{err.pass_name}' changed observable behaviour: "
                f"{err.detail}",
                hint="rerun without --verify-each to reproduce the "
                     "miscompile; the named pass is the first divergent one",
            )
            reports.append(report)
            continue
        if not resolved:
            print(f"analyze: no kernels found in '{target}'", file=sys.stderr)
            continue
        for label, module in resolved:
            reports.append(analyze_module(label, module, func=args.func,
                                          spm_bytes=args.spm_bytes))
    merged = AnalysisReport.merged(reports, subject=",".join(scenarios + targets))
    if args.format == "json":
        text = merged.render_json()
    else:
        text = merged.render_text(show_timings=args.timings)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
        print(merged.summary_line())
    else:
        print(text)
    return merged.exit_code()


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import all_workload_names, get_workload

    for name in all_workload_names():
        print(f"{name:12s} {get_workload(name).description}")
    return 0


def _print_injected(context) -> None:
    """List the fault events that actually fired during a run."""
    injector = getattr(context, "fault_injector", None)
    if injector is None or not injector.injected:
        return
    for record in injector.injected:
        detail = {k: v for k, v in record.items()
                  if k not in ("tick", "kind", "target")}
        print(f"  fault @ tick {record['tick']:>8}: {record['kind']} "
              f"on {record['target']} {detail}")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.exec import FailureRecord, RunCache, SimContext
    from repro.exec.params import accelerator_kwargs
    from repro.faults import FaultConfigError, FaultPlan
    from repro.workloads import get_workload

    workload = get_workload(args.workload)
    kwargs = accelerator_kwargs(ports=args.ports, memory=args.memory,
                                unroll=args.unroll, clock_mhz=args.clock_mhz,
                                fu_limits=_parse_fu_limits(args.fu_limit))
    cache = RunCache(args.cache_dir) if args.cache_dir else None
    store = _artifact_store(args)
    trace_cfg = None
    if args.trace or args.trace_out:
        from repro.trace import TraceConfig

        fmt = "text" if (args.trace_out or "").endswith((".txt", ".log")) else "chrome"
        trace_cfg = TraceConfig(channels=args.trace or "all",
                                out=args.trace_out, format=fmt)
    try:
        plan = FaultPlan.parse(args.inject or [], seed=args.seed)
    except FaultConfigError as err:
        raise SystemExit(f"bad --inject spec: {err}")
    context = SimContext(workload, seed=args.seed, cache=cache,
                         trace=trace_cfg, faults=plan,
                         timeout_s=args.point_timeout,
                         artifact_store=store, sanitize=args.sanitize,
                         **kwargs)
    hardened = bool(plan) or args.point_timeout is not None
    try:
        result = context.run()
    except Exception as exc:  # noqa: BLE001 - reported as a FailureRecord
        if not hardened:
            raise
        failure = FailureRecord.from_exception(exc)
        print(f"workload        : {workload.name} ({workload.description})")
        print(f"FAILED          : {failure.summary()} [{failure.reason}]")
        _print_injected(context)
        return 1
    print(f"workload        : {workload.name} ({workload.description})")
    used = context.engine_used or "none (cache hit, no simulation ran)"
    print(f"engine          : {used}")
    if plan:
        print(f"faults injected : {len(plan.events)} event(s) armed "
              "(results bypass the run cache)")
        _print_injected(context)
    if cache is not None and cache.hits:
        print("verified        : cached result (verified when first computed)")
    else:
        print("verified        : output matches the golden model")
    print(f"cycles          : {result.cycles}")
    print(f"runtime         : {result.runtime_ns / 1e3:.2f} us @ {args.clock_mhz} MHz")
    print(f"total power     : {result.power.total_mw:.3f} mW")
    print(f"datapath area   : {result.area.datapath_um2 / 1e3:.1f} kum^2")
    print(f"functional units: {dict(sorted(result.fu_counts.items()))}")
    print(f"stalled entries : {result.occupancy.entry_stall_fraction():.1%}")
    if args.sanitize and result.sanitizer is not None:
        san = result.sanitizer
        verdict = ("clean" if san["clean"]
                   else f"{len(san['races'])} race(s) detected")
        print(f"sanitizer       : {verdict} "
              f"({san['num_records']} accesses, {san['num_syncs']} sync ops, "
              f"{len(san['agents'])} agents; results bypass the run cache)")
        for race in san["races"][:5]:
            lo, hi = race["range"]
            print(f"  race: {race['kind']} {race['agents'][0]} vs "
                  f"{race['agents'][1]} at [{lo:#x}, {hi:#x})")
    if trace_cfg is not None:
        if context.trace_hub is None:
            print("trace           : skipped (cache hit -- no simulation ran; "
                  "rerun without --cache-dir to capture a trace)")
        else:
            hub = context.trace_hub
            print(f"trace           : {hub.total_emitted} events on "
                  f"{','.join(trace_cfg.channels)} "
                  f"({hub.total_dropped} dropped)")
            if trace_cfg.out:
                from repro.trace import write_trace

                write_trace(hub, trace_cfg.out, trace_cfg.format)
                print(f"trace written   : {trace_cfg.out} ({trace_cfg.format})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.dse import format_table, pareto_front
    from repro.exec import ParallelSweep, RunCache
    from repro.exec.params import accelerator_kwargs
    from repro.workloads import get_workload

    workload = get_workload(args.workload)

    def configure(params):
        return accelerator_kwargs(ports=params["ports"], unroll=args.unroll)

    cache = RunCache(args.cache_dir) if args.cache_dir else None
    store = _artifact_store(args)
    executor = ParallelSweep(workers=args.workers, cache=cache,
                             point_timeout=args.point_timeout,
                             retries=args.retries, strict=args.strict,
                             artifact_store=store)
    points = executor.run(workload, {"ports": args.ports}, configure,
                          seed=args.seed)
    healthy = [point for point in points if point.ok]
    front = pareto_front(healthy, objectives=lambda p: (p.runtime_us, p.power_mw))
    rows = []
    for point in points:
        row = point.record()
        row["pareto"] = "*" if point in front else ""
        rows.append(row)
    print(format_table(rows, title=f"{workload.name} port sweep"))
    failed = [point for point in points if not point.ok]
    for point in failed:
        print(f"failed point    : {point.params} -> {point.failure.summary()}")
    if cache is not None:
        print(f"run cache       : {cache.hits} hit(s), {cache.misses} miss(es)")
    if store is not None:
        print(f"artifact cache  : {store.hits} hit(s), "
              f"{store.misses} miss(es)")
    return 1 if failed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.exec import RunCache
    from repro.serve.server import serve_forever

    cache = RunCache(args.cache_dir) if args.cache_dir else None
    store = _artifact_store(args)

    def announce(port: int) -> None:
        durable = (f", state dir {args.state_dir}" if args.state_dir else "")
        print(f"repro serve listening on http://{args.host}:{port} "
              f"({args.workers} worker(s){durable})", flush=True)

    try:
        serve_forever(host=args.host, port=args.port, workers=args.workers,
                      run_cache=cache, artifact_store=store,
                      announce=announce, state_dir=args.state_dir,
                      drain_timeout=args.drain_timeout)
    except KeyboardInterrupt:
        pass
    print("repro serve: shut down cleanly")
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """One job spec from the ``repro submit`` arguments."""
    from repro.workloads import all_workload_names

    spec: dict = {"seed": args.seed, "unroll": args.unroll}
    target = args.target
    if args.kind == "analyze" and (
            target.startswith("gen:")
            or target in ("private_spm", "shared_spm", "stream")):
        spec["scenario"] = target
    elif target in all_workload_names():
        spec["workload"] = target
    elif Path(target).exists():
        spec["source"] = _read_source(target)
        spec["func"] = args.func or Path(target).stem
    else:
        # Let the server report the unknown workload as a job failure.
        spec["workload"] = target
    if args.kind in ("run", "sweep"):
        spec["memory"] = args.memory
        if args.kind == "run":
            spec["ports"] = args.ports[0] if args.ports else 2
        else:
            spec["ports"] = args.ports or [1, 2, 4, 8]
    if args.passes:
        spec["passes"] = args.passes
    # Per-job durability policy (retry/backoff/timeout), enforced by
    # the server's worker pool.
    if args.retries:
        spec["retries"] = args.retries
    if args.backoff_s is not None:
        spec["backoff_s"] = args.backoff_s
    if args.job_timeout is not None:
        spec["timeout_s"] = args.job_timeout
    return spec


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.jobs import JobState

    client = ServeClient(host=args.host, port=args.port)
    try:
        job = client.submit(args.kind, _submit_spec(args),
                            priority=args.priority)
        print(f"job             : {job['id']} ({args.kind})")
        if job.get("deduped_of"):
            print(f"dedup           : coalesced onto {job['deduped_of']} "
                  "(identical active request)")
        if args.events and job["state"] in JobState.ACTIVE:
            for event in client.events(job["id"]):
                detail = {k: v for k, v in event.items()
                          if k not in ("seq", "t", "event")}
                print(f"  event {event['seq']:>3}: {event['event']} "
                      f"{detail if detail else ''}".rstrip())
        if not args.no_wait and job["state"] in JobState.ACTIVE:
            job = client.wait(job["id"], timeout=args.timeout)
    except ServeError as err:
        raise SystemExit(f"submit: {err}")
    except ConnectionError as err:
        raise SystemExit(f"submit: cannot reach {args.host}:{args.port} "
                         f"({err}); is `repro serve` running?")
    print(f"state           : {job['state']}")
    if job.get("cache_hit"):
        print("cache hit       : yes (served from the run cache)")
    if job["state"] == JobState.FAILED:
        failure = job.get("failure") or {}
        print(f"FAILED          : {failure.get('error_type')}: "
              f"{failure.get('message')}")
        return 1
    result = job.get("result")
    if job["state"] == JobState.DONE and result is not None:
        _print_submit_result(args.kind, result)
    return 0


def _print_submit_result(kind: str, result: dict) -> None:
    if kind == "run":
        from repro.exec import RunResult

        run = RunResult.from_dict(result)
        print(f"cycles          : {run.cycles}")
        print(f"runtime         : {run.runtime_ns / 1e3:.2f} us")
        print(f"total power     : {run.power.total_mw:.3f} mW")
    elif kind == "sweep":
        from repro.dse import format_table

        print(format_table(result["rows"], title="sweep"))
        if result.get("failed"):
            print(f"failed points   : {result['failed']}")
    elif kind == "compile":
        status = "store hit" if result.get("store_hit") else "compiled"
        print(f"artifact        : {result['artifact_key'][:12]} ({status})")
        print(result["ir"])
    elif kind == "analyze":
        diags = result.get("diagnostics", [])
        print(f"diagnostics     : {len(diags)}")
        for diag in diags:
            print(f"  {diag.get('code')} [{diag.get('severity')}] "
                  f"{diag.get('message')}")


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="gem5-SALAM reproduction toolkit"
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile mini-C to textual IR")
    p_compile.add_argument("source")
    p_compile.add_argument("--output", "-o")
    p_compile.add_argument("--unroll", type=int, default=1)
    p_compile.add_argument("--opt-level", type=int, default=1, choices=[1, 2])
    p_compile.add_argument("--no-opt", action="store_true")
    p_compile.add_argument("--passes", metavar="SPEC",
                           help="explicit pass pipeline, e.g. "
                                "'mem2reg,unroll:4,constfold,dce' or a "
                                "preset 'o1'/'o2' (overrides --opt-level/"
                                "--unroll/--no-opt)")
    p_compile.add_argument("--artifact-dir", metavar="DIR",
                           help="content-addressed build-artifact store "
                                "(recompiles of the same kernel are free)")
    p_compile.add_argument("--verify-each", action="store_true",
                           help="differentially verify every pass against "
                                "the golden interpreter; a miscompiling "
                                "pass fails the build by name")
    p_compile.set_defaults(handler=cmd_compile)

    p_elab = sub.add_parser("elaborate", help="static datapath report")
    p_elab.add_argument("source")
    p_elab.add_argument("--func")
    p_elab.add_argument("--unroll", type=int, default=1)
    p_elab.add_argument("--opt-level", type=int, default=1, choices=[1, 2])
    p_elab.add_argument("--fu-limit", action="append", metavar="CLASS=N")
    p_elab.add_argument("--passes", metavar="SPEC",
                        help="explicit pass pipeline (see 'compile --passes')")
    p_elab.add_argument("--artifact-dir", metavar="DIR",
                        help="content-addressed build-artifact store")
    p_elab.add_argument("--verify-each", action="store_true",
                        help="differentially verify every pass against the "
                             "golden interpreter (see 'compile --verify-each')")
    p_elab.set_defaults(handler=cmd_elaborate)

    p_an = sub.add_parser(
        "analyze",
        help="static analysis: IR lints + dependence report (CI gate)")
    p_an.add_argument("targets", nargs="*",
                      help="workload names, .c kernels, .ll IR files, or "
                           "Python files with embedded kernel strings")
    p_an.add_argument("--all", action="store_true",
                      help="also analyze every bundled workload")
    p_an.add_argument("--func", help="restrict to one function")
    p_an.add_argument("--unroll", type=int, default=None,
                      help="unroll factor (default: the workload's own "
                           "default, or 1 for files)")
    p_an.add_argument("--opt-level", type=int, default=1, choices=[1, 2])
    p_an.add_argument("--no-opt", action="store_true",
                      help="lint the raw (unoptimized) IR")
    p_an.add_argument("--passes", metavar="SPEC",
                      help="explicit pass pipeline (see 'compile --passes')")
    p_an.add_argument("--verify-each", action="store_true",
                      help="differentially verify every pass while "
                           "compiling; a divergent pass becomes a VRF401 "
                           "error naming the pass")
    p_an.add_argument("--scenario", action="append", metavar="NAME",
                      help="system-level concurrency lint (SYS301-306) of a "
                           "scenario: a CNN integration scenario by name "
                           "(private_spm, shared_spm, stream; runs it once), "
                           "or gen:SEED[:racy] for a generated topology "
                           "(linted statically from its plan); repeatable")
    p_an.add_argument("--spm-bytes", type=int, metavar="N",
                      help="check each kernel's static footprint against "
                           "an N-byte scratchpad (SYS302)")
    p_an.add_argument("--format", choices=["text", "json"], default="text")
    p_an.add_argument("--output", "-o", metavar="FILE",
                      help="write the report to FILE instead of stdout")
    p_an.add_argument("--timings", action="store_true",
                      help="include per-rule wall-clock timings (text format)")
    p_an.add_argument("--artifact-dir", metavar="DIR",
                      help="content-addressed build-artifact store")
    p_an.set_defaults(handler=cmd_analyze)

    p_list = sub.add_parser("workloads", help="list bundled benchmarks")
    p_list.set_defaults(handler=cmd_workloads)

    p_run = sub.add_parser("run", help="simulate a bundled workload")
    p_run.add_argument("workload")
    p_run.add_argument("--memory", choices=["spm", "cache", "ideal"], default="spm")
    p_run.add_argument("--ports", type=int, default=2)
    p_run.add_argument("--unroll", type=int, default=1)
    p_run.add_argument("--clock-mhz", type=float, default=100.0)
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--fu-limit", action="append", metavar="CLASS=N")
    p_run.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed run cache (reruns are near-free)")
    p_run.add_argument("--trace", metavar="CHANNELS",
                       help="capture a trace of the listed channels "
                            "(comma-separated, or 'all'): compute,mem,dma,"
                            "irq,host,sched,faults")
    p_run.add_argument("--trace-out", metavar="FILE",
                       help="write the trace to FILE (Chrome trace-event "
                            "JSON, loadable in Perfetto; .txt/.log for "
                            "plain text)")
    p_run.add_argument("--inject", action="append", metavar="FAULTSPEC",
                       help="inject a deterministic fault, e.g. "
                            "'bit_flip@spm:access=1,addr=0x20000007,bit=6' "
                            "or 'port_stall@memctrl:tick=5000,cycles=200' "
                            "(kinds: bit_flip,mmr_corrupt,dma_drop,dma_delay,"
                            "port_stall,mem_drop; repeatable)")
    p_run.add_argument("--point-timeout", type=float, metavar="SECONDS",
                       help="abort the run after this much wall-clock time "
                            "and report the hang instead of spinning")
    p_run.add_argument("--artifact-dir", metavar="DIR",
                       help="content-addressed build-artifact store "
                            "(kernel compiles are cached across runs)")
    p_run.add_argument("--sanitize", action="store_true",
                       help="attach the runtime access sanitizer: vector-"
                            "clock race detection over every attributed "
                            "memory access (zero timing impact; results "
                            "bypass the run cache)")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="port sweep with Pareto summary")
    p_sweep.add_argument("workload")
    p_sweep.add_argument("--ports", type=int, nargs="+", default=[1, 2, 4, 8])
    p_sweep.add_argument("--unroll", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=7)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="fan the sweep out over N processes")
    p_sweep.add_argument("--cache-dir", metavar="DIR",
                         help="content-addressed run cache; each point is "
                              "stored as it finishes, so a rerun resumes "
                              "an interrupted sweep")
    p_sweep.add_argument("--point-timeout", type=float, metavar="SECONDS",
                         help="per-point wall-clock budget; a point that "
                              "exceeds it becomes a failed row, not a hang")
    p_sweep.add_argument("--retries", type=int, default=0,
                         help="resubmit points lost to crashed workers up "
                              "to N times before running them serially")
    p_sweep.add_argument("--strict", action="store_true",
                         help="fail fast on the first failed point instead "
                              "of degrading gracefully")
    p_sweep.add_argument("--artifact-dir", metavar="DIR",
                         help="content-addressed build-artifact store; the "
                              "kernel is compiled once per sweep and hits "
                              "on reruns")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service job server")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8333,
                         help="listen port (0 picks an ephemeral one)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="background executor threads draining the "
                              "job queue")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         help="on-disk run cache shared by every job "
                              "(default: <state-dir>/runs with --state-dir, "
                              "else in-memory only)")
    p_serve.add_argument("--state-dir", metavar="DIR",
                         help="durable server state: a write-ahead job "
                              "journal under DIR records every submission "
                              "and transition, and a restarted server "
                              "replays it — re-queueing in-flight jobs and "
                              "still serving results for finished ones")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="graceful-drain budget: how long SIGTERM or "
                              "POST /v1/shutdown?mode=drain waits for "
                              "running jobs before exiting (default 30)")
    p_serve.add_argument("--artifact-dir", metavar="DIR",
                         help="on-disk build-artifact store shared by "
                              "every job")
    p_serve.set_defaults(handler=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running `repro serve` instance")
    p_submit.add_argument("kind", choices=["compile", "run", "sweep",
                                           "analyze"])
    p_submit.add_argument("target",
                          help="a bundled workload name or a kernel file; "
                               "for analyze, also a scenario (private_spm, "
                               "shared_spm, stream, or gen:SEED[:racy])")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8333)
    p_submit.add_argument("--ports", type=int, nargs="+",
                          help="read ports (run uses the first value, "
                               "sweep runs the whole list)")
    p_submit.add_argument("--unroll", type=int, default=1)
    p_submit.add_argument("--seed", type=int, default=7)
    p_submit.add_argument("--memory", choices=["spm", "cache", "ideal"],
                          default="spm")
    p_submit.add_argument("--func", help="entry function for kernel files")
    p_submit.add_argument("--passes", metavar="SPEC",
                          help="explicit pass pipeline (see 'compile')")
    p_submit.add_argument("--retries", type=int, default=0,
                          help="per-job retry budget: the server re-queues "
                               "a failed attempt up to N times with "
                               "exponential backoff")
    p_submit.add_argument("--backoff-s", type=float, default=None,
                          metavar="SECONDS",
                          help="base retry backoff (doubles per attempt, "
                               "capped; server default 0.5)")
    p_submit.add_argument("--job-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-attempt wall-clock budget enforced by "
                               "the simulation watchdog")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs earlier")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the job id and return without "
                               "waiting for the result")
    p_submit.add_argument("--events", action="store_true",
                          help="stream the job's progress events (SSE) "
                               "while it runs")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="seconds to wait for completion")
    p_submit.set_defaults(handler=cmd_submit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into e.g. `head` that exited early; the
        # conventional quiet death, not a stack trace.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
