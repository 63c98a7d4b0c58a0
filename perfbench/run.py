"""One command for every layer a request crosses.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Workloads: ``compile``, ``serve-sim``, ``serve-tcp``, ``durable`` (see
``perfbench/workloads.py`` and ``perfbench/NOTES.md``).  Inputs come
from ``--seed`` only.  With ``--trace 0`` the run measures the named
workload for ``--seconds`` with tracing off and reports the end-to-end
metrics.  With ``--trace 1`` it measures every workload for
``--seconds / 4``, half of it traced, and reports the per-layer metrics
(each layer is measured on the workload that crosses it) and the
tracing overhead; spans go to ``perfbench/out/*.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit codes:
0 success; 1 an output differed from its oracle (the JSON still
prints); 2 the repository sources are missing; 3 the run is invalid
(a process or socket was left behind, the open-loop generator fell
behind its schedule, or too few samples) and no result is printed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Import this directory's modules as the ``perfbench`` package only:
# ``trace.py`` would otherwise shadow the standard library's ``trace``.
sys.path[0] = ROOT
OUT = os.path.join(ROOT, "perfbench", "out")

from perfbench.metrics import WORKLOADS  # noqa: E402

#: Share of ``--seconds`` given to each half of a workload in a
#: ``--trace 1`` run (four workloads, traced and untraced halves).
TRACE_PASS_SHARE = 1 / 8

#: Untimed warm-up before measuring an in-process workload, so lazy
#: imports and first-call costs, which a long-lived process pays once,
#: stay out of the numbers.  (``serve-*`` warm up by answering every
#: program once before the measured traffic.)
WARMUP_SECONDS = 1.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",),
        help="'all' runs every workload's end-to-end pass in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="import and build the workload's inputs, print the seconds "
             "that took, and exit (used to sample setup_s)",
    )
    return parser.parse_args(argv)


def _fingerprint():
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def _inputs(workload, seed):
    from perfbench import workloads

    if workload == "compile":
        return workloads.CompileInputs(seed)
    return workloads.DurableInputs(seed)


def _setup_probe(workload, seed):
    """Seconds from this process's first line to its inputs, in a fresh
    interpreter (imports are only cold once per process)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _run_pass(workload, seed, seconds, tracer, inputs, label, setup_samples):
    from perfbench import workloads

    if workload == "compile":
        return workloads.run_compile(inputs, seconds, tracer, stream=label)
    if workload == "durable":
        scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
        os.makedirs(scratch, exist_ok=True)
        try:
            return workloads.run_durable(inputs, seconds, tracer, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    return workloads.run_serve(
        ROOT, workload, seed, seconds, tracer is not None, OUT, setup_samples
    )


def _warm_up(workload, seed, inputs):
    from perfbench.workloads import OutputMismatch

    warm = _run_pass(workload, seed, WARMUP_SECONDS, None, inputs, "warmup", 1)
    wrong = [o.item for o in warm.outcomes if not o.correct]
    if wrong:
        raise OutputMismatch(f"{workload} warm-up: wrong outputs for {wrong[:5]}")


def _check_hygiene(result, listening_before):
    """No child process and no new listening socket outlives a pass."""
    from perfbench.gateway import listening_ports, own_children

    left = own_children()
    if left:
        result.problems.append(f"child processes left behind: {left}")
    ports = listening_ports() - listening_before
    if ports:
        result.problems.append(f"listening sockets left behind: {sorted(ports)}")


def _end_to_end(workload, seed, seconds):
    from perfbench import metrics, workloads
    from perfbench.gateway import listening_ports

    listening = listening_ports()
    inputs = None
    setups = []
    if workload in ("compile", "durable"):
        inputs = _inputs(workload, seed)
        setups = [_setup_probe(workload, seed) for _ in range(3)]
        _warm_up(workload, seed, inputs)
    result = _run_pass(
        workload, seed, seconds, None, inputs, "measured",
        workloads.SETUP_SAMPLES,
    )
    result.setup_samples = result.setup_samples or setups
    _check_hygiene(result, listening)
    if result.problems:
        return [result], None, {}
    return [result], metrics.end_to_end(workload, result), {}


def _every_end_to_end(args):
    """``--workload all``: each workload in turn, metrics prefixed with
    the workload's name."""
    passes, values = [], {}
    for workload in WORKLOADS:
        done, measured, _ = _end_to_end(workload, args.seed, args.seconds)
        passes += done
        if measured is None:
            return passes, None, {}
        values.update({f"{workload}.{k}": v for k, v in measured.items()})
    return passes, values, {}


def _traced(args):
    from perfbench import metrics
    from perfbench.gateway import listening_ports
    from perfbench.instrument import install_storage
    from perfbench.trace import Tracer, write_spans

    seconds = args.seconds * TRACE_PASS_SHARE
    values, passes, report = {}, [], {}
    listening = listening_ports()
    for workload in WORKLOADS:
        tracer = Tracer()
        if workload in ("compile", "durable"):
            # One pass that traces every other operation.
            inputs = _inputs(workload, args.seed)
            _warm_up(workload, args.seed, inputs)
            if workload == "durable":
                install_storage(tracer)
            try:
                traced = _run_pass(
                    workload, args.seed, 2 * seconds, tracer, inputs,
                    "traced", 1,
                )
            finally:
                tracer.unwrap_all()
            run = [traced]
            untraced_ops = [o for o in traced.outcomes if not o.traced]
            traced_ops = [o for o in traced.outcomes if o.traced]
        else:
            # Traced and untraced gateways are separate processes.
            untraced = _run_pass(
                workload, args.seed, seconds, None, None, "untraced", 1
            )
            traced = _run_pass(
                workload, args.seed, seconds, tracer, None, "traced", 1
            )
            run = [untraced, traced]
            untraced_ops, traced_ops = untraced.outcomes, traced.outcomes
        for result in run:
            _check_hygiene(result, listening)
            passes.append(result)
        if any(result.problems for result in run):
            continue
        values.update(metrics.LAYERS[workload](traced))
        values[f"trace.overhead_ratio.{workload}"] = metrics.overhead_ratio(
            traced_ops, untraced_ops
        )
        write_spans(
            os.path.join(OUT, f"trace-{workload}-seed{args.seed}.jsonl"),
            traced.spans,
        )
        report[workload] = metrics.self_time_table(traced.spans)
    if any(result.problems for result in passes):
        return passes, None, report
    return passes, values, report


def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))
    # Measure the default configuration: no REPRO_* switch may leak in.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if args.setup_probe:
        _inputs(args.workload, args.seed)
        print(time.perf_counter() - _STARTED)
        return 0

    from perfbench import metrics
    from perfbench.workloads import OutputMismatch

    fingerprint = _fingerprint()
    print(f"perfbench: machine {json.dumps(fingerprint)}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    try:
        names = metrics.END_TO_END
        if args.trace:
            passes, values, report = _traced(args)
            names = metrics.PER_LAYER
        elif args.workload == "all":
            passes, values, report = _every_end_to_end(args)
            names = [
                (f"{workload}.{name}", unit)
                for workload in WORKLOADS
                for name, unit in metrics.END_TO_END
            ]
        else:
            passes, values, report = _end_to_end(
                args.workload, args.seed, args.seconds
            )
    except OutputMismatch as mismatch:
        print(f"perfbench: OUTPUT MISMATCH: {mismatch}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except metrics.TooFewSamples as error:
        print(f"perfbench: INVALID: {error}", file=sys.stderr)
        return 3
    problems = [p for result in passes for p in result.problems]
    if problems or values is None:
        for problem in problems:
            print(f"perfbench: INVALID: {problem}", file=sys.stderr)
        return 3
    outcomes = [o for result in passes for o in result.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.succeeded)
    correct = all(o.correct for o in outcomes)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names
        },
    }
    with open(
        os.path.join(
            OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        ),
        "w",
        encoding="utf-8",
    ) as handle:
        json.dump(
            {"machine": fingerprint, "args": vars(args), "result": result,
             "self_time_ms": report},
            handle, indent=2, sort_keys=True,
        )
    for name, unit in names:
        print(f"{name:36s} {values[name]:14.6f} {unit}", file=sys.stderr)
    late = [r.late for r in passes if r.late is not None]
    if late:
        print(f"perfbench: open-loop generator p99 lateness "
              f"{max(late) * 1e3:.3f} ms", file=sys.stderr)
    if not correct:
        wrong = [o.item for o in outcomes if not o.correct]
        print(f"perfbench: OUTPUT MISMATCH on {len(wrong)} operations: "
              f"{wrong[:5]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
