"""One srlab CLI invocation, run the way ``python -m srlab`` runs it.

    python child.py RECORD_FILE MODE [CLI ARGS...]

MODE is ``setup`` (import only), ``run`` or ``trace``.  The process imports
``srlab.cli``, notes the monotonic clock (shared by every process on
Linux, so the parent can subtract its own spawn time from it), then
executes the package's ``__main__`` with the given arguments.  In ``trace``
mode the public functions are wrapped first (see ``tracer.py``).  At exit
the process writes ``{"imported": ..., "trace": ...}`` to RECORD_FILE and
leaves with the CLI's exit code.  ``src`` must be on ``PYTHONPATH``.
"""

import json
import runpy
import sys
import time

def _add(counters, name, value):
    counters[name] = counters.get(name, 0) + value


def _peak(counters, name, value):
    counters[name] = max(counters.get(name, 0.0), float(value))


def _weak_form(counters, args, kwargs, wf):
    _add(counters, "discrete.nodes", int(wf.operator.shape[0]))
    _add(counters, "discrete.nnz", int(wf.operator.nnz))
    _add(counters, "discrete.exact_entries", len(wf.operator.exact or ()))


def _residuals(counters, rep):
    if len(rep.residuals):
        _peak(counters, "spectrum.max_residual", max(rep.residuals))


def _lanczos(counters, args, kwargs, rep):
    _add(counters, "spectrum.lanczos.basis_cols", int(rep.iterations or 0))
    _residuals(counters, rep)


def _dense(counters, args, kwargs, rep):
    _add(counters, "spectrum.dense.n", int(rep.vectors.shape[0]))
    _residuals(counters, rep)


def _complement(counters, args, kwargs, ac):
    finite = [float(c) for c in ac.condition_numbers if abs(c) < float("inf")]
    if finite:
        _peak(counters, "complement.max_condition_number", max(finite))


# counters read from returned values, keyed by qualified function name
OBSERVERS = {
    "discrete.assemble_weak_laplacian": _weak_form,
    "spectrum.lanczos_smallest": _lanczos,
    "spectrum.dense_spectrum": _dense,
    "complement.canonical_complement": _complement,
}


def main(argv):
    record_path, mode, cli_args = argv[0], argv[1], argv[2:]
    import srlab.cli

    record = {"imported": time.monotonic()}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(call_cost=Tracer.measure_call_cost())
        tracer.install(srlab, observers=OBSERVERS)
        tracer.install_root(srlab, srlab.cli, "main")
    code = 0
    try:
        if mode != "setup":
            sys.argv = ["srlab"] + cli_args
            runpy.run_module("srlab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        if tracer is not None:
            record["trace"] = tracer.report()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
