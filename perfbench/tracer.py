"""Call tracing applied to srlab from outside the package.

``Tracer.install`` wraps the public functions of a package in timing
wrappers and rebinds every module-level name that refers to them: the
defining module, the package namespace and each ``from .x import y``
copy, so calls made through any of those names are seen.  Nothing under
``src/`` changes, and ``uninstall`` puts every original back.

Per wrapped function the tracer keeps the call count, the inclusive time
(outermost calls only, so recursion is not counted twice) and the self
time (inclusive time minus the time of wrapped calls made inside it).
Per layer (the defining module) it keeps the time spent inside the
layer's outermost calls.  Every function is aggregated; no per-call
record is kept, so hot leaves such as ``expr.evaluate`` cost no memory.

A wrapped call also costs its caller the wrapper's own bookkeeping, which
falls outside the call's timed window.  ``measure_call_cost`` measures
that cost once per process; given as ``call_cost``, the wrappers take it
off the caller's self time and off every enclosing inclusive time, so a change that makes fewer wrapped
calls does not seem to speed up the callers as well.
"""

import functools
import sys
import time
import types


class Tracer:
    def __init__(self, clock=time.perf_counter, call_cost=0.0):
        self.clock = clock
        self.call_cost = call_cost  # seconds a wrapped call adds to its caller
        self.functions = {}  # qualified name -> [calls, inclusive_s, self_s]
        self.layers = {}  # layer -> [seconds inside its outermost calls]
        self.counters = {}  # filled by the observers
        self.missing = []  # requested names the package does not export
        self._stack = []  # one [child_s, wrapper cost below] per active call
        self._layer_depth = {}  # layer -> [active calls in that layer]
        self._restore = []  # (module, attribute, original)

    def wrap(self, qualname, fn, layer, observe=None):
        """Return a timing wrapper for ``fn`` recorded under ``qualname``."""
        stats = self.functions.setdefault(qualname, [0, 0.0, 0.0])
        layer_s = self.layers.setdefault(layer, [0.0])
        layer_depth = self._layer_depth.setdefault(layer, [0])
        depth = [0]
        stack = self._stack
        counters = self.counters
        clock = self.clock
        cost = self.call_cost

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            depth[0] += 1
            layer_depth[0] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                layer_depth[0] -= 1
                elapsed = end - start
                net = elapsed - frame[1]
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if depth[0] == 0:
                    stats[1] += net
                if layer_depth[0] == 0:
                    layer_s[0] += net
                if stack:
                    stack[-1][0] += elapsed + cost
                    stack[-1][1] += frame[1] + cost
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def measure_call_cost(clock=time.perf_counter, calls=100_000, repeats=3):
        """Seconds a wrapped no-op adds to its caller outside its own window.

        The cheapest of ``repeats`` loops is taken, so a stall on the host
        does not inflate it.
        """

        def noop():
            return None

        best = float("inf")
        for _ in range(repeats):
            probe = Tracer(clock=clock)
            wrapped = probe.wrap("noop", noop, "noop")
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            inside = probe.functions["noop"][2]
            best = min(best, (t2 - t1) - (t1 - t0) - inside)
        return max(best / calls, 0.0)

    def install(self, package, names=None, observers=None):
        """Wrap the functions ``names`` (default ``package.__all__``) lists.

        A requested name that ``package.__all__`` no longer exports is
        skipped and listed in ``missing``; exported classes and constants
        are left alone.
        """
        observers = observers or {}
        exported = set(getattr(package, "__all__", ()))
        for name in package.__all__ if names is None else names:
            fn = getattr(package, name, None) if name in exported else None
            if fn is None:
                self.missing.append(name)
                continue
            if not isinstance(fn, types.FunctionType):
                continue
            layer = fn.__module__.rpartition(".")[2]
            qualname = layer + "." + name
            self._rebind(package, fn, self.wrap(qualname, fn, layer, observers.get(qualname)))

    def install_root(self, package, module, name):
        """Wrap ``module.name`` as the root call; its layer is the module."""
        fn = getattr(module, name)
        layer = module.__name__.rpartition(".")[2]
        self._rebind(package, fn, self.wrap(layer + "." + name, fn, layer))

    def _rebind(self, package, fn, wrapper):
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == package.__name__ or modname.startswith(prefix)
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def report(self):
        return {
            "functions": {
                name: {"calls": calls, "s": incl, "self_s": own}
                for name, (calls, incl, own) in sorted(self.functions.items())
            },
            "layers": {name: s for name, (s,) in sorted(self.layers.items())},
            "counters": dict(sorted(self.counters.items())),
            "missing": self.missing,
        }
