"""Transparent timing wrappers at the module boundaries of lattice_bc.

Tracer.install() replaces every binding of every public function of
every lattice_bc module (the defining module and every module that
imported the same function object) with a wrapper that records one span
per call: function, parent span, start, end, and whether it raised.
uninstall() puts the original objects back, so untraced operations run
the unmodified library.

Per-layer metrics are read off the spans afterwards.  A function that a
later version of the library no longer has simply records no calls, so
every metric that names it reads zero instead of failing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

ROOT_SPAN = "bench.op"


def _solve_flops(args, kwargs, result):
    n = np.shape(args[0] if args else kwargs["A"])[0]
    return 2.0 * n ** 3 / 3.0


def _matrix_entries(args, kwargs, result):
    return float(np.size(result))


# Work computed from array shapes, not measured: dense elimination
# costs 2n^3/3 flops for an n x n system, and an assembled connecting
# matrix has tau^2 entries.
COMPUTED_WORK = {
    "linalg.solve": _solve_flops,
    "bc_ops.connecting_matrix": _matrix_entries,
}


class Tracer:
    """Span recorder for one benchmark process; spans stay in memory."""

    def __init__(self, package="lattice_bc"):
        self.names = [ROOT_SPAN]
        # each span: [name index, parent span, start ns, end ns, raised, op]
        self.spans = []
        self.work = {}
        self.ops = 0
        self._current = -1
        self._bindings = self._discover(package)

    def _discover(self, package):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == package or name.startswith(package + "."))]
        wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    layer = module.__name__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        return [(module, attr, wrappers[obj], obj)
                for module in modules
                for attr, obj in list(vars(module).items())
                if inspect.isfunction(obj) and obj in wrappers]

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        count_work = COMPUTED_WORK.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            record = [fid, parent, time.perf_counter_ns(), 0, False,
                      self.ops - 1]
            self._current = len(spans)
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[3] = time.perf_counter_ns()
                self._current = parent
            if count_work is not None:
                self.work[name] = (self.work.get(name, 0.0)
                                   + count_work(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for module, attr, wrapper, _ in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, _, original in self._bindings:
            setattr(module, attr, original)

    def run_op(self, op, *args):
        """Run op(*args) with wrappers installed under one root span."""
        self.ops += 1
        record = [0, -1, 0, 0, False, self.ops - 1]
        self._current = len(self.spans)
        self.spans.append(record)
        self.install()
        try:
            record[2] = time.perf_counter_ns()
            return op(*args)
        finally:
            record[3] = time.perf_counter_ns()
            self.uninstall()
            self._current = -1

    def function_stats(self):
        """Per function name: calls, raised, inclusive ns, self ns."""
        child_ns = [0] * len(self.spans)
        for fid, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats = {}
        for i, (fid, _, start, end, raised, _) in enumerate(self.spans):
            entry = stats.setdefault(self.names[fid], [0, 0, 0, 0])
            entry[0] += 1
            entry[1] += int(raised)
            entry[2] += end - start
            entry[3] += end - start - child_ns[i]
        return stats

    def layer_metrics(self):
        """Per-layer metrics as means per traced operation."""
        stats = self.function_stats()
        per_op = 1.0 / max(self.ops, 1)

        def calls(name):
            return stats.get(name, [0, 0, 0, 0])[0] * per_op

        def incl_ms(name):
            return stats.get(name, [0, 0, 0, 0])[2] * 1e-6 * per_op

        def layer_sum(column, layer, keep=lambda func: True):
            return sum(entry[column] for name, entry in stats.items()
                       if name.split(".")[0] == layer
                       and keep(name.split(".", 1)[1])) * per_op

        def self_ms(layer, keep=lambda func: True):
            return layer_sum(3, layer, keep) * 1e-6

        def tridiag(func):
            return func.startswith("tridiag")

        return {
            "bc_ops.connecting_matrix.calls":
                calls("bc_ops.connecting_matrix"),
            "bc_ops.connecting_matrix.entries":
                self.work.get("bc_ops.connecting_matrix", 0.0) * per_op,
            "bc_ops.self_ms": self_ms("bc_ops"),
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.solve.flops": self.work.get("linalg.solve", 0.0) * per_op,
            "linalg.det.calls": calls("linalg.det"),
            "linalg.self_ms": self_ms("linalg", lambda f: not tridiag(f)),
            "linalg.tridiag.self_ms": self_ms("linalg", tridiag),
            "spectral.eigen_decompose.ms": incl_ms("spectral.eigen_decompose"),
            "spectral.invert_spectral.ms": incl_ms("spectral.invert_spectral"),
            "spectral.self_ms": self_ms("spectral"),
            "inversion.characterize_response.ms":
                incl_ms("inversion.characterize_response"),
            "inversion.invert_krein.ms": incl_ms("inversion.invert_krein"),
            "inversion.invert_factorization.ms":
                incl_ms("inversion.invert_factorization"),
            "inversion.invert_gelfand_levitan.ms":
                incl_ms("inversion.invert_gelfand_levitan"),
            "inversion.self_ms": self_ms("inversion"),
            "inversion.failures": layer_sum(1, "inversion"),
            "forward.solve_goursat.calls": calls("forward.solve_goursat"),
            "forward.self_ms": self_ms("forward"),
            "core.calls": layer_sum(0, "core"),
            "core.self_ms": self_ms("core"),
            "cli.self_ms": self_ms("cli"),
            "files.self_ms": self_ms("files"),
        }

    def dump(self, path):
        """Write every span, column-wise, as JSON."""
        columns = list(zip(*self.spans)) if self.spans else [()] * 6
        keys = ("name", "parent", "start_ns", "end_ns", "raised", "op")
        doc = {"names": self.names,
               "spans": {k: list(col) for k, col in zip(keys, columns)}}
        path.write_text(json.dumps(doc, separators=(",", ":")))
