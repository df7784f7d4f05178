"""Span tracer for one `sptlab` process, kept outside the package.

Run as a script it stands in for the `sptlab` console entry point:

    python3 perfbench/tracer.py <spans.json> <sptlab arguments...>

It imports `sptlab.cli`, wraps the public entry points of each layer in
spans, runs `sptlab.cli.main`, and writes every span plus the layer counts
to <spans.json> when the run ends.  Nothing under `src/` is changed: each
traced name is replaced on every `sptlab` module (and module-level dict)
that binds it, because `verifier`, `hecke` and `gamma0` import with
`from .forms import ...` and `forms._BUILDERS` holds its builders by
reference.  `Series` methods are replaced on the class.

A name the program no longer defines is skipped, so its metrics read 0.
"""

from __future__ import annotations

import time

# first reading in the process; perf_counter is CLOCK_MONOTONIC on Linux,
# so the parent can subtract its launch time from it to get start-up time
T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Records nested spans and counters in memory.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (id, parent id or -1, name, start, end, self_s)
        self.counts = {}
        self._stack = []  # [id, time covered by direct children]
        self._next_id = 0

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, after=None):
        """Return fn wrapped in a span called `name`.

        `after(args, kwargs, result)` may return another span name and add
        counts; it runs only when fn returns normally.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            label = name
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    label = after(args, kwargs, result) or name
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else -1,
                        label,
                        start,
                        end,
                        duration - frame[1],
                    )
                )

        return traced


def _rebind(orig, new):
    """Replace `orig` by `new` wherever an sptlab module or module dict binds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sptlab" or modname.startswith("sptlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
            elif type(val) is dict:
                for key, item in list(val.items()):
                    if item is orig:
                        val[key] = new


def _patch(tracer, module, fname, name, after=None):
    orig = getattr(module, fname, None)
    if orig is None:
        return
    _rebind(orig, tracer.wrap(orig, name, after))


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer):
    """Wrap the traced entry points of every sptlab layer."""
    from sptlab import cache, forms, gamma0, hecke, partitions, series, verifier

    add = tracer.add

    # series: the two kernels, split by backend, patched on the class
    def after_mul(args, kwargs, out):
        a, b = args[0], args[1]
        if a.modulus:
            add("series.mul_mod.coeffs", len(out.coeffs))
            # int64 operands plus the full product np.convolve forms
            la, lb = len(a.coeffs), len(b.coeffs)
            add("series.mul_mod.bytes_computed", 8 * (la + lb + la + lb - 1))
            return "series.mul_mod"
        add("series.mul_exact.coeffs", len(out.coeffs))
        return "series.mul_exact"

    def after_invert(args, kwargs, out):
        kind = "mod" if out.modulus else "exact"
        add("series.invert_%s.coeffs" % kind, len(out.coeffs))
        return "series.invert_%s" % kind

    Series = getattr(series, "Series", None)
    if Series is not None:
        for meth, after in (("mul", after_mul), ("invert", after_invert)):
            orig = getattr(Series, meth, None)
            if orig is not None:
                setattr(Series, meth, tracer.wrap(orig, "series." + meth, after))

    # forms: builders, and the memo bank seen from outside
    for fname in ("euler_product", "eisenstein", "delta_series", "j_series",
                  "e14_over_delta", "eta_pow"):
        _patch(tracer, forms, fname, "forms." + fname)

    bank = getattr(forms, "_bank", {})

    def form_traced(orig):
        wrapped = tracer.wrap(orig, "forms.form")

        @functools.wraps(orig)
        def call(tag, n, modulus=0):
            before = bank.get((tag, modulus))
            out = wrapped(tag, n, modulus)
            add("forms.form.builds" if bank.get((tag, modulus)) is not before
                else "forms.form.hits")
            return out

        return call

    if hasattr(forms, "form"):
        _rebind(forms.form, form_traced(forms.form))

    # partitions: the two stream builders, and the stream bank
    def after_p(args, kwargs, out):
        add("partitions.partition_stream.coeffs", len(out.values))

    def after_spt(args, kwargs, out):
        label = "partitions.spt_stream_%s" % ("mod" if out.modulus else "exact")
        add(label + ".coeffs", len(out.values))
        return label

    _patch(tracer, partitions, "partition_stream", "partitions.partition_stream", after_p)
    _patch(tracer, partitions, "spt_stream", "partitions.spt_stream", after_spt)

    def after_build(args, kwargs, out):
        add("partitions.build.calls")

    _patch(tracer, partitions, "_build", "partitions.build", after_build)

    tables = getattr(partitions, "_tables", {})

    def stream_traced(orig):
        wrapped = tracer.wrap(orig, "partitions.stream")

        @functools.wraps(orig)
        def call(kind, n, modulus=0):
            key = (kind, modulus)
            before = tables.get(key)
            builds = tracer.counts.get("partitions.build.calls", 0)
            out = wrapped(kind, n, modulus)
            if tracer.counts.get("partitions.build.calls", 0) != builds:
                add("partitions.stream.builds")
            elif tables.get(key) is not before:
                add("partitions.stream.reductions")
            else:
                add("partitions.stream.hits")
            return out

        return call

    if hasattr(partitions, "stream"):
        _rebind(partitions.stream, stream_traced(partitions.stream))

    # hecke and gamma0
    def after_combo(args, kwargs, out):
        add("hecke.hecke_combo.terms", len(out.values))

    _patch(tracer, hecke, "hecke_combo", "hecke.hecke_combo", after_combo)
    _patch(tracer, hecke, "decompose_level1", "hecke.decompose_level1")
    for fname in ("hauptmodul", "e2t", "phi_t", "beta_stream", "decompose_gamma0"):
        _patch(tracer, gamma0, fname, "gamma0." + fname)

    # cache: bytes are file sizes, rows are table entries
    def after_load(args, kwargs, out):
        if out is None:
            add("cache.load.misses")
            return
        cache_dir, kind = args[0], args[1]
        add("cache.load.rows", len(out[0]))
        add("cache.load.bytes", _file_size(os.path.join(cache_dir, kind.filename())))

    def after_store(args, kwargs, path):
        values = args[2] if len(args) > 2 else kwargs["values"]
        add("cache.store.rows", len(values))
        add("cache.store.bytes", _file_size(path))

    _patch(tracer, cache, "scan", "cache.scan")
    _patch(tracer, cache, "load", "cache.load", after_load)
    _patch(tracer, cache, "store", "cache.store", after_store)

    # verifier: one span per registry name, over task expansion and thunks
    registry = getattr(verifier, "REGISTRY", {})
    for check, expand in list(registry.items()):
        registry[check] = _traced_expansion(tracer, "verifier.check." + check, expand)


def _traced_expansion(tracer, name, expand):
    def run_thunk(thunk):
        return thunk()

    timed_expand = tracer.wrap(expand, name)
    timed_thunk = tracer.wrap(run_thunk, name)

    @functools.wraps(expand)
    def call(opts):
        return [functools.partial(timed_thunk, thunk) for thunk in timed_expand(opts)]

    return call


def main(argv):
    out_path, sptlab_args = argv[0], argv[1:]
    t_import = time.perf_counter()
    import sptlab.cli

    import_s = time.perf_counter() - t_import
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap(sptlab.cli.main, "cli.main")
    try:
        rc = run(sptlab_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"t0": T0, "import_s": import_s, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
