"""Outside-in per-layer tracing of one CLI run.

Hooks replace names where the calling module imported them (for example
``process.sample_path``), so nothing under ``src/`` changes.  Replicate-level
and coarser calls record spans in memory; per-path calls (path sampling,
path evaluation, stream derivation) only add to counters and busy time.
A layer's self time is its call's duration minus the time of the hooked
calls it made.  A hook whose target no longer exists marks its metric as
missing (reported as ``null``) instead of failing the run.
"""

import functools
import time

import numpy as np

# Per-layer metrics the trace produces, with units.  ``cli.output_bytes``,
# ``cli.outputs_identical`` and ``trace.overhead_frac`` are added by run.py.
UNITS = {
    "stats.energy.calls": "count",
    "stats.energy.busy_s": "s",
    "stats.energy.rows": "count",
    "stats.energy.unique_rows": "count",
    "stats.ks.calls": "count",
    "stats.ks.busy_s": "s",
    "process.replicate.calls": "count",
    "process.replicate.self_s": "s",
    "process.replicate_us.p50": "us",
    "process.replicate_us.p99": "us",
    "process.fdd_sample.busy_s": "s",
    "process.paths_per_point": "ratio",
    "process.c_used.mean": "time",
    "process.c_used.max": "time",
    "kernels.sample_path.calls": "count",
    "kernels.sample_path.busy_s": "s",
    "kernels.path_values.calls": "count",
    "kernels.path_values.busy_s": "s",
    "renewal.simulate_forward.calls": "count",
    "renewal.simulate_forward.busy_s": "s",
    "renewal.window.calls": "count",
    "renewal.window.busy_s": "s",
    "renewal.window_extend.calls": "count",
    "renewal.window_extend.busy_s": "s",
    "renewal.epochs_drawn": "count",
    "renewal.window_points": "count",
    "streams.stream.calls": "count",
    "streams.stream.busy_s": "s",
    "diagnostics.intensity.busy_s": "s",
    "diagnostics.overshoot.busy_s": "s",
    "diagnostics.shift.busy_s": "s",
    "diagnostics.laplace.busy_s": "s",
    "diagnostics.precheck.busy_s": "s",
    "diagnostics.self_s": "s",
    "config.load_config.busy_s": "s",
    "cli.self_s": "s",
}


# Metrics fed by a hook other than the one their name starts with.
SOURCES = {
    "process.replicate_us.p50": "process.replicate",
    "process.replicate_us.p99": "process.replicate",
    "process.paths_per_point": "kernels.sample_path",
    "process.c_used.mean": "process.replicate",
    "process.c_used.max": "process.replicate",
    "renewal.epochs_drawn": "renewal.simulate_forward",
    "renewal.window_points": "renewal.window",
    "cli.self_s": "cli.main",
}


class Tracer:
    def __init__(self):
        self.stack = []  # per active hooked call: [seconds in hooked callees, enclosing span id]
        self.calls = {}
        self.busy = {}
        self.self_s = {}
        self.counts = {}
        self.replicate_s = []
        self.c_used = []
        self.spans = []  # [span_id, parent_span_id, name, start, end]
        self.missing = set()
        self.last_span = 0

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn, name, self_key=None, span=False, after=None):
        """Time ``fn`` as ``name``, charging its self time to ``self_key``.

        ``after(result, args, seconds)`` runs outside the timed interval.
        """
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            parent_span = parent[1] if parent is not None else None
            if span:
                tracer.last_span += 1
            span_id = tracer.last_span if span else parent_span
            frame = [0.0, span_id]
            tracer.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[0] += elapsed
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.busy[name] = tracer.busy.get(name, 0.0) + elapsed
                if self_key is not None:
                    tracer.self_s[self_key] = tracer.self_s.get(self_key, 0.0) + elapsed - frame[0]
                if span:
                    tracer.spans.append([span_id, parent_span, name, start, end])
            if after is not None:
                after(result, args, elapsed)
            return result

        return hooked

    def hook(self, module, attr, name, **options):
        """Replace ``module.attr`` by its timed version, or record it as missing."""
        if not hasattr(module, attr):
            self.missing.add(name)
            return
        setattr(module, attr, self.wrap(getattr(module, attr), name, **options))

    def install(self):
        """Hook every layer boundary of an imported ``renewal_immigration``."""
        from renewal_immigration import cli, diagnostics, kernels, process

        def forward(process_side):
            def after(realization, args, elapsed):
                drawn = len(realization.epochs) + 1  # the overshooter too
                self.add("renewal.epochs_drawn", drawn)
                if process_side:
                    self.add("process.points", drawn)

            return after

        def replicate(result, args, elapsed):
            self.replicate_s.append(elapsed)
            if result.c_used is not None:
                self.c_used.append(result.c_used)

        def energy(result, args, elapsed):
            rows = np.vstack([np.asarray(a, dtype=float).reshape(len(a), -1) for a in args[:2]])
            self.add("stats.energy.rows", len(rows))
            self.add("stats.energy.unique_rows", len(np.unique(rows, axis=0)))

        # process: the per-replicate evaluators and what they call.
        for attr in ("eval_transient", "eval_stationary"):
            self.hook(process, attr, "process.replicate", self_key="process.replicate",
                      span=True, after=replicate)
        self.hook(process, "sample_path", "kernels.sample_path",
                  after=lambda result, args, elapsed: self.add("process.paths"))
        self.hook(process, "simulate_forward", "renewal.simulate_forward", after=forward(True))
        self.hook(process, "stream", "streams.stream")
        if hasattr(process, "StationaryWindowSampler"):
            process.StationaryWindowSampler = self._sampler_class(process.StationaryWindowSampler)
        else:
            self.missing.update(["renewal.window", "renewal.window_extend"])

        # diagnostics: fdd sampling, statistics and point-process primitives.
        self.hook(diagnostics, "fdd_sample", "process.fdd_sample", span=True)
        self.hook(diagnostics, "energy_distance", "stats.energy", span=True, after=energy)
        self.hook(diagnostics, "ks_two_sample", "stats.ks", span=True)
        self.hook(diagnostics, "ks_one_sample", "stats.ks", span=True)
        self.hook(diagnostics, "build_stationary_window", "renewal.window",
                  after=lambda window, args, elapsed: self.add("renewal.window_points", len(window.points)))
        self.hook(diagnostics, "simulate_forward", "renewal.simulate_forward", after=forward(False))
        self.hook(diagnostics, "sample_path", "kernels.sample_path")
        self.hook(diagnostics, "_hypothesis_warnings", "diagnostics.precheck",
                  self_key="diagnostics", span=True)

        # cli: the entry points and the diagnostics each command calls.
        self.hook(cli, "main", "cli.main", self_key="cli", span=True)
        commands = getattr(cli, "_COMMANDS", {})
        if not commands:
            self.missing.add("cli.command")
        for command, fn in commands.items():
            commands[command] = self.wrap(fn, "cli.command", self_key="cli", span=True)
        self.hook(cli, "load_config", "config.load_config", self_key="config", span=True)
        self.hook(cli, "fdd_sample", "process.fdd_sample", span=True)
        self.hook(cli, "convergence_test", "diagnostics.converge", self_key="diagnostics", span=True)
        for attr, name in [
            ("intensity_check", "diagnostics.intensity"),
            ("overshoot_check", "diagnostics.overshoot"),
            ("shift_invariance_check", "diagnostics.shift"),
            ("laplace_functional_compare", "diagnostics.laplace"),
        ]:
            self.hook(cli, attr, name, self_key="diagnostics", span=True)

        # kernels: the ``values`` method of every path class.
        path_classes = [
            cls for attr, cls in vars(kernels).items()
            if attr.endswith("Path") and isinstance(cls, type) and "values" in vars(cls)
        ]
        if not path_classes:
            self.missing.add("kernels.path_values")
        for cls in path_classes:
            cls.values = self.wrap(cls.values, "kernels.path_values")

    def _sampler_class(self, base):
        """Subclass of the window sampler that times and counts its draws."""

        def points(new_points):
            self.add("renewal.window_points", new_points)
            self.add("process.points", new_points)

        def initial(window, args, elapsed):
            points(len(window.points))

        def extend(window, args, elapsed):  # args: (sampler, old window, c)
            points(len(window.points) - len(args[1].points))

        return type(base.__name__, (base,), {
            # The constructor draws the straddling interval: window work too.
            "__init__": self.wrap(base.__init__, "renewal.window_init"),
            "initial": self.wrap(base.initial, "renewal.window", after=initial),
            "extend": self.wrap(base.extend, "renewal.window_extend", after=extend),
        })

    def metrics(self):
        """Per-layer values by metric name; ``None`` where a hook is missing."""
        calls = self.calls.get
        busy = self.busy.get
        count = self.counts.get
        reps_us = np.array(self.replicate_s) * 1e6
        points = count("process.points", 0)
        values = {
            "stats.energy.calls": calls("stats.energy", 0),
            "stats.energy.busy_s": busy("stats.energy", 0.0),
            "stats.energy.rows": count("stats.energy.rows", 0),
            "stats.energy.unique_rows": count("stats.energy.unique_rows", 0),
            "stats.ks.calls": calls("stats.ks", 0),
            "stats.ks.busy_s": busy("stats.ks", 0.0),
            "process.replicate.calls": calls("process.replicate", 0),
            "process.replicate.self_s": self.self_s.get("process.replicate", 0.0),
            "process.replicate_us.p50": float(np.percentile(reps_us, 50)) if len(reps_us) else 0.0,
            "process.replicate_us.p99": float(np.percentile(reps_us, 99)) if len(reps_us) else 0.0,
            "process.fdd_sample.busy_s": busy("process.fdd_sample", 0.0),
            "process.paths_per_point": count("process.paths", 0) / points if points else 0.0,
            "process.c_used.mean": float(np.mean(self.c_used)) if self.c_used else 0.0,
            "process.c_used.max": float(np.max(self.c_used)) if self.c_used else 0.0,
            "kernels.sample_path.calls": calls("kernels.sample_path", 0),
            "kernels.sample_path.busy_s": busy("kernels.sample_path", 0.0),
            "kernels.path_values.calls": calls("kernels.path_values", 0),
            "kernels.path_values.busy_s": busy("kernels.path_values", 0.0),
            "renewal.simulate_forward.calls": calls("renewal.simulate_forward", 0),
            "renewal.simulate_forward.busy_s": busy("renewal.simulate_forward", 0.0),
            "renewal.window.calls": calls("renewal.window", 0),
            "renewal.window.busy_s": busy("renewal.window", 0.0) + busy("renewal.window_init", 0.0),
            "renewal.window_extend.calls": calls("renewal.window_extend", 0),
            "renewal.window_extend.busy_s": busy("renewal.window_extend", 0.0),
            "renewal.epochs_drawn": count("renewal.epochs_drawn", 0),
            "renewal.window_points": count("renewal.window_points", 0),
            "streams.stream.calls": calls("streams.stream", 0),
            "streams.stream.busy_s": busy("streams.stream", 0.0),
            "diagnostics.intensity.busy_s": busy("diagnostics.intensity", 0.0),
            "diagnostics.overshoot.busy_s": busy("diagnostics.overshoot", 0.0),
            "diagnostics.shift.busy_s": busy("diagnostics.shift", 0.0),
            "diagnostics.laplace.busy_s": busy("diagnostics.laplace", 0.0),
            "diagnostics.precheck.busy_s": busy("diagnostics.precheck", 0.0),
            "diagnostics.self_s": self.self_s.get("diagnostics", 0.0),
            "config.load_config.busy_s": busy("config.load_config", 0.0),
            "cli.self_s": self.self_s.get("cli", 0.0),
        }
        for name in values:
            if SOURCES.get(name, name.rsplit(".", 1)[0]) in self.missing:
                values[name] = None
        return values

    def report(self):
        return {"metrics": self.metrics(), "missing": sorted(self.missing), "spans": self.spans}
