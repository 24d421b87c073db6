"""Per-layer tracing of offloadsim from outside the package.

``LayerTrace.install`` (or entering it as a context manager) replaces every
public function of the traced modules with a timing wrapper, under each name
a module looks the function up by (so
``offloadsim.partition.offload_energy`` and ``offloadsim.string_pull.
effective_tunnel`` are wrapped where they are called), plus the
``CpuIdlingProfile.capacity_at`` method. ``uninstall`` puts the originals
back. The untraced benchmark passes never install anything.

Each wrapper records one span: calls and inclusive time per function, calls
per (calling module, function) pair, and self time per layer, which is the
span's duration minus the time of the spans it encloses. A call that enters a
layer from another layer is an *entry* into that layer.
"""
from __future__ import annotations

import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("cpu_profile", "energy", "tunnel", "string_pull", "partition", "sim_harness")
TUNNEL_FAMILIES = ("effective", "proportional", "lazy_first", "full_utilization", "bursty_effective")


class LayerTrace:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"offloadsim.{name}") for name in LAYERS}
        self.calls = Counter()  # function key -> calls
        self.seconds = Counter()  # function key -> inclusive seconds
        self.entries = Counter()  # function key -> calls entering its layer
        self.entry_seconds = Counter()
        self.site_calls = Counter()  # (calling module, function key) -> calls
        self.self_seconds = Counter()  # layer -> self seconds
        self.top_seconds = 0.0  # time inside outermost spans
        self.tunnel_vertices = 0  # summed over tunnel builds that enter the layer
        self.methods = Counter()  # PartitionResult.method of each optimize_partition
        self._depth = Counter()
        self._stack = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("trace already installed")
        public = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                # the module-level capacity_at forwards to the wrapped method
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name != "capacity_at"
                ):
                    public[obj] = f"{layer}.{name}"
        for site, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in public:
                    self._patch(mod, name, self._wrap(obj, public[obj], site))
        cls = self.modules["cpu_profile"].CpuIdlingProfile
        self._patch(cls, "capacity_at", self._wrap(cls.capacity_at, "cpu_profile.capacity_at", "cpu_profile"))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, key, site):
        layer, name = key.split(".", 1)
        is_build = layer == "tunnel" and name.endswith("_tunnel")
        is_split = key == "partition.optimize_partition"
        depth = self._depth
        stack = self._stack
        site_key = (site, key)

        def traced(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [0.0]  # seconds spent in enclosed spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[layer] -= 1
                self.self_seconds[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_seconds += dt
                self.calls[key] += 1
                self.seconds[key] += dt
                self.site_calls[site_key] += 1
                if outer:
                    self.entries[key] += 1
                    self.entry_seconds[key] += dt
            if outer and is_build:
                self.tunnel_vertices += len(out.times)
            if is_split:
                self.methods[out.method] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    # -- derived metrics ----------------------------------------------------

    def metrics(self, points: int) -> dict:
        """Per-layer figures for ``points`` trial-points (or solves)."""
        calls, seconds = self.calls, self.seconds
        top = self.top_seconds or 1.0

        def per_point(key):
            return calls[key] / points

        def us_per_call(keys):
            n = sum(calls[k] for k in keys)
            return 1e6 * sum(seconds[k] for k in keys) / n if n else 0.0

        builds = [k for k in self.entries if k.startswith("tunnel.") and k.endswith("_tunnel")]
        n_builds = sum(self.entries[k] for k in builds)
        solves = ("partition.optimize_partition", "partition.optimize_ratio")
        n_solves = sum(calls[k] for k in solves)
        n_split = calls["partition.optimize_partition"]
        evals = (
            self.site_calls[("partition", "string_pull.offload_energy")]
            + self.site_calls[("partition", "string_pull.bursty_offload_energy")]
        )
        m = {
            "cpu_profile.build_profile.calls_per_point": per_point("cpu_profile.build_profile"),
            "cpu_profile.build_profile.us_per_call": us_per_call(["cpu_profile.build_profile"]),
            "cpu_profile.capacity_at.calls_per_point": per_point("cpu_profile.capacity_at"),
            "cpu_profile.capacity_at.us_per_call": us_per_call(["cpu_profile.capacity_at"]),
            "cpu_profile.merge_events.calls_per_point": per_point("cpu_profile.merge_events"),
            "cpu_profile.merge_events.time_share": seconds["cpu_profile.merge_events"] / top,
            "energy.schedule_energy.calls_per_point": per_point("energy.schedule_energy"),
            "energy.schedule_energy.us_per_call": us_per_call(["energy.schedule_energy"]),
            "tunnel.build.calls_per_point": n_builds / points,
            "tunnel.build.us_per_call": (
                1e6 * sum(self.entry_seconds[k] for k in builds) / n_builds if n_builds else 0.0
            ),
        }
        for family in TUNNEL_FAMILIES:
            m[f"tunnel.{family}.calls_per_point"] = self.entries[f"tunnel.{family}_tunnel"] / points
        m["tunnel.vertices_mean"] = self.tunnel_vertices / n_builds if n_builds else 0.0
        m.update({
            "string_pull.pull_string.calls_per_point": per_point("string_pull.pull_string"),
            "string_pull.pull_string.us_per_call": us_per_call(["string_pull.pull_string"]),
            "string_pull.floor_following_schedule.calls_per_point": per_point(
                "string_pull.floor_following_schedule"
            ),
            "partition.optimize_partition.calls_per_point": per_point("partition.optimize_partition"),
            "partition.optimize_ratio.calls_per_point": per_point("partition.optimize_ratio"),
            "partition.solve.us_per_call": us_per_call(solves),
            "partition.evals_per_solve": evals / n_solves if n_solves else 0.0,
        })
        for method in ("pinned", "shortcut", "search"):
            m[f"partition.method.{method}_frac"] = self.methods[method] / n_split if n_split else 0.0
        m["sim_harness.draw_trial.time_share"] = seconds["sim_harness.draw_trial"] / top
        for layer in LAYERS:
            m[f"{layer}.self_share"] = self.self_seconds[layer] / top
        return m

    def counters(self) -> dict:
        """Every count the trace keeps; identical inputs give identical counts."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "entries": dict(sorted(self.entries.items())),
            "site_calls": {f"{s}->{k}": n for (s, k), n in sorted(self.site_calls.items())},
            "tunnel_vertices": self.tunnel_vertices,
            "methods": dict(sorted(self.methods.items())),
        }
