"""In-memory spans around the public calls the campaign layer makes.

A traced run swaps the names that ``ris_scma.campaign`` (and the cached
optimizer's workspace builder in ``ris_scma.optimizer``) look up at call time
for wrappers that record (name, start, end, parent) spans and a few counts,
then restores them.  Nothing under ``src/`` is edited, and the wrapped
functions return the same objects, so the result bytes cannot change.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TRACED = {
    "ris_scma.campaign": ("draw_link_channels", "stack_realizations",
                          "trial_seed", "build_factor_graph", "ao_optimize",
                          "lc_ao_optimize", "received_snr", "no_ris_snr",
                          "blind_phases"),
    "ris_scma.optimizer": ("build_lc_workspace",),
}


def _count_draw(tracer, result, *args, **kwargs):
    tracer.counts["channel.bytes_drawn"] += (
        result.direct.nbytes + result.ris_to_bs.nbytes + result.user_to_ris.nbytes)


def _count_seed(tracer, result, *args, **kwargs):
    tracer.seeds.add(result)


def _count_ao(tracer, result, ch, alphabet, iterations, *args, **kwargs):
    tracer.counts["optimizer.ao_candidate_evals"] += (
        ch.num_ores * ch.num_elements * alphabet.size * iterations)


def _count_workspace(tracer, result, ch, *args, **kwargs):
    # Computed size of the (R, N, N) complex128 coupling tensor.
    tracer.counts["optimizer.lc_workspace_bytes"] += (
        ch.num_ores * ch.num_elements**2 * 16)


OBSERVERS = {
    "draw_link_channels": _count_draw,
    "trial_seed": _count_seed,
    "ao_optimize": _count_ao,
    "build_lc_workspace": _count_workspace,
}


class Tracer:
    """Spans of one traced run, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self.seeds = set()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, result, *args, **kwargs)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"run": self.run_id, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer times and counts from the recorded spans."""
        busy = defaultdict(float)
        calls = Counter()
        for name, start, end, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
        [root] = [i for i, span in enumerate(self.spans) if span[0] == "run_campaign"]
        children = sum(end - start for _, start, end, parent in self.spans
                       if parent == root)
        root_s = self.spans[root][2] - self.spans[root][1]
        draws = calls["draw_link_channels"]
        return {
            "optimizer.ao_s": busy["ao_optimize"],
            "optimizer.ao_calls": calls["ao_optimize"],
            "optimizer.ao_candidate_evals": self.counts["optimizer.ao_candidate_evals"],
            "optimizer.lc_ao_s": busy["lc_ao_optimize"],
            "optimizer.lc_workspace_s": busy["build_lc_workspace"],
            "optimizer.lc_workspace_bytes": self.counts["optimizer.lc_workspace_bytes"],
            "optimizer.snr_eval_s": busy["received_snr"] + busy["no_ris_snr"],
            "channel.draw_s": busy["draw_link_channels"],
            "channel.draw_calls": draws,
            "channel.stack_s": busy["stack_realizations"],
            "channel.bytes_drawn": self.counts["channel.bytes_drawn"],
            "campaign.seed_s": busy["trial_seed"],
            "campaign.unique_draw_ratio": len(self.seeds) / draws if draws else 0.0,
            "campaign.self_s": root_s - children,
            "campaign.blocks": calls["stack_realizations"],
            "factor_graph.build_s": busy["build_factor_graph"],
            "factor_graph.build_calls": calls["build_factor_graph"],
            "config.parse_s": busy["parse_config"],
            "writers.write_s": busy["write_results"],
        }


@contextmanager
def traced_library(tracer: Tracer):
    """Route the campaign layer's calls through ``tracer`` while active."""
    saved = []
    try:
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
