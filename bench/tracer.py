"""In-memory spans and counters around the public names of ``ncsim``.

The wrappers replace names where their callers look them up (a module
attribute or a class attribute), so the program itself is unchanged.
A name that a later refactor removes is reported as absent instead of
failing the run.  Spans stay in memory; ``run.py`` folds them after
each operation, outside its timed region.

Process-pool workers forked during ``compare`` inherit the wrappers.
Each worker writes what it recorded for one cell to a JSON file in
``cell_dir`` when the cell's ``run_scenario`` returns.
"""

import dataclasses
import importlib
import json
import os
import pickle
from collections import Counter
from pathlib import Path
from time import perf_counter

from core import PLAN, fold_spans

# (span name, module, attribute path) of every timed wrapper.
SPANNED = (
    ("runtime.integrate_interval", "ncsim.runtime", "integrate_interval"),
    ("predictor.predict_trajectory", "ncsim.runtime", "predict_trajectory"),
    ("controller.sontag_input", "ncsim.runtime", "sontag_input"),
    ("runtime.write_records_csv", "ncsim.cli", "write_records_csv"),
    ("losses.sample_reception", "ncsim.losses", "LossModel.sample_reception"),
    ("scenario.scenario_from_dict", "ncsim.cli", "scenario_from_dict"),
    ("scenario.resolved_json", "ncsim.cli", "resolved_json"),
    ("scenario.apply_overrides", "ncsim.cli", "apply_overrides"),
    ("runtime.compare_strategies", "ncsim.cli", "compare_strategies"),
    ("runtime.run_scenario", "ncsim.runtime", "run_scenario"),
)
# Counted without spans, and only in the untimed counting operation:
# they run ~150k times per operation, and a wrapper would double it.
COUNTED = (
    ("plant.check_state_calls", "ncsim.plant", "SystemDynamics.check_state"),
    ("plant.build_dynamics", "ncsim.scenario", "Scenario.build_dynamics"),
)
CELL_SPAN = "runtime.run_scenario"


def _resolve(module_name: str, path: str):
    """Return (owner, attribute) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans, call counters and the reception/plan event stream of one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index)
        self.stack = []
        self.counts = Counter()
        self.events = []
        self.write_bytes = 0
        self.task_pickle_bytes = 0
        self.absent = []
        self.cell_dir = None
        self._patches = []
        self._cells_written = 0
        self._owner_pid = os.getpid()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        """Drop everything recorded; the wrappers keep the same lists."""
        del self.spans[:]
        del self.stack[:]
        del self.events[:]
        self.counts.clear()
        self.write_bytes = 0
        self.task_pickle_bytes = 0

    # -- span recording --------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._spanned(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        traced = self._spanned(name, fn)
        events = self.events
        if name == "losses.sample_reception":
            def wrapper(*args, **kwargs):
                bit = traced(*args, **kwargs)
                events.append(bit)
                return bit
        elif name == "predictor.predict_trajectory":
            def wrapper(*args, **kwargs):
                events.append(PLAN)
                return traced(*args, **kwargs)
        elif name == "runtime.write_records_csv":
            def wrapper(records, path, *args, **kwargs):
                traced(records, path, *args, **kwargs)
                self.write_bytes += os.path.getsize(path)
        elif name == "runtime.compare_strategies":
            def wrapper(scenario, *args, **kwargs):
                strategy = (kwargs.get("strategies") or scenario.strategies)[0]
                # The task tuple runtime.compare_strategies sends to a worker.
                self.task_pickle_bytes = len(pickle.dumps((scenario, strategy, 0)))
                return traced(scenario, *args, **kwargs)
        elif name == CELL_SPAN:
            def wrapper(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    if os.getpid() != self._owner_pid:
                        self._write_cell()
        else:
            wrapper = traced
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        if name == "plant.build_dynamics":
            def build_dynamics(*args, **kwargs):
                dyn = fn(*args, **kwargs)
                return dataclasses.replace(
                    dyn,
                    drift=self._counted("plant.drift_calls", dyn.drift),
                    input_gain=self._counted("plant.input_gain_calls", dyn.input_gain),
                )
            return build_dynamics

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / remove --------------------------------------------------

    def install(self, counting: bool = False) -> None:
        """Wrap every name in SPANNED, and with ``counting`` those in COUNTED too."""
        tables = ((SPANNED, self._wrap), (COUNTED, self._counted)) if counting else ((SPANNED, self._wrap),)
        self.absent = []
        for table, make in tables:
            for name, module_name, path in table:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                owner, attr = found
                self._patches.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, make(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # it was inherited from a base class
            else:
                setattr(owner, attr, original)

    # -- pool workers --------------------------------------------------------

    def snapshot(self) -> dict:
        """What this process recorded since the last reset, as plain data.

        Call it only when no span is open.
        """
        return {
            "folded": fold_spans(self.spans),
            "cell_s": [end - start for name, start, end, _ in self.spans if name == CELL_SPAN],
            "counts": dict(self.counts),
            "events": list(self.events),
            "write_bytes": self.write_bytes,
        }

    def _write_cell(self) -> None:
        if self.cell_dir is None:
            return
        self._cells_written += 1
        path = Path(self.cell_dir) / f"{os.getpid()}-{self._cells_written}.json"
        path.write_text(json.dumps(self.snapshot()))
        self.reset()
