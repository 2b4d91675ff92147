"""Span tracing around the public functions of each raclab layer.

A :class:`Tracer` replaces, for the duration of a traced section, every
module attribute in the ``raclab`` package that is one of the functions in
:data:`TARGETS` with a wrapper.  Modules bind their callees with
``from .channel import ...``, so the same function object can sit in several
modules (``queueing.draw_channels``, ``protocols.first_decodable_round``,
``montecarlo.batch_first_decodable_round`` ...); every binding is replaced,
not only the one in the defining module.  A target that no longer exists is
skipped and its metrics read zero.

Each wrapped call records a span (name, start, end, parent span, request id)
in compact arrays kept in memory; :meth:`Tracer.save` writes them out when
the run ends.  Self time is the span's duration minus the time its child
spans cover.  The work counters are read from arguments and return values
by small observers; the time they take, with the wrapper's own bookkeeping,
is charged to no layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, public function) pairs that get a span, in report order.
TARGETS = (
    ("channel", "draw_channels"),
    ("channel", "first_decodable_round"),
    ("channel", "single_user_outage"),
    ("channel", "batch_first_decodable_round"),
    ("protocols", "run_epoch"),
    ("queueing", "simulate_random_arrivals"),
    ("queueing", "analytic_delay"),
    ("queueing", "solve_transmission_probability"),
    ("montecarlo", "system_error_probability"),
    ("montecarlo", "fully_loaded_throughput"),
    ("montecarlo", "estimate_beta"),
    ("montecarlo", "gta_collision_stats"),
    ("montecarlo", "renewal_prediction"),
    ("dmt", "gta_optimal_pt"),
    ("dmt", "gta_recursion"),
    ("dmt", "stability_region"),
)

# Per-function metrics: suffix -> unit.
FUNCTION_METRICS = (
    ("calls", "count"),
    ("self_s", "s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("tail_pct", "%"),
)

# Work counters and ratios: name -> unit.
COUNTER_METRICS = (
    ("channel.draws_used_share", "share"),
    ("channel.batch_first_decodable_round.rx1.trials", "count"),
    ("channel.batch_first_decodable_round.rx1.trials_per_s", "trials/s"),
    ("channel.batch_first_decodable_round.rxN.trials", "count"),
    ("channel.batch_first_decodable_round.rxN.trials_per_s", "trials/s"),
    ("protocols.epochs.k0", "count"),
    ("protocols.epochs.k1", "count"),
    ("protocols.epochs.k2", "count"),
    ("protocols.gta.pruned", "count"),
    ("protocols.gta.delivered_share", "share"),
    ("protocols.irarq.rounds_mean", "rounds"),
    ("protocols.irarq.ok_share", "share"),
    ("queueing.slots", "count"),
    ("queueing.arrivals", "count"),
    ("queueing.delivered", "count"),
    ("queueing.nonidle_share", "share"),
    ("montecarlo.system_error_probability.epochs", "count"),
    ("montecarlo.fully_loaded_throughput.epochs", "count"),
    ("montecarlo.estimate_beta.trials", "count"),
    ("montecarlo.gta_collision_stats.epochs", "count"),
    ("trace.self_share", "share"),
    ("trace_overhead_share", "share"),
)

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail percentile


def per_layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for layer, fn in TARGETS:
        out.extend((f"{layer}.{fn}.{suffix}", unit) for suffix, unit in FUNCTION_METRICS)
    out.extend(COUNTER_METRICS)
    return out


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# ---------------------------------------------------------------------------
# observers: read work counters from a call's arguments and result
# ---------------------------------------------------------------------------

def _obs_draw_channels(c, args, kwargs, result, dt):
    c["channel.gains_drawn"] += result.gains.shape[0]


def _obs_batch(c, args, kwargs, result, dt):
    gains = _arg(args, kwargs, 0, "gains")
    branch = "rx1" if gains.shape[2] == 1 else "rxN"
    c[f"batch.{branch}.trials"] += gains.shape[0]
    c[f"batch.{branch}.s"] += dt


_EPOCH_KEYS = ("epochs.k0", "epochs.k1", "epochs.k2")


def _obs_run_epoch(c, args, kwargs, result, dt):
    protocol = _arg(args, kwargs, 0, "protocol")
    ctx = _arg(args, kwargs, 1, "ctx")
    k = len(ctx.participants)
    c[_EPOCH_KEYS[min(k, 2)]] += 1
    if ctx.channels is not None:
        c["channel.gains_used"] += k
    if protocol == "gta" and k:
        c["gta.pruned"] += sum(result.pruned.values())
        c["gta.delivered"] += sum(result.delivered.values())
    elif protocol == "irarq" and k:
        c["irarq.epochs"] += 1
        c["irarq.rounds"] += result.length
        c["irarq.packets"] += k
        c["irarq.ok"] += sum(result.decoded_ok.values())


def _obs_simulate(c, args, kwargs, result, dt):
    c["queueing.slots"] += result.horizon_slots
    c["queueing.arrivals"] += result.arrivals
    c["queueing.delivered"] += result.delivered
    c["queueing.nonidle_epochs"] += result.nonidle_epochs


def _obs_field(key, field):
    def observe(c, args, kwargs, result, dt):
        c[key] += getattr(result, field)
    return observe


def _obs_gta_stats(c, args, kwargs, result, dt):
    c["montecarlo.gta_collision_stats.epochs"] += _arg(args, kwargs, 1, "epochs")


OBSERVERS = {
    "channel.draw_channels": _obs_draw_channels,
    "channel.batch_first_decodable_round": _obs_batch,
    "protocols.run_epoch": _obs_run_epoch,
    "queueing.simulate_random_arrivals": _obs_simulate,
    "montecarlo.system_error_probability": _obs_field(
        "montecarlo.system_error_probability.epochs", "trials"),
    "montecarlo.fully_loaded_throughput": _obs_field(
        "montecarlo.fully_loaded_throughput.epochs", "epochs"),
    "montecarlo.estimate_beta": _obs_field("montecarlo.estimate_beta.trials", "trials"),
    "montecarlo.gta_collision_stats": _obs_gta_stats,
}


class Tracer:
    """Spans and counters for one benchmark run; single-threaded use only."""

    SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request")

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = [f"{layer}.{fn}" for layer, fn in TARGETS]
        self._open: list[tuple] = []     # SPAN_FIELDS per span, in order of span end
        self._closed: list[np.ndarray] = []
        self.self_s = [0.0] * len(TARGETS)
        self.counters = defaultdict(float)
        self.observer_errors = 0
        self.request = -1                # -1: set-up; repetition index otherwise
        self._next_id = 0
        self._stack: list[list] = []     # [span id, child-covered seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target found in the loaded raclab modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "raclab" or n.startswith("raclab."))]
        for nid, (layer, fn_name) in enumerate(TARGETS):
            home = sys.modules.get(f"raclab.{layer}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                continue
            wrapper = self._wrap(nid, original, OBSERVERS.get(self.names[nid]))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _pack(self) -> None:
        # millions of span tuples would slow every garbage collection after them
        if self._open:
            self._closed.append(np.array(self._open, dtype=np.float64))
            self._open.clear()

    def span_table(self) -> np.ndarray:
        """All spans so far as an (n, len(SPAN_FIELDS)) array."""
        self._pack()
        if not self._closed:
            return np.zeros((0, len(self.SPAN_FIELDS)))
        return np.concatenate(self._closed)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._pack()

    def _wrap(self, nid: int, fn, observe):
        clock = time.perf_counter
        stack = self._stack
        record = self._open.append
        self_s = self.self_s
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record((sid, nid, t0, t1, parent, tracer.request))
                self_s[nid] += (t1 - t0) - frame[1]
            if observe is not None:
                try:
                    observe(counters, args, kwargs, result, t1 - t0)
                except (AttributeError, IndexError, KeyError, TypeError):
                    tracer.observer_errors += 1
            if stack:
                # the parent is charged neither this span nor its bookkeeping
                stack[-1][1] += clock() - t0
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def metrics(self, traced_wall_s: float, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        table = self.span_table()
        names = table[:, 1].astype(np.int64)
        dur = table[:, 3] - table[:, 2]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            d = dur[names == nid]
            pct = tail_percentile(d.size)
            out[f"{name}.calls"] = int(d.size)
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.p50_us"] = float(np.median(d) * 1e6) if d.size else 0.0
            out[f"{name}.tail_us"] = float(np.percentile(d, pct) * 1e6) if pct else 0.0
            out[f"{name}.tail_pct"] = pct or 0.0
        c = self.counters
        out["channel.draws_used_share"] = _share(c["channel.gains_used"], c["channel.gains_drawn"])
        for branch in ("rx1", "rxN"):
            key = f"channel.batch_first_decodable_round.{branch}"
            out[f"{key}.trials"] = int(c[f"batch.{branch}.trials"])
            out[f"{key}.trials_per_s"] = _share(c[f"batch.{branch}.trials"], c[f"batch.{branch}.s"])
        epochs = [int(c[key]) for key in _EPOCH_KEYS]
        for k in range(3):
            out[f"protocols.epochs.k{k}"] = epochs[k]
        out["protocols.gta.pruned"] = int(c["gta.pruned"])
        out["protocols.gta.delivered_share"] = _share(
            c["gta.delivered"], c["gta.delivered"] + c["gta.pruned"])
        out["protocols.irarq.rounds_mean"] = _share(c["irarq.rounds"], c["irarq.epochs"])
        out["protocols.irarq.ok_share"] = _share(c["irarq.ok"], c["irarq.packets"])
        for key in ("slots", "arrivals", "delivered"):
            out[f"queueing.{key}"] = int(c[f"queueing.{key}"])
        out["queueing.nonidle_share"] = _share(c["queueing.nonidle_epochs"], sum(epochs))
        for key in ("system_error_probability.epochs", "fully_loaded_throughput.epochs",
                    "estimate_beta.trials", "gta_collision_stats.epochs"):
            out[f"montecarlo.{key}"] = int(c[f"montecarlo.{key}"])
        out["trace.self_share"] = _share(sum(self.self_s), traced_wall_s)
        out["trace_overhead_share"] = overhead_share
        return out

    def save(self, path) -> None:
        """Write every span of the run to one compressed .npz file."""
        table = self.span_table()
        table = table[np.argsort(table[:, 0], kind="stable")]
        columns = {f: table[:, i] for i, f in enumerate(self.SPAN_FIELDS)}
        for f in ("id", "name", "parent", "request"):
            columns[f] = columns[f].astype(np.int64)
        np.savez_compressed(path, run_id=np.array(self.run_id), names=np.array(self.names),
                            **columns)


def _share(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
